"""Error-channel, stabilizer, and transversality tests."""
import json
import math

import numpy as np
import pytest

from trajsense import discrim, qcore, qec, solver, trajset


def window_state():
    return solver.build_cyclic(4, 2, math.pi / 2).witness_state


# -------------------------------------------------------------- channel

@pytest.mark.parametrize("ts,theta", [
    (trajset.gen_cyclic(4, 2), math.pi / 2),
    (trajset.gen_symmetric(4, 2), 3 * math.pi / 4),
    (trajset.gen_symmetric(5, 2), 1.1),
    (trajset.gen_cyclic(6, 3), 0.4),
])
def test_channel_trace_preserving(ts, theta):
    """tr M = sum_i <psi|K_i^dag K_i|psi> = <psi|psi> for random states."""
    rs = np.random.default_rng(3)
    for _ in range(5):
        v = rs.normal(size=1 << ts.n) + 1j * rs.normal(size=1 << ts.n)
        rep = qec.kl_verify(qcore.from_vector(ts.n, v), ts, theta)
        assert rep.size == len(ts)
        assert abs(np.trace(rep.matrix) - 1.0) <= 1e-12


def test_kraus_diag_carries_weight():
    """On a basis state M_ii = |K_i(j)|^2 = 1/N: each Kraus operator has weight 1/N."""
    ts = trajset.gen_cyclic(4, 2)
    for j in range(16):
        basis_state = qcore.from_vector(4, np.eye(16)[j])
        np.testing.assert_allclose(np.diag(qec.kl_verify(basis_state, ts, 0.9).matrix),
                                   1 / 4, atol=1e-15)


def test_kl_matrix_matches_explicit_rotations():
    """M_ij = <psi|R(T_i)^dag R(T_j)|psi>/N with R built from 2x2 matrices by kron."""
    ts, theta = trajset.gen_cyclic(4, 2), 0.7
    rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    psi = qcore.from_vector(4, np.random.default_rng(4).normal(size=16) + 0.5j)
    outs = []
    for t in ts.members:
        full = np.eye(1)
        for q in range(1, 5):
            full = np.kron(full, rz if q in t.qubits else np.eye(2))
        outs.append(full @ psi.amps)
    want = np.array([[np.vdot(a, b) for b in outs] for a in outs]) / len(ts)
    np.testing.assert_allclose(qec.kl_verify(psi, ts, theta).matrix, want, atol=1e-14)


# ------------------------------------------------------------- kl_verify

def test_window_state_is_discriminating():
    rep = qec.kl_verify(window_state(), trajset.gen_cyclic(4, 2), math.pi / 2)
    assert rep.verdict == "discriminating code"
    assert rep.max_offdiag < 1e-12
    assert rep.max_diag_dev < 1e-12


def test_plus_product_is_recoverable_only():
    plus = qcore.from_vector(4, np.full(16, 0.25))
    rep = qec.kl_verify(plus, trajset.gen_cyclic(4, 2), math.pi / 2)
    assert rep.verdict == "KL-recoverable only"
    # adjacent windows overlap in one qubit; the two fresh qubits each
    # contribute cos(pi/4), and the 1/4 channel weight scales the entry
    assert rep.max_offdiag == pytest.approx(math.cos(math.pi / 4) ** 2 / 4, abs=1e-12)


def test_single_member_channel_trivially_discriminating():
    one = trajset.TrajectorySet(4, "custom", 2, (trajset.Trajectory((1, 2)),))
    plus = qcore.from_vector(4, np.full(16, 0.25))
    assert qec.kl_verify(plus, one, math.pi / 2).verdict == "discriminating code"


def test_unnormalized_state_flagged():
    bad = qcore.from_vector(4, np.full(16, 1.0), normalize=False)
    assert qec.kl_verify(bad, trajset.gen_cyclic(4, 2), math.pi / 2).verdict == "not a code state"


def test_kl_report_json():
    rep = qec.kl_verify(window_state(), trajset.gen_cyclic(4, 2), math.pi / 2)
    assert rep.verdict == "discriminating code"
    assert rep.size == 4
    assert rep.max_offdiag < 1e-12


@pytest.mark.parametrize("make_state,ts,theta", [
    (window_state, trajset.gen_cyclic(4, 2), math.pi / 2),
    (window_state, trajset.gen_cyclic(4, 2), 0.3),
    (lambda: qcore.from_vector(4, np.full(16, 0.25)), trajset.gen_cyclic(4, 2), math.pi / 2),
    (lambda: solver.solve_symmetric(4, 2, 3 * math.pi / 4).witness_state,
     trajset.gen_symmetric(4, 2), 3 * math.pi / 4),
    (lambda: qcore.make_ket(4, [("0101", 1), ("1010", 1j)]),
     trajset.gen_symmetric(4, 1), 0.8),
])
def test_kl_agrees_with_output_orthogonality(make_state, ts, theta):
    psi = make_state()
    kl = qec.kl_verify(psi, ts, theta).verdict == "discriminating code"
    assert kl == discrim.verify_ts(psi, ts, theta).is_ts


def test_kl_verify_refuses_above_the_dense_cap():
    """M is the dense N x N matrix: sym(12,6) has N^2 * 2^n = 924^2 * 2^12 > 2e9."""
    plus = qcore.from_vector(12, np.ones(1 << 12))
    with pytest.raises(ValueError, match=r"too large for the dense Gram check: "
                                         r"\|T\|\^2\*2\^n = 924\^2\*2\^12 = 3\.5e\+09 > 2e\+09"):
        qec.kl_verify(plus, trajset.gen_symmetric(12, 6), 0.9 * math.pi)


# ------------------------------------------------------------ stabilizers

def test_parse_pauli():
    assert qec.parse_pauli("-ZIZI") == (-1, "ZIZI")
    assert qec.parse_pauli("+XY") == (1, "XY")
    assert qec.parse_pauli("ZZ") == (1, "ZZ")
    for bad in ("", "-", "ZQ", "z", "Z1"):
        with pytest.raises(ValueError):
            qec.parse_pauli(bad)


def test_anticommuting_generators_rejected():
    with pytest.raises(ValueError, match="anticommute"):
        qec.StabilizerGroup(["XIII", "ZIII"])
    with pytest.raises(ValueError, match="anticommute"):
        qec.StabilizerGroup(["XXII", "ZIII"])


def test_minus_identity_rejected():
    with pytest.raises(ValueError, match="-I"):
        qec.StabilizerGroup(["ZIII", "-ZIII"])
    # a three-generator dependency multiplying to -I
    with pytest.raises(ValueError, match="-I"):
        qec.StabilizerGroup(["ZZII", "-IZZI", "ZIZI"])
    # the same dependency with consistent signs multiplies to +I: fine
    qec.StabilizerGroup(["ZZII", "IZZI", "ZIZI"])


def test_mixed_length_generators_rejected():
    with pytest.raises(ValueError):
        qec.StabilizerGroup(["ZZ", "ZIZ"])


def test_window_state_stabilized():
    rep = qec.stabilizer_check(qec.window_code_state(), qec.window_code_group())
    assert rep.all_plus_one
    assert max(rep.residuals.values()) < 1e-12
    assert rep.failing == ()


def test_sign_flip_fails_with_named_generator():
    rep = qec.stabilizer_check(qec.window_code_state(),
                               qec.StabilizerGroup(["ZIZI"]))
    assert not rep.all_plus_one
    assert rep.failing == ("ZIZI",)


def test_all_zeros_stabilized_by_z():
    zeros = qcore.make_ket(4, [("0000", 1)])
    grp = qec.StabilizerGroup(["ZIII", "IZII", "IIZI", "IIIZ"])
    assert qec.stabilizer_check(zeros, grp).all_plus_one


def test_stabilizer_check_length_mismatch():
    with pytest.raises(ValueError):
        qec.stabilizer_check(qec.window_code_state(), qec.StabilizerGroup(["ZZ"]))


def test_stabilizer_report_json():
    rep = qec.stabilizer_check(qec.window_code_state(), qec.window_code_group())
    assert rep.all_plus_one is True
    assert set(rep.residuals) == set(qec.window_code_group().generators)


def test_builder_state_matches_hand_entry():
    assert qcore.equal_up_to_phase(window_state(), qec.window_code_state())


def test_window_group_contains_y_products():
    # the product of -Z1Z3 and X1X3 is +Y1Y3 (ZX = iY on each of the two
    # qubits); the code state must sit in its +1 eigenspace too
    zz, xx = qec.StabilizerGroup(["-ZIZI", "XIXI"]).matrices()
    (yy,) = qec.StabilizerGroup(["YIYI"]).matrices()
    assert np.array_equal(zz @ xx, yy)
    rep = qec.stabilizer_check(qec.window_code_state(), qec.StabilizerGroup(["YIYI"]))
    assert rep.all_plus_one


# ---------------------------------------------------------- seven-qubit code

def test_css7_logical_states_structure():
    zero, one = qec.css7_logical_states()
    assert abs(np.vdot(zero.amps, one.amps)) < 1e-12
    assert np.linalg.norm(zero.amps) == pytest.approx(1.0, abs=1e-12)
    # logical zero: eight equal terms of Hamming weight 0 or 4
    support = np.nonzero(np.abs(zero.amps) > 1e-12)[0]
    assert len(support) == 8
    weights = {bin(int(j)).count("1") for j in support}
    assert weights == {0, 4}
    assert np.allclose(np.abs(zero.amps[support]), 1 / math.sqrt(8))
    # logical one is the bit-complement pattern
    support1 = np.nonzero(np.abs(one.amps) > 1e-12)[0]
    assert {bin(int(j)).count("1") for j in support1} == {3, 7}
    for st in (zero, one):
        assert qec.stabilizer_check(st, qec.css7_group()).all_plus_one


def test_transversal_quarter_turn_is_inverse_logical():
    rep = qec.transversal_rotation_check()
    assert rep.passed
    assert rep.codespace_residual < 1e-9
    assert rep.logical_residual < 1e-9
    # for this code the identity holds with no leftover global phase
    assert abs(rep.global_phase - 1.0) < 1e-9


def test_transversal_half_turn_also_exact():
    assert qec.transversal_rotation_check(math.pi).passed


@pytest.mark.parametrize("angle", [math.pi / 3, 0.7])
def test_other_angles_fail_the_check(angle):
    rep = qec.transversal_rotation_check(angle)
    assert not rep.passed
    assert rep.detail in ("codespace leak", "wrong logical action")
    assert rep.codespace_residual > 1e-3 or rep.logical_residual > 1e-3


def test_plus_logical_relative_phase():
    # transversal quarter turn sends |0>+|1> to |0> - i|1> (logically)
    zero, one = qec.css7_logical_states()
    diag = trajset.phase_matrix([trajset.Trajectory(tuple(range(1, 8)))], 7, math.pi / 2)[0]
    rotated = diag * (zero.amps + one.amps) / math.sqrt(2)
    c0 = np.vdot(zero.amps, rotated)
    c1 = np.vdot(one.amps, rotated)
    assert c1 / c0 == pytest.approx(-1j, abs=1e-12)


def test_transversality_report_json():
    d = json.loads(json.dumps(qec.transversal_rotation_check().to_dict()))
    assert d["passed"] is True
    assert d["codespace_residual"] < 1e-9
    d2 = qec.transversal_rotation_check(math.pi / 3).to_dict()
    assert d2["passed"] is False
    assert d2["detail"]
