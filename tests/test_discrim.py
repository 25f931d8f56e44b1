"""Discrimination layer: oracles, measurement optimality, vote tails."""
import csv
import functools
import io
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from trajsense import cli, discrim, qcore, rng, solver, trajset
from trajsense.discrim import make_ensemble

PI = math.pi
BELL = qcore.make_ket(2, [("01", 1.0), ("10", 1.0)])
TS21 = trajset.gen_symmetric(2, 1)
TS42 = trajset.gen_symmetric(4, 2)


def plus_state(n):
    return qcore.Ket(n, np.full(1 << n, (1 << n) ** -0.5, dtype=complex))


def gram_of(S):
    """The k x k Gram S S^H of stacked output rows, which every measurement takes."""
    S = np.asarray(S)
    return S @ S.conj().T


# --- orthogonality verification -------------------------------------------

def test_verify_ts_bell():
    rep = discrim.verify_ts(BELL, TS21, PI / 2)
    assert rep.is_ts and rep.max_residual < 1e-12


def test_verify_ts_unentangled_fails():
    rep = discrim.verify_ts(plus_state(2), TS21, PI / 2)
    assert not rep.is_ts
    # off-diagonal is cos^2(pi/4) = 1/2
    assert abs(rep.max_residual - 0.5) < 1e-12


def test_verify_ts_zero_theta():
    rep = discrim.verify_ts(BELL, TS21, 0.0)
    assert not rep.is_ts and abs(rep.max_residual - 1.0) < 1e-12


# --- two-state oracle ------------------------------------------------------

def test_helstrom_orthogonal_and_identical():
    a = qcore.make_ket(1, [("0", 1.0)])
    b = qcore.make_ket(1, [("1", 1.0)])
    assert oracles.helstrom_pair(gram_of([a.amps, b.amps])).p_fail < 1e-12
    assert abs(oracles.helstrom_pair(gram_of([a.amps, a.amps])).p_fail - 0.5) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.2, 2.5])
def test_helstrom_single_qubit_formula(theta):
    plus = qcore.Ket(1, np.array([1, 1], dtype=complex) / math.sqrt(2))
    rot = qcore.Ket(1, plus.amps * trajset.phase_matrix([trajset.Trajectory((1,))], 1, theta)[0])
    got = oracles.helstrom_pair(gram_of([plus.amps, rot.amps])).p_fail
    assert abs(got - (1 - abs(math.sin(theta / 2))) / 2) < 1e-12


# --- square-root measurement ----------------------------------------------

def test_pgm_orthogonal_is_projective():
    cert = solver.solve_symmetric(4, 2, 3 * PI / 4)
    ens = make_ensemble(cert.witness_state, TS42, 3 * PI / 4)
    res = discrim.pgm(ens)
    assert res.p_fail < 1e-10
    # one rank-one factor per state; on orthogonal outputs the elements
    # |m_j><m_j| sum to I_d, so the abstain outcome I_d - sum is empty ...
    u, sv = discrim._reduce(ens)
    d = len(sv)
    assert res.povm.shape == (len(ens), d)
    assert np.abs(oracles.elements(res.povm).sum(axis=0) - np.eye(d)).max() < 1e-9
    # ... and the span coordinates keep every inner product of the outputs,
    # so the measurement acts on the actual output states
    coords = u * sv
    assert np.abs(coords @ coords.conj().T - ens).max() < 1e-12


def test_pgm_identical_states():
    ens = gram_of([qcore.make_ket(2, [("00", 1.0)]).amps] * 6)
    assert abs(discrim.pgm(ens).p_fail - 5 / 6) < 1e-12


def test_pgm_pseudo_inverse_cut_matches_dense():
    """The span keeps a Gram eigenvalue lam > 1e-12 lam_max and drops one below,
    as the pseudo-inverse of rho that the dense elements rho^(-1/2) G_j
    rho^(-1/2) use does, so the PGM factors are (3, 2) and measure as the
    dense PGM."""
    gen = np.random.default_rng(5)
    S = gen.normal(size=(3, 8)) + 1j * gen.normal(size=(3, 8))
    S[1] = S[0] + 3e-5 * gen.normal(size=8)          # lam ~ 8e-11 lam_max: kept
    S[2] = S[0] + 1e-7 * gen.normal(size=8)          # lam ~ 1e-15 lam_max: cut
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    res, dense = discrim.pgm(gram_of(S)), oracles.pgm(gram_of(S))
    assert res.povm.shape == (3, 2) and "rank-deficient" in res.note
    np.testing.assert_allclose(res.confusion, dense.confusion, atol=1e-9)
    assert abs(res.p_fail - dense.p_fail) <= 1e-9


def test_pgm_confusion_rows_stochastic():
    res = discrim.pgm(make_ensemble(plus_state(4), TS42, 0.6 * PI))
    np.testing.assert_allclose(res.confusion.sum(axis=1), 1.0, atol=1e-9)
    assert res.confusion.min() >= 0.0


# --- the PGM's minimum-error certificate ------------------------------------

def test_optimal_matches_helstrom_on_pairs():
    """Two outputs of equal prior: the PGM is Helstrom's measurement, and certified."""
    for theta in [0.4, 1.1, 2.0]:
        ens = make_ensemble(plus_state(2), TS21, theta)
        o = discrim.pgm(ens)
        h = oracles.helstrom_pair(ens)
        assert o.optimal and abs(o.p_fail - h.p_fail) < 1e-8
        assert oracles.kkt_residual(oracles.span_coords(ens),
                                    oracles.elements(o.povm)) <= 1e-9


def test_optimal_never_worse_than_pgm():
    """The oracle's fixed point starts from the PGM, so it never does worse; on the
    sym |+>^n outputs the PGM carries its certificate and the two agree."""
    for theta in [0.3 * PI, 0.6 * PI, 0.9 * PI]:
        ens = make_ensemble(plus_state(4), TS42, theta)
        res, ref = discrim.pgm(ens), oracles.optimal_measurement(ens)
        assert ref.p_fail <= res.p_fail + 1e-9
        assert res.optimal and abs(ref.p_fail - res.p_fail) < 1e-8


def test_optimal_equals_pgm_on_cyclic_ensembles():
    """Shift-covariant output sets are geometrically uniform: PGM is optimal."""
    cyc = trajset.gen_cyclic(4, 2)
    for theta in [0.4 * PI, 0.7 * PI]:
        ens = make_ensemble(plus_state(4), cyc, theta)
        res = discrim.pgm(ens)
        assert res.optimal
        assert abs(oracles.optimal_measurement(ens).p_fail - res.p_fail) < 1e-8


@pytest.mark.parametrize("theta_pi,iterations,p_fail", [
    (0.4, 14, 0.4908863735185425),
    (0.7, 9, 0.3990645542697552),
])
def test_fixed_point_iterates_on_custom_family(theta_pi, iterations, p_fail):
    """An ensemble where the PGM is not optimal: the oracle's update loop runs and
    beats it, and the PGM's certificate does not hold."""
    ts = trajset.TrajectorySet(3, "custom", 1, tuple(
        trajset.Trajectory(q) for q in [(1,), (2,), (1, 3)]))
    ens = make_ensemble(oracles.product_input([0.4] * 3), ts, theta_pi * PI)
    res = oracles.optimal_measurement(ens)
    assert res.optimal and res.note == f"{iterations} iterations"
    assert oracles.kkt_residual(oracles.span_coords(ens), res.povm) <= 1e-9
    assert abs(res.p_fail - p_fail) < 1e-12
    assert res.p_fail < discrim.pgm(ens).p_fail
    assert not discrim.pgm(ens).optimal


@st.composite
def small_ensembles(draw):
    """Grams of k <= 12 outputs on n <= 4 qubits, with the degenerate shapes
    that stress the certificate: duplicated, near-parallel and rank-deficient
    rows, the outputs of custom families, and geometrically uniform outputs
    U^j s (U^k = I), exact or with one row moved by up to 1e-4, where the
    certificate is near its tolerance."""
    n = draw(st.integers(1, 4))
    dim = 1 << n
    kind = draw(st.sampled_from(["random", "duplicated", "near_parallel",
                                 "rank_deficient", "custom", "covariant"]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gauss(*shape):
        return gen.normal(size=shape) + 1j * gen.normal(size=shape)

    if kind == "custom":
        subsets = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1),
                                min_size=1, max_size=12, unique=True))
        ts = trajset.TrajectorySet(n, "custom", 1, tuple(
            trajset.Trajectory(tuple(sorted(q))) for q in subsets))
        amps = gauss(dim)
        theta = draw(st.floats(0.05, PI))
        return make_ensemble(qcore.Ket(n, amps / np.linalg.norm(amps)), ts, theta)
    k = draw(st.integers(1, 12))
    S = gauss(k, dim)
    if kind == "covariant":
        phases = np.exp(2j * PI * gen.integers(0, k, size=dim) / k)
        S = S[0] * phases ** np.arange(k)[:, None]
        S[-1] += draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4])) * gauss(dim)
    elif kind == "rank_deficient" and min(k, dim) > 1:
        r = draw(st.integers(1, min(k, dim) - 1))
        S = gauss(k, r) @ gauss(r, dim)
    elif kind in ("duplicated", "near_parallel") and k > 1:
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        eps = 0.0 if kind == "duplicated" else draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
        S[j] = S[i] + eps * gauss(dim)
    return gram_of(S / np.linalg.norm(S, axis=1, keepdims=True))


@settings(max_examples=300, deadline=None)
@given(small_ensembles())
def test_pgm_certificate_is_sound(G):
    """Wherever `pgm` certifies itself, the dense optimality test passes on its
    elements: lambda_min(Gamma - G_j) >= -`_OPT_TOL` for every j, in the span
    coordinates the PGM measures."""
    res = discrim.pgm(G)
    if res.optimal:
        m, sv = discrim._reduce(G)
        assert oracles.kkt_residual(m * sv, oracles.elements(res.povm)) <= discrim._OPT_TOL


def _unscreened(grams, weights):
    """A `discrim._screen` that certifies nothing: every candidate meets
    `_minimum_error`."""
    zero = np.zeros(len(weights))
    return zero, zero, zero.astype(bool)


@pytest.mark.parametrize("family,n,m,points", [
    ("sym", 6, 3, 25),
    ("sym", 4, 2, 40),
    ("cyc", 8, 2, 13),
    ("sym", 3, 1, 5),
], ids=["sym63", "sym42", "cyc82", "sym31-best"])
def test_curve_sweep_matches_the_dense_oracle(monkeypatch, family, n, m, points):
    """The benchmark's four curves on rank-one factors and on (k, d, d) elements
    (sym31-best is its `--classical classical_best` run, the same |+>^n arm).
    The oracle side tries every candidate with the dense fixed point, so the
    screened shortlist must keep each point's argmin, and the certified PGM
    must reach the fixed point's value."""
    ts = {"sym": trajset.gen_symmetric, "cyc": trajset.gen_cyclic}[family](n, m)
    grid = np.linspace(0.0, PI, points)
    got = discrim.failure_curve(ts, grid)
    monkeypatch.setattr(discrim, "_screen", _unscreened)
    monkeypatch.setattr(discrim, "pgm", oracles.pgm)
    monkeypatch.setattr(discrim, "_minimum_error", oracles.optimal_measurement)
    want = discrim.failure_curve(ts, grid)
    assert [(p.theta, p.method) for p in got] == \
        [(p.theta, p.method.replace("fixed_point_optimal", "pgm")) for p in want]
    for arm in ("p_fail_quantum", "p_fail_classical"):
        assert max(abs(getattr(g, arm) - getattr(w, arm)) for g, w in zip(got, want)) <= 1e-14


@st.composite
def invariant_candidates(draw):
    """(phases, gens, weights): sym or cyc with n <= 8 at a random theta below
    `solver.onset`, 1-3 generators that are random nonnegative functions on the
    family's orbits of bitstrings, each summing to 1, and 1-3 candidates drawn as
    nonnegative weights over them, summing to 1, so that every |psi|^2 =
    weights[i] @ gens sums to 1 and the screen sums its Gram from the generators'."""
    n = draw(st.integers(2, 8))
    gen = draw(st.sampled_from([trajset.gen_symmetric, trajset.gen_cyclic]))
    ts = gen(n, draw(st.integers(1, n - 1)))
    theta = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * solver.onset(ts)
    _, orbit = np.unique(ts.orbits.rep, return_inverse=True)
    size = int(orbit.max()) + 1
    unit = st.floats(0.0, 1.0)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = np.array(draw(st.lists(unit, min_size=size, max_size=size)))[orbit]
        assume(g.sum() > 0.0)
        gens.append(g / g.sum())
    weights = []
    for _ in range(draw(st.integers(1, 3))):
        w = np.array(draw(st.lists(unit, min_size=len(gens), max_size=len(gens))))
        assume(w.sum() > 0.0)
        weights.append(w / w.sum())
    return trajset.phase_matrix(ts.members, n, theta), np.array(gens), np.array(weights)


def _gram(phases, probs):
    """(phases |psi|^2) phases^H for |psi|^2 = probs, formed directly."""
    return (phases * probs) @ phases.conj().T


@settings(max_examples=80, deadline=None)
@given(invariant_candidates())
@example((trajset.phase_matrix(TS21.members, 2, 3 * PI / 8),      # mass on a cut direction
          np.array([[0.0, 2e-14, 2e-14, 1.0]]) / (1.0 + 4e-14), np.ones((1, 1))))
def test_screen_certificate_holds_on_the_direct_gram(case):
    """An orbit-constant |psi|^2 gives a Gram the family's group permutes, whose
    G^(1/2) has a constant diagonal, so the PGM of every candidate's Gram formed
    directly from phases (w @ gens) carries its certificate; where `_screen`
    certifies a candidate from its sum of generator Grams, the screened value
    is that PGM's within the stated error bound."""
    phases, gens, weights = case
    grams = np.array([_gram(phases, g) for g in gens])
    for w, p, err, ok in zip(weights, *discrim._screen(grams, weights)):
        res = discrim.pgm(_gram(phases, w @ gens))
        assert res.optimal
        assert not ok or abs(p - res.p_fail) <= err


def test_pgm_certifies_the_plus_arm_up_to_n_8():
    """The |+>^n arm of every sym and cyc family with n <= 8, at j pi/16 and at
    pi/314, where the Gram's small eigenvalues meet the span cut."""
    families = [trajset.gen_symmetric(n, m) for n in range(1, 9) for m in range(n + 1)]
    families += [trajset.gen_cyclic(n, m) for n in range(2, 9) for m in range(1, n)]
    for ts in families:
        for theta in [PI / 314] + [j * PI / 16 for j in range(1, 17)]:
            assert discrim.classical_baseline(ts, theta).optimal, (ts.family, ts.n, ts.m, theta)


def test_screen_leaves_a_candidate_at_the_cut_uncertified():
    """A Gram eigenvalue within k eps lam_max of the span cut may land on either
    side of it in a Gram formed another way, so `_screen` does not certify its
    candidate."""
    phases = trajset.phase_matrix(TS21.members, 2, 3 * PI / 8)
    w = np.array([0.0, 1.6198709040793347e-12, 1.6198709040793347e-12, 1.0])
    psi = qcore.Ket(2, np.sqrt(w / w.sum()).astype(complex))
    G = _gram(phases, psi.probs())
    lam = np.linalg.eigvalsh(G)
    assert abs(lam[0] - discrim._SPAN_CUT * lam[-1]) <= 2 * np.finfo(float).eps * lam[-1]
    assert not discrim._screen(G[None], np.ones((1, 1)))[2][0]


def test_a_non_invariant_candidate_is_refused(monkeypatch, capsys):
    """A candidate off the invariant subspace, joined as one more generator, is
    left uncertified by `_screen`, and its PGM lacks the certificate, so the
    curve stops with a ValueError that names it, and `curve` exits 2.  The sweep
    sums its Gram from |psi|^2, on which the Gram alone depends, so it is
    `make_ensemble`'s."""
    ts, grid = trajset.gen_symmetric(4, 2), np.linspace(0.0, PI, 13)
    amps = np.array([1.0, 1.0j]) @ np.random.default_rng(3).normal(size=(2, 16))
    odd = qcore.Ket(4, amps / np.linalg.norm(amps))
    sweep, minimum_error = discrim._symmetrized_candidates, discrim._minimum_error

    def with_odd(n):
        gens, weights = sweep(n)
        return (np.vstack([gens, odd.probs()]),
                np.vstack([np.pad(weights, ((0, 0), (0, 1))), np.eye(len(gens) + 1)[-1]]))
    monkeypatch.setattr(discrim, "_symmetrized_candidates", with_odd)
    below = [t for t in grid[1:] if not solver.solve(solver.TSProblem(ts, t)).feasible]
    assert below and below[0] == grid[1]
    G = make_ensemble(odd, ts, below[0])
    assert not discrim._screen(G[None], np.ones((1, 1)))[2][0]
    assert not discrim.pgm(G).optimal
    seen = []
    monkeypatch.setattr(discrim, "_minimum_error",
                        lambda gram: seen.append(gram) or minimum_error(gram))
    with pytest.raises(ValueError, match="PGM not certified minimum-error"):
        discrim.failure_curve(ts, grid)
    assert np.array_equal(seen[-1], G)
    assert cli.main(["curve", "--family", "sym", "--n", "4", "--m", "2", "--points", "13",
                     "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "PGM not certified minimum-error" in err


def test_small_angle_sweep_certifies(monkeypatch):
    """On sym(6,3) at pi/314 the candidates' Grams have eigenvalues
    lam ~ 1e-15 lam_max.  The span cuts them as the PGM does, so every
    measurement inside `failure_curve` carries the certificate."""
    results = []
    measure = discrim.pgm
    monkeypatch.setattr(discrim, "pgm", lambda gram: results.append(measure(gram)) or results[-1])
    discrim.failure_curve(trajset.gen_symmetric(6, 3), [PI / 314])
    assert len(results) > 1 and all(res.optimal for res in results)


# --- classical baselines ---------------------------------------------------

def test_classical_plus_endpoints():
    res = discrim.classical_baseline(TS42, PI)
    assert res.p_fail < 1e-9
    res0 = discrim.classical_baseline(TS42, 0.0)
    assert abs(res0.p_fail - 5 / 6) < 1e-9


def test_classical_plus_positive_below_pi():
    for theta in [0.5 * PI, 0.9 * PI, 0.99 * PI]:
        assert discrim.classical_baseline(TS42, theta).p_fail > 0


_CUSTOM = trajset.TrajectorySet(5, "custom", 1, tuple(
    trajset.Trajectory(q) for q in [(1,), (2, 5), (1, 3, 4), (2, 3), (1, 2, 3, 4, 5)]))


@pytest.mark.parametrize("ts", [
    trajset.gen_symmetric(6, 3), trajset.gen_symmetric(4, 2), trajset.gen_cyclic(8, 2),
    trajset.gen_cyclic(7, 3), _CUSTOM], ids=["sym63", "sym42", "cyc82", "cyc73", "custom"])
def test_classical_closed_form_gram_matches_the_phase_matrix(ts, monkeypatch):
    """cos(theta/2)^|T_a xor T_b| is the |+>^n outputs' Gram from the phase matrix."""
    monkeypatch.setattr(discrim, "_minimum_error", lambda gram: gram)
    for theta in [0.0, 0.1, 0.35 * PI, 0.7 * PI, PI]:
        dense = make_ensemble(plus_state(ts.n), ts, theta)
        assert np.abs(discrim.classical_baseline(ts, theta) - dense).max() <= 1e-14


@pytest.mark.parametrize("theta", [0.35 * PI, 0.7 * PI])
def test_classical_baseline_refuses_an_uncertified_family(theta):
    """A custom family's |+>^n outputs are not group covariant: the PGM lacks its
    certificate, and the arm that claims the minimum error refuses it, naming
    the certificate.  The oracle's fixed point does better than that PGM."""
    dense = make_ensemble(plus_state(_CUSTOM.n), _CUSTOM, theta)
    assert not discrim.pgm(dense).optimal
    with pytest.raises(ValueError, match=r"PGM not certified minimum-error: ptp\(diag G"):
        discrim.classical_baseline(_CUSTOM, theta)
    assert oracles.optimal_measurement(dense).p_fail < discrim.pgm(dense).p_fail


def test_classical_baseline_builds_no_phase_matrix(monkeypatch):
    """The |+>^n arm reads its Gram off the members, and keeps the phase
    matrix's refusals: an angle outside [0, pi] and a family over `PHASE_CAP`."""
    want = discrim.classical_baseline(TS42, 0.6 * PI).p_fail

    def refuse(*args):
        raise AssertionError("phase matrix built")
    monkeypatch.setattr(trajset, "phase_matrix", refuse)
    assert discrim.classical_baseline(TS42, 0.6 * PI).p_fail == want
    with pytest.raises(ValueError, match="outside the modeled range"):
        discrim.classical_baseline(TS42, 3.5)
    monkeypatch.setattr(trajset, "PHASE_CAP", 6 * 16 - 1)
    with pytest.raises(ValueError, match="PHASE_CAP"):
        discrim.classical_baseline(TS42, 0.6 * PI)


@st.composite
def product_inputs(draw):
    """(family, per-qubit Bloch angles, theta): sym, cyc and custom families
    with n <= 5, and a product input whose qubits need not be identical."""
    kind = draw(st.sampled_from(["sym", "cyc", "custom"]))
    n = draw(st.integers(2 if kind == "cyc" else 1, 5))
    if kind == "sym":
        ts = trajset.gen_symmetric(n, draw(st.integers(1, n)))
    elif kind == "cyc":
        ts = trajset.gen_cyclic(n, draw(st.integers(1, n - 1)))
    else:
        subsets = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1),
                                min_size=1, max_size=10, unique=True))
        ts = trajset.TrajectorySet(n, "custom", 1, tuple(
            trajset.Trajectory(tuple(sorted(q))) for q in subsets))
    alphas = draw(st.lists(st.floats(0.0, PI), min_size=n, max_size=n))
    phis = draw(st.lists(st.floats(0.0, 2 * PI), min_size=n, max_size=n))
    theta = draw(st.floats(0.0, PI, exclude_min=True, exclude_max=True))
    return ts, oracles.product_input(alphas, phis), theta


@settings(max_examples=120, deadline=None)
@given(product_inputs())
def test_no_product_input_beats_plus(case):
    """|+>^n is the optimal unentangled input: per qubit it has the smallest
    overlap with its rotated copy, so no product input fails less often.  Both
    sides of a custom family take the oracle's fixed point."""
    ts, psi, theta = case
    res = oracles.optimal_measurement(make_ensemble(psi, ts, theta))
    plus = (oracles.optimal_measurement(make_ensemble(plus_state(ts.n), ts, theta))
            if ts.family == "custom" else discrim.classical_baseline(ts, theta))
    assert res.p_fail >= plus.p_fail - 1e-12


@pytest.mark.parametrize("ts", [
    trajset.gen_symmetric(3, 1), TS42,
    trajset.TrajectorySet(3, "custom", 1, tuple(
        trajset.Trajectory(q) for q in [(1,), (2,), (1, 3)]))],
    ids=["sym31", "sym42", "custom"])
def test_product_p_fail_independent_of_phi(ts):
    """Every R^(T) is diagonal, so p_fail depends on |psi|^2 alone."""
    for theta in [0.3 * PI, 0.55 * PI, 0.8 * PI]:
        for alpha in [0.4, 1.3, 2.5]:
            ref = oracles.optimal_measurement(
                make_ensemble(oracles.product_input([alpha] * ts.n), ts, theta)).p_fail
            for phi in [0.0, 0.7, 2.0, 4.1]:
                psi = oracles.product_input([alpha] * ts.n, [phi] * ts.n)
                ens = make_ensemble(psi, ts, theta)
                assert abs(oracles.optimal_measurement(ens).p_fail - ref) <= 1e-12


# --- failure curves --------------------------------------------------------

def test_failure_curve_properties():
    curve = discrim.failure_curve(TS42, np.linspace(0.0, PI, 9))
    assert abs(curve[0].p_fail_quantum - 5 / 6) < 1e-12
    assert abs(curve[0].p_fail_classical - 5 / 6) < 1e-12
    for pt in curve:
        assert pt.p_fail_quantum <= pt.p_fail_classical + 1e-9    # entanglement dominance
    for prev, cur in zip(curve, curve[1:]):
        assert cur.p_fail_quantum <= prev.p_fail_quantum + 1e-9   # monotone in theta
    for pt in curve:
        if pt.theta >= 3 * PI / 4 - 1e-12:
            assert pt.p_fail_quantum < 1e-9


def test_cyc_curve_is_zero_between_the_lp_onset_and_threshold_cyc():
    """cyc(8,2) has sensing states from 0.6098pi (the LP onset), below the
    composition's 2pi/3; the curve's entangled arm uses them there."""
    ts = trajset.gen_cyclic(8, 2)
    q = discrim.failure_curve(ts, [t * PI for t in (0.60, 0.615, 0.64, 0.66)])
    assert q[0].p_fail_quantum > 1e-6
    for point in q[1:]:
        assert point.method.startswith("projective_orthogonal/"), point
        assert point.p_fail_quantum < 1e-12, point


# --- plurality-vote repetition ---------------------------------------------

def test_vote_error_binary_hand_values():
    # two-category confusion with q = 0.9: r=2 keeps error 0.1 (tie), r=3 gives 0.028
    conf = np.array([[0.9, 0.1], [0.1, 0.9]])
    assert abs(discrim.plurality_error(conf, 1) - 0.1) < 1e-12
    assert abs(discrim.plurality_error(conf, 2) - 0.1) < 1e-12
    assert abs(discrim.plurality_error(conf, 3) - 0.028) < 1e-12


def test_vote_error_r1_equals_per_shot():
    res = discrim.classical_baseline(TS42, 0.8 * PI)
    assert abs(discrim.plurality_error(res.confusion, 1) - res.p_fail) < 1e-10


@functools.lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to split `total` draws over `parts` categories, one row each."""
    if parts == 1:
        return np.array([[total]])
    return np.concatenate([np.hstack([np.full((len(rest), 1), first), rest])
                           for first in range(total + 1)
                           for rest in [_compositions(total - first, parts - 1)]])


def plurality_error_enum(confusion: np.ndarray, r: int) -> float:
    """Oracle: exact vote error by multinomial enumeration (r <= 20, k <= 6), uniform prior."""
    k = confusion.shape[0]
    if r > 20 or k > 6:
        raise ValueError("enumeration limited to r <= 20 and k <= 6")
    counts = _compositions(r, k)
    log_fact = np.array([math.lgamma(c + 1) for c in range(r + 1)])
    log_multinomial = log_fact[r] - log_fact[counts].sum(axis=1)
    top = counts.max(axis=1)
    n_winners = (counts == top[:, None]).sum(axis=1)
    err = 0.0
    for i in range(k):
        p = np.clip(confusion[i], 0.0, 1.0)
        possible = ~((counts > 0) & (p <= 0.0)).any(axis=1)
        log_p = np.where(counts > 0, counts * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        prob = np.where(possible, np.exp(log_multinomial + log_p.sum(axis=1)), 0.0)
        win = (prob / n_winners)[counts[:, i] == top].sum()
        err += (1.0 - win) / k
    return max(0.0, err)


def plurality_error_mc(confusion: np.ndarray, r: int, trials: int, seed: int,
                       stream: int = 5) -> float:
    """Oracle: Monte Carlo vote error (counter-based RNG), uniform prior."""
    k = confusion.shape[0]
    cdf = np.cumsum(confusion, axis=1)
    fails = 0
    per_true = np.random.default_rng(seed).multinomial(trials, np.full(k, 1 / k))
    block = 0
    for i in range(k):
        t_i = int(per_true[i])
        if t_i == 0:
            continue
        u = rng.uniforms(seed, stream, block, t_i * r).reshape(t_i, r)
        block += t_i * r
        outcomes = np.searchsorted(cdf[i], u, side="right")
        counts = np.stack([(outcomes == j).sum(axis=1) for j in range(k)], axis=1)
        mx = counts.max(axis=1)
        tie_u = rng.uniforms(seed, stream + 1, block, t_i)[:, 0]
        wins = 0
        for row, m_, uu in zip(counts, mx, tie_u):
            winners = np.nonzero(row == m_)[0]
            pick = winners[int(uu * len(winners))]
            wins += int(pick == i)
        fails += t_i - wins
    return fails / trials


def _vote_rows(k: int, rng_: np.random.Generator) -> list[np.ndarray]:
    """Confusion matrices: random, with zero entries, uniform (exact ties), 0.999 diagonal."""
    zeros = rng_.dirichlet(np.ones(k), size=k)
    zeros[:, 1:][:, ::2] = 0.0                 # zero off-diagonal entries
    zeros /= zeros.sum(axis=1, keepdims=True)
    near = np.full((k, k), 0.001 / (k - 1))
    np.fill_diagonal(near, 0.999)
    return [rng_.dirichlet(np.ones(k), size=k), zeros,
            np.full((k, k), 1.0 / k), near]


def test_vote_dp_matches_enumeration():
    """The tail DP reproduces the enumeration on its whole old domain (k <= 6, r <= 20)."""
    for k in range(2, 7):
        for conf in _vote_rows(k, np.random.default_rng(3 + k)):
            for r in [1, 2, 3, 4, 7, 10, 13, 16, 20]:
                dp = discrim.plurality_error(conf, r)
                assert abs(dp - plurality_error_enum(conf, r)) <= 1e-12, (k, r, conf)


@pytest.mark.parametrize("r", [21, 64, 170])
@pytest.mark.parametrize("p", [Fraction(5, 8), Fraction(3, 8)])
def test_vote_dp_binary_exact_beyond_enum(r, p):
    """k = 2: P(Bin(r, p) > r/2) + P(tie)/2, summed in exact rationals."""
    pmf = [math.comb(r, a) * p ** a * (1 - p) ** (r - a) for a in range(r + 1)]
    exact = sum(pmf[a] for a in range(r + 1) if 2 * a > r)
    if r % 2 == 0:
        exact += pmf[r // 2] / 2
    got = discrim._plurality_win_dp(np.array([float(p), float(1 - p)]), 0, r)
    assert abs(got - float(exact)) < 1e-12


def test_vote_dp_matches_monte_carlo_beyond_enum():
    conf = np.array([[0.7, 0.1, 0.1, 0.1],
                     [0.1, 0.7, 0.1, 0.1],
                     [0.1, 0.1, 0.7, 0.1],
                     [0.1, 0.1, 0.1, 0.7]])
    r = 25
    exact = discrim.plurality_error(conf, r)
    mc = plurality_error_mc(conf, r, trials=120_000, seed=9)
    sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / 120_000)
    assert abs(mc - exact) < 4 * sigma + 1e-6


@st.composite
def vote_rows(draw):
    """(p, i, r): a row over k <= 12 categories, with zeros and exact ties, r <= 25."""
    k = draw(st.integers(1, 12))
    p = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                         st.floats(0.0, 1.0)), min_size=k, max_size=k)))
    assume(p.sum() > 0.0)
    return p / p.sum(), draw(st.integers(0, k - 1)), draw(st.integers(1, 25))


@settings(max_examples=200, deadline=None)
@given(vote_rows())
def test_vote_dp_matches_the_per_tie_count_oracle(case):
    """One matrix product per category gives the per-tie-count convolutions' value."""
    p, i, r = case
    assert abs(discrim._plurality_win_dp(p, i, r) - oracles.plurality_win_dp(p, i, r)) <= 1e-14


@functools.lru_cache(maxsize=None)
def _sym84_plus_confusion():
    return discrim.classical_baseline(trajset.gen_symmetric(8, 4), 7 * PI / 8).confusion


@pytest.mark.parametrize("r", [1, 5, 7])
def test_vote_dp_matches_the_oracle_on_70_categories(r):
    """Rows of the sym(8,4) |+>^n confusion at 7pi/8 (k = 70, beyond the enumeration):
    r = 5 and 7 are the inset's classical counts at 1e-6 and 1e-9."""
    conf = _sym84_plus_confusion()
    for i in (0, 23, 69):
        got = discrim._plurality_win_dp(conf[i], i, r)
        assert abs(got - oracles.plurality_win_dp(conf[i], i, r)) <= 1e-14


@st.composite
def vote_targets(draw):
    """(confusion, epsilons, cap): k <= 4 with a dominant diagonal, an unsorted
    epsilon list with repeats, and a vote cap that some targets miss."""
    k = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weight = draw(st.floats(0.3, 0.95))
    conf = weight * np.eye(k) + (1 - weight) * gen.dirichlet(np.ones(k), size=k)
    eps = draw(st.lists(st.sampled_from([0.3, 0.1, 1e-2, 1e-3, 1e-5, 1e-8]),
                        min_size=1, max_size=6))
    return conf, eps, draw(st.sampled_from([2, 5, 30]))


@settings(max_examples=60, deadline=None)
@given(vote_targets())
@example((np.array([[0.58754866, 0.41245134], [0.61682765, 0.38317235]]), [0.3], 5))  # below chance
def test_repetition_analysis_matches_the_per_epsilon_search(case):
    """Each epsilon's r and p_error_after_vote are those of its own search from r = 1.
    The diagonal dominates only for weight > 1/2, so some draws are below chance."""
    conf, eps, cap = case
    res = discrim.DiscriminationResult(None, 0.0, "pgm", conf)
    errs = {}

    def err_at(r):
        if r not in errs:
            errs[r] = discrim.plurality_error(conf, r)
        return errs[r]

    with mock.patch.object(discrim, "_VOTE_R_CAP", cap):
        reports = discrim.repetition_analysis(res, eps)
    k = len(conf)
    # at or below chance the vote never converges, and the search stops after r = 1
    last = 1 if k > 1 and np.full(k, 1.0 / k) @ conf.diagonal() <= 1.0 / k + 1e-15 else cap
    for e, rep in zip(eps, reports):
        r = next((r for r in range(1, last + 1) if err_at(r) <= e), math.inf)
        assert (rep.r, rep.p_error_after_vote, rep.epsilon_target) == \
            (r, err_at(min(r, last)), e)
    assert len(reports) == len(eps)


def test_repetition_quantum_single_shot():
    cert = solver.solve_symmetric(4, 2, 0.8 * PI)
    res = discrim.pgm(make_ensemble(cert.witness_state, TS42, 0.8 * PI))
    reports = discrim.repetition_analysis(res, [1e-1, 1e-3, 1e-6])
    assert [rep.r for rep in reports] == [1, 1, 1]


def test_repetition_single_member_is_one_shot():
    ts = trajset.gen_symmetric(3, 0)
    res = discrim.pgm(make_ensemble(plus_state(3), ts, PI / 2))
    reports = discrim.repetition_analysis(res, [1e-1, 1e-2, 1e-4])
    assert [rep.r for rep in reports] == [1, 1, 1]
    assert all(rep.p_error_after_vote == 0.0 for rep in reports)


def test_repetition_chance_level_diverges():
    """At chance the vote never converges, but err(1) = 5/6 already meets 0.9."""
    flat = discrim.DiscriminationResult(None, 5 / 6, "pgm", np.full((6, 6), 1 / 6))
    low, high = discrim.repetition_analysis(flat, [0.25, 0.9])
    assert math.isinf(low.r) and high.r == 1
    assert low.p_error_after_vote == high.p_error_after_vote == discrim.plurality_error(
        flat.confusion, 1)


def test_repetition_classical_log_scaling():
    res = discrim.classical_baseline(TS42, 3 * PI / 4)
    eps = [10.0 ** -k for k in range(1, 7)]
    reports = discrim.repetition_analysis(res, eps)
    rs = np.array([rep.r for rep in reports], dtype=float)
    assert (np.diff(rs) >= 0).all()
    logs = np.log(1 / np.array(eps))
    A = np.vstack([logs, np.ones_like(logs)]).T
    coef, resid, *_ = np.linalg.lstsq(A, rs, rcond=None)
    ss = ((rs - rs.mean()) ** 2).sum()
    assert coef[0] > 0
    assert 1 - resid[0] / ss > 0.95


# --- CSV emission ----------------------------------------------------------

def test_curve_csv_roundtrip():
    grid = [0.0, 0.5 * PI, PI]
    rows = list(csv.reader(io.StringIO(discrim.curve_csv(discrim.failure_curve(TS21, grid)))))
    assert rows[0] == ["theta", "p_fail_quantum", "p_fail_classical", "method"]
    assert len(rows) == 4
    assert float(rows[1][1]) == 0.5  # theta=0 for two hypotheses
    assert rows[1][3] == "degenerate/degenerate"


def test_repetition_csv():
    eps = [1e-1, 1e-2]
    flat = discrim.DiscriminationResult(None, 0.5, "pgm", np.full((2, 2), 0.5))
    cert = solver.solve_symmetric(2, 1, 0.75 * PI)
    qres = discrim.pgm(make_ensemble(cert.witness_state, TS21, 0.75 * PI))
    cl = discrim.repetition_analysis(flat, eps)
    qu = discrim.repetition_analysis(qres, eps)
    rows = list(csv.reader(io.StringIO(discrim.repetition_csv(cl, qu))))
    assert rows == [["epsilon", "r_classical", "r_quantum"], ["0.1", "inf", "1"],
                    ["0.01", "inf", "1"]]


# --- ensemble validation ---------------------------------------------------

def test_ensemble_validation():
    """Every measurement takes a nonempty square Gram array, checked in `_reduce`."""
    for measure in (discrim.pgm, discrim._minimum_error):
        with pytest.raises(ValueError, match="nonempty"):
            measure(())
        with pytest.raises(ValueError):                  # ragged rows
            measure([BELL.amps, qcore.make_ket(3, [("000", 1.0)]).amps])
        with pytest.raises(ValueError, match="nonempty"):   # not square
            measure(np.ones((2, 3)))
        with pytest.raises(ValueError, match="nonempty"):   # one row, not a matrix
            measure(BELL.amps)
