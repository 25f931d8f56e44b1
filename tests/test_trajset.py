"""Trajectory families and their phase matrix."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajsense import qcore, solver, trajset
from trajsense.trajset import Trajectory


def test_trajectory_sorts_and_validates():
    t = Trajectory((3, 1))
    assert t.qubits == (1, 3)
    with pytest.raises(ValueError):
        Trajectory((1, 1))
    with pytest.raises(ValueError):
        Trajectory((0, 2))
    with pytest.raises(ValueError):
        Trajectory((2, 5)).validate_within(4)


def test_gen_symmetric_counts_and_order():
    ts = trajset.gen_symmetric(5, 2)
    assert ts.family == "symmetric"
    assert len(ts) == math.comb(5, 2)
    assert ts.members[0].qubits == (1, 2)
    assert ts.members[1].qubits == (1, 3)
    assert ts.members[-1].qubits == (4, 5)
    assert ts.kappa is None


def test_gen_cyclic_windows_wrap():
    ts = trajset.gen_cyclic(4, 2)
    got = [t.qubits for t in ts.members]
    assert got == [(1, 2), (2, 3), (3, 4), (1, 4)]
    assert ts.kappa == 2
    ts5 = trajset.gen_cyclic(5, 2)
    assert ts5.members[-1].qubits == (1, 5)
    assert ts5.kappa is None          # 5 not divisible by 2
    assert trajset.gen_cyclic(6, 2).kappa == 3


def test_gen_cyclic_width_below_n():
    """At m = n > 1 all windows coincide; only cyc(1,1) keeps m = n."""
    assert [t.qubits for t in trajset.gen_cyclic(1, 1).members] == [(1,)]
    for n, m in [(2, 2), (3, 3), (4, 0), (4, 5)]:
        with pytest.raises(ValueError, match=rf"1 <= m < n \(m = 1 for n = 1\), got m={m}, n={n}"):
            trajset.gen_cyclic(n, m)


def test_trajectory_set_rejects_duplicates():
    with pytest.raises(ValueError):
        trajset.TrajectorySet(3, "custom", 1,
                              (Trajectory((1,)), Trajectory((1,))))


def _window_tuples(n, m):
    return [tuple(sorted((s + k) % n + 1 for k in range(m))) for s in range(n)]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_members_are_built_from_n_and_m(n, data):
    """sym: the weight-m subsets in lexicographic order; cyc: the windows in start order."""
    m = data.draw(st.integers(0, n))
    ts = trajset.gen_symmetric(n, m)
    assert len(ts) == math.comb(n, m) and "members" not in vars(ts)
    assert [t.qubits for t in ts.members] == list(itertools.combinations(range(1, n + 1), m))
    if 1 <= m < n or m == n == 1:
        ts = trajset.gen_cyclic(n, m)
        assert len(ts) == n and "members" not in vars(ts)
        assert [t.qubits for t in ts.members] == _window_tuples(n, m)


@pytest.mark.parametrize("n", range(2, 10))
def test_cyc_partners_hit_each_unordered_pair_orbit_once(n):
    """Under the cyclic shift, every unordered pair of distinct windows is the
    image of exactly one (first, partner) pair."""
    for m in range(1, n):
        first, partners, _ = trajset.gen_cyclic(n, m).orbits
        images = {}
        for b in partners:
            for s in range(n):
                pair = frozenset(tuple(sorted((q - 1 + s) % n + 1 for q in t.qubits))
                                 for t in (first, b))
                images.setdefault(pair, set()).add(b.qubits)
        windows = _window_tuples(n, m)
        assert set(images) == {frozenset(p) for p in itertools.combinations(windows, 2)}
        assert all(len(bs) == 1 for bs in images.values())


def test_cyclic_orbit_reps_are_built_once_per_n():
    """Every cyc family on n qubits shares one read-only smallest-rotation array."""
    rep = trajset.gen_cyclic(9, 3).orbits.rep
    assert trajset.gen_cyclic(9, 3).orbits.rep is rep
    assert trajset.gen_cyclic(9, 4).orbits.rep is rep
    assert not rep.flags.writeable


def test_sym_and_cyc_take_no_members():
    """A sym or cyc family is its (n, m); a member list is a custom family."""
    members = trajset.gen_symmetric(4, 2).members
    for label in ("symmetric", "cyclic"):
        with pytest.raises(ValueError, match=f"a {label} family is fixed by \\(n, m\\) "
                                             f"and takes no members"):
            trajset.TrajectorySet(4, label, 2, members)
    custom = trajset.TrajectorySet(4, "custom", 2, members[:3])
    assert custom.members == members[:3] and len(custom) == 3
    assert custom.kappa is None and custom.orbits is None
    with pytest.raises(ValueError, match="unknown family 'windows'"):
        trajset.TrajectorySet(4, "windows", 2)
    with pytest.raises(ValueError, match=r"need 0 <= m <= n, got m=5, n=4"):
        trajset.gen_symmetric(4, 5)


@pytest.mark.parametrize("build", [
    lambda n: trajset.gen_symmetric(n, n // 2),
    lambda n: trajset.gen_cyclic(n, 2),
    lambda n: trajset.TrajectorySet(n, "custom", 1, (Trajectory((1,)),)),
])
@pytest.mark.parametrize("n,message", [(21, "qubit count 21 exceeds N_MAX=20"),
                                       (0, "qubit count must be a positive integer")])
def test_register_size_checked_before_members_are_built(build, n, message):
    with pytest.raises(ValueError, match=message):
        build(n)


def test_phase_matrix_values():
    # single qubit in a 2-qubit register, qubit 1 = MSB
    rows = trajset.phase_matrix([Trajectory((1,))], 2, 1.0)
    lo, hi = np.exp(-0.5j), np.exp(0.5j)
    assert rows.shape == (1, 4)
    np.testing.assert_allclose(rows[0], [lo, lo, hi, hi])


@pytest.mark.parametrize("theta", [-0.3, math.pi + 1e-6, 7.0])
def test_phase_matrix_rejects_bad_angle(theta):
    with pytest.raises(ValueError):
        trajset.phase_matrix([Trajectory((1,))], 2, theta)


def test_phase_matrix_rejects_trajectory_outside_register():
    with pytest.raises(ValueError):
        trajset.phase_matrix([Trajectory((1,)), Trajectory((2, 4))], 3, 1.0)


def test_phase_matrix_refuses_over_the_cap_before_allocating(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated")
    monkeypatch.setattr(np, "empty", no_alloc)
    with pytest.raises(ValueError, match=r"12870 trajectories x 2\^16 amplitudes > PHASE_CAP"):
        trajset.phase_matrix(trajset.gen_symmetric(16, 8).members, 16, 1.0)
    monkeypatch.undo()
    monkeypatch.setattr(trajset, "PHASE_CAP", 12)
    assert trajset.phase_matrix([Trajectory((1,))] * 3, 2, 1.0).shape == (3, 4)
    with pytest.raises(ValueError, match=r"4 trajectories x 2\^2"):
        trajset.phase_matrix([Trajectory((1,))] * 4, 2, 1.0)


def test_phase_cap_admits_every_dense_gram_matrix():
    """`solver.eq1_gram` takes k^2 * 2^n <= DENSE_GRAM_CAP; its k x 2^n phase
    matrix stays under PHASE_CAP for every register size."""
    for n in range(1, qcore.N_MAX + 1):
        k = math.isqrt(solver.DENSE_GRAM_CAP >> n)
        assert k * k << n <= solver.DENSE_GRAM_CAP
        assert k << n <= trajset.PHASE_CAP


def test_phase_matches_single_qubit_matrix_product():
    """Cross-check against explicit 2x2 rotation matrices via kron."""
    theta = 1.13
    rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    eye = np.eye(2)
    n = 3
    members = [(1,), (2,), (1, 3), (1, 2, 3)]
    rows = trajset.phase_matrix([Trajectory(q) for q in members], n, theta)
    for qubits, row in zip(members, rows):
        mats = [rz if q in qubits else eye for q in range(1, n + 1)]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        np.testing.assert_allclose(row, np.diag(full), atol=1e-12)


def test_plus_state_overlap_is_cos_half_theta():
    """<+...+|R|+...+> = cos(theta/2)^|T| — diagonal averaging identity."""
    n = 4
    plus = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
    members = [(2,), (1, 4), (1, 2, 3)]
    for theta in [0.4, 1.7, 3.0]:
        rows = trajset.phase_matrix([Trajectory(q) for q in members], n, theta)
        for qubits, got in zip(members, (rows * plus) @ plus.conj()):
            assert abs(got - math.cos(theta / 2) ** len(qubits)) < 1e-12


def test_phase_matrix_unit_modulus():
    rows = trajset.phase_matrix(trajset.gen_symmetric(3, 2).members, 3, 0.9)
    np.testing.assert_allclose(rows * rows.conj(), np.ones((3, 8)), atol=1e-15)


def _reference_row(qubits, n, theta):
    """exp(-i(theta/2) sum_{k in T} (1 - 2 j_k)), entry by entry from bitstrings."""
    row = []
    for j in range(1 << n):
        bits = format(j, f"0{n}b")
        s = sum(1 - 2 * int(bits[k - 1]) for k in qubits)
        row.append(np.exp(-0.5j * theta * s))
    return np.array(row)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), data=st.data(),
       theta=st.floats(0.0, math.pi, allow_nan=False))
def test_phase_matrix_matches_bitstring_reference(n, data, theta):
    subsets = st.frozensets(st.integers(1, n), max_size=n)
    members = data.draw(st.lists(subsets, min_size=1, max_size=6, unique=True))
    ts = [Trajectory(tuple(m)) for m in members]
    got = trajset.phase_matrix(ts, n, theta)
    want = np.array([_reference_row(t.qubits, n, theta) for t in ts])
    assert np.array_equal(got, want)
