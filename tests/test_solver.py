"""Feasibility solvers: closed-form route vs LP oracle vs tensor composition.

The two decision routes share only the representative trajectory pairs and
the witness check, so their agreement on a grid is a genuine cross-check, and
every feasible certificate is additionally re-verified against the full
pairwise orthogonality residual.
"""
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trajsense import qcore, simplex, solver, trajset
from trajsense.qcore import Ket
from trajsense.solver import TSProblem

PI = math.pi


# --- thresholds ------------------------------------------------------------

def test_threshold_sym_values():
    th, necessary = solver.threshold_sym(4, 2)
    assert abs(th - 3 * PI / 4) < 1e-15 and necessary
    assert solver.threshold_sym(5, 2).necessary      # floor(5/2)
    assert solver.threshold_sym(5, 3).necessary      # ceil(5/2)
    assert not solver.threshold_sym(6, 2).necessary
    assert not solver.threshold_sym(4, 1).necessary


@pytest.mark.parametrize("kappa,expect", [
    (2, PI / 2),
    (3, 2 * PI / 3),
    (4, 2 * PI / 3),
    (5, math.acos(-2 / 3)),
    (6, math.acos(-2 / 3)),
])
def test_threshold_cyc_values(kappa, expect):
    assert abs(solver.threshold_cyc(kappa) - expect) < 1e-12


def test_threshold_cyc_rejects():
    with pytest.raises(ValueError):
        solver.threshold_cyc(1)
    with pytest.raises(ValueError):
        solver.threshold_cyc(2.5)


# --- closed-form route -----------------------------------------------------

def test_pairwise_constraints_feasible_above_three_quarter_pi():
    for theta, feasible in [(0.70 * PI, False), (0.74 * PI, False),
                            (0.76 * PI, True), (0.9 * PI, True), (PI, True)]:
        cert = solver.solve_symmetric(4, 2, theta)
        assert cert.feasible is feasible, theta
        if feasible:
            assert cert.max_residual < 1e-8
            assert abs(cert.witness_state.norm() - 1.0) < 1e-10
        else:
            assert cert.sign_violations


def test_recovered_magnitude_ratios():
    # the 4-qubit pairwise family forces |c0|^2 = cos(2t)|c2|^2 and
    # |c1|^2 = -cos(t)|c2|^2 — certificate reports the ray either way
    for theta in np.linspace(0.3 * PI, PI, 9):
        cert = solver.solve_symmetric(4, 2, float(theta))
        r = np.array(cert.cbar_sq, float)
        assert abs(r[0] / r[2] - math.cos(2 * theta)) < 1e-9
        assert abs(r[1] / r[2] + math.cos(theta)) < 1e-9


def test_feasible_exactly_at_threshold_with_boundary_flag():
    cert = solver.solve_symmetric(4, 2, 3 * PI / 4)
    assert cert.feasible and cert.boundary
    assert cert.max_residual < 1e-8


def test_normalization_of_squared_magnitudes():
    cert = solver.solve_symmetric(6, 3, 0.9 * PI)
    _, sizes = qcore.weight_classes(6)
    total = sum(size * c for size, c in zip(sizes, cert.cbar_sq))
    assert abs(total - 1.0) < 1e-9


def test_wide_nullspace_family():
    # single-qubit trajectories on 4 qubits flip at acos(-1/2) = 2pi/3
    assert not solver.solve_symmetric(4, 1, 0.64 * PI).feasible
    cert = solver.solve_symmetric(4, 1, 0.68 * PI)
    assert cert.feasible and cert.nullspace_dim >= 2
    assert cert.max_residual < 1e-8


def test_trivial_families():
    for n, m in [(3, 0), (3, 3)]:
        cert = solver.solve_symmetric(n, m, 0.5 * PI)
        assert cert.feasible and cert.trivial


@pytest.mark.parametrize("theta", [0.0, -0.1, PI + 1e-9])
def test_theta_domain_rejected(theta):
    with pytest.raises(ValueError):
        solver.solve_symmetric(4, 2, theta)
    with pytest.raises(ValueError):
        solver.solve_lp(TSProblem(trajset.gen_symmetric(4, 2), theta))


# --- LP oracle -------------------------------------------------------------

def test_lp_agrees_with_closed_form_on_grid(monkeypatch):
    """No grid system is undecided, and the LP verdict is the constructive one: the
    closed form for sym (on the grid and within 1e-6 of the necessary
    threshold of the half-weight families), `solve` for cyc, and
    `oracles.exact_phase1` for the 3-qubit custom families.  On the grid the
    support enumeration of `oracles.nonneg_solution` agrees as well."""
    brackets, certified = [], solver.certified_phase1
    monkeypatch.setattr(solver, "certified_phase1",
                        lambda A, b: brackets.append(certified(A, b)) or brackets[-1])
    grid = [float(t) for t in np.linspace(PI / 13, PI, 13)]
    for n in range(2, 9):
        norms = qcore.weight_classes(n)[1].astype(float)
        for m in range(1, n):
            for theta in grid:
                c1 = solver.solve_symmetric(n, m, theta)
                c2 = solver.solve_lp(TSProblem(trajset.gen_symmetric(n, m), theta))
                assert c1.feasible == c2.feasible, (n, m, theta)
                rows = solver._sym_constraint_rows(trajset.gen_symmetric(n, m), theta)
                x, _ = oracles.nonneg_solution(rows, norms)
                assert (x is not None) == c1.feasible, (n, m, theta)
    for n in range(2, 11):
        for m in sorted({n // 2, (n + 1) // 2}):
            threshold = solver.threshold_sym(n, m).theta
            for theta in (threshold + s * 10.0 ** -k for k in range(6, 14) for s in (-1, 1)):
                c1 = solver.solve_symmetric(n, m, theta)
                c2 = solver.solve_lp(TSProblem(trajset.gen_symmetric(n, m), theta))
                assert c1.feasible == c2.feasible, (n, m, theta)
    for n in range(2, 13):
        for m in range(1, n):
            ts = trajset.gen_cyclic(n, m)
            for theta in grid:
                lp = solver.solve_lp(TSProblem(ts, theta))
                assert not lp.feasible or lp.max_residual < 1e-8, (n, m, theta)
                composable = n % m == 0 and n // m >= 2
                if composable and solver.build_cyclic(n, m, theta).feasible != lp.feasible:
                    # the composition is only sufficient: for kappa >= 4 the onset
                    # lies below threshold_cyc, where `solve` takes the LP's witness
                    assert n // m >= 4 and m >= 2 and lp.feasible, (n, m, theta)
                    assert theta < solver.threshold_cyc(n // m)
                    assert solver.solve(TSProblem(ts, theta)).method == "lp"
    subsets = [q for r in (1, 2, 3) for q in itertools.combinations((1, 2, 3), r)]
    for k in (2, 3):
        for members in itertools.combinations(subsets, k):
            ts = trajset.TrajectorySet(3, "custom", len(members[0]),
                                       tuple(trajset.Trajectory(q) for q in members))
            for theta in np.linspace(PI / 7, PI, 7):
                lp = solver.solve_lp(TSProblem(ts, float(theta)))
                A, b, _ = solver._lp_system(ts, float(theta))
                assert lp.feasible == (oracles.exact_phase1(A.tolist(), b.tolist())[0]
                                       <= solver.FEAS_TOL)
    assert brackets and all(upper <= solver.FEAS_TOL or lower > solver.FEAS_TOL
                            for lower, upper, _ in brackets)


def test_lp_marginal_flag_at_exact_boundary():
    cert = solver.solve_lp(TSProblem(trajset.gen_symmetric(4, 2), 3 * PI / 4))
    assert cert.feasible and cert.marginal
    assert 0 < cert.infeasibility <= 1e-9


def test_lp_reports_macroscopic_infeasibility_below_threshold():
    cert = solver.solve_lp(TSProblem(trajset.gen_symmetric(4, 2), 0.5 * PI))
    assert not cert.feasible
    assert cert.infeasibility > 1e-3


def test_lp_witness_expands_orbit_variables():
    cert = solver.solve_lp(TSProblem(trajset.gen_symmetric(4, 2), 0.9 * PI))
    assert cert.feasible
    p = np.array(cert.p)
    assert abs(p.sum() - 1.0) < 1e-12
    assert cert.max_residual < 1e-8
    # weight-orbit structure: p constant on each weight class
    w = qcore.weight_on(4, range(1, 5))
    for nu in range(3):
        cls = p[np.minimum(w, 4 - w) == nu]
        assert np.ptp(cls) < 1e-12


@pytest.mark.parametrize("stalled", [None, (np.array([np.nan]), np.zeros(1))],
                         ids=["stall", "nan"])
def test_stalled_float_solve_leaves_the_verdict_undecided(stalled, monkeypatch):
    """Without a float solve the bracket is x = 0's: [0, |b|_1], which decides nothing."""
    monkeypatch.setattr(simplex, "_float_phase1", lambda A, b: stalled)
    lower, upper, x = simplex.certified_phase1(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                               np.array([0.5, -0.25]))
    assert (lower, upper) == (0, Fraction(3, 4)) and x.tolist() == [0.0, 0.0]
    # the LP's right-hand side is the normalisation row's 1, so |b|_1 = 1
    msg = ("LP verdict undecided: exact phase-1 infeasibility in "
           "[0.000e+00, 1.000e+00] straddles FEAS_TOL = 1e-09")
    for theta in (0.6 * PI, 0.85 * PI):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            solver.solve_lp(TSProblem(trajset.gen_symmetric(4, 2), theta))


def test_certified_lower_bound_needs_positive_last_row(monkeypatch):
    """Shifting duals along a last row with a negative entry can break A^T y <= 0; no bound then."""
    A, b = np.array([[1.0, 0.0], [1.0, -1.0]]), np.array([1.0, 0.0])   # x = (1, 1): opt = 0
    # y = (1, 1) gives A^T y = (2, -1); lowering y's last entry by 2 makes column 2 positive
    monkeypatch.setattr(simplex, "_float_phase1", lambda A, b: (np.ones(2), np.ones(2)))
    lower, upper, _ = simplex.certified_phase1(A, b)
    assert lower == 0 == upper


def test_dyadic_integers_are_exact():
    v = np.array([[0.1, -3.0, 0.0], [5e-324, -1e300, math.cos(2.0)]])
    k, e = simplex._dyadic(v)
    assert [[Fraction(int(a)) * Fraction(2) ** e for a in row] for row in k] == \
        [[Fraction(a) for a in row] for row in v.tolist()]


def test_lp_interior_witness_is_exact():
    """Away from the onset the LP witness solves the rationalized system exactly."""
    cert = solver.solve_lp(TSProblem(trajset.gen_symmetric(4, 2), 0.9 * PI))
    assert cert.feasible and not cert.marginal and cert.infeasibility == 0.0


_SUBSETS = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
_FAMILIES = st.one_of(
    st.sampled_from([(n, m) for n in range(2, 8) for m in range(1, n)]).map(
        lambda nm: (trajset.gen_symmetric(*nm), solver.threshold_sym(*nm).theta)),
    st.sampled_from([(k * m, m) for m in range(1, 5) for k in range(2, 10) if k * m <= 9]).map(
        lambda nm: (trajset.gen_cyclic(*nm), solver.threshold_cyc(nm[0] // nm[1]))),
    st.lists(st.sampled_from(_SUBSETS), min_size=2, max_size=4, unique=True).map(
        lambda subsets: (trajset.TrajectorySet(3, "custom", len(subsets[0]),
                                               tuple(trajset.Trajectory(q) for q in subsets)),
                         None)),
)
_GRID = st.sampled_from([k * PI / 12 for k in range(1, 13)])
_NEAR = st.tuples(st.sampled_from([10.0 ** -k for k in range(6, 14)]), st.sampled_from([-1, 1]))


@given(_FAMILIES, st.data())
@settings(max_examples=40, deadline=None)
def test_certified_bounds_bracket_exact_optimum(family, data):
    """L <= exact optimum <= U in rationals, and a decided bracket gives the exact verdict."""
    ts, threshold = family
    if threshold is None:
        theta = data.draw(_GRID)
    else:
        theta = data.draw(_GRID | _NEAR.map(lambda ds: threshold + ds[1] * ds[0]))
    A, b, _ = solver._lp_system(ts, theta)
    lower, upper, _ = simplex.certified_phase1(A, b)
    opt, _ = oracles.exact_phase1(A.tolist(), b.tolist())
    assert lower <= opt <= upper
    tol = solver.FEAS_TOL
    assert upper > tol or opt <= tol
    assert lower <= tol or opt > tol


def test_lp_custom_family():
    members = (trajset.Trajectory((1,)), trajset.Trajectory((2, 3)))
    ts = trajset.TrajectorySet(3, "custom", 1, members)
    cert = solver.solve_lp(TSProblem(ts, PI))
    # mixed sizes force a complex cross term; certificate must stay sound
    if cert.feasible:
        assert cert.max_residual < 1e-8


@given(st.lists(st.sampled_from([(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]),
                min_size=2, max_size=4, unique=True),
       st.floats(0.2, PI))
@settings(max_examples=40, deadline=None)
def test_lp_certificates_are_sound(subsets, theta):
    """Whenever the LP says feasible, its witness must actually work."""
    ts = trajset.TrajectorySet(3, "custom", len(subsets[0]),
                               tuple(trajset.Trajectory(q) for q in subsets))
    cert = solver.solve_lp(TSProblem(ts, theta))
    if cert.feasible and not cert.marginal:
        assert cert.max_residual < 1e-7


@given(st.integers(1, 8), st.data(), st.floats(0.0, PI))
@settings(max_examples=60, deadline=None)
def test_pair_coeffs_lookup_is_the_direct_exponential(n, data, theta):
    """Bit for bit exp(-i(theta/2)(sb - sa)), evaluated entry by entry."""
    subsets = st.frozensets(st.integers(1, n), max_size=n).map(
        lambda q: trajset.Trajectory(tuple(q)))
    ta, tb = data.draw(subsets), data.draw(subsets)
    sa = len(ta) - 2 * qcore.weight_on(n, ta.qubits)
    sb = len(tb) - 2 * qcore.weight_on(n, tb.qubits)
    direct = np.exp(-0.5j * theta * (sb - sa))
    assert solver._pair_coeffs(n, ta, tb, theta).tobytes() == direct.tobytes()


# --- witness check on orbit representatives --------------------------------

def _dense_residual(psi, ts, theta):
    g = solver.eq1_gram(psi, ts, theta)
    return float(np.abs(g - np.eye(len(ts))).max())


def _orbit_labels(ts, flip=False):
    """Weight class (symmetric) or smallest cyclic rotation (cyclic) of each bitstring.

    With ``flip`` the group also holds the global bit flip j -> ~j.
    """
    n, mask = ts.n, (1 << ts.n) - 1
    images = (lambda j: (j, j ^ mask)) if flip else (lambda j: (j,))
    if ts.family == "symmetric":
        return np.array([min(bin(k).count("1") for k in images(j)) for j in range(1 << n)])
    return np.array([min(((k << r) | (k >> (n - r))) & mask for k in images(j) for r in range(n))
                     for j in range(1 << n)])


def _same_partition(a, b):
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


@pytest.mark.parametrize("ts", [trajset.gen_symmetric(n, m) for n in range(1, 9)
                                for m in range(0, n + 1)]
                         + [trajset.gen_cyclic(n, m) for n in range(2, 11) for m in range(1, n)]
                         + [trajset.gen_cyclic(1, 1)], ids=lambda ts: f"{ts.family}({ts.n},{ts.m})")
def test_lp_variables_are_orbits_under_group_and_flip(ts):
    """One LP variable per orbit of the family's group times the global bit flip."""
    _, _, inv = solver._lp_system(ts, 0.6 * PI)
    assert _same_partition(inv, _orbit_labels(ts, flip=True))


_ORBIT_FAMILIES = st.one_of(
    st.sampled_from([(n, m) for n in range(2, 9) for m in range(0, n + 1)]).map(
        lambda nm: trajset.gen_symmetric(*nm)),
    st.sampled_from([(n, m) for n in range(2, 11) for m in range(1, n)]).map(
        lambda nm: trajset.gen_cyclic(*nm)),
)


@given(_ORBIT_FAMILIES, st.floats(0.05, PI), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_orbit_reduced_residual_matches_dense(ts, theta, seed):
    """Witnesses of both routes and random orbit-constant |psi|^2 give the dense value."""
    problem = TSProblem(ts, theta)
    states = [solver.solve(problem).witness_state, solver.solve_lp(problem).witness_state]
    labels = _orbit_labels(ts)
    rng = np.random.default_rng(seed)
    p = rng.random(labels.max() + 1)[labels]
    p *= rng.uniform(0.5, 1.5) / p.sum()
    states.append(Ket(ts.n, np.sqrt(p) * np.exp(1j * rng.uniform(0, 2 * PI, p.size))))
    for psi in filter(None, states):
        dense = _dense_residual(psi, ts, theta)
        assert abs(solver.max_gram_residual(psi, ts, theta) - dense) <= 1e-12


@pytest.mark.parametrize("ts,theta", [
    (trajset.gen_symmetric(6, 3), 0.9 * PI),
    (trajset.gen_cyclic(8, 2), 0.7 * PI),
    (trajset.gen_cyclic(9, 4), 0.9 * PI),
])
def test_orbit_breaking_state_takes_dense_check(ts, theta):
    p = solver.solve(TSProblem(ts, theta)).witness_state.probs()
    p[1] += 1e-6                       # bitstring 0...01: an orbit of n members
    psi = Ket(ts.n, np.sqrt(p).astype(complex))
    assert solver.max_gram_residual(psi, ts, theta) == _dense_residual(psi, ts, theta)


@pytest.mark.parametrize("n,m,members,theta", [
    (4, 2, trajset.gen_symmetric(4, 2).members[:3], 0.7 * PI),
    (6, 2, tuple(trajset.Trajectory(q) for q in ((1, 2), (3, 4), (5, 6))), PI / 2),
], ids=["sym_prefix", "disjoint_windows"])
def test_partial_family_is_rejected(n, m, members, theta):
    """A partial family is custom (sym and cyc take no members, see
    `test_trajset.py`); both routes decide it by the LP and say feasible."""
    problem = TSProblem(trajset.TrajectorySet(n, "custom", m, members), theta)
    auto, lp = solver.solve(problem), solver.solve_lp(problem)
    assert auto.method == lp.method == "lp"
    assert auto.feasible and lp.feasible and auto.max_residual < 1e-12
    psi = auto.witness_state
    assert problem.trajectories.orbits is None
    assert solver.max_gram_residual(psi, problem.trajectories, theta) == _dense_residual(
        psi, problem.trajectories, theta)


@pytest.mark.parametrize("ts,theta", [
    (trajset.gen_symmetric(10, 5), 0.95 * PI),
    (trajset.gen_symmetric(5, 0), 0.5 * PI),
    (trajset.gen_cyclic(12, 3), 2 * PI / 3),
    (trajset.gen_cyclic(10, 3), PI),          # 3 does not divide 10: the LP route
], ids=["sym(10,5)", "sym(5,0)", "cyc(12,3)", "cyc(10,3)"])
def test_routes_build_no_members_and_stream_phase_rows(ts, theta, monkeypatch):
    """A sym or cyc family is its (n, m): both routes and the witness check read
    `ts.orbits`, never `members`, and ask for at most two phase rows at a time."""
    def no_members(self):
        raise AssertionError(f"members of {self.family}({self.n},{self.m}) built")
    monkeypatch.setattr(trajset.TrajectorySet, "members", property(no_members))
    rows, phase_matrix = [], trajset.phase_matrix
    monkeypatch.setattr(trajset, "phase_matrix", lambda members, n, theta: (
        rows.append(len(members)) or phase_matrix(members, n, theta)))
    problem = TSProblem(ts, theta)
    for cert in (solver.solve(problem), solver.solve_lp(problem)):
        assert cert.feasible and cert.max_residual <= 1e-12
        assert solver.max_gram_residual(cert.witness_state, ts, theta) == cert.max_residual
    assert rows and max(rows) <= 2


def test_dense_check_refusal_names_the_cap():
    members = trajset.gen_symmetric(12, 6).members
    ts = trajset.TrajectorySet(12, "custom", 6, members)
    psi = Ket(12, np.full(1 << 12, 2.0 ** -6, dtype=complex))
    with pytest.raises(ValueError, match=r"\|T\|\^2\*2\^n = 924\^2\*2\^12 = 3\.5e\+09 > 2e\+09"):
        solver.max_gram_residual(psi, ts, PI)


# --- tensor composition ----------------------------------------------------

def test_build_cyclic_four_qubit_windows():
    cert = solver.build_cyclic(4, 2, PI / 2)
    assert cert.feasible and cert.method == "tensor_composition"
    amps = cert.witness_state.amps
    support = {qcore.bitstring(4, j) for j in np.nonzero(np.abs(amps) > 1e-12)[0]}
    assert support == {"0011", "0110", "1001", "1100"}
    assert cert.max_residual < 1e-8


def test_build_cyclic_matches_explicit_tensor():
    theta = 0.6 * PI
    sub = solver.solve_symmetric(2, 1, theta).witness_state
    direct = oracles.tensor(sub, sub, place_a=(1, 3), place_b=(2, 4))
    built = solver.build_cyclic(4, 2, theta).witness_state
    assert qcore.equal_up_to_phase(direct, built)
    # every composable cyc(n,m) up to n = 12 against the bit-gather placement;
    # 0.9pi lies above threshold_cyc(kappa) for every kappa <= 12
    theta = 0.9 * PI
    for n in range(2, 13):
        for m in range(1, n // 2 + 1):
            if n % m == 0:
                sub = solver.solve_symmetric(n // m, 1, theta).witness_state
                built = solver.build_cyclic(n, m, theta).witness_state
                assert np.array_equal(built.amps, oracles.compose_cyclic(sub, n, m)), (n, m)


def test_build_cyclic_below_threshold():
    cert = solver.build_cyclic(6, 2, 0.64 * PI)   # kappa=3 needs 2pi/3
    assert not cert.feasible
    assert "threshold" in cert.detail


def test_build_cyclic_agrees_with_lp():
    for theta in [0.6 * PI, 0.7 * PI, 0.95 * PI]:
        tc = solver.build_cyclic(6, 2, theta)
        lp = solver.solve_lp(TSProblem(trajset.gen_cyclic(6, 2), theta))
        assert tc.feasible == lp.feasible, theta


def test_build_cyclic_validates_divisibility():
    with pytest.raises(ValueError):
        solver.build_cyclic(5, 2, PI)
    with pytest.raises(ValueError):
        solver.build_cyclic(4, 4, PI)


def test_larger_composition():
    cert = solver.build_cyclic(8, 2, 0.7 * PI)    # kappa=4, threshold 2pi/3
    assert cert.feasible
    assert cert.max_residual < 1e-8


# --- helpers and dispatch --------------------------------------------------

def test_solve_dispatch():
    sym = TSProblem(trajset.gen_symmetric(4, 2), 0.9 * PI)
    assert solver.solve(sym).method == "closed_form"
    assert solver.solve_lp(sym).method == "lp"
    cyc = TSProblem(trajset.gen_cyclic(4, 2), 0.9 * PI)
    assert solver.solve(cyc).method == "tensor_composition"
    # 2 does not divide 5: no tensor composition, so the LP is the route
    assert solver.solve(TSProblem(trajset.gen_cyclic(5, 2), PI)).method == "lp"
    # an infeasible composition decides kappa <= 3 and m = 1; the LP decides the rest
    for (n, m), theta, method, feasible in [
            ((6, 2), 0.6 * PI, "tensor_composition", False),
            ((4, 1), 0.6 * PI, "tensor_composition", False),
            ((8, 2), 0.65 * PI, "lp", True),
            ((8, 2), 0.5 * PI, "lp", False)]:
        cert = solver.solve(TSProblem(trajset.gen_cyclic(n, m), theta))
        assert (cert.method, cert.feasible) == (method, feasible), (n, m, theta)
        assert not feasible or cert.max_residual < 1e-12


@pytest.mark.parametrize("ts,expect", [
    (trajset.gen_symmetric(4, 2), 3 * PI / 4),
    (trajset.gen_cyclic(8, 2), solver.threshold_cyc(4)),
    (trajset.gen_cyclic(1, 1), PI),          # kappa = 1: LP route, no closed onset
    (trajset.gen_cyclic(6, 4), PI),          # 4 does not divide 6: no kappa
    (trajset.TrajectorySet(3, "custom", 1, (trajset.Trajectory((1,)),
                                            trajset.Trajectory((2,)))), PI),
])
def test_onset_follows_solve_dispatch(ts, expect):
    theta = solver.onset(ts)
    assert theta == expect
    assert solver.solve(TSProblem(ts, theta)).feasible


def test_certificate_json():
    cert = solver.solve_symmetric(4, 2, 0.8 * PI)
    payload = cert.to_dict()
    assert payload["feasible"] is True
    assert payload["method"] == "closed_form"
    assert "witness_state" in payload and "cbar_sq" in payload
    infeasible = solver.solve_symmetric(4, 2, 0.6 * PI).to_dict()
    assert infeasible["feasible"] is False and "witness_state" not in infeasible


def _loop_ket_json(k):
    """Reference serialisation, one amplitude at a time."""
    entries = {}
    for j, a in enumerate(k.amps):
        if abs(a) > 0.0:
            entries[qcore.bitstring(k.n, j)] = [float(a.real), float(a.imag)]
    return json.dumps({"n": k.n, "amps": entries}, sort_keys=True, indent=2)


def test_certificate_json_bytes_match_round_trip():
    certs = [solver.solve_symmetric(4, 2, 3 * PI / 4),
             solver.solve_lp(TSProblem(trajset.gen_cyclic(8, 2), PI / 2)),
             solver.solve_lp(TSProblem(trajset.gen_cyclic(8, 2), 0.7 * PI)),
             solver.solve_lp(TSProblem(trajset.gen_symmetric(10, 5), 9 * PI / 10)),
             solver.solve_lp(TSProblem(trajset.gen_symmetric(4, 2), PI / 2))]
    assert len(certs[3].p) == 2 ** 10
    assert certs[4].sign_violations == [] and certs[4].nullspace_dim is None
    for cert in certs:
        text = "".join(qcore.indented_json(cert.to_dict()))
        payload = json.loads(text)
        if cert.witness_state is not None:
            payload["witness_state"] = json.loads(_loop_ket_json(cert.witness_state))
        assert text == json.dumps(payload, sort_keys=True, indent=2)
    full = certs[2].witness_state
    k = qcore.Ket(full.n, np.where(np.abs(full.amps) > 0.1, full.amps, 0.0))   # zeros drop out
    text = "".join(qcore.indented_json(k))
    assert text == _loop_ket_json(k)
    assert text == json.dumps(oracles.ket_to_dict(k), sort_keys=True, indent=2)
    assert 0 < len(oracles.ket_to_dict(k)["amps"]) < len(oracles.ket_to_dict(full)["amps"])
