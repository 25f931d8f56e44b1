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
from trajsense import discrim, qcore, rng, solver, trajset
from trajsense.discrim import make_ensemble

PI = math.pi
BELL = qcore.make_ket(2, [("01", 1.0), ("10", 1.0)])
TS21 = trajset.gen_symmetric(2, 1)
TS42 = trajset.gen_symmetric(4, 2)


def plus_state(n):
    return qcore.Ket(n, np.full(1 << n, (1 << n) ** -0.5, dtype=complex))


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
    assert oracles.helstrom_pair(np.stack([a.amps, b.amps])).p_fail < 1e-12
    assert abs(oracles.helstrom_pair(np.stack([a.amps, a.amps])).p_fail - 0.5) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.2, 2.5])
def test_helstrom_single_qubit_formula(theta):
    plus = qcore.Ket(1, np.array([1, 1], dtype=complex) / math.sqrt(2))
    rot = qcore.Ket(1, plus.amps * trajset.phase_matrix([trajset.Trajectory((1,))], 1, theta)[0])
    got = oracles.helstrom_pair(np.stack([plus.amps, rot.amps])).p_fail
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
    assert np.abs(coords.conj() @ coords.T - ens.conj() @ ens.T).max() < 1e-12


def test_pgm_identical_states():
    ens = np.stack([qcore.make_ket(2, [("00", 1.0)]).amps] * 6)
    assert abs(discrim.pgm(ens).p_fail - 5 / 6) < 1e-12


def test_pgm_pseudo_inverse_cut_matches_dense():
    """The span keeps a direction with sv**2 > 1e-12 sv0**2 and drops one below,
    as the pseudo-inverse of rho that the dense elements rho^(-1/2) G_j
    rho^(-1/2) use does, so the PGM factors are (3, 2) and measure as the
    dense PGM on the oracle's wider span."""
    gen = np.random.default_rng(5)
    S = gen.normal(size=(3, 8)) + 1j * gen.normal(size=(3, 8))
    S[1] = S[0] + 3e-5 * gen.normal(size=8)          # sv**2 ~ 8e-11 sv0**2: kept
    S[2] = S[0] + 1e-7 * gen.normal(size=8)          # sv**2 ~ 1e-15 sv0**2: cut
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    res, dense = discrim.pgm(S), oracles.pgm(S)
    assert res.povm.shape == (3, 2) and "rank-deficient" in res.note
    np.testing.assert_allclose(res.confusion, dense.confusion, atol=1e-9)
    assert abs(res.p_fail - dense.p_fail) <= 1e-9


def test_pgm_confusion_rows_stochastic():
    res = discrim.pgm(make_ensemble(plus_state(4), TS42, 0.6 * PI))
    np.testing.assert_allclose(res.confusion.sum(axis=1), 1.0, atol=1e-9)
    assert res.confusion.min() >= 0.0


# --- fixed-point optimum ---------------------------------------------------

def test_optimal_matches_helstrom_on_pairs():
    for theta in [0.4, 1.1, 2.0]:
        ens = make_ensemble(plus_state(2), TS21, theta)
        o = discrim.optimal_measurement(ens)
        h = oracles.helstrom_pair(ens)
        assert abs(o.p_fail - h.p_fail) < 1e-8
        assert oracles.kkt_residual(oracles.span_coords(ens),
                                    oracles.elements(o.povm)) <= 1e-9


def test_optimal_never_worse_than_pgm():
    for theta in [0.3 * PI, 0.6 * PI, 0.9 * PI]:
        ens = make_ensemble(plus_state(4), TS42, theta)
        assert discrim.optimal_measurement(ens).p_fail <= discrim.pgm(ens).p_fail + 1e-9


def test_optimal_equals_pgm_on_cyclic_ensembles():
    """Shift-covariant output sets are geometrically uniform: PGM is optimal."""
    cyc = trajset.gen_cyclic(4, 2)
    for theta in [0.4 * PI, 0.7 * PI]:
        ens = make_ensemble(plus_state(4), cyc, theta)
        assert abs(discrim.optimal_measurement(ens).p_fail - discrim.pgm(ens).p_fail) < 1e-8


@pytest.mark.parametrize("theta_pi,iterations,p_fail", [
    (0.4, 14, 0.4908863735185425),
    (0.7, 9, 0.3990645542697552),
])
def test_fixed_point_iterates_on_custom_family(theta_pi, iterations, p_fail):
    """An ensemble where the PGM seed is not optimal, so the update loop runs."""
    ts = trajset.TrajectorySet(3, "custom", 1, tuple(
        trajset.Trajectory(q) for q in [(1,), (2,), (1, 3)]))
    ens = make_ensemble(oracles.product_input([0.4] * 3), ts, theta_pi * PI)
    res = discrim.optimal_measurement(ens)
    assert res.converged and res.iterations == iterations
    assert oracles.kkt_residual(oracles.span_coords(ens),
                                oracles.elements(res.povm)) <= 1e-9
    assert abs(res.p_fail - p_fail) < 1e-12
    assert res.p_fail < discrim.pgm(ens).p_fail


@st.composite
def small_ensembles(draw):
    """(k, 2**n) output arrays, k <= 12 and n <= 4, with the degenerate shapes
    that stress the rank-one test: duplicated, near-parallel and rank-deficient
    rows, and the outputs of custom families."""
    n = draw(st.integers(1, 4))
    dim = 1 << n
    kind = draw(st.sampled_from(["random", "duplicated", "near_parallel",
                                 "rank_deficient", "custom"]))
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
    if kind == "rank_deficient" and min(k, dim) > 1:
        r = draw(st.integers(1, min(k, dim) - 1))
        S = gauss(k, r) @ gauss(r, dim)
    elif kind in ("duplicated", "near_parallel") and k > 1:
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        eps = 0.0 if kind == "duplicated" else draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
        S[j] = S[i] + eps * gauss(dim)
    return S / np.linalg.norm(S, axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(small_ensembles())
def test_rank_one_optimality_test_matches_dense_eigvalsh(S):
    """`_is_optimal` decides as lambda_min(Gamma - G_j) >= -tol for every j does,
    on the PGM, the first fixed-point iterates and the returned measurement,
    and a converged result passes the dense test.  Draws whose dense residual
    lies within 1e-12 of the tolerance are skipped."""
    m, sv = discrim._reduce(S)
    coords = m * sv
    measurements = [m]
    for _ in range(3):
        m = discrim._fixed_point_step(coords, discrim._overlaps(coords, m))
        measurements.append(m)
    res = discrim.optimal_measurement(S)
    measurements.append(res.povm)
    residuals = [oracles.kkt_residual(coords, oracles.elements(m)) for m in measurements]
    assume(all(abs(r - discrim._FP_TOL) > 1e-12 for r in residuals))
    for m, resid in zip(measurements, residuals):
        assert discrim._is_optimal(coords, m, discrim._overlaps(coords, m)) == \
            (resid <= discrim._FP_TOL)
    assert not res.converged or residuals[-1] <= discrim._FP_TOL


def _unscreened(phases, gens, weights):
    """A `discrim._screen` that certifies nothing: every candidate meets
    `optimal_measurement`."""
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
    The oracle side tries every candidate, so the screened shortlist must
    keep each point's argmin."""
    ts = {"sym": trajset.gen_symmetric, "cyc": trajset.gen_cyclic}[family](n, m)
    grid = np.linspace(0.0, PI, points)
    got = discrim.failure_curve(ts, grid)
    monkeypatch.setattr(discrim, "_screen", _unscreened)
    monkeypatch.setattr(discrim, "pgm", oracles.pgm)
    monkeypatch.setattr(discrim, "optimal_measurement", oracles.optimal_measurement)
    want = discrim.failure_curve(ts, grid)
    assert [(p.theta, p.method) for p in got] == [(p.theta, p.method) for p in want]
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


@settings(max_examples=80, deadline=None)
@given(invariant_candidates())
@example((trajset.phase_matrix(TS21.members, 2, 3 * PI / 8),      # mass on a cut direction
          np.array([[0.0, 2e-14, 2e-14, 1.0]]) / (1.0 + 4e-14), np.ones((1, 1))))
def test_screen_certificate_holds_on_the_svd_route(case):
    """Where `_screen` certifies a candidate, the PGM from the SVD passes
    `_is_optimal`, and the screened value is `optimal_measurement`'s within
    the stated error bound."""
    phases, gens, weights = case
    for w, p, err, ok in zip(weights, *discrim._screen(phases, gens, weights)):
        if not ok:
            continue
        states = phases * np.sqrt(w @ gens)
        m, sv = discrim._reduce(states)
        coords = m * sv
        assert discrim._is_optimal(coords, m, discrim._overlaps(coords, m))
        res = discrim.optimal_measurement(states)
        assert res.iterations == 0
        assert abs(p - res.p_fail) <= err


def test_screen_leaves_a_candidate_at_the_cut_uncertified():
    """A Gram eigenvalue within k eps lam_max of the span cut may land on either
    side of it in the SVD, so `_screen` does not certify its candidate."""
    phases = trajset.phase_matrix(TS21.members, 2, 3 * PI / 8)
    w = np.array([0.0, 1.6198709040793347e-12, 1.6198709040793347e-12, 1.0])
    psi = qcore.Ket(2, np.sqrt(w / w.sum()).astype(complex))
    lam = np.linalg.eigvalsh((phases * psi.probs()) @ phases.conj().T)
    assert abs(lam[0] - discrim._SPAN_CUT * lam[-1]) <= 2 * np.finfo(float).eps * lam[-1]
    assert not discrim._screen(phases, psi.probs()[None], np.ones((1, 1)))[2][0]


def test_a_non_invariant_candidate_meets_optimal_measurement(monkeypatch):
    """A candidate off the invariant subspace, joined as one more generator, is
    left uncertified, so it runs `optimal_measurement` at every angle, and the
    curve is the unscreened one.  The sweep expands it as sqrt(|psi|^2), the
    same ensemble up to a diagonal unitary, so of the same p_fail."""
    ts, grid = trajset.gen_symmetric(4, 2), np.linspace(0.0, PI, 13)
    amps = np.array([1.0, 1.0j]) @ np.random.default_rng(3).normal(size=(2, 16))
    odd = qcore.Ket(4, amps / np.linalg.norm(amps))
    sweep, om = discrim._symmetrized_candidates, discrim.optimal_measurement

    def with_odd(n):
        gens, weights = sweep(n)
        return (np.vstack([gens, odd.probs()]),
                np.vstack([np.pad(weights, ((0, 0), (0, 1))), np.eye(len(gens) + 1)[-1]]))
    monkeypatch.setattr(discrim, "_symmetrized_candidates", with_odd)
    seen = []
    monkeypatch.setattr(discrim, "optimal_measurement",
                        lambda states: seen.append(states) or om(states))
    screened = discrim.failure_curve(ts, grid)
    below = [t for t in grid[1:] if not solver.solve(solver.TSProblem(ts, t)).feasible]
    assert below
    for theta in below:
        phases = trajset.phase_matrix(ts.members, ts.n, theta)
        assert not discrim._screen(phases, odd.probs()[None], np.ones((1, 1)))[2][0]
        assert any(np.array_equal(s, phases * np.abs(odd.amps)) for s in seen)
    monkeypatch.setattr(discrim, "_screen", _unscreened)
    assert discrim.failure_curve(ts, grid) == screened


def test_small_angle_sweep_converges(monkeypatch):
    """On sym(6,3) at pi/314 the candidates' spans have directions with
    sv**2 ~ 1e-15 sv0**2.  The span cuts them as the PGM does, so every fixed
    point inside `failure_curve` converges; with the span keeping them, 26
    candidates ran to `_FP_MAX_ITER`."""
    om, results = discrim.optimal_measurement, []
    monkeypatch.setattr(discrim, "optimal_measurement",
                        lambda states: results.append(om(states)) or results[-1])
    discrim.failure_curve(trajset.gen_symmetric(6, 3), [PI / 314])
    assert results and all(res.converged for res in results)


# --- classical baselines ---------------------------------------------------

def test_classical_plus_endpoints():
    res = discrim.classical_baseline(TS42, PI)
    assert res.p_fail < 1e-9
    res0 = discrim.classical_baseline(TS42, 0.0)
    assert abs(res0.p_fail - 5 / 6) < 1e-9


def test_classical_plus_positive_below_pi():
    for theta in [0.5 * PI, 0.9 * PI, 0.99 * PI]:
        assert discrim.classical_baseline(TS42, theta).p_fail > 0


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
    overlap with its rotated copy, so no product input fails less often."""
    ts, psi, theta = case
    res = discrim.optimal_measurement(make_ensemble(psi, ts, theta))
    assert res.p_fail >= discrim.classical_baseline(ts, theta).p_fail - 1e-12


@pytest.mark.parametrize("ts", [
    trajset.gen_symmetric(3, 1), TS42,
    trajset.TrajectorySet(3, "custom", 1, tuple(
        trajset.Trajectory(q) for q in [(1,), (2,), (1, 3)]))],
    ids=["sym31", "sym42", "custom"])
def test_product_p_fail_independent_of_phi(ts):
    """Every R^(T) is diagonal, so p_fail depends on |psi|^2 alone."""
    for theta in [0.3 * PI, 0.55 * PI, 0.8 * PI]:
        for alpha in [0.4, 1.3, 2.5]:
            ref = discrim.optimal_measurement(
                make_ensemble(oracles.product_input([alpha] * ts.n), ts, theta)).p_fail
            for phi in [0.0, 0.7, 2.0, 4.1]:
                psi = oracles.product_input([alpha] * ts.n, [phi] * ts.n)
                ens = make_ensemble(psi, ts, theta)
                assert abs(discrim.optimal_measurement(ens).p_fail - ref) <= 1e-12


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
def test_repetition_analysis_matches_the_per_epsilon_search(case):
    """Each epsilon's r and p_error_after_vote are those of its own search from r = 1."""
    conf, eps, cap = case
    res = discrim.DiscriminationResult(None, 0.0, "pgm", conf)
    errs = {}

    def err_at(r):
        if r not in errs:
            errs[r] = discrim.plurality_error(conf, r)
        return errs[r]

    with mock.patch.object(discrim, "_VOTE_R_CAP", cap):
        reports = discrim.repetition_analysis(res, eps)
    for e, rep in zip(eps, reports):
        r = next((r for r in range(1, cap + 1) if err_at(r) <= e), math.inf)
        assert (rep.r, rep.p_error_after_vote, rep.epsilon_target) == \
            (r, err_at(min(r, cap)), e)
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
    flat = discrim.DiscriminationResult(None, 5 / 6, "pgm", np.full((6, 6), 1 / 6))
    reports = discrim.repetition_analysis(flat, [0.25])
    assert math.isinf(reports[0].r)


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
    """Every measurement takes a nonempty (k, 2**n) array, checked in `_reduce`."""
    for measure in (discrim.pgm, discrim.optimal_measurement):
        with pytest.raises(ValueError, match="nonempty"):
            measure(())
        with pytest.raises(ValueError):                  # ragged rows
            measure([BELL.amps, qcore.make_ket(3, [("000", 1.0)]).amps])
        with pytest.raises(ValueError, match="nonempty"):   # no register has dimension 3
            measure(np.ones((2, 3)))
        with pytest.raises(ValueError, match="nonempty"):   # one state, not a stack
            measure(BELL.amps)
