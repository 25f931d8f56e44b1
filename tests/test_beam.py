"""Beam-scenario tests: geometry, Born probabilities, advantage scaling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trajsense import beam, qcore, trajset
from trajsense.trajset import Trajectory

TOP_EDGE = (0.0, 0.5)          # horizontal line through atoms 1 and 2
DIAGONAL = (math.pi / 4, 0.0)  # line through atoms 1 and 3


# ---------------------------------------------------------------- geometry

def test_angle_through_atom_is_theta0():
    sc = beam.BeamScenario(0.7, 3.0)
    a = oracles.beam_angles(sc, TOP_EDGE)
    assert a[0] == pytest.approx(0.7, abs=1e-12)
    assert a[1] == pytest.approx(0.7, abs=1e-12)


def test_angle_at_distance_w_is_theta0_over_e():
    # atoms 3,4 sit exactly one side length below the top edge
    sc = beam.BeamScenario(0.7, 1.0)
    a = oracles.beam_angles(sc, TOP_EDGE)
    assert a[2] == pytest.approx(0.7 / math.e, rel=1e-12)
    assert a[3] == pytest.approx(0.7 / math.e, rel=1e-12)


def test_wide_beam_limit_all_angles_theta0():
    sc = beam.BeamScenario(0.4, 1e9)
    a = oracles.beam_angles(sc, (1.1, 0.3))
    assert np.allclose(a, 0.4, atol=1e-12)


def nearest(beam_line):
    idx, tied = beam._nearest_indices(beam._distances(*beam_line))
    return Trajectory(beam.EDGES[int(idx)]), bool(tied)


def test_nearest_along_edge():
    assert nearest(TOP_EDGE) == (Trajectory((1, 2)), False)


def test_nearest_along_diagonal_is_tied():
    # first in window order wins the tie
    assert nearest(DIAGONAL) == (Trajectory((1, 2)), True)


def test_nearest_offset_toward_edge():
    assert nearest((0.0, 0.2)) == (Trajectory((1, 2)), False)
    assert nearest((0.0, -0.2)) == (Trajectory((3, 4)), False)


def test_scenario_validation():
    with pytest.raises(ValueError):
        beam.BeamScenario(-0.1, 1.0)
    with pytest.raises(ValueError):
        beam.BeamScenario(3.2, 1.0)
    with pytest.raises(ValueError):
        beam.BeamScenario(0.1, 0.0)
    with pytest.raises(ValueError):
        beam.BeamScenario(0.1, math.nan)
    beam.BeamScenario(0.0, 1.0)   # zero amplitude is a valid baseline
    beam.BeamScenario(0.1, math.inf)   # the flat-beam limit


# ------------------------------------------------------- outcome probabilities

def test_closed_form_matches_statevector_route():
    sc = beam.BeamScenario(0.9, 1.3)
    rs = np.random.default_rng(5)
    for _ in range(25):
        line = (rs.uniform(0, math.pi), rs.uniform(-0.5, 0.5))
        ang = oracles.beam_angles(sc, line)
        fast = beam.entangled_outcome_probs(ang)
        slow = oracles.entangled_outcome_probs_statevector(ang)
        assert np.allclose(fast, slow, atol=1e-12)


def test_outcome_probs_sum_to_one():
    # diagonal rotations keep the state inside the measurement span
    ang = oracles.beam_angles(beam.BeamScenario(1.4, 0.8), (2.0, -0.31))
    p = beam.entangled_outcome_probs(ang)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_amplitude_gives_uniform_quarters():
    p = beam.entangled_outcome_probs(np.zeros(4))
    assert np.allclose(p, 0.25, atol=1e-15)
    # and the basis overlaps themselves are 1/2
    psi = oracles.ts_sensor_state()
    for b in oracles.measurement_basis():
        assert abs(qcore.inner(b, psi)) == pytest.approx(0.5, abs=1e-12)


def test_measurement_basis_is_orthonormal():
    g = oracles.gram(oracles.measurement_basis())
    assert np.abs(g - np.eye(4)).max() < 1e-12


# flip probabilities with exact 0 and 1, subnormals, and repeats (so that
# score patterns tie)
_FLIP_PROBS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 2.2e-308, 0.5]),
                        st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_FLIP_PROBS, _FLIP_PROBS, _FLIP_PROBS, _FLIP_PROBS),
                min_size=1, max_size=40),
       st.data())
def test_vote_matches_the_row_sum_bit_for_bit(rows, data):
    q = np.array(rows)
    if data.draw(st.booleans()):          # the same probability on every qubit
        q[:] = q[:, :1]
    for edge in range(4):
        true_idx = np.full(len(q), edge)
        assert np.array_equal(beam._unentangled_win_prob(q, true_idx),
                              oracles.unentangled_win_prob_rows(q, true_idx))


def test_unentangled_rule_hand_cases():
    # both top atoms flipped for sure -> always guess the top edge
    win = beam._unentangled_win_prob(np.array([[1.0, 1.0, 0.0, 0.0]]),
                                     np.array([0]))
    assert win[0] == pytest.approx(1.0)
    # nothing ever flips -> pure guesswork
    win = beam._unentangled_win_prob(np.zeros((1, 4)), np.array([2]))
    assert win[0] == pytest.approx(0.25)


def test_born_frequencies_match_sampled_outcomes():
    # fixed line; draw projective outcomes through the oracle and compare
    sc = beam.BeamScenario(1.1, 1.0)
    line = (0.7, 0.12)
    ang = oracles.beam_angles(sc, line)
    probs = beam.entangled_outcome_probs(ang)
    psi = oracles.ts_sensor_state()
    amps = psi.amps.copy()
    for i, th in enumerate(ang, start=1):
        amps = amps * trajset.phase_matrix([Trajectory((i,))], 4, float(th))[0]
    rotated = qcore.from_vector(4, amps, normalize=False)
    basis = oracles.measurement_basis()
    shots = 2000
    counts = np.zeros(5)
    for k in range(shots):
        counts[oracles.sample_measurement(rotated, basis, 99, sample_index=k)] += 1
    freq = counts / shots
    for i in range(4):
        sigma = math.sqrt(probs[i] * (1 - probs[i]) / shots)
        assert abs(freq[i] - probs[i]) <= 4 * max(sigma, 1e-9)
    assert freq[4] == 0.0   # complement never fires for diagonal rotations


def _per_sensor_reference(sc, phi, offset):
    """Each sensor's per-line formulas, on the whole line set in one piece."""
    d = beam._distances(phi, offset)
    angles = sc.theta0 * np.exp(-(d ** 2) / sc.w ** 2)
    sums = np.stack([d[:, i - 1] + d[:, j - 1] for i, j in beam.EDGES], axis=-1)
    order = np.argsort(sums, axis=-1, kind="stable")
    true_idx = order[:, 0]
    gap = (np.take_along_axis(sums, order[:, 1:2], -1)
           - np.take_along_axis(sums, order[:, :1], -1))[:, 0]
    probs = beam.entangled_outcome_probs(angles)
    leftover = np.clip(1.0 - probs.sum(axis=-1), 0.0, None)
    pe = 1.0 - (probs[np.arange(len(phi)), true_idx] + leftover / 4)
    pu = 1.0 - oracles.unentangled_win_prob_rows(np.sin(angles / 2.0) ** 2, true_idx)
    return pe, pu, gap <= 1e-12


@pytest.mark.parametrize("theta0,w", [(1.2, 0.8), (0.05, 10.0)])
def test_line_failures_blocking_keeps_bits(theta0, w):
    # one line past a block boundary, with a tied diagonal and an edge line
    phi, offset = beam._sample_lines(beam._BLOCK - 1, 5)
    phi = np.append(phi, [DIAGONAL[0], TOP_EDGE[0]])
    offset = np.append(offset, [DIAGONAL[1], TOP_EDGE[1]])
    assert phi.size == beam._BLOCK + 1
    sc = beam.BeamScenario(theta0, w)
    got = beam.line_failures(sc, phi, offset)
    want = _per_sensor_reference(sc, phi, offset)
    for g, r in zip(got, want):
        assert np.array_equal(g, r)
    assert got[2][-2] and not got[2][-1]


# ------------------------------------------------------------- trial running

def test_theta0_zero_failure_is_three_quarters():
    q = beam.compare_sensors(beam.BeamScenario(0.0, 5.0), grid=(32, 32))
    for p_fail in (q.p_fail_entangled, q.p_fail_unentangled):
        assert p_fail == pytest.approx(0.75, abs=1e-12)


def test_sample_mode_matches_quadrature():
    sc = beam.BeamScenario(0.8, 1.5)
    q = beam.compare_sensors(sc, grid=(128, 128))
    for sensor, q_p_fail in (("entangled_ts", q.p_fail_entangled),
                             ("unentangled_plus", q.p_fail_unentangled)):
        p_fail, stderr = oracles.run_beam_trials(sc, sensor, 4000, 123)
        assert abs(p_fail - q_p_fail) < 4 * stderr


def test_exact_conditional_reduces_variance():
    sc = beam.BeamScenario(0.8, 1.5)
    mc_p_fail, mc_stderr = oracles.run_beam_trials(sc, "entangled_ts", 4000, 123)
    # the same lines, each contributing its exact conditional failure
    pe, _, _ = beam.line_failures(sc, *beam._sample_lines(4000, 123))
    ex_p_fail, ex_stderr = pe.mean(), pe.std(ddof=1) / math.sqrt(4000)
    assert ex_stderr < mc_stderr
    assert abs(ex_p_fail - mc_p_fail) < 4 * mc_stderr


def test_trials_deterministic_in_seed():
    sc = beam.BeamScenario(0.5, 2.0)
    a = oracles.run_beam_trials(sc, "unentangled_plus", 2000, 7)
    b = oracles.run_beam_trials(sc, "unentangled_plus", 2000, 7)
    assert a == b
    # a different seed changes the underlying draws (aggregate rates can
    # still collide by chance, so compare per-trial outcomes)
    true7, guess7, _, _ = oracles.sample_outcomes(sc, "unentangled_plus", 500, 7)
    true8, guess8, _, _ = oracles.sample_outcomes(sc, "unentangled_plus", 500, 8)
    assert ((guess7 == true7) != (guess8 == true8)).any()


def test_sampled_outcomes_give_the_trial_failure():
    sc = beam.BeamScenario(0.8, 1.5)
    true_idx, guess, complement, _ = oracles.sample_outcomes(sc, "entangled_ts", 1500, 42)
    assert len(true_idx) == len(guess) == len(complement) == 1500
    assert set(true_idx) <= {0, 1, 2, 3} and set(guess) <= {0, 1, 2, 3}
    p_fail, _ = oracles.run_beam_trials(sc, "entangled_ts", 1500, 42)
    assert p_fail == (guess != true_idx).mean()
    # the four rotated outputs exhaust the norm, so the complement outcome,
    # which measures no edge, does not fire
    assert not complement.any()


def test_chunked_draws_match_one_pass():
    # two whole draw chunks and a ragged tail of three lines
    sc, trials, seed = beam.BeamScenario(0.3, 1.0), 2 * beam._DRAW_CHUNK + 3, 17
    pe, pu, _ = beam.line_failures(sc, *beam._sample_lines(trials, seed))
    diff = pu - pe
    row = beam.compare_sensors(sc, "mc", trials, seed)
    assert row.p_fail_entangled == float(pe.mean())
    assert row.p_fail_unentangled == float(pu.mean())
    assert row.advantage == float(diff.mean())
    assert row.stderr == float(diff.std(ddof=1) / math.sqrt(trials))


def test_monte_carlo_needs_two_trials():
    sc = beam.BeamScenario(0.5, 2.0)
    for trials in (0, 1):
        with pytest.raises(ValueError, match="at least 2 trials"):
            beam.compare_sensors(sc, "mc", trials, 3)
        with pytest.raises(ValueError, match="at least 2 trials"):
            oracles.run_beam_trials(sc, "entangled_ts", trials, 3)
    with pytest.raises(ValueError, match="at least 2 trials"):
        beam.beam_sweep([0.1], [3.0], mode="mc")


def test_unknown_sensor_rejected():
    sc = beam.BeamScenario(0.5, 2.0)
    with pytest.raises(ValueError):
        oracles.run_beam_trials(sc, "telepathy", 10, 0)


# -------------------------------------------------------- symmetry/dominance

def test_four_fold_symmetry():
    # with a symmetric quadrature grid each edge is nearest equally often
    # and the per-edge conditional failure profile is identical
    sc = beam.BeamScenario(0.3, 2.0)
    g = 64
    phi = (np.arange(g) + 0.5) * math.pi / g
    off = -0.5 + (np.arange(g) + 0.5) / g
    P, O = np.meshgrid(phi, off, indexing="ij")
    true_idx, _ = beam._nearest_indices(beam._distances(P.ravel(), O.ravel()))
    shares = np.bincount(true_idx, minlength=4) / true_idx.size
    assert np.allclose(shares, 0.25, atol=0.02)
    pfail, _, _ = beam.line_failures(sc, P.ravel(), O.ravel())
    means = [pfail[true_idx == e].mean() for e in range(4)]
    assert max(means) - min(means) < 1e-10


@pytest.mark.parametrize("theta0", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("w", [2.0, 5.0, 10.0])
def test_entangled_never_worse_in_weak_wide_regime(theta0, w):
    sc = beam.BeamScenario(theta0, w)
    q = beam.compare_sensors(sc, grid=(96, 96))
    assert q.p_fail_entangled <= q.p_fail_unentangled + 1e-12


def test_paired_advantage_strongly_significant():
    q = beam.compare_sensors(beam.BeamScenario(0.05, 10.0), "mc", 50_000, 11)
    mean, err = q.advantage, q.stderr
    assert mean > 0
    assert mean / err > 5


# --------------------------------------------------------------------- sweep

def test_sweep_linear_in_theta0_and_inverse_w_squared():
    sw = beam.beam_sweep([0.02, 0.05, 0.08, 0.11], [5.0, 10.0, 20.0],
                         grid=(128, 128))
    for w in (5.0, 10.0, 20.0):
        fit = sw.fits_vs_theta0[w]
        assert fit.slope > 0
        assert fit.r2 > 0.98
    # doubling the waist cuts the slope about fourfold
    for w in (5.0, 10.0):
        ratio = sw.fits_vs_theta0[w].slope / sw.fits_vs_theta0[2 * w].slope
        assert abs(ratio - 4.0) < 0.8
    for t0 in (0.02, 0.05, 0.08, 0.11):
        assert sw.fits_vs_inv_w2[t0].r2 > 0.98
    # rescaled coefficient is waist-independent and reported vs the reference
    coeffs = [sw.measured_coefficient(w) for w in (5.0, 10.0, 20.0)]
    assert max(coeffs) - min(coeffs) < 0.05 * max(coeffs)
    assert sw.reference_coefficient == pytest.approx(8 / math.pi ** 2)


def test_sweep_mc_mode_agrees_with_quadrature():
    q = beam.beam_sweep([0.1], [3.0], grid=(128, 128))
    m = beam.beam_sweep([0.1], [3.0], trials=20_000, seed=3, mode="mc")
    row_q, row_m = q.rows[0], m.rows[0]
    assert abs(row_m.advantage - row_q.advantage) < 5 * max(row_m.stderr, 1e-9)
    with pytest.raises(ValueError):
        beam.beam_sweep([0.1], [3.0], mode="exhaustive")

