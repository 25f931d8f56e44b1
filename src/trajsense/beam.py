"""Gaussian beam crossing a 2x2 atom array: who gets closest?

A laser line rotates each atom by theta_i = theta0 * exp(-d_i^2 / w^2) where
d_i is the atom's perpendicular distance to the line.  The sensing task is to
name the nearest edge of the square (the four width-2 cyclic windows).  Two
protocols are compared:

* entangled: the four-qubit window TS state at theta=pi/2, measured in the
  basis of its own rotated outputs (complement outcome -> uniform guess);
* unentangled: |+>^4, per-qubit X measurement, guess the edge with the most
  flipped qubits (maximum likelihood for any symmetric flip model), uniform
  tie-break.

Atoms sit at the unit-square corners, numbered counterclockwise so that
consecutive pairs are exactly the cyclic windows: 1=(+1/2,+1/2),
2=(-1/2,+1/2), 3=(-1/2,-1/2), 4=(+1/2,-1/2).  Beam lines are drawn with
direction angle phi uniform on [0,pi) and signed center offset uniform on
[-1/2,1/2]; this distribution hits all four edges equally often.

Per-line outcome probabilities are available in closed form (the rotated
state never leaves the span of the four basis outputs).  `line_failures`
turns a set of lines into both sensors' exact conditional failure
probabilities in one blocked pass over the geometry, and `compare_sensors`
averages them, either over Monte Carlo lines (the sampling noise of the
measurement itself drops out, and the same lines feed both sensors, so the
tiny first-order advantage becomes resolvable at modest trial counts) or
over a deterministic midpoint-quadrature grid (no sampling noise at all).
The tests check these closed forms against explicit statevectors and against
trials that sample each measurement outcome.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore, rng

#: atoms 1..4 at the unit-square corners, counterclockwise
ATOM_POSITIONS = ((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5))
#: the four edges in cyclic-window order
EDGES = ((1, 2), (2, 3), (3, 4), (1, 4))

#: RNG stream of the Monte Carlo lines (slots: phi, offset)
_STREAM_LINES = 1

#: lines per block in line_failures; bounds the (block, 16) vote temporaries
_BLOCK = 1 << 16
#: upper bound on Monte Carlo lines; memory grows about 73 bytes per line
MC_TRIALS_MAX = 10_000_000


@dataclass(frozen=True)
class BeamScenario:
    theta0: float
    w: float

    def __post_init__(self):
        if not 0.0 <= self.theta0 <= math.pi:
            raise ValueError(f"theta0={self.theta0} outside [0, pi]")
        if not self.w > 0:                    # NaN fails too
            raise ValueError(f"beam waist must be positive, got w={self.w}")


def _distances(phi, offset):
    """Perpendicular distances of the four atoms to the line(s).

    Accepts scalars or equal-length arrays; returns shape (..., 4).
    """
    phi = np.asarray(phi, dtype=float)
    offset = np.asarray(offset, dtype=float)
    pos = np.asarray(ATOM_POSITIONS)                   # (4, 2)
    nx, ny = -np.sin(phi), np.cos(phi)                 # unit normal
    proj = np.multiply.outer(nx, pos[:, 0]) + np.multiply.outer(ny, pos[:, 1])
    return np.abs(proj - offset[..., None])


def _nearest_indices(d):
    """Edge index minimizing its two atoms' distance sum (first wins ties), tied flag.

    ``d`` holds the four atom distances of each line, shape (..., 4).
    """
    sums = np.stack([d[..., i - 1] + d[..., j - 1] for i, j in EDGES], axis=-1)
    order = np.argsort(sums, axis=-1, kind="stable")
    best = order[..., 0]
    second = np.take_along_axis(sums, order[..., 1:2], -1)[..., 0]
    first = np.take_along_axis(sums, order[..., 0:1], -1)[..., 0]
    return best, (second - first) <= 1e-12


def entangled_outcome_probs(angles: np.ndarray) -> np.ndarray:
    """Probabilities of the four basis outcomes given per-atom angles.

    Closed form for the pi/2 window TS state: with A = (t1+t2-t3-t4)/2 and
    B = (t1-t2-t3+t4)/2 the amplitudes onto the rotated-output basis are
    (sinA+cosB)/2, (cosA-sinB)/2, (cosB-sinA)/2, (cosA+sinB)/2; they already
    exhaust the norm, so the complement outcome has probability zero here.
    """
    t = np.asarray(angles, dtype=float)
    A = 0.5 * (t[..., 0] + t[..., 1] - t[..., 2] - t[..., 3])
    B = 0.5 * (t[..., 0] - t[..., 1] - t[..., 2] + t[..., 3])
    amp = np.stack([np.sin(A) + np.cos(B), np.cos(A) - np.sin(B),
                    np.cos(B) - np.sin(A), np.cos(A) + np.sin(B)], axis=-1)
    return 0.25 * amp ** 2


# decision table for the unentangled rule: 16 X-outcome patterns x true edge
_BITS4 = np.stack([qcore.weight_on(4, [q]) for q in range(1, 5)], axis=1)
_SCORES = np.stack([qcore.weight_on(4, edge) for edge in EDGES], axis=1)
_WIN_WEIGHT = np.zeros((16, 4))
for _b in range(16):
    _mx = _SCORES[_b].max()
    _winners = np.nonzero(_SCORES[_b] == _mx)[0]
    _WIN_WEIGHT[_b, _winners] = 1.0 / len(_winners)


def unentangled_flip_probs(angles: np.ndarray) -> np.ndarray:
    """P(X measurement reads minus) per qubit: sin^2(theta_i/2)."""
    return np.sin(np.asarray(angles) / 2.0) ** 2


def _unentangled_win_prob(q: np.ndarray, true_idx: np.ndarray) -> np.ndarray:
    """Exact success probability of the vote rule given flip probs (L,4)."""
    q = np.atleast_2d(q)
    pb = np.ones((q.shape[0], 16))
    for i in range(4):
        bit = _BITS4[:, i]
        pb *= np.where(bit, q[:, i:i + 1], 1.0 - q[:, i:i + 1])
    w = _WIN_WEIGHT.T[true_idx]                        # (L, 16)
    return (pb * w).sum(axis=1)


def line_failures(scenario: BeamScenario, phi, offset):
    """Exact per-line failure of both sensors and the tie flags: (pe, pu, tied).

    ``pe`` is the entangled sensor's conditional failure probability on each
    line, ``pu`` the unentangled one's, and ``tied`` marks lines whose nearest
    edge is not unique.  Distances, angles and nearest edges are computed once
    per line, in fixed blocks of lines; every step is element- or row-wise, so
    the values do not depend on the blocking.
    """
    phi = np.asarray(phi, dtype=float).ravel()
    offset = np.asarray(offset, dtype=float).ravel()
    pe, pu = np.empty(phi.size), np.empty(phi.size)
    tied = np.empty(phi.size, dtype=bool)
    for start in range(0, phi.size, _BLOCK):
        blk = slice(start, start + _BLOCK)
        d = _distances(phi[blk], offset[blk])
        angles = scenario.theta0 * np.exp(-(d ** 2) / scenario.w ** 2)
        true_idx, tied[blk] = _nearest_indices(d)
        probs = entangled_outcome_probs(angles)
        leftover = np.clip(1.0 - probs.sum(axis=-1), 0.0, None)
        win = np.take_along_axis(probs, true_idx[:, None], -1)[:, 0] + leftover / 4
        pe[blk] = 1.0 - win
        pu[blk] = 1.0 - _unentangled_win_prob(unentangled_flip_probs(angles), true_idx)
    return pe, pu, tied


def _sample_lines(trials: int, seed: int):
    if trials < 2:
        raise ValueError(f"Monte Carlo needs at least 2 trials (one line gives "
                         f"no standard error), got trials={trials}")
    if trials > MC_TRIALS_MAX:
        raise ValueError(f"Monte Carlo takes at most {MC_TRIALS_MAX} trials "
                         f"(about 73 bytes per line), got trials={trials}")
    u = rng.uniforms(seed, _STREAM_LINES, 0, trials, slots=2)
    return u[:, 0] * math.pi, u[:, 1] - 0.5


@dataclass
class BeamSweepRow:
    theta0: float
    w: float
    p_fail_entangled: float
    p_fail_unentangled: float
    advantage: float
    stderr: float


def compare_sensors(scenario: BeamScenario, mode: str = "quadrature",
                    trials: int = 0, seed: int = 0,
                    grid: tuple = (512, 512)) -> BeamSweepRow:
    """Both sensors' mean failure and the advantage, unentangled - entangled.

    ``quadrature``: midpoint rule on a (phi, offset) grid; stderr is 0.
    ``mc``: ``trials`` lines drawn from ``seed``.  Each line contributes its
    exact conditional failure to both sensors, so line-to-line variation
    largely cancels in the paired advantage and its stderr.
    """
    if mode == "quadrature":
        g_phi, g_off = grid
        phi = (np.arange(g_phi) + 0.5) * math.pi / g_phi
        off = -0.5 + (np.arange(g_off) + 0.5) / g_off
        P, O = np.meshgrid(phi, off, indexing="ij")
        pe, pu, _ = line_failures(scenario, P, O)
        ent, un = float(pe.mean()), float(pu.mean())
        adv, err = un - ent, 0.0
    elif mode == "mc":
        pe, pu, _ = line_failures(scenario, *_sample_lines(trials, seed))
        diff = pu - pe
        ent, un = float(pe.mean()), float(pu.mean())
        adv, err = float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(trials))
    else:
        raise ValueError(f"unknown beam mode {mode!r}")
    return BeamSweepRow(scenario.theta0, scenario.w, ent, un, adv, err)


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r2: float


def _linear_fit(x, y) -> LinearFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = slope * x + intercept
    rss = float(((y - pred) ** 2).sum())
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if tss == 0 else 1.0 - rss / tss
    return LinearFit(float(slope), float(intercept), r2)


@dataclass
class BeamSweep:
    rows: list
    #: advantage vs theta0 at each fixed waist
    fits_vs_theta0: dict = field(default_factory=dict)
    #: advantage vs 1/w^2 at each fixed theta0
    fits_vs_inv_w2: dict = field(default_factory=dict)
    reference_coefficient: float = 8.0 / math.pi ** 2

    def measured_coefficient(self, w: float) -> float:
        """theta0-slope rescaled by w^2, comparable to the reference."""
        return self.fits_vs_theta0[w].slope * w ** 2


def beam_sweep(theta0_values, w_values, trials: int = 0, seed: int = 0,
               mode: str = "quadrature", grid: tuple = (512, 512)) -> BeamSweep:
    """Failure and advantage across (theta0, w), with linear advantage fits."""
    rows = [compare_sensors(BeamScenario(float(t0), float(w)), mode, trials, seed, grid)
            for w in w_values for t0 in theta0_values]
    sweep = BeamSweep(rows)
    for w in w_values:
        pts = [r for r in sweep.rows if r.w == float(w)]
        if len(pts) >= 3:
            sweep.fits_vs_theta0[float(w)] = _linear_fit(
                [r.theta0 for r in pts], [r.advantage for r in pts])
    for t0 in theta0_values:
        pts = [r for r in sweep.rows if r.theta0 == float(t0)]
        if len(pts) >= 3:
            sweep.fits_vs_inv_w2[float(t0)] = _linear_fit(
                [1.0 / r.w ** 2 for r in pts], [r.advantage for r in pts])
    return sweep

