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
state never leaves the span of the four basis outputs).  One kernel, `_fill`,
writes both sensors' exact conditional failure on each line, in cache-sized
blocks; `compare_sensors` averages it over Monte Carlo lines drawn chunk by
chunk (the same lines feed both sensors, so the tiny first-order advantage is
resolvable at modest trial counts) or over a midpoint-quadrature grid.  The
tests check the kernel bit for bit against the per-line formulas, and those
against explicit statevectors and trials that sample each measurement outcome.
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

#: lines per kernel block: 512**2 lines took 0.04 s at 4096 or 8192, 0.05 s at 2048 (2 vCPUs)
_BLOCK = 1 << 12
#: Monte Carlo lines drawn per chunk: 10**6 lines took 0.31-0.40 s at 4096, 16384
#: or 65536 and peaked at 58, 57 and 62 MB RSS (2 vCPUs)
_DRAW_CHUNK = 1 << 14
#: upper bound on Monte Carlo lines; memory grows 24 bytes per line (pe, pu, `std`)
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


# decision table for the unentangled rule: 16 X-outcome patterns x true edge
_SCORES = np.stack([qcore.weight_on(4, edge) for edge in EDGES], axis=1)
_WINNERS = _SCORES == _SCORES.max(axis=1, keepdims=True)
_WIN_WEIGHT = _WINNERS / _WINNERS.sum(axis=1, keepdims=True)    # uniform tie-break

#: rows of the per-call workspace of `_fill`, each one block of lines long
_ROWS = 36


def _mirror(atoms, shape) -> None:
    """Atoms 3 and 4's rows: atoms 1 and 2's, reversed within each grid row of ``shape``."""
    for src, dst in zip(atoms[:2], atoms[2:]):
        np.copyto(dst.reshape(shape), src.reshape(shape)[:, ::-1])


def _fill(scenario: BeamScenario, phi, off, pe, pu, tied=None, mirror: bool = False) -> None:
    """Write both sensors' failure on every line into pe and pu, tie flags into tied if given.

    Line (i, j) has direction phi[i] and offset off[i, j]; pe, pu and tied have
    off's shape.  With ``mirror`` (each row of off is its negation reversed) atoms
    3 and 4 take atoms 1 and 2's values reversed within the row.  Blocks of whole
    rows work in one workspace; each step repeats the per-line formulas' operations.
    """
    rows, cols = off.shape
    step = max(1, min(rows, _BLOCK // cols))
    ws, per_row = np.empty(_ROWS * step * cols), np.empty((4, step))
    pick, less = np.empty(step * cols, np.intp), np.empty((3, step * cols), bool)
    theta0, neg_w2 = scenario.theta0, -scenario.w ** 2
    for r0 in range(0, rows, step):
        r, blk = min(step, rows - r0), slice(r0, r0 + step)
        shape, n = (r, cols), r * cols
        W = ws[:_ROWS * n].reshape(_ROWS, n)
        idx, (b1, b2, b3) = pick[:n], less[:, :n]
        # atom projections on the unit normal (-sin phi, cos phi): s, t, -s, -t
        a, b, s, t = per_row[:, :r]
        np.multiply(np.sin(phi[blk], out=a), -0.5, out=a)
        np.multiply(np.cos(phi[blk], out=b), 0.5, out=b)
        S, T, O = W[16:19]
        np.copyto(S.reshape(shape), np.add(a, b, out=s)[:, None])
        np.copyto(T.reshape(shape), np.subtract(b, a, out=t)[:, None])
        np.copyto(O.reshape(shape), off[blk])
        # each atom's distance, angle, then flip probability: odd rows of F (0-7)
        atoms = W[1:8:2]
        own = atoms[:2] if mirror else atoms
        for row, proj, op in zip(own, (S, T, S, T), (np.subtract, np.subtract, np.add, np.add)):
            np.abs(op(proj, O, out=row), out=row)
        if mirror:
            _mirror(atoms, shape)
        # nearest edge: first index of the smallest sum, as a stable argsort
        e, lo, hi = W[8:12], W[12:14], W[14:16]
        np.add(atoms[:3], atoms[1:], out=e[:3])
        np.add(atoms[0], atoms[3], out=e[3])
        np.less(e[1::2], e[0::2], out=less[:2, :n])          # e1 < e0, e3 < e2
        np.minimum(e[0::2], e[1::2], out=lo)                # min(e0, e1), min(e2, e3)
        np.less(lo[1], lo[0], out=b3)
        np.copyto(idx, b1)
        np.copyto(idx, b2, where=b3)
        np.add(idx, 2, out=idx, where=b3)
        if tied is not None:                    # second-smallest minus smallest sum
            np.minimum(*np.maximum(e[0::2], e[1::2], out=hi), out=hi[0])
            np.minimum(np.maximum(*lo, out=hi[1]), hi[0], out=hi[0])
            np.subtract(hi[0], np.minimum(*lo, out=lo[0]), out=hi[0])
            np.less_equal(hi[0], 1e-12, out=tied[blk].reshape(n))
        np.multiply(own, own, out=own)
        np.exp(np.divide(own, neg_w2, out=own), out=own)
        np.multiply(own, theta0, out=own)                   # theta0 * exp(-d^2 / w^2)
        if mirror:
            _mirror(atoms, shape)
        # entangled arm: A and B, the four outcome probabilities, the true one
        t0, t1, t2, t3 = atoms
        A, B = AB = W[16:18]
        np.multiply(np.subtract(np.subtract(np.add(t0, t1, out=A), t2, out=A), t3, out=A),
                    0.5, out=A)
        np.multiply(np.add(np.subtract(np.subtract(t0, t1, out=B), t2, out=B), t3, out=B),
                    0.5, out=B)
        (sA, sB), (cA, cB) = np.sin(AB, out=W[18:20]), np.cos(AB, out=W[20:22])
        p, p_true, rest = W[24:28], W[22], W[23]
        np.add(sA, cB, out=p[0])
        np.subtract(cA, sB, out=p[1])
        np.subtract(cB, sA, out=p[2])
        np.add(cA, sB, out=p[3])
        np.multiply(np.square(p, out=p), 0.25, out=p)
        np.copyto(p_true, p[0])                             # p[idx], by the compares above
        np.copyto(p_true, p[1], where=b1)
        np.copyto(rest, p[2])
        np.copyto(rest, p[3], where=b2)
        np.copyto(p_true, rest, where=b3)
        np.add(np.add(np.add(p[0], p[1], out=rest), p[2], out=rest), p[3], out=rest)
        np.maximum(np.subtract(1.0, rest, out=rest), 0.0, out=rest)   # leftover
        np.add(p_true, np.divide(rest, 4.0, out=rest), out=rest)
        np.subtract(1.0, rest.reshape(shape), out=pe[blk])
        # unentangled arm: q = sin^2(theta/2) per qubit; F_k = (1 - q_k, q_k)
        np.square(np.sin(np.divide(own, 2.0, out=own), out=own), out=own)
        if mirror:
            _mirror(atoms, shape)
        np.subtract(1.0, atoms, out=W[0:8:2])
        # pattern-major products ((f1*f2)*f3)*f4: pattern 2i + bit extends i
        prev = W[0:2]
        for k, level in ((1, W[8:12]), (2, W[12:20]), (3, W[20:36])):
            for j in range(len(level)):
                np.multiply(prev[j // 2], W[2 * k + j % 2], out=level[j])
            prev = level
        np.multiply(prev, np.take(_WIN_WEIGHT, idx, axis=1, out=W[0:16], mode="clip"), out=prev)
        # numpy's pairwise order, 16 wide: r_j = t_j + t_j+8, then ((r0+r1)+(r2+r3))+...
        np.add(prev[:8], prev[8:], out=prev[:8])
        np.add(prev[0:8:2], prev[1:8:2], out=prev[0:8:2])
        np.add(prev[0:8:4], prev[2:8:4], out=prev[0:8:4])
        np.subtract(1.0, np.add(prev[0], prev[4], out=prev[0]).reshape(shape), out=pu[blk])


def line_failures(scenario: BeamScenario, phi, offset):
    """Exact per-line failure of both sensors and the tie flags: (pe, pu, tied).

    ``pe`` is the entangled sensor's conditional failure probability on each
    line, ``pu`` the unentangled one's, and ``tied`` marks lines whose nearest
    edge is not unique.
    """
    phi = np.asarray(phi, dtype=float).ravel()
    offset = np.asarray(offset, dtype=float).ravel()
    pe, pu, tied = np.empty(phi.size), np.empty(phi.size), np.empty(phi.size, dtype=bool)
    _fill(scenario, phi, offset[:, None], pe[:, None], pu[:, None], tied[:, None])
    return pe, pu, tied


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError(f"Monte Carlo needs at least 2 trials (one line gives "
                         f"no standard error), got trials={trials}")
    if trials > MC_TRIALS_MAX:
        raise ValueError(f"Monte Carlo takes at most {MC_TRIALS_MAX} trials "
                         f"(about 25 bytes per line), got trials={trials}")


def _lines(seed: int, start: int, stop: int):
    """Monte Carlo lines ``start .. stop-1`` of ``seed``: phi, and the offsets as a column."""
    u = rng.uniforms(seed, _STREAM_LINES, start, stop - start, slots=2)
    return u[:, 0] * math.pi, u[:, 1:] - 0.5


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
        pe, pu = np.empty((2, g_phi, g_off))
        _fill(scenario, phi, np.broadcast_to(off, pe.shape), pe, pu,
              mirror=np.array_equal(off, -off[::-1]))
        ent, un = float(pe.mean()), float(pu.mean())
        adv, err = un - ent, 0.0
    elif mode == "mc":
        _check_trials(trials)
        pe, pu = np.empty(trials), np.empty(trials)
        for start in range(0, trials, _DRAW_CHUNK):
            stop = min(start + _DRAW_CHUNK, trials)
            _fill(scenario, *_lines(seed, start, stop), pe[start:stop, None], pu[start:stop, None])
        ent, un = float(pe.mean()), float(pu.mean())
        diff = np.subtract(pu, pe, out=pu)             # pu is not read again
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

