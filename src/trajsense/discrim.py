"""Single-shot and repeated trajectory discrimination.

Everything here answers one question from different angles: given the output
ensemble {R^(T)(theta)|psi>}, how often does a measurement identify T?  The
trajectory is unknown, so every T is equally likely: all measurements and
vote tails here are under the uniform prior.  A measurement depends on the
outputs only through their k x k Gram, which is what every measurement takes.

* `verify_ts` checks the orthogonality conditions directly (Gram vs identity).
* `pgm` is the square-root measurement, the one measurement here.  Every
  family the CLI builds has group-covariant outputs, and for those the PGM is
  the minimum-error measurement exactly when diag(G^(1/2)) is constant
  (Eldar & Forney, IEEE TIT 47, 858 (2001); Dalla Pozza & Pierobon, PRA 91,
  042334 (2015)); `pgm` certifies that off its own eigh (`optimal`).
* `classical_baseline` is the unentangled arm: |+>^n under the optimal
  measurement, which no product or separable input beats (the proof is in
  its docstring; Alberti & Uhlmann 1980, Chefles, Jozsa & Winter 2004), so
  entangled-vs-classical gaps are measured against the best unentangled
  sensor with matched generosity on the measurement side.
* `failure_curve` sweeps theta once for both arms, the paper's curve table
  (below the onset, `_screen`'s Gram spectra spare `pgm` the candidates that
  cannot hold the minimum); `repetition_analysis` turns a per-shot result
  into plurality-vote repetition counts, the inset, from one sequence of
  exact vote errors (`plurality_error`, a tail DP with one matrix step per
  category) for every k and r.

The |+>^n arm and the entangled arm below the onset claim a minimum-error
value, so there the PGM must carry its certificate (`_minimum_error`), or the
run stops with a ValueError; a family without it, such as a custom one, is
for the dense fixed point of the test oracles.  Measurements live in the span of the ensemble (dimension
d <= k, state j at coordinates c_j from the Gram's eigh in `_reduce`) as
rank-one factors P_j = |m_j><m_j|, one (k, d) array.  The span keeps lam >
`_SPAN_CUT` lam_max, the PGM's pseudo-inverse cut, so the PGM is V itself.
I_d minus the guess elements, with a state's mass off the span, is the
abstain outcome, resolved by a uniform random guess.  The entangled arm takes
its witness from `solver.solve`, so families are dispatched in one place.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qcore, solver, trajset
from .qcore import Ket
from .trajset import TrajectorySet

#: exact factorial arithmetic in the vote tail runs out of float range here
_VOTE_R_CAP = 170
#: the PGM is certified minimum-error where Gamma - G_j >= -_OPT_TOL for every j
_OPT_TOL = 1e-9
#: `verify_ts` calls a state a TS state below this Gram residual
_VERIFY_TOL = 1e-8
#: draws per profile in the symmetrized candidate sweep below the onset
_GRANULARITY = 6
#: the span, and so the PGM's pseudo-inverse, keeps Gram eigenvalues > _SPAN_CUT lam_max
_SPAN_CUT = 1e-12


def make_ensemble(psi: Ket, ts: TrajectorySet, theta: float) -> np.ndarray:
    """Gram (phases |psi|^2) phases^H of the outputs: entry (a, b) is <out_b|out_a>."""
    phases = trajset.phase_matrix(ts.members, ts.n, theta)
    return (phases * psi.probs()) @ phases.conj().T


@dataclass
class DiscriminationResult:
    povm: np.ndarray | None      # (k, d) factors m_j of P_j = |m_j><m_j| in the span
    p_fail: float
    method: str                  # projective_orthogonal | pgm
    confusion: np.ndarray        # row = true T, column = guess (abstain folded in)
    optimal: bool = False        # certified minimum-error (`pgm`)
    note: str = ""


@dataclass
class RepetitionReport:
    r: float                     # minimal repetitions (math.inf if vote cannot converge)
    per_shot_success: float
    p_error_after_vote: float
    epsilon_target: float


@dataclass
class VerifyReport:
    max_residual: float
    is_ts: bool
    n: int
    members: int

    def to_dict(self):
        return asdict(self)


def verify_ts(psi: Ket, ts: TrajectorySet, theta: float) -> VerifyReport:
    """Max deviation of the output Gram matrix from the identity."""
    resid = solver.max_gram_residual(psi, ts, theta)
    return VerifyReport(resid, resid < _VERIFY_TOL, ts.n, len(ts))


# ---------------------------------------------------------------------------
# span reduction and the measurement (every trajectory equally likely)

def _reduce(gram):
    """V and lam**0.5 over the d eigenvalues lam > `_SPAN_CUT` lam_max of the Gram
    V diag(lam) V^H: row j of V lam**0.5 is state j, and rho = diag(lam)/k."""
    G = np.asarray(gram, dtype=np.complex128)     # ragged rows fail here
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.size == 0:
        raise ValueError(f"ensemble needs a nonempty square Gram array, got shape {G.shape}")
    lam, vecs = np.linalg.eigh(G)
    d = max(1, int((lam > lam[-1] * _SPAN_CUT).sum()))
    return vecs[:, -d:], np.sqrt(lam[-d:])


def pgm(gram) -> DiscriminationResult:
    """Square-root measurement m_j = rho^(-1/2) c_j/sqrt(k) = row j of V, with its
    confusion matrix |<c_i|m_j>|^2 (abstain folded in) and its certificate.

    `optimal` holds where ptp(g) sqrt(lam_max)/k <= `_OPT_TOL`, g = |V|^2 lam**0.5
    being diag(G^(1/2)) over the span: then Gamma - G_j >= -`_OPT_TOL` for every
    j, the minimum-error condition (the bound is `_screen`'s), one matrix-vector
    product off the eigh the PGM already takes.
    """
    v, root = _reduce(gram)
    k = len(v)
    coords = v * root
    confusion = np.abs(coords.conj() @ v.T) ** 2
    abstain = np.clip(1.0 - confusion.sum(axis=1), 0.0, None)
    confusion += abstain[:, None] / k          # abstain -> uniform random guess
    confusion = np.clip(confusion, 0.0, 1.0)
    # the copy is contiguous: BLAS sums a strided diagonal in another order,
    # which moves the last bit of the p_fail that `curve` prints with repr
    p_fail = float(max(0.0, 1.0 - np.full(k, 1.0 / k) @ confusion.diagonal().copy()))
    optimal = bool(np.ptp(np.abs(v) ** 2 @ root) * root[-1] / k <= _OPT_TOL)
    note = "rank-deficient ensemble operator (pseudo-inverse)" if len(root) < k else ""
    return DiscriminationResult(v, p_fail, "pgm", confusion, optimal, note)


def _minimum_error(gram) -> DiscriminationResult:
    """`pgm`, refused unless its certificate makes it the minimum-error measurement."""
    res = pgm(gram)
    if not res.optimal:
        raise ValueError("PGM not certified minimum-error: ptp(diag G^(1/2)) sqrt(lam_max)/k "
                         f"> _OPT_TOL = {_OPT_TOL:g} (outputs not group covariant)")
    return res


# ---------------------------------------------------------------------------
# classical baselines and curves

def classical_baseline(ts: TrajectorySet, theta: float) -> DiscriminationResult:
    """|+>^n under the optimal measurement, the certified PGM: the best unentangled sensor.

    Per qubit, <phi|R_Z(theta)|phi> = cos(theta/2) - i cos(alpha) sin(theta/2)
    for the Bloch angles (alpha, phi) of |phi>, so the pair {|+>, R_Z|+>}
    has the smallest overlap, |cos theta/2|, of any pair {|phi>, R_Z|phi>}.
    A channel maps one pair of pure states onto another whenever the target
    overlap is at least as large in modulus (Alberti & Uhlmann, Rep. Math.
    Phys. 18, 163 (1980); Chefles, Jozsa & Winter, IJQI 2, 11 (2004)).  The
    product of these per-qubit channels maps the |+>^n output of every
    trajectory onto the output of a product input |phi_1...phi_n>, and a
    channel followed by a measurement is a measurement, so no product input
    does better under its optimal measurement.  A separable input is a
    mixture of products, and a measurement's success on the mixed outputs
    is the same mixture of its successes on the product components.  So this
    arm is the optimum over all unentangled inputs, for every family and angle.
    Its Gram needs no phase matrix: each qubit in just one of T_a, T_b adds a
    factor <+|R_Z(theta)|+> = cos(theta/2), so G_ab = cos(theta/2)^|T_a xor T_b|.
    A sym or cyc family's group keeps |T_a xor T_b| and acts transitively on
    the members, so the PGM is the optimum there; a family without `pgm`'s
    certificate, such as a custom one, is refused (`_minimum_error`).
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta={theta} outside the modeled range [0, pi]")
    trajset.check_phase_cap(len(ts), ts.n)
    masks = np.array([sum(1 << q for q in t.qubits) for t in ts.members], dtype=np.int64)
    return _minimum_error(math.cos(theta / 2) ** np.bitwise_count(masks[:, None] ^ masks))


def _symmetrized_candidates(n: int):
    """Coarse sweep over squared-magnitude profiles in the invariant subspace: the
    (K, 2**n) indicators `gens` of the classes of `qcore.weight_classes` and the
    (P, K) class profiles `weights`; candidate i has |psi|^2 = weights[i] @ gens."""
    fold, sizes = qcore.weight_classes(n)
    x = np.array([np.bincount(comp, minlength=len(sizes)) for comp in
                  itertools.combinations_with_replacement(range(len(sizes)), _GRANULARITY)])
    profiles = np.vstack([np.full(len(sizes), 1.0 / (1 << n)), x / (x @ sizes)[:, None]])
    return (fold == np.arange(len(sizes))[:, None]).astype(float), profiles


def _screen(grams, weights):
    """PGM value p, error bound err and optimality certificate per candidate.

    Candidate i's Gram (phases |psi|^2) phases^H, |psi|^2 = w @ gens for
    w = weights[i], is G = sum_c w_c B_c over `grams`, B_c = (phases gens[c])
    phases^H: its eigenvalues lam above `_SPAN_CUT` lam_max span the PGM,
    g = diag(G^(1/2)) over them, and state i's weight a_i on the cut
    eigenvectors goes to the uniform abstain guess (as in `pgm`),
    so p = 1 - (g.g + sum(a)/k)/k, sum(a) being the sum of the cut lam.  To
    first order either route's g is within k eps (lam_max/sqrt(lam_min) + 1)
    of exact (backward error k eps lam_max over lam_min, the least kept
    eigenvalue, plus rounding) and sum(a)/k^2 within eps lam_max <= k eps.
    Each B_c is PSD with |B_c[a, b]| <= sum(gens[c]), and sum(|psi|^2) = 1,
    so the C-term sum moves G's entries by C eps, lam by C k eps, g by C k
    eps/sqrt(lam_min).  So where no lam lies within k eps (lam_max + C) of
    the cut, `_reduce`'s eigh of a Gram formed any other way keeps the same
    span, and its p and ptp g are within err = 4 k eps (lam_max/sqrt(lam_min)
    + 1) + C k eps/sqrt(lam_min) of these.  With g0 = max g, Gamma0 = g0
    rho^(1/2)/sqrt(k) has <c_j|Gamma0^-1|c_j>/k = g_j/g0 <= 1, so Gamma0 >=
    G_j, and the PGM's Gamma lies within (ptp g) sqrt(lam_max)/k of it.  So
    `pgm` of that Gram is certified (value p within err) where no lam is in
    that band and that bound with ptp g + err is at most `_OPT_TOL`/2.
    """
    (C, k), eps, out = grams.shape[:2], np.finfo(float).eps, []
    for lo in range(0, len(weights), C):
        # numpy's einsum loops, not BLAS: the same sums at any thread count
        lam, vecs = np.linalg.eigh(np.einsum("ic,cab->iab", weights[lo:lo + C], grams))
        lmax = lam[:, -1]
        cut = _SPAN_CUT * lmax[:, None]
        kept = lam > cut
        g = np.einsum("cia,ca->ci", np.abs(vecs) ** 2, np.sqrt(np.where(kept, lam, 0.0)))
        dropped = np.where(kept, 0.0, lam).sum(axis=1)
        root = np.sqrt(np.where(kept, lam, np.inf).min(axis=1))
        err = 4 * k * eps * (lmax / root + 1) + C * k * eps / root
        band = (np.abs(lam - cut) > k * eps * (lmax[:, None] + C)).all(axis=1)
        cert = band & ((np.ptp(g, axis=1) + err) * np.sqrt(lmax) / k <= _OPT_TOL / 2)
        out.append((1.0 - ((g * g).sum(axis=1) + dropped / k) / k, err, cert))
    return tuple(map(np.concatenate, zip(*out)))


@dataclass
class CurvePoint:
    theta: float
    p_fail_quantum: float
    p_fail_classical: float
    method: str                  # entangled arm's method/classical arm's method


def failure_curve(ts: TrajectorySet, theta_grid) -> list[CurvePoint]:
    """p_fail(theta) of both arms, one sweep over the grid.

    The entangled arm is the exact witness above threshold and the best of a
    symmetrized-state sweep below; the classical arm is `classical_baseline`.
    At each angle the entangled arm runs first.  Below the onset only the
    candidates `_screen` leaves uncertified, and the certified ones with
    p - err <= min(p + err) over the certified, meet `_minimum_error`: any
    other is strictly worse than that min's one.
    """
    k, points = len(ts), []
    gens = None                        # built at the first angle below the onset
    for theta in theta_grid:
        theta = float(theta)
        if theta == 0.0:
            points.append(CurvePoint(theta, 1.0 - 1.0 / k, 1.0 - 1.0 / k, "degenerate/degenerate"))
            continue
        cert = solver.solve(solver.TSProblem(ts, theta))
        if cert.feasible:
            q_fail = pgm(make_ensemble(cert.witness_state, ts, theta)).p_fail
            q_method = "projective_orthogonal"
        else:
            # below threshold: the best sweep candidate, or the onset witness as one more generator
            if gens is None:
                gens, weights = _symmetrized_candidates(ts.n)
                cert0 = solver.solve(solver.TSProblem(ts, solver.onset(ts)))
                if cert0.feasible:
                    gens = np.vstack([gens, cert0.witness_state.probs()])
                    weights = np.vstack([np.pad(weights, ((0, 0), (0, 1))), np.eye(len(gens))[-1]])
            phases = trajset.phase_matrix(ts.members, ts.n, theta)
            phases_h = phases.conj().T
            grams = np.array([(phases * g) @ phases_h for g in gens])
            del phases, phases_h
            p, err, cert = _screen(grams, weights)
            top = np.min(p + err, where=cert, initial=np.inf)
            best = min((_minimum_error(np.einsum("c,cab->ab", w, grams))
                        for w in weights[(p - err <= top) | ~cert]), key=lambda res: res.p_fail)
            q_fail, q_method = best.p_fail, best.method
        classical = classical_baseline(ts, theta)
        points.append(CurvePoint(theta, q_fail, classical.p_fail,
                                 f"{q_method}/{classical.method}"))
    return points


# ---------------------------------------------------------------------------
# plurality-vote repetition analysis

def _plurality_win_dp(p: np.ndarray, i: int, r: int) -> float:
    """P(category i wins the plurality vote of r iid draws), exact tail DP.

    Conditions on the true-category count a, then walks the other categories
    with a factorial-normalized convolution, one matrix product each; ties at
    a are tracked as an axis so the uniform tie-break enters as 1/(ties+1).
    """
    k = len(p)
    if k == 1:
        return 1.0
    p = np.clip(p, 0.0, 1.0)
    pi_ = p[i]
    if pi_ <= 0.0:
        return 0.0
    if r > _VOTE_R_CAP:
        raise ValueError(f"exact vote tail limited to r <= {_VOTE_R_CAP}")
    q = np.delete(p, i)
    rest = q.sum()
    if rest <= 0.0:
        return 1.0
    q = q / rest
    pmf_a = [math.comb(r, a) * pi_ ** a * (1 - pi_) ** (r - a) for a in range(r + 1)]
    inv_fact = np.array([1.0 / math.factorial(u) for u in range(r + 1)])
    win = 0.0
    for a in range(1, r + 1):
        if pmf_a[a] < 1e-18:
            continue
        s = r - a
        if s == 0:
            win += pmf_a[a]
            continue
        if s > a * (k - 1):
            continue                     # someone must exceed a
        # g[u, t]: P-weight (divided by u!) that processed categories used u
        # draws, all counts <= a, t of them exactly at a.  A category of
        # weight qj takes l < a draws, the lower-triangular Toeplitz matrix of
        # qj^l/l!, or exactly a, which shifts t up by one with weight qj^a/a!
        lag = np.abs(np.subtract.outer(np.arange(s + 1), np.arange(s + 1)))
        steps = np.tril(q[:, None, None] ** lag * inv_fact[lag] * (lag < a))
        g = np.zeros((s + 1, k))
        g[0, 0] = 1.0
        for step, wa in zip(steps, q ** a * inv_fact[a]):
            new = step @ g
            if a <= s:
                new[a:, 1:] += g[:s + 1 - a, :-1] * wa
            g = new
        win += pmf_a[a] * (g[s] * math.factorial(s)) @ (1.0 / np.arange(1, k + 1))
    return float(min(1.0, max(0.0, win)))


def plurality_error(confusion: np.ndarray, r: int) -> float:
    """Exact average vote error over the true categories, one tail DP each."""
    k = confusion.shape[0]
    err = sum((1.0 / k) * (1.0 - _plurality_win_dp(confusion[i], i, r)) for i in range(k))
    return max(0.0, err)


def repetition_analysis(per_shot: DiscriminationResult,
                        epsilon_grid) -> list[RepetitionReport]:
    """Minimal repetition count r reaching each target error epsilon.

    One sequence of exact plurality-vote tails err(r), r = 1, 2, ..., up to
    the first r that meets the smallest epsilon or r = `_VOTE_R_CAP` (only r = 1
    when the per-shot success cannot beat chance: the vote never converges);
    each epsilon takes its first r off it, else r = inf and the last r's error.
    """
    conf = per_shot.confusion
    k = conf.shape[0]
    per_succ = float(np.full(k, 1.0 / k) @ conf.diagonal())
    eps = [float(e) for e in epsilon_grid]
    last = 1 if k > 1 and per_succ <= 1.0 / k + 1e-15 else _VOTE_R_CAP
    errs = [plurality_error(conf, 1)]
    while errs[-1] > min(eps, default=1.0) and len(errs) < last:
        errs.append(plurality_error(conf, len(errs) + 1))
    firsts = [next((r for r, err in enumerate(errs, 1) if err <= e), None) for e in eps]
    return [RepetitionReport(r or math.inf, per_succ, errs[(r or len(errs)) - 1], e)
            for r, e in zip(firsts, eps)]


# ---------------------------------------------------------------------------
# CSV emission

def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def curve_csv(points: list[CurvePoint]) -> str:
    """Two-arm table: theta, p_fail_quantum, p_fail_classical, method."""
    return _csv_text([["theta", "p_fail_quantum", "p_fail_classical", "method"]]
                     + [[repr(pt.theta), repr(pt.p_fail_quantum), repr(pt.p_fail_classical),
                         pt.method] for pt in points])


def repetition_csv(classical: list[RepetitionReport],
                   quantum: list[RepetitionReport]) -> str:
    """Inset table: epsilon, r_classical, r_quantum (inf when the vote never converges)."""
    def r(rep):
        return "inf" if math.isinf(rep.r) else int(rep.r)
    return _csv_text([["epsilon", "r_classical", "r_quantum"]]
                     + [[repr(rc.epsilon_target), r(rc), r(rq)]
                        for rc, rq in zip(classical, quantum)])
