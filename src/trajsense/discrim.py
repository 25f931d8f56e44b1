"""Single-shot and repeated trajectory discrimination.

Everything here answers one question from different angles: given the output
ensemble {R^(T)(theta)|psi>}, how often does a measurement identify T?

* `verify_ts` checks the orthogonality conditions directly (Gram vs identity).
* `helstrom_pair` is the closed-form two-state optimum, kept as an oracle.
* `pgm` is the square-root measurement; optimal for the geometrically uniform
  ensembles that appear here, and cheap enough to screen parameter sweeps.
* `optimal_measurement` runs the fixed-point iteration for the minimum-error
  POVM (Jezek/Rehacek/Fiurasek style), seeded from the PGM so it can only
  improve on it.
* `classical_baseline` evaluates unentangled inputs (|+>^n or a Bloch-angle
  product grid) under the same machinery, so entangled-vs-classical gaps are
  measured with matched generosity on the measurement side.
* `failure_curve` sweeps theta, `repetition_analysis` converts a per-shot
  result into plurality-vote repetition counts via exact tail computation.

Measurements are computed and returned in the span of the ensemble
(dimension d <= number of states, isometry B from `_reduce`); I_d minus the
guess elements becomes an explicit abstain outcome whose hits are resolved by
a uniform random guess.  The entangled arm takes its witness from
`solver.solve`, so families are dispatched in one place.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qcore, solver, trajset
from .qcore import Ket
from .trajset import TrajectorySet

#: exact factorial arithmetic in the vote tail runs out of float range here
_VOTE_R_CAP = 170


@dataclass
class OutputEnsemble:
    states: tuple[Ket, ...]
    prior: np.ndarray = None

    def __post_init__(self):
        if not self.states:
            raise ValueError("empty ensemble")
        n = self.states[0].n
        if any(s.n != n for s in self.states):
            raise ValueError("ensemble states live on different registers")
        if self.prior is None:
            self.prior = np.full(len(self.states), 1.0 / len(self.states))
        self.prior = np.asarray(self.prior, dtype=float)
        if len(self.prior) != len(self.states) or abs(self.prior.sum() - 1.0) > 1e-9 \
                or self.prior.min() < -1e-12:
            raise ValueError("prior must be a probability vector over the states")

    def __len__(self):
        return len(self.states)

    @property
    def n(self):
        return self.states[0].n


def make_ensemble(psi: Ket, ts: TrajectorySet, theta: float) -> OutputEnsemble:
    """Outputs R^(T)(theta)|psi> in trajectory order, uniform prior."""
    ops = trajset.compile_all(ts, theta)
    return OutputEnsemble(tuple(qcore.apply_phase(psi, op) for op in ops))


@dataclass
class DiscriminationResult:
    povm: list | None            # reduced d x d elements, trailing abstain I_d - sum
    p_success_by_T: np.ndarray
    p_fail: float
    method: str                  # projective_orthogonal | helstrom | pgm | fixed_point_optimal
    confusion: np.ndarray        # row = true T, column = guess (abstain folded in)
    converged: bool = True
    iterations: int = 0
    optimality_residual: float | None = None
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
        return {"max_residual": self.max_residual, "is_ts": self.is_ts,
                "n": self.n, "members": self.members}


def verify_ts(psi: Ket, ts: TrajectorySet, theta: float, tol: float = 1e-8) -> VerifyReport:
    """Max deviation of the output Gram matrix from the identity."""
    resid = solver.max_gram_residual(psi, ts, theta)
    return VerifyReport(resid, resid < tol, ts.n, len(ts))


# ---------------------------------------------------------------------------
# span reduction

def _reduce(ens: OutputEnsemble):
    """Orthonormal basis B of the ensemble span and coordinates of each state."""
    S = np.stack([s.amps for s in ens.states])
    _, sv, vh = np.linalg.svd(S, full_matrices=False)
    d = max(1, int((sv > sv[0] * 1e-12).sum()))
    # rows of vh span the states (unconjugated) and are orthonormal under
    # the Hermitian inner product, so the isometry is B = vh.T, coords = S B*
    B = vh[:d].T                              # (2^n, d)
    coords = S @ vh[:d].conj().T              # row i = reduced state i
    return B, coords


def _result_from_reduced(ens, B, coords, reduced_povm, method, **kw) -> DiscriminationResult:
    k = len(ens)
    # <c_i|P_j|c_i>; the BLAS matmul first is ~7x faster than a 3-operand einsum at k=20
    confusion = np.einsum("jib,ib->ij", coords.conj() @ np.asarray(reduced_povm),
                          coords).real
    abstain = np.clip(1.0 - confusion.sum(axis=1), 0.0, None)
    confusion += abstain[:, None] / k          # abstain -> uniform random guess
    confusion = np.clip(confusion, 0.0, 1.0)
    p_succ = confusion.diagonal().copy()
    p_fail = float(max(0.0, 1.0 - ens.prior @ p_succ))
    abstain_op = np.eye(B.shape[1], dtype=complex) - sum(reduced_povm)
    return DiscriminationResult(list(reduced_povm) + [abstain_op], p_succ, p_fail,
                                method, confusion, **kw)


# ---------------------------------------------------------------------------
# measurements

def helstrom_pair(a: Ket, b: Ket) -> DiscriminationResult:
    """Two-state minimum error at equal priors: (1 - sqrt(1-|<a|b>|^2))/2."""
    if a.n != b.n:
        raise ValueError("states live on different registers")
    ens = OutputEnsemble((a, b))
    B, coords = _reduce(ens)
    M = 0.5 * (np.outer(coords[0], coords[0].conj())
               - np.outer(coords[1], coords[1].conj()))
    vals, vecs = np.linalg.eigh(M)
    pos = vecs[:, vals > 0]
    P0 = pos @ pos.conj().T
    P1 = np.eye(B.shape[1]) - P0
    res = _result_from_reduced(ens, B, coords, [P0, P1], "helstrom")
    overlap = abs(np.vdot(a.amps, b.amps))
    res.p_fail = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - overlap ** 2)))
    return res


def pgm(ens: OutputEnsemble) -> DiscriminationResult:
    """Square-root measurement from the prior-weighted ensemble operator."""
    B, coords = _reduce(ens)
    d = B.shape[1]
    rho = np.zeros((d, d), dtype=complex)
    for pi_i, c in zip(ens.prior, coords):
        rho += pi_i * np.outer(c, c.conj())
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > vals.max() * 1e-12
    inv_sqrt = (vecs[:, keep] * (vals[keep] ** -0.5)) @ vecs[:, keep].conj().T
    note = "" if keep.all() else "rank-deficient ensemble operator (pseudo-inverse)"
    povm = []
    for pi_i, c in zip(ens.prior, coords):
        v = inv_sqrt @ (c * math.sqrt(pi_i))
        povm.append(np.outer(v, v.conj()))
    return _result_from_reduced(ens, B, coords, povm, "pgm", note=note)


def _hermitize(M):
    return 0.5 * (M + M.conj().T)


def optimal_measurement(ens: OutputEnsemble, tol: float = 1e-9,
                        max_iter: int = 10_000) -> DiscriminationResult:
    """Fixed-point iteration to the minimum-error POVM, seeded from the PGM.

    Stops when the optimality-condition operator sum_i pi_i Pi_i rho_i - pi_j rho_j
    is positive semidefinite for every j within `tol`; keeps the best iterate,
    so the result never does worse than the PGM.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    B, coords = _reduce(ens)
    d = B.shape[1]
    k = len(ens)
    G = [ens.prior[i] * np.outer(coords[i], coords[i].conj()) for i in range(k)]
    # PGM elements in reduced coordinates as the starting point
    rho = sum(G)
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > vals.max() * 1e-12
    inv_sqrt = (vecs[:, keep] * (vals[keep] ** -0.5)) @ vecs[:, keep].conj().T
    povm = [inv_sqrt @ Gi @ inv_sqrt for Gi in G]

    def success(p):
        return float(sum(np.real(np.trace(Gi @ Pi)) for Gi, Pi in zip(G, p)))

    def opt_residual(p):
        gamma = _hermitize(sum(Gi @ Pi for Gi, Pi in zip(G, p)))
        worst = 0.0
        for Gj in G:
            lam = np.linalg.eigvalsh(gamma - Gj).min()
            worst = max(worst, -min(lam, 0.0))
        return worst

    best = [Pi.copy() for Pi in povm]
    best_succ = success(povm)
    resid = opt_residual(povm)
    it = 0
    while resid > tol and it < max_iter:
        lam = sum(Gi @ Pi @ Gi for Gi, Pi in zip(G, povm))
        vals, vecs = np.linalg.eigh(_hermitize(lam))
        keep = vals > max(vals.max(), 0.0) * 1e-14
        lam_inv_sqrt = (vecs[:, keep] * (vals[keep] ** -0.5)) @ vecs[:, keep].conj().T
        povm = [_hermitize(lam_inv_sqrt @ Gi @ Pi @ Gi @ lam_inv_sqrt)
                for Gi, Pi in zip(G, povm)]
        s = success(povm)
        if s > best_succ:
            best_succ, best = s, [Pi.copy() for Pi in povm]
        resid = opt_residual(povm)
        it += 1
    converged = resid <= tol
    res = _result_from_reduced(ens, B, coords, best, "fixed_point_optimal",
                               converged=converged, iterations=it,
                               optimality_residual=resid)
    if not converged:
        res.note = f"fixed point not reached after {max_iter} iterations"
    return res


# ---------------------------------------------------------------------------
# classical baselines and curves

def _product_input(n: int, alpha: float, phi: float) -> Ket:
    one = np.array([math.cos(alpha / 2), np.exp(1j * phi) * math.sin(alpha / 2)])
    amps = one
    for _ in range(n - 1):
        amps = np.kron(amps, one)
    return Ket(n, amps)


def classical_baseline(ts: TrajectorySet, theta: float, mode: str = "plus_product",
                       grid: tuple = (24, 12), tol: float = 1e-9,
                       max_iter: int = 10_000) -> DiscriminationResult:
    """Best unentangled-input performance (measurement side unrestricted).

    plus_product evaluates |+>^n under the optimal measurement;
    best_product_grid additionally scans identical-qubit Bloch angles
    (phi x alpha grid) and keeps the best input.
    """
    if mode == "plus_product":
        plus = Ket(ts.n, np.full(1 << ts.n, (1 << ts.n) ** -0.5, dtype=complex))
        return optimal_measurement(make_ensemble(plus, ts, theta), tol, max_iter)
    if mode != "best_product_grid":
        raise ValueError(f"unknown baseline mode {mode!r}")
    if ts.n > 10:
        raise ValueError("product grid search limited to n <= 10")
    n_phi, n_alpha = grid
    best = classical_baseline(ts, theta, "plus_product", tol=tol, max_iter=max_iter)
    best.note = "alpha=pi/2 phi=0 (plus product); " + best.note
    for alpha in np.linspace(0.0, math.pi, n_alpha):
        for phi in np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False):
            psi = _product_input(ts.n, float(alpha), float(phi))
            res = optimal_measurement(make_ensemble(psi, ts, theta), tol, max_iter)
            if best is None or res.p_fail < best.p_fail:
                best = res
                best.note = f"alpha={alpha:.6f} phi={phi:.6f}; " + best.note
    return best


def _symmetrized_candidates(n: int, granularity: int = 6):
    """Coarse sweep over squared-magnitude profiles in the invariant subspace."""
    basis = qcore.symmetrized_basis(n)
    norms = np.array([e.norm_sq for e in basis], dtype=float)
    K = len(basis)
    profiles = [np.full(K, 1.0 / (1 << n))]          # the uniform (|+>^n) profile
    for comp in itertools.combinations_with_replacement(range(K), granularity):
        x = np.bincount(comp, minlength=K).astype(float)
        profiles.append(x / (norms @ x))
    out = []
    for x in profiles:
        amps = np.zeros(1 << n)
        for e, xv in zip(basis, x):
            amps[list(e.support)] = math.sqrt(max(xv, 0.0))
        out.append(Ket(n, amps.astype(complex)))
    return out


@dataclass
class CurvePoint:
    theta: float
    p_fail: float
    method: str
    source: str
    meta: str = ""


def failure_curve(ts: TrajectorySet, psi_source: str, theta_grid,
                  tol: float = 1e-9) -> list[CurvePoint]:
    """p_fail(theta) for one protocol arm.

    psi_source: solver_witness (entangled; exact witness above threshold, best
    of a symmetrized-state sweep below), classical_plus, or classical_best.
    """
    if psi_source not in ("solver_witness", "classical_plus", "classical_best"):
        raise ValueError(f"unknown psi_source {psi_source!r}")
    k = len(ts)
    points = []
    threshold_witness = None
    if psi_source == "solver_witness":
        cert0 = solver.solve(solver.TSProblem(ts, solver.onset(ts)))
        if cert0.feasible:
            threshold_witness = cert0.witness_state

    for theta in theta_grid:
        theta = float(theta)
        if theta == 0.0:
            points.append(CurvePoint(theta, 1.0 - 1.0 / k, "degenerate",
                                     psi_source, "all outputs identical"))
            continue
        if psi_source == "classical_plus":
            res = classical_baseline(ts, theta, "plus_product", tol=tol)
            points.append(CurvePoint(theta, res.p_fail, res.method, psi_source))
            continue
        if psi_source == "classical_best":
            res = classical_baseline(ts, theta, "best_product_grid", tol=tol)
            points.append(CurvePoint(theta, res.p_fail, res.method, psi_source, res.note))
            continue

        cert = solver.solve(solver.TSProblem(ts, theta))
        if cert.feasible:
            res = pgm(make_ensemble(cert.witness_state, ts, theta))
            points.append(CurvePoint(theta, res.p_fail, "projective_orthogonal",
                                     psi_source, "feasible witness"))
            continue
        # below threshold: best of a deterministic symmetrized-state sweep
        candidates = _symmetrized_candidates(ts.n)
        if threshold_witness is not None:
            candidates.append(threshold_witness)
        best, label = None, ""
        for idx, psi in enumerate(candidates):
            res = optimal_measurement(make_ensemble(psi, ts, theta), tol)
            if best is None or res.p_fail < best.p_fail:
                best = res
                label = "threshold witness" if idx == len(candidates) - 1 \
                    and threshold_witness is not None else f"sweep[{idx}]"
        points.append(CurvePoint(theta, best.p_fail, best.method, psi_source,
                                 f"infeasible; best candidate {label}"))
    return points


# ---------------------------------------------------------------------------
# plurality-vote repetition analysis

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def plurality_error_enum(confusion: np.ndarray, prior: np.ndarray, r: int) -> float:
    """Exact vote error by multinomial enumeration (r <= 20, few categories)."""
    k = confusion.shape[0]
    if r > 20 or k > 6:
        raise ValueError("enumeration limited to r <= 20 and k <= 6")
    err = 0.0
    log_fact = [math.lgamma(i + 1) for i in range(r + 1)]
    for i in range(k):
        p = np.clip(confusion[i], 0.0, 1.0)
        win = 0.0
        for counts in _compositions(r, k):
            if any(c > 0 and p[j] <= 0.0 for j, c in enumerate(counts)):
                continue
            logp = log_fact[r] - sum(log_fact[c] for c in counts)
            logp += sum(c * math.log(p[j]) for j, c in enumerate(counts) if c > 0)
            prob = math.exp(logp)
            mx = max(counts)
            winners = [j for j, c in enumerate(counts) if c == mx]
            if counts[i] == mx:
                win += prob / len(winners)
        err += prior[i] * (1.0 - win)
    return max(0.0, err)


def _plurality_win_dp(p: np.ndarray, i: int, r: int) -> float:
    """P(category i wins the plurality vote of r iid draws), exact tail DP.

    Conditions on the true-category count a, then walks the other categories
    with a factorial-normalized convolution; ties at a are tracked so the
    uniform tie-break enters as 1/(ties+1).
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
        # draws, all counts <= a, t of them exactly at a
        g = np.zeros((s + 1, k))
        g[0, 0] = 1.0
        for qj in q:
            below = min(a - 1, s)
            pw = qj ** np.arange(below + 1) * inv_fact[:below + 1]
            new = np.zeros_like(g)
            for t in range(k):
                col = g[:, t]
                if not col.any():
                    continue
                new[:, t] += np.convolve(col, pw)[:s + 1]
                if a <= s and t + 1 < k:
                    wa = qj ** a * inv_fact[a]
                    new[a:, t + 1] += col[:s + 1 - a] * wa
            g = new
        tail = g[s] * math.factorial(s)
        win += pmf_a[a] * sum(tail[t] / (t + 1) for t in range(k))
    return float(min(1.0, max(0.0, win)))


def plurality_error(confusion: np.ndarray, prior: np.ndarray, r: int) -> float:
    """Exact average vote error; enumeration for small r, tail DP beyond."""
    k = confusion.shape[0]
    if r <= 20 and k <= 6:
        return plurality_error_enum(confusion, prior, r)
    err = 0.0
    for i in range(k):
        err += prior[i] * (1.0 - _plurality_win_dp(confusion[i], i, r))
    return max(0.0, err)


def plurality_error_mc(confusion: np.ndarray, prior: np.ndarray, r: int,
                       trials: int, seed: int, stream: int = 5) -> float:
    """Monte Carlo cross-check of the exact vote error (counter-based RNG)."""
    from . import rng
    k = confusion.shape[0]
    cdf = np.cumsum(confusion, axis=1)
    fails = 0
    per_true = np.random.default_rng(seed).multinomial(trials, prior)  # trial split
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


def repetition_analysis(per_shot: DiscriminationResult, epsilon_grid,
                        prior: np.ndarray | None = None,
                        r_cap: int = _VOTE_R_CAP) -> list[RepetitionReport]:
    """Minimal repetition count r reaching each target error epsilon.

    Exact plurality-vote tail per r; reports r = inf when the per-shot success
    cannot beat chance (the vote then never converges).
    """
    conf = per_shot.confusion
    k = conf.shape[0]
    if prior is None:
        prior = np.full(k, 1.0 / k)
    per_succ = float(prior @ conf.diagonal())
    if k > 1 and per_succ <= 1.0 / k + 1e-15:
        return [RepetitionReport(math.inf, per_succ, 1.0 - per_succ, float(eps))
                for eps in epsilon_grid]
    errs: dict[int, float] = {}

    def err_at(r):
        if r not in errs:
            errs[r] = plurality_error(conf, prior, r)
        return errs[r]

    reports = []
    for eps in epsilon_grid:
        eps = float(eps)
        r = 1
        while r <= r_cap and err_at(r) > eps:
            r += 1
        if r > r_cap:
            reports.append(RepetitionReport(math.inf, per_succ, err_at(r_cap), eps))
        else:
            reports.append(RepetitionReport(r, per_succ, err_at(r), eps))
    return reports


# ---------------------------------------------------------------------------
# CSV emission

def write_curve_csv(path, quantum: list[CurvePoint], classical: list[CurvePoint]) -> None:
    """Two-arm table: theta, p_fail_quantum, p_fail_classical, method."""
    if [p.theta for p in quantum] != [p.theta for p in classical]:
        raise ValueError("curve arms evaluated on different theta grids")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "p_fail_quantum", "p_fail_classical", "method"])
        for qp, cp in zip(quantum, classical):
            w.writerow([repr(qp.theta), repr(qp.p_fail), repr(cp.p_fail),
                        f"{qp.method}/{cp.method}"])


def write_repetition_csv(path, epsilons, classical: list[RepetitionReport],
                         quantum: list[RepetitionReport]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "r_classical", "r_quantum"])
        for eps, rc, rq in zip(epsilons, classical, quantum):
            w.writerow([repr(float(eps)),
                        "inf" if math.isinf(rc.r) else int(rc.r),
                        "inf" if math.isinf(rq.r) else int(rq.r)])
