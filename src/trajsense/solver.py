"""Construct trajectory-sensing states and decide when they exist.

Two routes build the rows of the same feasibility question:

* the closed-form route (`solve_symmetric`) works in the bit-flip and
  permutation invariant subspace, summing phase rows over the weight-class
  masks of `qcore.weight_classes`; and
* the LP oracle (`solve_lp`) treats the squared magnitudes p_j = |c_j|^2 as
  variables of a linear feasibility program built from per-bitstring phase
  differences (`_pair_coeffs`) folded onto orbit variables by a bincount.

Both decide with one rule, `_decide`: the exact rational bracket of
`simplex.certified_phase1` on the L1 infeasibility, compared with FEAS_TOL.
The distinct rows keep `solve --method both` a cross-check of the two
formulations; the solver itself is checked against a rational simplex in
the tests.  `build_cyclic` realizes the tensor-composition construction for
the cyclic family from a sym(kappa, 1) closed form.  Every certificate's
witness is re-verified afterwards by `max_gram_residual`: for the symmetric
and cyclic families on one representative pair of members per orbit of
member pairs, with a proven bound on every other pair, and for custom
families (or states whose |psi|^2 is not constant on orbits) against the
full set of pairwise orthogonality conditions.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qcore, trajset
from .qcore import Ket
from .simplex import certified_phase1
from .trajset import TrajectorySet, Trajectory

#: largest certified L1 infeasibility that `_decide` accepts as feasible
FEAS_TOL = 1e-9
#: entries this close to zero (after max-normalization) count as boundary ties
BOUNDARY_TOL = 1e-10
#: largest |T|^2 * 2^n the dense Gram check computes
DENSE_GRAM_CAP = 2_000_000_000
#: largest ||p - p o rep||_1 for which `max_gram_residual` checks orbit representatives
ORBIT_TOL = 1e-12


class Threshold(NamedTuple):
    theta: float
    necessary: bool


def threshold_sym(n: int, m: int) -> Threshold:
    """Sufficient angle (n-1)pi/n; also necessary for the half-weight cases."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Threshold((n - 1) * math.pi / n, m in (n // 2, (n + 1) // 2))


def threshold_cyc(kappa) -> float:
    """Angle arccos(-1 + 1/ceil(kappa/2)) for the width-m window family, n = kappa*m."""
    if kappa != int(kappa) or kappa < 2:
        raise ValueError(f"kappa must be an integer >= 2, got {kappa!r}")
    return math.acos(-1.0 + 1.0 / math.ceil(int(kappa) / 2))


@dataclass(frozen=True)
class TSProblem:
    trajectories: TrajectorySet
    theta: float

    @property
    def trivial(self) -> bool:
        return len(self.trajectories) < 2


@dataclass
class FeasibilityCertificate:
    feasible: bool
    method: str                      # closed_form | lp | tensor_composition
    n: int
    theta: float
    family: str
    cbar_sq: list | None = None      # symmetrized squared magnitudes (may carry
                                     # the sign-violating ray when infeasible)
    p: np.ndarray | None = None      # per-bitstring probabilities (LP route)
    max_residual: float = float("nan")
    witness_state: Ket | None = None
    boundary: bool = False
    marginal: bool = False
    trivial: bool = False
    infeasibility: float = 0.0
    sign_violations: list = field(default_factory=list)
    nullspace_dim: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        obj = {
            "feasible": self.feasible, "method": self.method, "n": self.n,
            "theta": self.theta, "family": self.family,
            "max_residual": None if math.isnan(self.max_residual) else self.max_residual,
            "boundary": self.boundary, "marginal": self.marginal,
            "trivial": self.trivial, "infeasibility": self.infeasibility,
            "sign_violations": self.sign_violations,
            "nullspace_dim": self.nullspace_dim, "detail": self.detail,
        }
        if self.cbar_sq is not None:
            obj["cbar_sq"] = [float(v) for v in self.cbar_sq]
        if self.p is not None:
            obj["p"] = self.p
        if self.witness_state is not None:
            obj["witness_state"] = self.witness_state
        return obj


# ---------------------------------------------------------------------------
# shared verification

def eq1_gram(psi: Ket, ts: TrajectorySet, theta: float) -> np.ndarray:
    """Gram matrix of the post-trajectory outputs <psi|R(T)^dag R(T')|psi>."""
    if psi.n != ts.n:
        raise ValueError("state/trajectory register size mismatch")
    volume = len(ts) ** 2 * (1 << ts.n)
    if volume > DENSE_GRAM_CAP:
        raise ValueError(f"pairwise verification too large for the dense Gram check: "
                         f"|T|^2*2^n = {len(ts)}^2*2^{ts.n} = {volume:.3g} "
                         f"> {DENSE_GRAM_CAP:.3g}")
    outs = trajset.phase_matrix(ts.members, ts.n, theta)
    outs *= psi.amps
    return outs.conj() @ outs.T


def max_gram_residual(psi: Ket, ts: TrajectorySet, theta: float) -> float:
    """max |G - I| over the Gram matrix G of `eq1_gram`, or an upper bound on it.

    For the symmetric and cyclic families, let p = |psi|^2 and p' = p o rep,
    where rep sends each bitstring to a fixed member of its orbit (its weight
    class, or its cyclic rotations).  A group element g maps each pair (a, b)
    of members, or (b, a), to its representative r from `ts.orbits`, and
    |G_ab(p')| = |G_r(p')| because p' is orbit-constant and |G_ba| = |G_ab|
    (G is hermitian).  Each entry is sum_j p_j e^{i phi_j}, so
    |G_ab(p) - G_ab(p')| <= ||p - p'||_1 = delta, and

        ||G_ab| - |G_r|| <= 2 ||p - p'||_1.

    When delta <= ORBIT_TOL the value is max(|sum p - 1|, max_r |G_r|) +
    2 delta, computed from the phase rows of the representative pairs in
    O(#pairs * 2^n), one pair at a time.  It is never below the dense
    residual and exceeds it by at most 2 delta.  Custom families and states that are not orbit-constant
    take the dense `eq1_gram`, which refuses |T|^2 * 2^n > DENSE_GRAM_CAP.
    """
    orbits = ts.orbits if psi.n == ts.n else None
    if orbits is not None:
        p = psi.probs()
        delta = float(np.abs(p - p[orbits.rep]).sum())
        if delta <= ORBIT_TOL:
            # numpy's pairwise sum, not BLAS's vdot: the same bytes at any thread count
            off = max((abs((ra.conj() * (p * rb)).sum()) for ra, rb in _pair_rows(ts, theta)),
                      default=0.0)
            return max(abs(float(p.sum()) - 1.0), float(off)) + 2.0 * delta
    g = eq1_gram(psi, ts, theta)
    return float(np.abs(g - np.eye(len(ts))).max())


def _pair_rows(ts: TrajectorySet, theta: float):
    """The phase rows of each representative pair of `ts.orbits`, one pair at a
    time; the row of the shared first member is built once."""
    first, partners, _ = ts.orbits
    row_a = trajset.phase_matrix([first], ts.n, theta)[0]
    for b in partners:
        yield row_a, trajset.phase_matrix([b], ts.n, theta)[0]


def _trivial(cert: FeasibilityCertificate, ts: TrajectorySet, theta: float):
    """Mark `cert` feasible with the uniform witness of a family of < 2 members."""
    uniform = Ket(ts.n, np.full(1 << ts.n, (1 << ts.n) ** -0.5, dtype=complex))
    cert.feasible, cert.trivial, cert.witness_state = True, True, uniform
    cert.max_residual = max_gram_residual(uniform, ts, theta)
    return cert


def _decide(A: np.ndarray, b: np.ndarray):
    """(feasible, bound, x) for {x >= 0 : A x = b}: the one place where FEAS_TOL
    meets the exact bracket [lower, upper] of `certified_phase1`.

    lower > FEAS_TOL is infeasible, with bound = lower; upper <= FEAS_TOL is
    feasible, with bound = upper, the exact L1 residual of x >= 0.  A bracket
    that straddles FEAS_TOL decides nothing and raises ValueError.
    """
    lower, upper, x = certified_phase1(A, b)
    if lower > FEAS_TOL:
        return False, lower, x
    if upper > FEAS_TOL:
        raise ValueError(f"LP verdict undecided: exact phase-1 infeasibility in [{float(lower):.3e}"
                         f", {float(upper):.3e}] straddles FEAS_TOL = {FEAS_TOL:g}")
    return True, upper, x


# ---------------------------------------------------------------------------
# closed-form symmetrized route

def _sym_constraint_rows(ts: TrajectorySet, theta: float) -> np.ndarray:
    """Rows <nu|R(T)^dag R(T')|nu> over the weight classes nu, one pair class each."""
    fold, sizes = qcore.weight_classes(ts.n)
    # masks, not a bincount, to keep the summation order of each class
    classes = [fold == nu for nu in range(len(sizes))]
    cmplx = np.array([[d[c].sum() for c in classes]
                      for d in (ra.conj() * rb for ra, rb in _pair_rows(ts, theta))])
    # bit-flip symmetry of the classes makes these rows real
    assert np.abs(cmplx.imag).max() < 1e-9, "symmetrized constraint rows must be real"
    return cmplx.real

def solve_symmetric(n: int, m: int, theta: float) -> FeasibilityCertificate:
    """Decide existence for the all-weight-m family via the invariant subspace.

    The class rows and the class sizes (the normalisation row) go to the
    certified bracket of `_decide`.  The certificate's squared magnitudes come
    from one least-squares solve of the same system with max-scaled rows: a
    solution that is nonnegative within BOUNDARY_TOL is the witness, else it
    is the sign-violating ray reported, and a feasible verdict then takes the
    bracket's x >= 0.
    """
    if not 0.0 < theta <= math.pi:
        raise ValueError(f"theta must be in (0, pi], got {theta}")
    ts = trajset.gen_symmetric(n, m)
    cert = FeasibilityCertificate(False, "closed_form", n, theta, "symmetric")
    if len(ts) < 2:
        cert.detail = "single-trajectory family is trivially distinguishable"
        return _trivial(cert, ts, theta)

    norms = qcore.weight_classes(n)[1].astype(float)
    A = _sym_constraint_rows(ts, theta)
    sv = np.linalg.svd(A, compute_uv=False)      # 1 <= m < n: A has a row per t
    rank = int((sv > 1e-10 * sv.max()).sum())
    cert.nullspace_dim = len(norms) - rank

    rhs = np.zeros(len(A) + 1)
    rhs[-1] = 1.0
    feasible, bound, x_cert = _decide(np.vstack([A, norms]), rhs)
    scale = np.abs(A).max(axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    x, *_ = np.linalg.lstsq(np.vstack([A / scale, norms / norms.max()]),
                            rhs / norms.max(), rcond=None)
    nonneg = x.min() >= -BOUNDARY_TOL * max(1.0, x.max())
    if not feasible:
        cert.infeasibility = float(bound)
        if nonneg:
            cert.detail = "constraint system admits no nonzero solution"
            return cert
        # report the sign-violating candidate (ratios remain meaningful)
        ray = -x if x[np.argmax(np.abs(x))] < 0 else x
        cert.cbar_sq = list(ray / np.abs(ray).max())
        cert.sign_violations = [int(i) for i in np.nonzero(ray < -BOUNDARY_TOL * np.abs(ray).max())[0]]
        cert.detail = ("no nonnegative solution; sign condition violated at nu="
                       + ",".join(map(str, cert.sign_violations)))
        return cert

    x = np.clip(x, 0.0, None) if nonneg else x_cert
    x = x / float(norms @ x)           # sum_nu N_nu |cbar_nu|^2 = 1
    witness = Ket(n, qcore.symmetrized_amplitudes(n, x))
    cert.feasible = True
    cert.cbar_sq = [float(v) for v in x]
    cert.boundary = bool(x.min() <= BOUNDARY_TOL * max(1.0, x.max()))
    cert.witness_state = witness
    cert.max_residual = max_gram_residual(witness, ts, theta)
    return cert


# ---------------------------------------------------------------------------
# linear-feasibility oracle over squared magnitudes

def _pair_coeffs(n: int, ta: Trajectory, tb: Trajectory, theta: float) -> np.ndarray:
    """Per-bitstring coefficient of <psi|R(Ta)^dag R(Tb)|psi> as a function of p.

    The exponent's integer sb - sa lies in [-span, span], so each entry is a
    lookup into the 2 span + 1 values of exp(-i(theta/2)(sb - sa)).
    """
    sa = len(ta) - 2 * qcore.weight_on(n, ta.qubits)
    sb = len(tb) - 2 * qcore.weight_on(n, tb.qubits)
    span = len(ta) + len(tb)
    return np.exp(-0.5j * theta * np.arange(-span, span + 1))[sb - sa + span]

def _lp_system(ts: TrajectorySet, theta: float):
    """Build (rows, rhs, orbit_inverse) with symmetry-reduced variables.

    Variables are one per orbit of the family's group times the global bit
    flip (one per bitstring for custom families); a feasible reduced vector
    expands to an orbit-constant p, and conversely averaging any feasible p
    over the group stays feasible, so the reduction preserves the verdict.
    """
    n = ts.n
    if ts.orbits is None:
        inv = np.arange(1 << n)
        pairs = itertools.combinations(ts.members, 2)
    else:
        first, partners, rep = ts.orbits
        pairs = [(first, b) for b in partners]
        # rep[::-1] is the orbit rep of the flipped bitstring
        _, inv = np.unique(np.minimum(rep, rep[::-1]), return_inverse=True)
    ncols = int(inv.max()) + 1
    rows = []
    for ta, tb in pairs:
        coeff = _pair_coeffs(n, ta, tb, theta)
        for part in (coeff.real, coeff.imag):
            row = np.bincount(inv, weights=part, minlength=ncols)
            if np.abs(row).max() > 1e-9:
                rows.append(row)
    counts = np.bincount(inv, minlength=ncols).astype(float)
    rows.append(counts)                       # total probability
    rhs = np.zeros(len(rows))
    rhs[-1] = 1.0
    return np.array(rows), rhs, inv

def solve_lp(problem: TSProblem) -> FeasibilityCertificate:
    """Independent oracle: feasibility of the magnitude-space linear system."""
    ts, theta = problem.trajectories, problem.theta
    if not 0.0 < theta <= math.pi:
        raise ValueError(f"theta must be in (0, pi], got {theta}")
    cert = FeasibilityCertificate(False, "lp", ts.n, theta, ts.family)
    if problem.trivial:
        cert = _trivial(cert, ts, theta)
        cert.p = cert.witness_state.probs()
        return cert

    A, b, inv = _lp_system(ts, theta)
    cert.feasible, bound, x = _decide(A, b)
    cert.infeasibility = float(bound)
    if not cert.feasible:
        cert.detail = f"phase-1 infeasibility >= {cert.infeasibility:.3e} exceeds tolerance"
        return cert

    cert.marginal = bound > 0
    p = x[inv]                              # certified_phase1 returns x >= 0
    cert.p = p / p.sum()
    cert.witness_state = Ket(ts.n, np.sqrt(cert.p).astype(complex))
    cert.max_residual = max_gram_residual(cert.witness_state, ts, theta)
    return cert


# ---------------------------------------------------------------------------
# tensor composition for the cyclic family

def build_cyclic(n: int, m: int, theta: float) -> FeasibilityCertificate:
    """Compose the width-m window TS state from m copies of a small one.

    Copy r lives on qubit positions {r, r+m, r+2m, ...}; each window of m
    consecutive positions touches every copy exactly once, so orthogonality
    of the small single-rotation states lifts to the full family.
    """
    if n % m != 0:
        raise ValueError(f"n={n} is not divisible by m={m}")
    kappa = n // m
    if kappa < 2:
        raise ValueError("tensor composition needs kappa = n/m >= 2")
    ts = trajset.gen_cyclic(n, m)
    sub = solve_symmetric(kappa, 1, theta)
    cert = FeasibilityCertificate(False, "tensor_composition", n, theta, "cyclic",
                                  cbar_sq=sub.cbar_sq, boundary=sub.boundary,
                                  nullspace_dim=sub.nullspace_dim)
    if not sub.feasible:
        cert.sign_violations = sub.sign_violations
        cert.infeasibility = sub.infeasibility
        cert.detail = (f"single-rotation subproblem on {kappa} qubits infeasible "
                       f"(threshold {threshold_cyc(kappa):.6f}): {sub.detail}")
        return cert

    amps = functools.reduce(np.kron, [sub.witness_state.amps] * m)
    # kron axis r*kappa + s is qubit s of copy r, which sits at position r + s*m
    order = np.arange(n).reshape(m, kappa).T.ravel()
    witness = Ket(n, amps.reshape((2,) * n).transpose(order).ravel())
    cert.feasible = True
    cert.witness_state = witness
    cert.p = witness.probs()
    cert.max_residual = max_gram_residual(witness, ts, theta)
    return cert


def solve(problem: TSProblem) -> FeasibilityCertificate:
    """The family's constructive route: the closed form for sym, tensor
    composition for cyc with n = kappa*m (only sufficient for kappa >= 4 and
    m >= 2, so there the LP decides where it finds no state), else the LP."""
    ts = problem.trajectories
    if ts.family == "symmetric":
        return solve_symmetric(ts.n, ts.m, problem.theta)
    if _composable(ts):
        cert = build_cyclic(ts.n, ts.m, problem.theta)
        if cert.feasible or ts.kappa <= 3 or ts.m == 1:
            return cert
    return solve_lp(problem)


def onset(ts: TrajectorySet) -> float:
    """A sufficient angle for `solve`: the family's closed-form threshold, else pi.

    Not the onset itself, which can lie lower: 0.7323pi for sym(5,1) against
    the (n-1)pi/n = 0.8pi returned here, and below `threshold_cyc` for
    cyclic families with kappa >= 4.
    """
    if ts.family == "symmetric":
        return threshold_sym(ts.n, ts.m).theta
    if _composable(ts):
        return threshold_cyc(ts.kappa)
    return math.pi


def _composable(ts: TrajectorySet) -> bool:
    """Cyclic families that `build_cyclic` covers (n = kappa*m, kappa >= 2)."""
    return ts.kappa is not None and ts.kappa >= 2
