"""Error-correction view of trajectory sensing.

The random-trajectory channel applies R^(T)(theta)/sqrt(|set|) for a
uniformly drawn member T.  A state whose outputs under these Kraus operators
are mutually orthogonal lets the receiver both identify T and undo it — the
matrix M_ij = <psi|K_i^dag K_j|psi> collapsing to I/|set| is the same
orthogonality condition the discrimination layer tests, read as a
Knill-Laflamme statement.

Also here: signed-Pauli stabilizer checks (the four-qubit window state is a
codeword of a small CSS code) and a self-contained verification that the
seven-qubit CSS code turns a transversal quarter-turn Z rotation into the
inverse logical quarter turn.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import qcore, solver, trajset
from .qcore import Ket
from .trajset import Trajectory, TrajectorySet

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
#: pass tolerances: |M - I/N| entry by entry in `kl_verify`, the generator
#: residual in `stabilizer_check`, leak and logical residual in the transversal check
_KL_TOL, _STABILIZER_TOL, _TRANSVERSAL_TOL = 1e-8, 1e-10, 1e-9


# ---------------------------------------------------------------------------
# the uniform trajectory channel

@dataclass
class KLReport:
    verdict: str               # discriminating code | KL-recoverable only | not a code state
    size: int
    max_offdiag: float
    max_diag_dev: float        # deviation of diagonal entries from 1/N
    hermiticity: float
    matrix: np.ndarray = field(repr=False, default=None)


def kl_verify(psi: Ket, ts: TrajectorySet, theta: float) -> KLReport:
    """Classify psi against the channel of `ts` at theta via M_ij = <psi|K_i^dag K_j|psi>.

    The Kraus operators K_i = R^(T_i)(theta)/sqrt(N) are diagonal with
    entries of modulus 1/sqrt(N), so sum_i K_i^dag K_i = I holds for every
    family and angle, and M is the Gram matrix of `solver.eq1_gram` over N.
    A 'discriminating code' state has M = I/N: every pair of corrupted
    states is orthogonal, so the error is identifiable and reversible.  If
    the diagonal still splits the trace evenly but off-diagonals survive,
    the structure is the generic recoverability form without the
    discrimination property ('KL-recoverable only').  Anything else — which
    for unit-modulus diagonal Kraus families can only arise from a
    malformed input state — is 'not a code state'.

    M is the full dense N x N matrix, so this check inherits `eq1_gram`'s
    size limit: it raises ValueError when N^2 * 2^n exceeds
    `solver.DENSE_GRAM_CAP` (sym(12,6) is 3.5e9).  The `qec` command only
    checks cyc(4,2).
    """
    N = len(ts)
    M = solver.eq1_gram(psi, ts, theta) / N
    herm = float(np.abs(M - M.conj().T).max())
    diag_dev = float(np.abs(np.diag(M) - 1.0 / N).max())
    off = M - np.diag(np.diag(M))
    max_off = float(np.abs(off).max()) if N > 1 else 0.0
    if not (herm <= _KL_TOL and diag_dev <= _KL_TOL):
        verdict = "not a code state"
    else:
        verdict = "discriminating code" if max_off <= _KL_TOL else "KL-recoverable only"
    return KLReport(verdict, N, max_off, diag_dev, herm, M)


# ---------------------------------------------------------------------------
# signed Pauli strings and stabilizer groups

def parse_pauli(s: str) -> tuple[int, str]:
    """'-ZIZI' -> (sign, letters); sign is +1 or -1."""
    s = s.strip()
    sign = 1
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    if not s or any(c not in "IXYZ" for c in s):
        raise ValueError(f"malformed Pauli string {s!r}")
    return sign, s


def _commute(a: str, b: str) -> bool:
    anti = sum(1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y)
    return anti % 2 == 0


class StabilizerGroup:
    """A commuting set of signed Pauli strings whose group avoids -I."""

    def __init__(self, generators):
        parsed = [parse_pauli(g) for g in generators]
        if not parsed:
            raise ValueError("need at least one generator")
        n = len(parsed[0][1])
        if any(len(p) != n for _, p in parsed):
            raise ValueError("generators must share one length")
        for i in range(len(parsed)):
            for j in range(i + 1, len(parsed)):
                if not _commute(parsed[i][1], parsed[j][1]):
                    raise ValueError(
                        f"generators {generators[i]!r} and {generators[j]!r} anticommute")
        self.generators = tuple(generators)
        self._parsed = parsed
        self.n = n
        # commuting generators: the joint +1 eigenspace has dimension 2^(n-r) for
        # r independent ones, and is empty exactly when the group holds -I
        if np.trace(self.projector()).real < 0.5:
            raise ValueError("group contains -I")

    def matrices(self):
        for sign, letters in self._parsed:
            yield sign * reduce(np.kron, [_PAULI_MATS[c] for c in letters])

    def projector(self) -> np.ndarray:
        """Projector onto the joint +1 eigenspace."""
        dim = 2 ** self.n
        P = np.eye(dim, dtype=complex)
        for g in self.matrices():
            P = P @ (np.eye(dim) + g) / 2.0
        return P


@dataclass
class StabilizerReport:
    all_plus_one: bool
    residuals: dict
    failing: tuple


def stabilizer_check(psi: Ket, group: StabilizerGroup) -> StabilizerReport:
    """Is psi a +1 eigenstate of every generator?"""
    if group.n != psi.n:
        raise ValueError(f"group acts on {group.n} qubits, state has {psi.n}")
    residuals = {}
    failing = []
    for name, g in zip(group.generators, group.matrices()):
        res = float(np.abs(g @ psi.amps - psi.amps).max())
        residuals[name] = res
        if res > _STABILIZER_TOL:
            failing.append(name)
    return StabilizerReport(not failing, residuals, tuple(failing))


def window_code_group() -> StabilizerGroup:
    """Stabilizers of the four-qubit window state (a [[4,2,2]] subcode)."""
    return StabilizerGroup(["-ZIZI", "-IZIZ", "XIXI", "IXIX"])


def window_code_state() -> Ket:
    """The equal-weight four-window state entered by hand."""
    return qcore.make_ket(4, [("0011", 1), ("0110", 1), ("1100", 1), ("1001", 1)])


# ---------------------------------------------------------------------------
# seven-qubit CSS code and the transversal quarter turn

def css7_group() -> StabilizerGroup:
    """The standard seven-qubit CSS generators (X block then Z block)."""
    return StabilizerGroup([
        "IIIXXXX", "IXXIIXX", "XIXIXIX",
        "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ",
    ])


def css7_logical_states() -> tuple[Ket, Ket]:
    """Logical zero and one, built by projecting |0000000> onto the codespace."""
    P = css7_group().projector()
    v0 = P[:, 0]
    v0 = v0 / np.linalg.norm(v0)
    xbar = reduce(np.kron, [_PAULI_MATS["X"]] * 7)
    v1 = xbar @ v0
    return qcore.from_vector(7, v0, normalize=False), qcore.from_vector(7, v1, normalize=False)


@dataclass
class TransversalityReport:
    passed: bool
    angle: float
    codespace_residual: float     # leakage of rotated codewords out of the span
    logical_residual: float       # distance from (global phase)*inverse quarter turn
    global_phase: complex
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "angle": self.angle,
            "codespace_residual": self.codespace_residual,
            "logical_residual": self.logical_residual,
            "global_phase": [self.global_phase.real, self.global_phase.imag],
            "detail": self.detail,
        }


def transversal_rotation_check(angle: float = math.pi / 2) -> TransversalityReport:
    """Does the per-qubit Z rotation act as the inverse logical rotation?

    Rotating every physical qubit of the seven-qubit code by `angle` should
    (for the quarter turn) keep the codespace invariant and equal, up to one
    global phase, the logical rotation by -angle.  Other angles serve as
    negative controls: they leak out of the codespace or twist the logical
    phase by the wrong amount.
    """
    zero, one = css7_logical_states()
    diag = trajset.phase_matrix([Trajectory(tuple(range(1, 8)))], 7, angle)[0]
    basis = np.stack([zero.amps, one.amps])           # orthonormal rows
    L = np.zeros((2, 2), dtype=complex)
    leak = 0.0
    for col, v in enumerate((zero.amps, one.amps)):
        rotated = diag * v
        coeffs = basis.conj() @ rotated
        L[:, col] = coeffs
        leak = max(leak, float(np.linalg.norm(rotated - basis.T @ coeffs)))
    # target: logical rotation by -angle, i.e. diag(e^{+i a/2}, e^{-i a/2})
    target = np.diag([cmath.exp(0.5j * angle), cmath.exp(-0.5j * angle)])
    # strip one global phase, taken from the largest entry
    k = np.unravel_index(np.argmax(np.abs(L)), L.shape)
    phase = L[k] / target[k] if abs(target[k]) > 0 else 1.0
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    logical_res = float(np.abs(L - phase * target).max())
    passed = leak <= _TRANSVERSAL_TOL and logical_res <= _TRANSVERSAL_TOL
    detail = "" if passed else "codespace leak" if leak > _TRANSVERSAL_TOL else "wrong logical action"
    return TransversalityReport(passed, float(angle), leak, logical_res,
                                complex(phase), detail)
