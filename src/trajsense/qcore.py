"""Dense statevector core: kets, tensor placement, symmetrized basis, sampling.

Convention used everywhere: basis index j enumerates bitstrings j1...jn with
qubit 1 as the most significant bit, so |j1...jn> lives at integer index
sum_k jk * 2**(n-k).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np

from . import rng

#: Hard cap on register size (16 MB of complex amplitudes).
N_MAX = 20

_NORM_TOL = 1e-10


def _check_n(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"qubit count must be a positive integer, got {n!r}")
    if n > N_MAX:
        raise ValueError(f"qubit count {n} exceeds N_MAX={N_MAX}")


def basis_index(bits: str) -> int:
    """Integer index of a bitstring like '0110' (qubit 1 = leftmost)."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"malformed bitstring {bits!r}")
    return int(bits, 2)


def bitstring(n: int, j: int) -> str:
    return format(j, f"0{n}b")


def bit_table(n: int) -> np.ndarray:
    """(2**n, n) uint8 array; column k-1 holds the bit of qubit k."""
    idx = np.arange(1 << n, dtype=">u4")       # big-endian: qubit 1's bit comes first
    return np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - n:]


def weight_on(n: int, qubits: Iterable[int]) -> np.ndarray:
    """For every basis index, the number of 1-bits on the given qubits."""
    idx = np.arange(1 << n, dtype=np.uint64)
    w = np.zeros(1 << n, dtype=np.int64)
    for q in qubits:
        w += ((idx >> np.uint64(n - q)) & np.uint64(1)).astype(np.int64)
    return w


@dataclass(frozen=True)
class Ket:
    """Normalized pure state of ``n`` qubits as a dense amplitude vector."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        a = np.asarray(self.amps, dtype=np.complex128)
        if a.shape != (1 << self.n,):
            raise ValueError(f"amplitude vector has shape {a.shape}, expected ({1 << self.n},)")
        object.__setattr__(self, "amps", a)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "Ket":
        nrm = self.norm()
        if nrm < 1e-300:
            raise ValueError("cannot normalize the zero vector")
        return Ket(self.n, self.amps / nrm)

    def probs(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def make_ket(n: int, assignments: Sequence[tuple[str, complex]]) -> Ket:
    """Build a normalized Ket from (bitstring, amplitude) pairs.

    Rejects duplicate bitstrings and all-zero amplitude lists.
    """
    _check_n(n)
    amps = np.zeros(1 << n, dtype=np.complex128)
    seen = set()
    for bits, a in assignments:
        if len(bits) != n:
            raise ValueError(f"bitstring {bits!r} has length {len(bits)}, expected {n}")
        j = basis_index(bits)
        if j in seen:
            raise ValueError(f"duplicate bitstring {bits!r}")
        seen.add(j)
        amps[j] = a
    if not np.any(amps):
        raise ValueError("all amplitudes are zero")
    return Ket(n, amps).normalize()


def from_vector(n: int, vec: np.ndarray, normalize: bool = True) -> Ket:
    k = Ket(n, np.asarray(vec, dtype=np.complex128))
    return k.normalize() if normalize else k


def tensor(a: Ket, b: Ket, place_a: Sequence[int] | None = None,
           place_b: Sequence[int] | None = None) -> Ket:
    """Tensor product with explicit qubit placement.

    ``place_a[i]`` is the output position (1-based) of qubit i+1 of ``a``;
    likewise for ``b``.  The two placements must be disjoint and together
    cover 1..(a.n+b.n).  Default is ``a`` on the leading positions.
    """
    n_out = a.n + b.n
    _check_n(n_out)
    if place_a is None and place_b is None:
        out = np.kron(a.amps, b.amps)  # qubit 1 of `a` is the output MSB
        return Ket(n_out, out)
    if place_a is None or place_b is None:
        raise ValueError("give both placements or neither")
    pa, pb = list(place_a), list(place_b)
    if len(pa) != a.n or len(pb) != b.n:
        raise ValueError("placement length must match qubit count")
    allpos = pa + pb
    if sorted(allpos) != list(range(1, n_out + 1)):
        raise ValueError(f"placements must cover 1..{n_out} exactly, got {sorted(allpos)}")
    bits = bit_table(n_out)
    pw_a = 1 << np.arange(a.n - 1, -1, -1)
    pw_b = 1 << np.arange(b.n - 1, -1, -1)
    idx_a = bits[:, [p - 1 for p in pa]].astype(np.int64) @ pw_a
    idx_b = bits[:, [p - 1 for p in pb]].astype(np.int64) @ pw_b
    return Ket(n_out, a.amps[idx_a] * b.amps[idx_b])


def inner(a: Ket, b: Ket) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} qubits")
    return complex(np.vdot(a.amps, b.amps))


def gram(states: Sequence[Ket]) -> np.ndarray:
    """Matrix of pairwise inner products <s_i|s_j>."""
    mat = np.stack([s.amps for s in states])
    return mat.conj() @ mat.T


def equal_up_to_phase(a: Ket, b: Ket, tol: float = 1e-10) -> bool:
    return abs(inner(a, b)) > 1 - tol


@dataclass(frozen=True, eq=False)
class SymBasisElement:
    """Unnormalized sum of all bitstrings of weight nu or n-nu."""

    n: int
    nu: int
    support: np.ndarray          # basis indices, ascending
    norm_sq: int

    def vector(self) -> np.ndarray:
        v = np.zeros(1 << self.n, dtype=np.complex128)
        v[self.support] = 1.0
        return v


def symmetrized_basis(n: int) -> list[SymBasisElement]:
    """The floor(n/2)+1 bit-flip/permutation invariant basis elements."""
    _check_n(n)
    w = weight_on(n, range(1, n + 1))
    out = []
    for nu in range(n // 2 + 1):
        support = np.nonzero((w == nu) | (w == n - nu))[0]
        expect = math.comb(n, nu) + (math.comb(n, n - nu) if nu != n - nu else 0)
        assert len(support) == expect
        out.append(SymBasisElement(n, nu, support, expect))
    return out


def symmetrized_amplitudes(n: int, profiles) -> np.ndarray:
    """Amplitudes sqrt(x_nu) on every bitstring of weight nu or n-nu.

    `profiles` holds squared magnitudes over `symmetrized_basis(n)`, shape
    (n//2+1,) or (P, n//2+1); negative entries count as zero.  Returns the
    matching (2**n,) or (P, 2**n) complex array.
    """
    w = weight_on(n, range(1, n + 1))
    x = np.asarray(profiles, dtype=float)
    return np.sqrt(np.clip(x, 0.0, None))[..., np.minimum(w, n - w)].astype(complex)


def sample_measurement(k: Ket, basis: Sequence[Ket], rng_seed: int,
                       sample_index: int = 0, stream: int = 0) -> int:
    """Draw one projective outcome; index len(basis) is the complement.

    Outcomes follow the Born probabilities |<basis_i|k>|^2, with whatever
    probability remains assigned to an implicit complement outcome.  The draw
    is addressed by (rng_seed, stream, sample_index), so repeated calls with
    distinct sample indices are reproducible in any order.
    """
    g = gram(basis)
    off = np.abs(g - np.eye(len(basis)))
    if off.size and off.max() > 1e-8:
        raise ValueError(f"basis not orthonormal: max |G - I| entry = {off.max():.3e}")
    overlaps = np.array([inner(b, k) for b in basis])
    probs = np.abs(overlaps) ** 2
    # complement outcome absorbs whatever probability the basis misses
    cdf = np.concatenate([np.cumsum(probs), [max(probs.sum(), 1.0)]])
    u = rng.uniform_at(rng_seed, stream, sample_index)
    return int(np.searchsorted(cdf, u, side="right"))


# ---------------------------------------------------------------------------
# serialization (used by the CLI)

def ket_to_dict(k: Ket, tol: float = 0.0) -> dict:
    """{"n": n, "amps": {bitstring: (re, im)}} over the amplitudes above tol."""
    idx = np.nonzero(np.abs(k.amps) > tol)[0]
    kept = k.amps[idx]
    fmt = f"0{k.n}b"
    keys = [format(j, fmt) for j in idx.tolist()]
    return {"n": k.n, "amps": dict(zip(keys, zip(kept.real.tolist(), kept.imag.tolist())))}


def ket_to_json(k: Ket, tol: float = 0.0) -> str:
    return indented_json(ket_to_dict(k, tol)) + "\n"


def indented_json(obj, _pad: str = "\n") -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)`` for str-keyed JSON values.

    With an indent the standard library runs its pure-Python encoder, one
    generator step per value.  Here a list of finite floats, and a dict whose
    values are such lists of one length (a witness's {bitstring: (re, im)}
    map), are joined from ``float.__repr__`` strings in one comprehension
    each; anything else recurses, and other scalars go through ``json.dumps``.
    """
    inner = _pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        vals = [obj[key] for key in keys]
        texts = _float_lists(vals, inner) or [indented_json(v, inner) for v in vals]
        return ("{" + ",".join([f"{inner}{encode_basestring_ascii(key)}: {text}"
                                for key, text in zip(keys, texts)]) + _pad + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        texts = _float_reprs(obj) or [indented_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(texts) + _pad + "]"
    return json.dumps(obj)


def _float_reprs(vals) -> list[str] | None:
    """``float.__repr__`` of every value if all are finite floats, else None."""
    if not (set(map(type, vals)) <= {float} and all(map(math.isfinite, vals))):
        return None
    # one repr per distinct value; 0.0 == -0.0, so zeros skip the memo
    memo = {v: float.__repr__(v) for v in set(vals) if v}
    return [memo.get(v) or float.__repr__(v) for v in vals]


def _float_lists(lists, pad: str) -> list[str] | None:
    """Indented texts of equal-length float lists, or None if `lists` holds anything else."""
    if not all(isinstance(v, (list, tuple)) for v in lists):
        return None
    lengths = set(map(len, lists))
    reprs = _float_reprs(list(chain.from_iterable(lists))) if len(lengths) == 1 else None
    if not reprs:
        return None
    inner = pad + "  "
    sep = "," + inner
    return [f"[{inner}{sep.join(row)}{pad}]" for row in zip(*[iter(reprs)] * lengths.pop())]


def ket_from_json(text: str) -> Ket:
    obj = json.loads(text)
    n = obj["n"]
    pairs = [(bits, complex(re, im)) for bits, (re, im) in obj["amps"].items()]
    return make_ket(n, pairs)
