"""Dense statevector core: kets, bit weights, symmetrized amplitudes, JSON text.

Convention used everywhere: basis index j enumerates bitstrings j1...jn with
qubit 1 as the most significant bit, so |j1...jn> lives at integer index
sum_k jk * 2**(n-k).  Only `weight_on` reads bit positions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np

#: Hard cap on register size (16 MB of complex amplitudes).
N_MAX = 20
#: `equal_up_to_phase` accepts |<a|b>| above 1 minus this
_PHASE_TOL = 1e-10


def _check_n(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
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


def weight_on(n: int, qubits: Iterable[int]) -> np.ndarray:
    """For every basis index, the number of 1-bits on the given qubits (int64)."""
    mask = sum(1 << (n - q) for q in set(qubits))
    # int64, not bitwise_count's uint8, so that |T| - 2w cannot wrap around
    return np.bitwise_count(np.arange(1 << n) & mask).astype(np.int64)


def weight_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(fold, sizes): the class min(w, n-w) of each bitstring of weight w, and the
    size of each of the n//2+1 classes, which span the bit-flip and permutation
    invariant subspace."""
    _check_n(n)
    w = weight_on(n, range(1, n + 1))
    fold = np.minimum(w, n - w)
    return fold, np.bincount(fold)


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "Ket":
        with np.errstate(over="ignore"):
            nrm = self.norm()
        if not 1e-300 <= nrm < math.inf:
            raise ValueError(f"cannot normalize a vector of norm {nrm}")
        return Ket(self.n, self.amps / nrm)

    def probs(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def make_ket(n: int, assignments: Sequence[tuple[str, complex]]) -> Ket:
    """Build a normalized Ket from (bitstring, amplitude) pairs.

    Rejects duplicate bitstrings, non-finite amplitudes and all-zero lists.
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
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    if not np.any(amps):
        raise ValueError("all amplitudes are zero")
    return Ket(n, amps).normalize()


def from_vector(n: int, vec: np.ndarray, normalize: bool = True) -> Ket:
    k = Ket(n, np.asarray(vec, dtype=np.complex128))
    return k.normalize() if normalize else k


def inner(a: Ket, b: Ket) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} qubits")
    return complex(np.vdot(a.amps, b.amps))


def equal_up_to_phase(a: Ket, b: Ket) -> bool:
    return abs(inner(a, b)) > 1 - _PHASE_TOL


def symmetrized_amplitudes(n: int, profiles) -> np.ndarray:
    """Amplitudes sqrt(x_nu) on every bitstring of weight nu or n-nu.

    `profiles` holds squared magnitudes over the classes of `weight_classes(n)`,
    shape (n//2+1,) or (P, n//2+1); negative entries count as zero.  Returns
    the matching (2**n,) or (P, 2**n) complex array.
    """
    x = np.asarray(profiles, dtype=float)
    return np.sqrt(np.clip(x, 0.0, None))[..., weight_classes(n)[0]].astype(complex)


# ---------------------------------------------------------------------------
# serialization: the state format `solve` writes and `verify` reads, and the
# text of every JSON artifact the CLI writes

def ket_to_dict(k: Ket) -> dict:
    """{"n": n, "amps": {bitstring: (re, im)}} over the nonzero amplitudes."""
    idx = np.flatnonzero(k.amps)
    kept = k.amps[idx]
    fmt = f"0{k.n}b"
    keys = [format(j, fmt) for j in idx.tolist()]
    return {"n": k.n, "amps": dict(zip(keys, zip(kept.real.tolist(), kept.imag.tolist())))}


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
    if not isinstance(obj, dict) or not isinstance(obj.get("amps"), dict):
        raise ValueError('a state is a JSON object {"n": n, "amps": {bitstring: [re, im]}}')
    n = obj["n"]
    pairs = [(bits, complex(re, im)) for bits, (re, im) in obj["amps"].items()]
    return make_ket(n, pairs)
