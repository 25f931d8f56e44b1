"""Dense statevector core: kets, bit weights, symmetrized amplitudes, JSON text.

Convention used everywhere: basis index j enumerates bitstrings j1...jn with
qubit 1 as the most significant bit, so |j1...jn> lives at integer index
sum_k jk * 2**(n-k).  Only `weight_on` reads bit positions.
"""
from __future__ import annotations

import gc
import json
import math
from collections import Counter
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
        # numpy's pairwise sum, not a BLAS dot: the same bits at any thread count
        return math.sqrt(float(self.probs().sum()))

    def normalize(self) -> "Ket":
        with np.errstate(over="ignore"):
            nrm = self.norm()
        if not 1e-300 <= nrm < math.inf:
            raise ValueError(f"cannot normalize a vector of norm {nrm}")
        return Ket(self.n, self.amps / nrm)

    def probs(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def make_ket(n: int, assignments: Sequence[tuple[str, complex]]) -> Ket:
    """Build a normalized Ket from (bitstring, amplitude) pairs."""
    return _ket_from_arrays(n, [b for b, _ in assignments], [a for _, a in assignments])


def _ket_from_arrays(n: int, keys: list, vals) -> Ket:
    """The normalized Ket with amplitude vals[i] on bitstring keys[i].  Rejects keys of
    the wrong length, malformed or repeated, non-finite amplitudes and all zeros."""
    _check_n(n)
    if set(map(len, keys)) - {n}:
        bits = next(k for k in keys if len(k) != n)
        raise ValueError(f"bitstring {bits!r} has length {len(bits)}, expected {n}")
    # one byte per character: "replace" turns each non-ASCII character into "?"
    digits = np.frombuffer("".join(keys).encode("ascii", "replace"), np.uint8).reshape(-1, n)
    digits = digits - ord("0")
    if (digits > 1).any():
        raise ValueError(f"malformed bitstring {keys[(digits > 1).any(axis=1).argmax()]!r}")
    idx = digits @ (1 << np.arange(n - 1, -1, -1))
    repeated = np.bincount(idx, minlength=1 << n)[idx] > 1
    if repeated.any():
        raise ValueError(f"duplicate bitstring {keys[repeated.argmax()]!r}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[idx] = vals
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

_CHUNK = 1 << 16      # entries per piece of the text of a Ket's map or a float array


def indented_json(obj, _pad: str = "\n"):
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, in pieces.

    In `obj`, a `Ket` stands for the state file's {"n": n, "amps": {bitstring:
    [re, im]}} over its nonzero amplitudes and a float array for its list.  Both
    are written from arrays, one ``float.__repr__`` per distinct value and at
    most ``_CHUNK`` entries a piece; other scalars go through ``json.dumps``.
    """
    inner = _pad + "  "
    if isinstance(obj, Ket):
        idx = np.flatnonzero(obj.amps)
        texts, inv = _distinct_texts(np.concatenate([obj.amps[idx].real, obj.amps[idx].imag]))
        low, entry = obj.n // 2, inner + "  "     # a key is a high and a low half of bits
        high_bits, low_bits = ([format(j | 1 << w, "b")[1:] for j in range(1 << w)]
                               for w in (obj.n - low, low))
        yield "{" + inner + '"amps": '
        yield from _rows("{}", inner, idx.size, [
            ([f',{entry}"{b}' for b in high_bits], idx >> low),
            ([f'{b}": [{entry}  ' for b in low_bits], idx & ((1 << low) - 1)),
            ([f"{t},{entry}  " for t in texts], inv[:idx.size]),
            ([f"{t}{entry}]" for t in texts], inv[idx.size:])])
        yield f',{inner}"n": {json.dumps(obj.n)}{_pad}}}'
    elif isinstance(obj, np.ndarray):
        texts, inv = _distinct_texts(np.asarray(obj, dtype=np.float64))
        yield from _rows("[]", _pad, inv.size, [(["," + inner + t for t in texts], inv)])
    elif isinstance(obj, (dict, list, tuple)) and obj:
        keyed = isinstance(obj, dict)
        for i, key in enumerate(sorted(obj) if keyed else range(len(obj))):
            head = encode_basestring_ascii(key) + ": " if keyed else ""
            yield ("," if i else "{" if keyed else "[") + inner + head
            yield from indented_json(obj[key], inner)
        yield _pad + ("}" if keyed else "]")
    else:
        yield json.dumps(obj)             # a scalar, {} or []


def _distinct_texts(x: np.ndarray) -> tuple[list[str], np.ndarray]:
    """JSON texts of the distinct bit patterns of `x` (-0.0 is not 0.0), and each one's index."""
    bits, inv = np.unique(x.view(np.uint64), return_inverse=True)
    return [float.__repr__(v) if math.isfinite(v) else json.dumps(v)
            for v in bits.view(np.float64).tolist()], inv


def _rows(brackets: str, pad: str, count: int, columns):
    """`count` rows in `brackets`, ``_CHUNK`` a piece: row r joins each column's table[index[r]]."""
    tables = [np.array(table, dtype=object) for table, _ in columns]
    for start in range(0, count, _CHUNK):
        block = np.empty((min(count - start, _CHUNK), len(columns)), dtype=object)
        for c, (table, (_, index)) in enumerate(zip(tables, columns)):
            block[:, c] = table[index[start:start + _CHUNK]]
        text = "".join(block.ravel().tolist())
        yield brackets[0] + text[1:] if start == 0 else text     # row 0 has no "," before it
    yield pad + brackets[1] if count else brackets


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a repeated key is an error, where json keeps the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"repeated key {key!r}")
    return obj


def ket_from_json(text: str) -> Ket:
    """The Ket of a state file {"n": n, "amps": {bitstring: [re, im]}}, as written for a Ket."""
    enabled = gc.isenabled()
    gc.disable()        # the parse makes no cycles, and the collector's passes over the
    try:                # lists it allocates, one per amplitude, take a fifth of it at N_MAX
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    finally:
        if enabled:
            gc.enable()
    if not isinstance(obj, dict) or not isinstance(obj.get("amps"), dict):
        raise ValueError('a state is a JSON object {"n": n, "amps": {bitstring: [re, im]}}')
    vals = list(obj["amps"].values())
    if not (set(map(type, vals)) <= {list} and set(map(len, vals)) <= {2}
            and set(map(type, chain.from_iterable(vals))) <= {int, float}):
        bits = next(b for b, v in obj["amps"].items() if type(v) is not list
                    or len(v) != 2 or not {*map(type, v)} <= {int, float})
        raise ValueError(f"amplitude of {bits!r} is not [re, im], two JSON numbers")
    parts = np.fromiter(chain.from_iterable(vals), np.float64, count=2 * len(vals))
    return _ket_from_arrays(obj["n"], list(obj["amps"]), parts.view(np.complex128))
