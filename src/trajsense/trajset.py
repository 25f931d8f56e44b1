"""Trajectory families and the phase matrix of their diagonal rotations.

A trajectory is the set of qubits rotated by a passing particle.  The
symmetric family holds every weight-m subset of {1..n}; the cyclic family
holds the n contiguous windows of width m < n (indices mod n).  Families are
built in code; no file format reads or writes them.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .qcore import _check_n, weight_on


@dataclass(frozen=True)
class Trajectory:
    """Sorted tuple of 1-based qubit indices."""

    qubits: tuple[int, ...]

    def __post_init__(self):
        q = tuple(sorted(int(x) for x in self.qubits))
        if len(set(q)) != len(q):
            raise ValueError(f"duplicate qubit index in trajectory {q}")
        if q and q[0] < 1:
            raise ValueError(f"qubit indices are 1-based, got {q}")
        object.__setattr__(self, "qubits", q)

    def __len__(self):
        return len(self.qubits)

    def validate_within(self, n: int) -> None:
        if self.qubits and self.qubits[-1] > n:
            raise ValueError(f"trajectory {self.qubits} exceeds register size {n}")


class Orbits(NamedTuple):
    """A sym or cyc family under its group: qubit permutations or the cyclic shift.

    The pairs (first, b), b in `partners`, hold one pair of members per orbit
    of unordered member pairs: the cyc partners are the shifts 1 .. n // 2,
    as shifting (first, shift n - s) by s gives (shift s, first).  `rep` maps
    every bitstring to a fixed member of its orbit: the lowest bitstring of
    its weight, or its smallest cyclic rotation.
    """

    first: Trajectory
    partners: list[Trajectory]
    rep: np.ndarray


@dataclass(frozen=True)
class TrajectorySet:
    """Distinct trajectories on n qubits.

    "symmetric" is all C(n,m) weight-m subsets in lexicographic order,
    "cyclic" the n width-m windows in start order (1 <= m < n, or
    n = m = 1); both are fixed by (n, m), and their members are built on
    first access.  "custom" holds the members it is given.
    """

    n: int
    family: str  # symmetric | cyclic | custom
    m: int
    custom: tuple[Trajectory, ...] = ()

    def __post_init__(self):
        _check_n(self.n)
        n, m = self.n, self.m
        if self.family not in ("symmetric", "cyclic", "custom"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.custom and self.family != "custom":
            raise ValueError(f"a {self.family} family is fixed by (n, m) and takes no "
                             f"members; label a member list 'custom'")
        if self.family == "symmetric" and not 0 <= m <= n:
            raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
        if self.family == "cyclic" and not 1 <= m < max(n, 2):
            raise ValueError(f"label 'cyclic' needs window width 1 <= m < n "
                             f"(m = 1 for n = 1), got m={m}, n={n}")
        seen = set()
        for t in self.custom:
            t.validate_within(n)
            if t.qubits in seen:
                raise ValueError(f"duplicate member {t.qubits}")
            seen.add(t.qubits)

    def __len__(self):
        if self.family == "symmetric":
            return math.comb(self.n, self.m)
        return self.n if self.family == "cyclic" else len(self.custom)

    @functools.cached_property
    def members(self) -> tuple[Trajectory, ...]:
        n, m = self.n, self.m
        if self.family == "symmetric":
            return tuple(Trajectory(c) for c in itertools.combinations(range(1, n + 1), m))
        if self.family == "cyclic":
            return tuple(_window(n, m, start) for start in range(n))
        return self.custom

    @functools.cached_property
    def orbits(self) -> Orbits | None:
        """The family's `Orbits`, or None for a custom family."""
        n, m = self.n, self.m
        if self.family == "symmetric":
            # one partner per intersection size t < m with {1..m}
            partners = [Trajectory(tuple(range(m - t + 1, 2 * m - t + 1)))
                        for t in range(max(0, 2 * m - n), m)]
            return Orbits(Trajectory(tuple(range(1, m + 1))), partners,
                          (1 << weight_on(n, range(1, n + 1))) - 1)
        if self.family == "cyclic":
            return Orbits(_window(n, m, 0), [_window(n, m, s) for s in range(1, n // 2 + 1)],
                          _smallest_rotation(n))
        return None

    @property
    def kappa(self) -> int | None:
        """n/m for a cyclic family whose width m divides n, else None."""
        if self.family == "cyclic" and self.n % self.m == 0:
            return self.n // self.m
        return None


@functools.cache
def _smallest_rotation(n: int) -> np.ndarray:
    """Read-only: the smallest cyclic rotation of every n-bit string, built once per n."""
    mask = (1 << n) - 1
    rep = cur = np.arange(1 << n, dtype=np.int64)
    for _ in range(n - 1):
        cur = ((cur << 1) | (cur >> (n - 1))) & mask
        rep = np.minimum(rep, cur)
    rep.flags.writeable = False
    return rep


def _window(n: int, m: int, start: int) -> Trajectory:
    """The window z^start({1..m}) under the cyclic shift z = (1...n)."""
    return Trajectory(tuple((start + off) % n + 1 for off in range(m)))


def gen_symmetric(n: int, m: int) -> TrajectorySet:
    """All C(n,m) weight-m trajectories in lexicographic order."""
    return TrajectorySet(n, "symmetric", m)


def gen_cyclic(n: int, m: int) -> TrajectorySet:
    """The n windows z^j({1..m}) under the cyclic shift z = (1...n)."""
    return TrajectorySet(n, "cyclic", m)


#: most elements `phase_matrix` allocates: 2**26 complex128 entries, 1 GiB
PHASE_CAP = 1 << 26


def check_phase_cap(k: int, n: int) -> None:
    """Refuse a phase matrix of k trajectories on n qubits above `PHASE_CAP`."""
    if k << n > PHASE_CAP:
        raise ValueError(f"phase matrix too large: {k} trajectories x "
                         f"2^{n} amplitudes > PHASE_CAP = {PHASE_CAP} elements")


def phase_matrix(members: Sequence[Trajectory], n: int, theta: float) -> np.ndarray:
    """Diagonals of R^(T)(theta), one row per trajectory: shape (len(members), 2**n).

    R_Z(theta) = e^{-i theta Z/2} on every qubit of T is diagonal in the
    computational basis, with entry exp(-i(theta/2) * sum_{k in T} (1 - 2 j_k)).
    That sum is |T| - 2w for the weight w of the bitstring on T, so each row
    is a lookup into the |T|+1 possible phases.  Refuses more than
    `PHASE_CAP` elements before allocating.
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta={theta} outside the modeled range [0, pi]")
    check_phase_cap(len(members), n)
    rows = np.empty((len(members), 1 << n), dtype=np.complex128)
    for row, t in zip(rows, members):
        t.validate_within(n)
        phases = np.exp(-0.5j * theta * (len(t) - 2 * np.arange(len(t) + 1)))
        row[:] = phases[weight_on(n, t.qubits)]
    return rows

