"""Trajectory families and the phase matrix of their diagonal rotations.

A trajectory is the set of qubits rotated by a passing particle.  The
symmetric family holds every weight-m subset of {1..n}; the cyclic family
holds the n contiguous windows of width m < n (indices mod n).  Families are
built in code; no file format reads or writes them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

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

    def label(self) -> str:
        return "{" + ",".join(map(str, self.qubits)) + "}"


@dataclass(frozen=True)
class TrajectorySet:
    """Distinct trajectories on n qubits whose members match the family label.

    "symmetric" holds all C(n,m) weight-m subsets (in any order), "cyclic" the
    n width-m windows in start order (1 <= m < n), "custom" any members.
    """

    n: int
    family: str  # symmetric | cyclic | custom
    m: int
    members: tuple[Trajectory, ...]

    def __post_init__(self):
        _check_n(self.n)
        seen = set()
        for t in self.members:
            t.validate_within(self.n)
            if t.qubits in seen:
                raise ValueError(f"duplicate member {t.qubits}")
            seen.add(t.qubits)
        n, m = self.n, self.m
        if self.family == "symmetric":
            if not (0 <= m <= n and len(self) == math.comb(n, m)
                    and all(len(t) == m for t in self.members)):
                raise ValueError(f"label 'symmetric' needs all C({n},{m}) weight-{m} "
                                 f"subsets of 1..{n}, got {self._describe()}")
        elif self.family == "cyclic":
            _check_cyclic_width(n, m)
            if self.members != _windows(n, m):
                raise ValueError(f"label 'cyclic' needs the {n} width-{m} windows "
                                 f"in start order, got {self._describe()}")
        elif self.family != "custom":
            raise ValueError(f"unknown family {self.family!r}")

    def __len__(self):
        return len(self.members)

    @property
    def kappa(self) -> int | None:
        """n/m for a cyclic family whose width m divides n, else None."""
        if self.family == "cyclic" and self.n % self.m == 0:
            return self.n // self.m
        return None

    def _describe(self) -> str:
        """Member count and the first six members, for error messages."""
        labels = ",".join(t.label() for t in self.members[:6])
        return f"{len(self)} members " + labels + (",..." if len(self) > 6 else "")


def _check_cyclic_width(n: int, m: int) -> None:
    """1 <= m < n, since at m = n > 1 all n windows are the whole register."""
    if not 1 <= m < max(n, 2):
        raise ValueError(f"label 'cyclic' needs window width 1 <= m < n "
                         f"(m = 1 for n = 1), got m={m}, n={n}")


def _windows(n: int, m: int) -> tuple[Trajectory, ...]:
    """The n windows z^j({1..m}) under the cyclic shift z = (1...n), j = 0..n-1."""
    return tuple(Trajectory(tuple((start + off) % n + 1 for off in range(m)))
                 for start in range(n))


def gen_symmetric(n: int, m: int) -> TrajectorySet:
    """All C(n,m) weight-m trajectories in lexicographic order."""
    _check_n(n)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    members = tuple(Trajectory(c) for c in itertools.combinations(range(1, n + 1), m))
    return TrajectorySet(n, "symmetric", m, members)


def gen_cyclic(n: int, m: int) -> TrajectorySet:
    """The n windows z^j({1..m}) under the cyclic shift z = (1...n)."""
    _check_n(n)
    _check_cyclic_width(n, m)
    return TrajectorySet(n, "cyclic", m, _windows(n, m))


#: most elements `phase_matrix` allocates: 2**26 complex128 entries, 1 GiB
PHASE_CAP = 1 << 26


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
    if len(members) << n > PHASE_CAP:
        raise ValueError(f"phase matrix too large: {len(members)} trajectories x "
                         f"2^{n} amplitudes > PHASE_CAP = {PHASE_CAP} elements")
    rows = np.empty((len(members), 1 << n), dtype=np.complex128)
    for row, t in zip(rows, members):
        t.validate_within(n)
        phases = np.exp(-0.5j * theta * (len(t) - 2 * np.arange(len(t) + 1)))
        row[:] = phases[weight_on(n, t.qubits)]
    return rows

