"""Elastic phase-1 feasibility: certify a float solve, else pivot exactly.

Decides feasibility of {x >= 0 : A x = b} by minimizing the total elastic
violation sum |A x - b| (split into s+ and s- columns).  Coefficients are
rationalized exactly (every float is a dyadic rational), so systems that
miss feasibility by one ulp report a comparably tiny objective instead of
jumping to O(1) as the classic one-sided artificial formulation would.
`certified_phase1` brackets that exact objective between rational bounds
built from a float solve (`_float_phase1`, a dense numpy tableau); only
when the bracket straddles the tolerance does `exact_phase1`, a Bland's-rule
rational tableau, compute it outright.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np


def exact_phase1(A: Sequence[Sequence[float]], b: Sequence[float]):
    """Minimize sum |A x - b| over x >= 0, exactly.

    Returns (objective: Fraction, x: list[Fraction]).  objective == 0 iff
    the rationalized system is feasible; x is a basic (vertex) solution of
    the elastic program either way.
    """
    m = len(A)
    if m == 0:
        return Fraction(0), []
    N = len(A[0])
    rows = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        bi = Fraction(b[i])
        if bi < 0:  # keep rhs nonnegative so the s+ basis starts feasible
            row = [-v for v in row]
            bi = -bi
        elastic = [Fraction(0)] * (2 * m)
        elastic[i] = Fraction(1)        # s+ column
        elastic[m + i] = Fraction(-1)   # s- column
        rows.append(row + elastic + [bi])

    ncols = N + 2 * m
    # reduced costs for cost (0,..,0 | 1,..,1), initial basis = s+ block
    red = [Fraction(0)] * (ncols + 1)
    for j in range(ncols + 1):
        cj = Fraction(1) if N <= j < ncols else Fraction(0)
        red[j] = cj - sum(r[j] for r in rows)
    basis = list(range(N, N + m))

    while True:
        enter = -1
        for j in range(ncols):  # Bland: smallest improving index
            if red[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave, best, best_var = -1, None, None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_var):
                    leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded — malformed input")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        prow = rows[leave]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [v - f * p for v, p in zip(rows[i], prow)]
        if red[enter] != 0:
            f = red[enter]
            red = [v - f * p for v, p in zip(red, prow)]
        basis[leave] = enter

    obj = -red[ncols]
    x = [Fraction(0)] * N
    for i, jb in enumerate(basis):
        if jb < N:
            x[jb] = rows[i][ncols]
    return obj, x


#: pivot tolerance of `_float_phase1`: reduced costs and column entries this small count as 0
_PIVOT_TOL = 1e-11


def _float_phase1(A: np.ndarray, b: np.ndarray):
    """(x >= 0, row duals y) of the elastic program, or None if the pivoting stalls.

    A dense float tableau on `exact_phase1`'s setup: rows with b_i < 0 flipped,
    the [I | -I] elastic block at cost 1, the s+ block as the first basis;
    Dantzig pricing, and the largest pivot among ratio-test ties.  At an
    optimum the tableau is refactored from the original rows and pivoting goes
    on if rounding had hidden an improving column.  y are the duals that
    `certified_phase1` bounds with: A^T y <= 0, |y_i| <= 1 and b.y is the
    objective, up to rounding.
    """
    m, N = A.shape
    ncols = N + 2 * m
    sign = np.where(b < 0, -1.0, 1.0)
    T0 = np.hstack([sign[:, None] * A, np.eye(m), -np.eye(m), (sign * b)[:, None]])
    cost = np.concatenate([np.zeros(N), np.ones(2 * m)])
    basis = np.arange(N, N + m)
    T = T0.copy()
    for _ in range(50 * ncols):     # pivots and refactors; a cycling run ends in None
        red = cost - cost[basis] @ T[:, :ncols]
        enter = int(np.argmin(red))
        if red[enter] >= -_PIVOT_TOL:
            T = np.linalg.solve(T0[:, basis], T0)
            if (cost - cost[basis] @ T[:, :ncols]).min() >= -_PIVOT_TOL:
                x = np.zeros(ncols)
                x[basis] = T[:, -1]
                return np.clip(x[:N], 0.0, None), sign * (cost[basis] @ T[:, N:N + m])
            continue
        col = T[:, enter]
        ratio = np.full(m, np.inf)
        up = col > _PIVOT_TOL
        if not up.any():            # unbounded only through rounding: the objective is >= 0
            return None
        ratio[up] = np.maximum(T[up, -1], 0.0) / col[up]
        ties = ratio <= ratio.min() + _PIVOT_TOL
        leave = int(np.argmax(np.where(ties, col, -np.inf)))
        piv = T[leave] / col[leave]
        T -= np.outer(col, piv)
        T[leave] = piv
        basis[leave] = enter
    return None


def _dyadic(v: np.ndarray):
    """(k, e): Python ints k (an object array) and an int e with v == k * 2**e exactly."""
    mant, exp = np.frexp(v)
    lo = int(exp.min(initial=0))
    k = (mant * 2.0 ** 53).astype(np.int64).astype(object)   # exact: 53-bit significands
    return np.left_shift(k, (exp - lo).astype(object)), lo - 53


def _solve_exact(M: list, rhs: list):
    """A basic z with M z = rhs over the rationals, pivoting on columns in order, or None."""
    rows, piv = [r + [c] for r, c in zip(M, rhs)], {}
    for c in range(len(M[0])):
        p = next((i for i in range(len(piv), len(rows)) if rows[i][c]), None)
        if p is not None:
            r0 = piv[c] = len(piv)
            rows[r0], rows[p] = rows[p], rows[r0]
            for i, r in enumerate(rows):
                if i != r0 and r[c]:
                    f = r[c] / rows[r0][c]
                    rows[i] = [a - f * q for a, q in zip(r, rows[r0])]
    if any(r[-1] for r in rows[len(piv):]):
        return None
    z = [Fraction(0)] * len(M[0])
    for c, r in piv.items():
        z[c] = rows[r][-1] / rows[r][c]
    return z


def certified_phase1(A: Sequence[Sequence[float]], b: Sequence[float], tol: float):
    """(lower, upper, x): lower <= the `exact_phase1` objective <= upper.

    The bounds are Fractions, and either upper <= tol or lower > tol: a
    straddle runs `exact_phase1` and returns its objective as both.  upper is
    the exact residual |A x - b|_1 of a rational x >= 0 whose rounding is
    returned: the float solve's support re-solved exactly when that is
    nonnegative (then upper = 0), else the float point itself.  lower is weak
    duality, b.y / max(1, |y|_inf) for any y with A^T y <= 0: the float duals
    get there by lowering y's last entry, which needs an all-positive last
    row (a normalisation row); without one, lower = 0.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    sol = _float_phase1(A, b)
    if sol is not None and np.isfinite(sol[0]).all() and np.isfinite(sol[1]).all():
        x, y = sol
        bq, yq = [Fraction(v) for v in b.tolist()], [Fraction(v) for v in y.tolist()]
        # a basis guess: the support first, then the columns of least reduced cost
        S = np.argsort(np.where(x > 0, -1.0, np.abs(A.T @ y)), kind="stable")[:len(b)]
        z = _solve_exact([[Fraction(v) for v in row] for row in A[:, S].tolist()], bq)
        if z is not None and min(z) >= 0:
            upper, x = Fraction(0), np.zeros_like(x)
            x[S] = [float(v) for v in z]
        else:
            S = np.flatnonzero(x)
            xq = [Fraction(v) for v in x[S].tolist()]
            upper = sum(abs(sum(Fraction(a) * v for a, v in zip(row, xq)) - bi)
                        for row, bi in zip(A[:, S].tolist(), bq))
        lower = Fraction(0)
        Ak, eA = _dyadic(A)
        if (Ak[-1] > 0).all():
            yk, ey = _dyadic(y)
            g = yk @ Ak                         # A^T y == g * 2**(eA + ey)
            yq[-1] -= max((Fraction(gj, a) for gj, a in zip(g, Ak[-1]) if gj > 0),
                          default=0) * Fraction(2) ** ey
            lower = max(lower, sum(bi * yi for bi, yi in zip(bq, yq)) / max(1, *map(abs, yq)))
        if upper <= tol or lower > tol:
            return lower, upper, x
    obj, x_exact = exact_phase1(A.tolist(), b.tolist())
    return obj, obj, np.array([float(v) for v in x_exact])
