"""Elastic phase-1 feasibility: an exact bracket from a float solve.

Decides feasibility of {x >= 0 : A x = b} by minimizing the total elastic
violation sum |A x - b| (split into s+ and s- columns).  Coefficients are
rationalized exactly (every float is a dyadic rational), so systems that
miss feasibility by one ulp have a comparably tiny optimum instead of
jumping to O(1) as the classic one-sided artificial formulation would.
`certified_phase1` brackets that exact optimum between rational bounds
built from a float solve (`_float_phase1`, a dense numpy tableau).  The
caller holds the tolerance: a bracket on one side of it is a verdict, and
a bracket that straddles it decides nothing.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


#: pivot tolerance of `_float_phase1`: reduced costs and column entries this small count as 0
_PIVOT_TOL = 1e-11


def _float_phase1(A: np.ndarray, b: np.ndarray):
    """(x >= 0, row duals y) of the elastic program, or None if the pivoting stalls.

    A dense float tableau of the elastic program: rows with b_i < 0 flipped,
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


def certified_phase1(A: np.ndarray, b: np.ndarray):
    """(lower, upper, x): lower <= min sum |A x - b| over x >= 0 <= upper, exactly.

    The bounds are Fractions.  upper is the exact residual |A x - b|_1 of a
    rational x >= 0 whose rounding is returned: the float solve's support
    re-solved exactly when that is nonnegative (then upper = 0), else the
    float point itself.  lower is weak duality, b.y / max(1, |y|_inf) for
    any y with A^T y <= 0: the float duals get there by lowering y's last
    entry, which needs an all-positive last row (a normalisation row);
    without one, lower = 0.  When the float solve stalls or is not finite,
    x = 0, which the elastic program admits, gives (0, |b|_1, 0).
    """
    bq = [Fraction(v) for v in b.tolist()]
    sol = _float_phase1(A, b)
    if sol is None or not (np.isfinite(sol[0]).all() and np.isfinite(sol[1]).all()):
        return Fraction(0), sum(map(abs, bq), Fraction(0)), np.zeros(A.shape[1])
    x, y = sol
    yq = [Fraction(v) for v in y.tolist()]
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
    return lower, upper, x
