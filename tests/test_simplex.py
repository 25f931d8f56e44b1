"""Exact rational feasibility: the elastic phase-1 pivot oracle of `tests/oracles.py`."""
import math
from fractions import Fraction

from oracles import exact_phase1


def test_feasible_system_exact_zero():
    # x1 + x2 = 1, x1 - x2 = 0  ->  x = (1/2, 1/2)
    obj, x = exact_phase1([[1, 1], [1, -1]], [1, 0])
    assert obj == 0
    assert x == [Fraction(1, 2), Fraction(1, 2)]


def test_infeasible_negative_rhs():
    # x1 + x2 = -1 impossible for x >= 0; L1 distance is exactly 1
    obj, _ = exact_phase1([[1, 1]], [-1])
    assert obj == Fraction(1)


def test_single_row_vertex():
    obj, x = exact_phase1([[1, 1]], [3])
    assert obj == 0
    assert sum(x) == 3
    assert x.count(Fraction(0)) == 1   # vertex: one basic variable


def test_objective_is_exact_l1_distance():
    # x1 = 1 and x1 = 1 + 2^-50 cannot both hold; violation is exactly 2^-50
    eps = 2.0 ** -50
    obj, _ = exact_phase1([[1], [1]], [1, 1 + eps])
    assert obj == Fraction(1, 2 ** 50)


def test_solution_satisfies_system_exactly():
    A = [[2, 1, 0], [1, 0, 3], [0, 1, 1]]
    b = [4, 5, 2]
    obj, x = exact_phase1(A, b)
    assert obj == 0
    for row, bi in zip(A, b):
        assert sum(Fraction(a) * xi for a, xi in zip(row, x)) == Fraction(bi)


def test_near_boundary_degenerate_system():
    """Regression: float-rounded boundary systems must report ~ulp objectives.

    These rows put the unique solution a few ulp outside the nonnegative
    orthant; a one-sided artificial formulation jumps to objective 1 here,
    the elastic form must stay at roundoff scale.
    """
    c1, c2 = math.cos(0.75 * math.pi), math.cos(1.5 * math.pi)
    A = [[2.0, 8 * c1, 4 + 2 * c2],
         [2.0, 4 * (1 + c1), 2 + 4 * c1],
         [2.0, 8.0, 6.0]]
    obj, _ = exact_phase1(A, [0, 0, 1])
    assert obj < Fraction(1, 10 ** 12)


def test_verdict_invariant_under_row_scaling():
    A = [[1, 2], [3, -1]]
    b = [5, 1]
    scaled = [[17 * v for v in row] for row in A]
    obj1, _ = exact_phase1(A, b)
    obj2, _ = exact_phase1(scaled, [17 * v for v in b])
    assert (obj1 == 0) == (obj2 == 0)


def test_empty_system():
    obj, x = exact_phase1([], [])
    assert obj == 0 and x == []
