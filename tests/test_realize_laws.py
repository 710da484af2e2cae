"""Metamorphic laws of a realization (ROADMAP item 7).

Three changes of the matrix have a known effect on the oriented matroid
it realizes, so they need no reference copy of ``RealizedOM``:

- scaling a column by a positive factor changes nothing;
- multiplying from the left by an invertible matrix changes nothing;
- negating column j negates element j in every circuit and cocircuit.

Each law is checked on ``to_explicit()``, ``cocircuits()`` and
``bases()`` of seeded LCP configurations [I | -M | -q] with n = 2..5:
P-matrices and integer non-P matrices, with q drawn from a small range so
that many are degenerate.
"""

import random
from fractions import Fraction

import pytest

from omcp import linalg
from omcp.plcp import random_p_matrix, random_q
from omcp.realize import RationalMatrix, RealizedOM, plcp_matrix
from omcp.signs import GroundSet, SignedSet


def integer_matrix(n: int, rng: random.Random) -> RationalMatrix:
    """An n x n matrix of integers in [-3, 3]; as a rule not a P-matrix."""
    return RationalMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


def _instances():
    rng = random.Random(57)
    out = []
    for n in range(2, 6):
        for kind, draw in (("p", random_p_matrix), ("non-p", integer_matrix)):
            matrix = plcp_matrix(draw(n, rng), random_q(n, rng))
            ground = GroundSet.complementary(n, with_q=True)
            out.append(pytest.param(matrix, ground, id=f"{kind}-n{n}"))
    return out


INSTANCES = _instances()


def sets(matrix: RationalMatrix, ground: GroundSet):
    oracle = RealizedOM(matrix, ground)
    return oracle.to_explicit().circuits, oracle.cocircuits(), list(oracle.bases())


def columns_times(matrix: RationalMatrix, factors) -> RationalMatrix:
    rows = matrix.entries
    return RationalMatrix(tuple(tuple(v * f for v, f in zip(row, factors)) for row in rows))


def negated_at(c: SignedSet, j: int) -> SignedSet:
    bit = 1 << j
    return SignedSet(
        c.ground, c.pos_mask & ~bit | c.neg_mask & bit, c.neg_mask & ~bit | c.pos_mask & bit
    )


@pytest.mark.parametrize("matrix, ground", INSTANCES)
def test_positive_column_scaling_changes_nothing(matrix, ground):
    rng = random.Random(matrix.cols)
    factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(matrix.cols)]
    assert sets(columns_times(matrix, factors), ground) == sets(matrix, ground)


@pytest.mark.parametrize("matrix, ground", INSTANCES)
def test_left_multiplication_by_an_invertible_matrix_changes_nothing(matrix, ground):
    rng, n = random.Random(matrix.cols), matrix.rows
    g = [[0]]
    while linalg.det(g) == 0:
        g = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
    columns = [matrix.column(j) for j in range(matrix.cols)]
    product = RationalMatrix(
        tuple(tuple(sum(a * b for a, b in zip(g_row, col)) for col in columns) for g_row in g)
    )
    assert sets(product, ground) == sets(matrix, ground)


@pytest.mark.parametrize("matrix, ground", INSTANCES)
def test_negating_a_column_negates_its_element(matrix, ground):
    circuits, cocircuits, bases = sets(matrix, ground)
    for j in range(matrix.cols):
        signs = [-1 if k == j else 1 for k in range(matrix.cols)]
        flipped = sets(columns_times(matrix, signs), ground)
        assert flipped[0] == {negated_at(c, j) for c in circuits}
        assert flipped[1] == {negated_at(d, j) for d in cocircuits}
        assert flipped[2] == bases
