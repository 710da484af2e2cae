"""Exact linear algebra on rational matrices: rank, determinant, solve, inverse, kernel.

Every function runs the same fraction-free Gauss-Jordan elimination
(Bareiss 1968) on integer rows.  Each row is first scaled by the lcm of
its denominators; inside the loop every update is
``(pivot * a - factor * b) // previous_pivot``, a division that is exact
because each intermediate entry is a minor of the scaled matrix.  Python
integers have arbitrary precision, so overflow is impossible and every
sign decision is exact.  Fractions are built only for returned values.

The loop body is one basis exchange, :func:`pivot`, and callers that keep
an integer tableau T = D * B^-1 A reuse it to move to a neighbouring
basis.  Exchanging the element of row i for the column c with
p = T[i][c] != 0 gives T' = p * B'^-1 A with rows
T'[r] = (p * T[r] - T[r][c] * T[i]) // D for r != i and T'[i] = T[i],
and D' = p.  The division is exact for the same reason as in the
elimination.  D = +-det B, so by Cramer's rule every entry
T[r][c] = D * (B^-1 a_c)_r is, up to sign, the determinant of B with its
r-th column replaced by a_c, an integer; p is then +-det B', and the
entries of T' are integer minors in the same way (Edmonds 1967).
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = list[Fraction]
Matrix = list[Row]


def integer_multiple(values) -> tuple[int, list[int]]:
    """``(k, [k * v for v in values])`` with k the positive lcm of the denominators."""
    k = math.lcm(*[v.denominator for v in values])
    if k == 1:
        return 1, [v.numerator for v in values]
    return k, [v.numerator * (k // v.denominator) for v in values]


def pivot(m: list[list[int]], r: int, c: int, prev: int) -> list[list[int]]:
    """One fraction-free exchange step on the entry ``m[r][c]`` (non-zero).

    Every row i != r becomes ``(m[r][c] * m[i] - m[i][c] * m[r]) // prev``,
    which clears column c outside row r; row r is kept.  ``prev`` is the
    previous pivot, so the division is exact (module docstring).  Returns
    a new list of rows; the rows of ``m`` are not modified.
    """
    prow = m[r]
    pv = prow[c]
    out = []
    for i, row in enumerate(m):
        f = row[c]
        if i != r and f != 0:
            row = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
        elif i != r and pv != prev:
            row = [pv * a // prev for a in row]
        out.append(row)
    return out


def _eliminate(rows: Matrix, width: int) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination, pivoting in the first ``width`` columns.

    Entries may be Fractions or ints.  Returns ``(m, pivots, d, den)``.
    ``m`` is the reduced integer matrix; its k-th row holds the k-th
    pivot, in column ``pivots[k]``.  Every pivot row has the entry ``d``
    (the last pivot) at its own pivot column and 0 at the other pivot
    columns, and the rows past ``len(pivots)`` are zero in the first
    ``width`` columns.  For a square full-rank matrix,
    ``det(rows) = d / den``: ``den`` is the product of the positive row
    multipliers, negated for an odd number of row swaps.
    """
    m = []
    den = 1
    for row in rows:
        mult, ints = integer_multiple(row)
        den *= mult
        m.append(ints)
    n_rows = len(m)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(width):
        if r == n_rows:
            break
        p = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            den = -den
        m = pivot(m, r, c, prev)
        pivots.append(c)
        prev = m[r][c]
        r += 1
    return m, pivots, prev, den


def pivot_columns(rows: Matrix) -> list[int]:
    """The first independent columns, in the order elimination finds them."""
    if not rows or not rows[0]:
        return []
    return _eliminate(rows, len(rows[0]))[1]


def mat_rank(rows: Matrix) -> int:
    return len(pivot_columns(rows))


def det(rows: Matrix) -> Fraction:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    _, pivots, d, den = _eliminate(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(d, den)


def solve(rows: Matrix, b: Row) -> Row | None:
    """Solve the square system A x = b; None when A is singular."""
    n = len(rows)
    m, pivots, d, _ = _eliminate([list(rows[i]) + [b[i]] for i in range(n)], n)
    if len(pivots) < n:
        return None
    return [Fraction(m[i][n], d) for i in range(n)]


def invert(rows: Matrix) -> tuple[int, list[list[int]]] | None:
    """Exact inverse over a common denominator; None when singular.

    Returns ``(d, N)`` with a non-zero integer ``d`` and an integer
    matrix ``N`` such that the inverse is ``N / d``.  ``d`` may be
    negative, so the sign of an entry of the inverse times ``x`` is
    ``sign(d) * sign(N x)``.
    """
    n = len(rows)
    m, pivots, d, _ = _eliminate(
        [list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)], n
    )
    if len(pivots) < n:
        return None
    return d, [row[n:] for row in m]


def kernel_vector_of_columns(columns: list[Row]) -> Row | None:
    """A non-zero x with sum_j x_j col_j = 0, or None if the columns are independent.

    Requires the kernel to be at most one-dimensional, which holds for the
    minimal dependent sets this is used on; the free coordinate is set to 1.
    """
    if not columns:
        return None
    height = len(columns[0])
    k = len(columns)
    m, pivots, d, _ = _eliminate([[col[i] for col in columns] for i in range(height)], k)
    free = next((c for c in range(k) if c not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * k
    x[free] = Fraction(1)
    for r, c in enumerate(pivots):
        x[c] = Fraction(-m[r][free], d)
    return x
