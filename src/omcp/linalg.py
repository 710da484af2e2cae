"""Exact linear algebra on rational matrices: rank, determinant, solve, inverse, kernel.

Every function runs the same fraction-free Gauss-Jordan elimination
(Bareiss 1968) on integer rows, one basis exchange at a time.  Each row
is first scaled by the lcm of its denominators; Python integers have
arbitrary precision, so overflow is impossible and every sign decision
is exact.  Fractions are built only for returned values.

The exchange, :func:`pivot`, works on a compact integer tableau: the
principal pivot transform of Tucker (1963).  For a matrix A and a basis
B of its columns, with the basis element of row i named by the caller,
T = D * B^-1 A is kept only on the columns outside B, one slot each; the
columns of B are D times unit vectors and carry nothing.  Exchanging the
basis element of row r for the element in slot c, with p = T[r][c] != 0:

- every row i != r becomes ``(p * T[i][j] - T[i][c] * T[r][j]) // D``;
- slot c then holds the leaving element: D in row r and -T[i][c] in
  every other row i;
- D' = p.

D = +-det B, so by Cramer's rule every entry T[i][j] = D * (B^-1 a_j)_i
is, up to sign, the determinant of B with its i-th column replaced by
a_j, an integer; p is then +-det B', the entries of T' are integer minors
in the same way, and the division is exact (Edmonds 1967).  Elimination
starts from the unit columns of the rows as the basis, with D = 1 and
T = A, and exchanges them for columns of A.  A row multiplier scales
every column alike, so the slot of a column a_j left outside the basis
holds D * B^-1 a_j of the input rows themselves: :func:`invert` reads
A^-1 C off the C slots of one elimination of [A | C].

The same call exchanges a transposed tableau U = T^T, one list per slot:
``pivot(U, c, r, D)`` gives U' = T'^T except that row r of T' reads
negated in every slot but c, and slot c reads negated in every row but r.
A later exchange at a row r2 that was never exchanged has the true pivot,
and every entry it writes in a negated row comes out negated as well.  So
a walk that exchanges each row at most once and drops each slot it
pivots at keeps T' transposed, with the rows exchanged on the way read
negated.
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


def pivot(t: list[list[int]], r: int, c: int, d: int) -> list[list[int]]:
    """The compact exchange at row ``r`` and slot ``c`` of ``t`` (module docstring).

    ``t[r][c]`` must be non-zero, ``d`` is the tableau's D and the rows of
    ``t`` are distinct lists; the new D is the old ``t[r][c]``.  Returns a
    new list of rows; the rows of ``t`` are not modified, and a row the
    exchange leaves unchanged is shared.
    """
    prow = t[r]
    p = prow[c]
    out = []
    for row in t:
        f = row[c]
        if f == 0:
            if p != d:
                row = [p * a // d for a in row]
        elif row is not prow:
            row = [(p * a - f * b) // d for a, b in zip(row, prow)]
            row[c] = -f
        out.append(row)
    if p != d:
        out[r] = prow = prow.copy()
        prow[c] = d
    return out


def _eliminate(rows: Matrix, width: int) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination, pivoting in the first ``width`` columns.

    Entries may be Fractions or ints.  Returns ``(t, pivots, d, den)``.
    ``t`` is the compact tableau of the scaled rows after one
    :func:`pivot` per pivot column; ``pivots`` lists those columns in
    increasing order and ``d`` is the last pivot.  Rows are swapped so that
    the k-th pivot column is the basis element of row k.  Every other
    column keeps its slot, and below ``width`` it is zero in the rows past
    ``len(pivots)``.  For a square full-rank matrix,
    ``det(rows) = d / den``: ``den`` is the product of the positive row
    multipliers, negated for an odd number of row swaps.
    """
    t = []
    den = 1
    for row in rows:
        mult, ints = integer_multiple(row)
        den *= mult
        t.append(ints)
    n_rows = len(t)
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(width):
        if r == n_rows:
            break
        p = next((i for i in range(r, n_rows) if t[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            t[r], t[p] = t[p], t[r]
            den = -den
        d, t = t[r][c], pivot(t, r, c, d)
        pivots.append(c)
        r += 1
    return t, pivots, d, den


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
    inv = invert(rows, [[x] for x in b])
    if inv is None:
        return None
    d, x = inv
    return [Fraction(row[0], d) for row in x]


def invert(rows: Matrix, rhs: Matrix) -> tuple[int, list[list[int]]] | None:
    """A^-1 C over a common denominator, for the square A = ``rows`` and
    C = ``rhs`` with as many rows; None when A is singular.

    Returns ``(d, N)`` with a non-zero integer ``d`` and an integer
    matrix ``N`` such that A^-1 C = ``N / d``; C = I gives the inverse.
    ``d`` may be negative, so the sign of an entry of A^-1 C is
    ``sign(d) * sign(N)``.  ``N`` is the C slots of one elimination of
    [A | C] (module docstring): with integer entries, ``d`` is +-det A and
    ``N`` the compact tableau of A's columns on C's.
    """
    n = len(rows)
    t, pivots, d, _ = _eliminate([list(a) + list(c) for a, c in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return d, [row[n:] for row in t]


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
