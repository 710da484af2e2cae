"""Property tests of the exact kernel against independent computations.

Matrices have up to 5 rows and 6 columns, many zero entries and mixed
denominators (plain ints among them), so singular and rank-deficient
cases are common.  Determinants and ranks are checked against the
Leibniz formula, inverses and solutions by multiplying back.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from omcp import linalg

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


def matrices(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def square_matrices(max_n=5):
    return st.integers(1, max_n).flatmap(lambda n: matrices(n, n))


def rectangular_matrices():
    return st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(lambda rc: matrices(*rc))


def leibniz_det(a) -> Fraction:
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def minor_rank(a) -> int:
    """Size of the largest non-vanishing minor."""
    rows, cols = len(a), len(a[0])
    for r in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), r):
            for ci in itertools.combinations(range(cols), r):
                if leibniz_det([[a[i][j] for j in ci] for i in ri]) != 0:
                    return r
    return 0


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_det_matches_leibniz(a):
    assert linalg.det(a) == leibniz_det(a)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_invert_is_exact_over_common_denominator(a):
    inv = linalg.invert(a, [[int(i == j) for j in range(len(a))] for i in range(len(a))])
    if leibniz_det(a) == 0:
        assert inv is None
        return
    assert inv is not None
    d, num = inv
    n = len(a)
    assert isinstance(d, int) and d != 0
    assert all(isinstance(v, int) for row in num for v in row)
    for i in range(n):
        for j in range(n):
            assert sum(a[i][k] * num[k][j] for k in range(n)) == d * (i == j)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(matrices(n, n), matrices(n, 1))))
def test_solve_satisfies_system(case):
    a, b = case
    b = [row[0] for row in b]
    x = linalg.solve(a, b)
    if leibniz_det(a) == 0:
        assert x is None
        return
    n = len(a)
    assert all(sum(a[i][j] * x[j] for j in range(n)) == b[i] for i in range(n))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(matrices(n, n), st.integers(1, 3).flatmap(lambda k: matrices(n, k)))
    )
)
def test_invert_solves_for_several_columns(case):
    a, c = case
    inv = linalg.invert(a, c)
    if leibniz_det(a) == 0:
        assert inv is None
        assert linalg.solve(a, [row[0] for row in c]) is None
        return
    d, num = inv
    n, k = len(a), len(c[0])
    assert isinstance(d, int) and d != 0
    assert all(isinstance(v, int) for row in num for v in row)
    for i in range(n):
        for j in range(k):
            assert sum(a[i][m] * num[m][j] for m in range(n)) == d * c[i][j]
    one = linalg.invert(a, [row[:1] for row in c])
    assert linalg.solve(a, [row[0] for row in c]) == [Fraction(row[0], one[0]) for row in one[1]]


@settings(max_examples=200, deadline=None)
@given(rectangular_matrices())
def test_rank_matches_largest_nonzero_minor(a):
    assert linalg.mat_rank(a) == minor_rank(a)


@settings(max_examples=200, deadline=None)
@given(rectangular_matrices())
def test_pivot_columns_are_the_first_independent_columns(a):
    greedy = [
        j for j in range(len(a[0]))
        if minor_rank([row[: j + 1] for row in a]) > minor_rank([row[:j] for row in a])
    ]
    assert linalg.pivot_columns(a) == greedy


@settings(max_examples=200, deadline=None)
@given(rectangular_matrices())
def test_kernel_vector_of_columns_is_in_kernel(a):
    columns = [list(col) for col in zip(*a)]
    x = linalg.kernel_vector_of_columns(columns)
    if minor_rank(a) == len(columns):
        assert x is None
        return
    assert x is not None and any(v != 0 for v in x)
    for i in range(len(a)):
        assert sum(x[j] * columns[j][i] for j in range(len(columns))) == 0


def full_exchange(t, r, col, d):
    """Reference: the basis exchange on the full tableau T = D * B^-1 A over
    every column, entering column ``col`` at row ``r``; returns (T', D')."""
    p = t[r][col]
    return [row if i == r else [(p * a - row[col] * b) // d for a, b in zip(row, t[r])]
            for i, row in enumerate(t)], p


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
        lambda rc: st.lists(st.lists(st.integers(-3, 3), min_size=rc[1], max_size=rc[1]),
                            min_size=rc[0], max_size=rc[0])
    ),
    st.data(),
)
def test_compact_pivot_matches_the_full_tableau(a, data):
    r, m = len(a), len(a[0])
    # [I | A] with its unit columns as the first basis: D = 1 and the compact T is A.
    whole = [[int(i == k) for k in range(r)] + row for i, row in enumerate(a)]
    full, js, ns, d, t = whole, list(range(r)), list(range(r, r + m)), 1, a
    for _ in range(data.draw(st.integers(1, 8))):
        places = [(i, s) for i in range(r) for s in range(m) if t[i][s] != 0]
        if not places:
            break
        # Half the time prefer a pivot equal to D, where the exchange shares rows.
        equal = [(i, s) for i, s in places if t[i][s] == d]
        i, s = data.draw(st.sampled_from(equal if equal and data.draw(st.booleans()) else places))
        before = [row.copy() for row in t]
        t, old = linalg.pivot(t, i, s, d), t
        assert old == before
        full, d = full_exchange(full, i, ns[s], d)
        js[i], ns[s] = ns[s], js[i]
        assert t == [[row[j] for j in ns] for row in full]
        for k, j in enumerate(js):
            assert [row[j] for row in full] == [d * (x == k) for x in range(r)]
        assert abs(d) == abs(leibniz_det([[row[j] for j in js] for row in whole]))
