"""Realized oriented matroids against a circuit scan of their own.

``RealizedOM`` reads every set system off its basis tableaux.  The
reference here is the subset-kernel scan it replaced: column subsets in
increasing size, each minimal dependent one giving a circuit through its
one-dimensional kernel.
"""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from omcp import linalg
from omcp.guards import MATRIX_COLUMNS, SizeGuardError, check
from omcp.om import NOT_A_BASIS, ExplicitOM, NotABasis, check_circuit_axioms
from omcp.plcp import random_p_matrix
from omcp.realize import (
    RationalMatrix,
    RealizedOM,
    circuits_from_matrix,
    hstack,
    is_generic,
    negated,
    omcp_from_plcp,
    parse_rational,
    plcp_matrix,
)
from omcp.signs import MINUS, PLUS, ZERO, GroundSet, SignedSet
from test_duality import reference_cocircuits


def reference_circuits(matrix: RationalMatrix, ground: GroundSet) -> ExplicitOM:
    """Oriented matroid of the column configuration.

    Column subsets are scanned in increasing size; a subset that contains no
    previously found circuit support and is linearly dependent is minimal,
    and its (one-dimensional) exact kernel yields the dependency signs.
    Both sign variants are emitted, normalized so the first non-zero
    coefficient of the representative is positive.
    """
    if matrix.cols != ground.size:
        raise ValueError("column count does not match ground-set size")
    check(matrix.cols, MATRIX_COLUMNS, "matrix columns")

    found_supports: list[int] = []
    circuits: set[SignedSet] = set()
    indices = range(matrix.cols)
    for size in range(1, matrix.cols + 1):
        for combo in itertools.combinations(indices, size):
            mask = 0
            for j in combo:
                mask |= 1 << j
            if any(s & ~mask == 0 for s in found_supports):
                continue
            kernel = linalg.kernel_vector_of_columns(
                [matrix.column(j) for j in combo]
            )
            if kernel is None:
                continue
            if any(v == 0 for v in kernel):
                raise RuntimeError("kernel of a minimal dependent set must have full support")
            if kernel[0] < 0:
                kernel = [-v for v in kernel]
            signs = [ZERO] * ground.size
            for j, v in zip(combo, kernel):
                signs[j] = PLUS if v > 0 else MINUS
            circuit = SignedSet.from_signs(ground, tuple(signs))
            circuits.add(circuit)
            circuits.add(circuit.negate())
            found_supports.append(mask)
    return ExplicitOM(ground, frozenset(circuits))


def scale_column(m: RationalMatrix, j: int, factor: Fraction) -> RationalMatrix:
    return RationalMatrix(
        tuple(
            tuple(v * factor if k == j else v for k, v in enumerate(row))
            for row in m.entries
        )
    )


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("−2") == Fraction(-2)
    assert parse_rational(3) == Fraction(3)
    with pytest.raises(ValueError):
        parse_rational(0.5)


def test_example_base_realization(pm):
    om = circuits_from_matrix(
        RationalMatrix.from_rows([[1, -1]]), GroundSet.complementary(1)
    )
    assert om.circuits == pm.circuits


def test_example_extension_realizations(ext, ext_degenerate):
    m = RationalMatrix.from_rows([[1]])
    assert omcp_from_plcp(m, (Fraction(-1),)).circuits == ext.circuits
    assert omcp_from_plcp(m, (Fraction(0),)).circuits == ext_degenerate.circuits
    # q = +1 realizes the mirror image of the uniform extension
    mirrored = omcp_from_plcp(m, (Fraction(1),))
    assert {c.encode() for c in mirrored.circuits} == {
        "++0", "--0", "+0+", "-0-", "0+-", "0-+",
    }


def test_zero_column_gives_loop_circuit():
    om = circuits_from_matrix(
        RationalMatrix.from_rows([[1, 0]]), GroundSet.plain(["a", "b"])
    )
    assert {c.encode() for c in om.circuits} == {"0+", "0-"}


def test_independent_columns_give_free_om():
    om = circuits_from_matrix(
        RationalMatrix.identity(3), GroundSet.plain(["a", "b", "c"])
    )
    assert not om.circuits


def test_realized_circuits_pass_axioms():
    rng = random.Random(5)
    for n in (1, 2):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(2 * n + 1)] for _ in range(n)]
        m = RationalMatrix(tuple(tuple(r) for r in rows))
        ground = GroundSet.plain([f"e{i}" for i in range(2 * n + 1)])
        om = circuits_from_matrix(m, ground)
        assert check_circuit_axioms(om.circuits) is None


def test_matrix_rank_equals_om_rank():
    m = RationalMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    om = circuits_from_matrix(m, GroundSet.plain(["a", "b", "c"]))
    assert om.rank == 2


def test_is_generic():
    m = RationalMatrix.from_rows([["1", "1/2"], ["1/3", "1"]])
    assert is_generic(hstack(RationalMatrix.identity(2), negated(m)))
    assert not is_generic(hstack(RationalMatrix.identity(2), negated(RationalMatrix.identity(2))))
    repeated = RationalMatrix.from_rows([[1, 1], [2, 2]])
    assert not is_generic(repeated)


def reference_is_generic(matrix: RationalMatrix) -> bool:
    """The scan ``is_generic`` replaced: one r x r determinant per r-subset
    of the m columns, C(m, r) in all; vacuously True when m < r."""
    r = matrix.rows
    return all(
        linalg.det([[row[j] for j in combo] for row in matrix.entries]) != 0
        for combo in itertools.combinations(range(matrix.cols), r)
    )


def random_matrix(rng: random.Random) -> tuple[str, RationalMatrix]:
    """A rational matrix with 1-4 rows and 1-8 columns, of one of four kinds:
    plain entries (zeros and mixed denominators among them), a row that is
    a multiple of another, a zero column, or a column repeated up to a
    non-zero factor."""
    r, m = rng.randint(1, 4), rng.randint(1, 8)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)] for _ in range(r)]
    kind = rng.choice(["plain", "dependent row", "zero column", "repeated column"])
    if kind == "dependent row" and r > 1:
        a, b = rng.sample(range(r), 2)
        rows[b] = [Fraction(rng.randint(-2, 2), 2) * v for v in rows[a]]
    elif kind == "zero column":
        j = rng.randrange(m)
        for row in rows:
            row[j] = Fraction(0)
    elif kind == "repeated column" and m > 1:
        a, b = rng.sample(range(m), 2)
        factor = rng.choice([Fraction(1), Fraction(-1), Fraction(3, 2)])
        for row in rows:
            row[b] = factor * row[a]
    return kind, RationalMatrix(tuple(tuple(row) for row in rows))


def test_is_generic_matches_the_determinant_scan():
    rng = random.Random(11)
    seen = collections.Counter()
    for _ in range(5000):
        kind, matrix = random_matrix(rng)
        expected = reference_is_generic(matrix)
        assert is_generic(matrix) == expected, matrix.entries
        wide = "wide" if matrix.cols >= matrix.rows else "narrow"
        seen[kind, wide, expected] += 1
    # Every kind is met as a non-generic wide matrix and as a narrow one
    # (cols < rows), which is vacuously generic.
    kinds = ["plain", "dependent row", "zero column", "repeated column"]
    assert all(seen[kind, "wide", False] and seen[kind, "narrow", True] for kind in kinds)
    assert seen["plain", "wide", True] > 0


def test_is_generic_factors_one_basis(invert_calls, monkeypatch):
    m = random_p_matrix(6, random.Random(0))
    det_calls = []
    eliminations = []
    original_det, original_eliminate = linalg.det, linalg._eliminate

    def counting(rows):
        det_calls.append(len(rows))
        return original_det(rows)

    def eliminating(rows, width):
        eliminations.append(width)
        return original_eliminate(rows, width)

    monkeypatch.setattr(linalg, "det", counting)
    monkeypatch.setattr(linalg, "_eliminate", eliminating)
    assert is_generic(hstack(RationalMatrix.identity(6), negated(m)))
    # One elimination of all 12 columns finds B and leaves T in the slots
    # of the other six; no second solve for the same T.
    assert eliminations == [12]
    assert invert_calls == []
    # Every minor of the tableau comes from the level below it, none from det.
    assert det_calls == []


def planted_minor(n: int, k: int, rng: random.Random):
    """``(rows, rr, cc)``: an n x n integer matrix with no zero entry whose
    k x k block on the rows ``rr`` and columns ``cc`` is singular, its
    last row an integer combination of the others there."""
    while True:
        rows = [[rng.choice([-1, 1]) * rng.randint(1, 999) for _ in range(n)] for _ in range(n)]
        rr, cc = sorted(rng.sample(range(n), k)), sorted(rng.sample(range(n), k))
        coefficients = [rng.choice([-2, -1, 1, 2]) for _ in range(k - 1)]
        for j in cc:
            rows[rr[-1]][j] = sum(c * rows[i][j] for c, i in zip(coefficients, rr[:-1]))
        if all(all(row) for row in rows):
            return rows, rr, cc


@pytest.mark.parametrize("n", [6, 8])
def test_is_generic_finds_a_planted_minor_at_every_level(n):
    # The determinant scan above meets only minors up to 4 x 4; here a
    # single vanishing k x k minor of M sits at each level k of [I | -M],
    # whose tableau on the first basis I is -M.
    rng = random.Random(n)
    outcomes = set()
    for k in range(2, n + 1):
        rows, rr, cc = planted_minor(n, k, rng)
        assert linalg.det([[Fraction(rows[i][j]) for j in cc] for i in rr]) == 0
        assert not is_generic(hstack(RationalMatrix.identity(n), negated(RationalMatrix.from_rows(rows))))
        # Doubling an entry of the block adds that entry times its cofactor
        # to the block's determinant and keeps every entry non-zero.
        rows[rr[0]][cc[-1]] *= 2
        perturbed = hstack(RationalMatrix.identity(n), negated(RationalMatrix.from_rows(rows)))
        expected = reference_is_generic(perturbed)
        assert is_generic(perturbed) == expected, (k, rows)
        outcomes.add(expected)
    assert True in outcomes


def test_is_generic_matches_the_scan_on_adversary_bases():
    # [I | -M] of seeded P-matrices, as random_uniform_base draws them,
    # the draws it rejects included.
    rng = random.Random(21)
    seen = collections.Counter()
    for n in range(2, 7):
        for _ in range(12):
            base = hstack(RationalMatrix.identity(n), negated(random_p_matrix(n, rng)))
            expected = reference_is_generic(base)
            assert is_generic(base) == expected, base.entries
            seen[expected] += 1
    assert seen[True] and seen[False]


def test_size_guard():
    wide = RationalMatrix(tuple([tuple(Fraction(1) for _ in range(15))]))
    with pytest.raises(SizeGuardError):
        circuits_from_matrix(wide, GroundSet.plain([f"e{i}" for i in range(15)]))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=2).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n),
                min_size=n,
                max_size=n,
            ),
            st.fractions(min_value=Fraction(1, 3), max_value=3),
            st.integers(0, 2 * n - 1),
        )
    )
)
def test_column_scaling_invariance(case):
    n, rows, factor, column = case
    m = RationalMatrix.from_rows(rows)
    ground = GroundSet.plain([f"e{i}" for i in range(2 * n)])
    base = circuits_from_matrix(m, ground)
    scaled_up = circuits_from_matrix(scale_column(m, column, factor), ground)
    assert scaled_up.circuits == base.circuits
    flipped = circuits_from_matrix(scale_column(m, column, -factor), ground)
    expected = set()
    for c in base.circuits:
        signs = list(c.signs)
        signs[column] = -signs[column]
        expected.add(type(c).from_signs(ground, tuple(signs)))
    assert flipped.circuits == expected


def test_realized_oracle_matches_explicit(ext):
    oracle = RealizedOM(
        plcp_matrix(RationalMatrix.from_rows([[1]]), (Fraction(-1),)),
        GroundSet.complementary(1, with_q=True),
    )
    assert oracle.query(frozenset({"s1"}), "q") == ext.query(frozenset({"s1"}), "q")
    assert oracle.query(frozenset({"t1"}), "q") == ext.query(frozenset({"t1"}), "q")
    assert isinstance(oracle.query(frozenset({"s1", "t1"}), "q"), NotABasis)
    assert oracle.cocircuits() == ext.cocircuits()
    assert oracle.circuit_set() == ext.circuits


def test_realized_oracle_cocircuits_match_bruteforce():
    rng = random.Random(9)
    for n in (2, 3):
        while True:
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            m = RationalMatrix(tuple(tuple(r) for r in rows))
            a = hstack(RationalMatrix.identity(n), negated(m))
            break
        ground = GroundSet.complementary(n)
        realized = RealizedOM(a, ground)
        explicit = reference_circuits(a, ground)
        assert realized.cocircuits() == explicit.cocircuits()
        assert realized.circuit_set() == explicit.circuits


def test_realized_fundamental_cocircuit_matches_explicit():
    m = RationalMatrix.from_rows([[2, 0], [0, 3]])
    a = hstack(RationalMatrix.identity(2), negated(m))
    ground = GroundSet.complementary(2)
    realized = RealizedOM(a, ground)
    explicit = reference_circuits(a, ground)
    for basis in explicit.bases():
        for e in basis:
            assert realized.fundamental_cocircuit(basis, e) == explicit.fundamental_cocircuit(basis, e)


def test_realized_reduces_dependent_rows():
    ground = GroundSet.complementary(1)
    doubled = RealizedOM(RationalMatrix.from_rows([[1, 1], [1, 1]]), ground)
    single = RealizedOM(RationalMatrix.from_rows([[1, 1]]), ground)
    assert doubled.rank == single.rank == 1
    assert doubled.circuit_set() == single.circuit_set()
    assert doubled.cocircuits() == single.cocircuits()
    assert list(doubled.bases()) == list(single.bases())


def test_rank_deficient_uniform_realization():
    realized = RealizedOM(RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]]), GroundSet.plain("abc"))
    assert realized.rank == 1
    assert realized.is_uniform()
    assert list(realized.bases()) == [frozenset("a"), frozenset("b"), frozenset("c")]


ENTRIES = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))


@st.composite
def configurations(draw) -> RationalMatrix:
    """At most 7 columns, with optional dependent and zero rows, a
    parallel or antiparallel column pair and a zero column (a loop)."""
    cols = draw(st.integers(1, 7))
    row = st.lists(ENTRIES, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    if draw(st.booleans()):
        a, b = draw(ENTRIES), draw(ENTRIES)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * cols)
    if cols > 1 and draw(st.booleans()):
        source, copy = draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=2, unique=True))
        factor = draw(st.sampled_from([-2, -1, 1, 2]))
        for r in rows:
            r[copy] = factor * r[source]
    if draw(st.booleans()):
        loop = draw(st.integers(0, cols - 1))
        for r in rows:
            r[loop] = Fraction(0)
    return RationalMatrix(tuple(tuple(r) for r in rows))


@settings(max_examples=60, deadline=None)
@given(configurations())
@example(RationalMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
@example(RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]]))
@example(RationalMatrix.from_rows([[1, 0, 1, 2], [0, 0, 0, 0], [2, 0, 2, 4]]))
@example(RationalMatrix.from_rows([[-1, 2, 1, 0], [3, 1, -2, 1], [0, 0, 0, 0]]))
def test_realized_sets_match_reference(matrix):
    """Circuits, cocircuits and bases read off the tableaux equal the
    subset-kernel scan, the 3^|E| cocircuit scan and its bases."""
    ground = GroundSet.plain("abcdefg"[: matrix.cols])
    realized = RealizedOM(matrix, ground)
    reference = reference_circuits(matrix, ground)
    assert realized.circuit_set() == reference.circuits
    assert realized.cocircuits() == reference_cocircuits(reference)
    assert list(realized.bases()) == list(reference.bases())
    assert realized.rank == reference.rank
    assert realized.is_uniform() == reference.is_uniform()


RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(RATIONALS, min_size=n, max_size=n),
        )
    )
)
@example(([[Fraction(2), Fraction(1, 3)], [Fraction(-1, 2), Fraction(3)]], [Fraction(1), Fraction(-2)]))
@example(([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]], [Fraction(0), Fraction(-2)]))
def test_realized_signs_match_circuit_enumeration(case):
    """Integer sign reads agree with the explicit oracle on [I | -M | -q]."""
    rows, q = case
    n = len(rows)
    m = RationalMatrix(tuple(tuple(r) for r in rows))
    ground = GroundSet.complementary(n, with_q=True)
    realized = RealizedOM(plcp_matrix(m, tuple(q)), ground)
    explicit = reference_circuits(plcp_matrix(m, tuple(q)), ground)
    for basis in itertools.combinations(ground.elements, n):
        names = frozenset(basis)
        for e in ground.elements:
            if e not in names:
                assert realized.query(names, e) == explicit.query(names, e)
            elif explicit.is_basis(names):
                assert realized.fundamental_cocircuit(names, e) == explicit.fundamental_cocircuit(names, e)
