import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from omcp.guards import SizeGuardError
from omcp.om import NOT_A_BASIS, NotABasis, check_circuit_axioms
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
from omcp.signs import GroundSet


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
        assert check_circuit_axioms(om.circuits, ground) is None


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
    scaled_up = circuits_from_matrix(m.scale_column(column, factor), ground)
    assert scaled_up.circuits == base.circuits
    flipped = circuits_from_matrix(m.scale_column(column, -factor), ground)
    expected = set()
    for c in base.circuits:
        signs = list(c.signs)
        signs[column] = -signs[column]
        expected.add(type(c)(ground, tuple(signs)))
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
        explicit = circuits_from_matrix(a, ground)
        assert realized.cocircuits() == explicit.cocircuits()
        assert realized.circuit_set() == explicit.circuits


def test_realized_fundamental_cocircuit_matches_explicit():
    m = RationalMatrix.from_rows([[2, 0], [0, 3]])
    a = hstack(RationalMatrix.identity(2), negated(m))
    ground = GroundSet.complementary(2)
    realized = RealizedOM(a, ground)
    explicit = circuits_from_matrix(a, ground)
    for basis in explicit.bases():
        for e in basis:
            assert realized.fundamental_cocircuit(basis, e) == explicit.fundamental_cocircuit(basis, e)


def test_realized_requires_full_row_rank():
    with pytest.raises(ValueError):
        RealizedOM(RationalMatrix.from_rows([[1, 1], [1, 1]]), GroundSet.complementary(1))


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
    explicit = omcp_from_plcp(m, tuple(q))
    for basis in itertools.combinations(ground.elements, n):
        names = frozenset(basis)
        for e in ground.elements:
            if e not in names:
                assert realized.query(names, e) == explicit.query(names, e)
            elif explicit.is_basis(names):
                assert realized.fundamental_cocircuit(names, e) == explicit.fundamental_cocircuit(names, e)
