"""The vertex entry, the materialized cube and the names path of every oracle agree.

``query_vertex(v)`` hands the ground-index mask of B(v) to an oracle's
mask core, and ``query(B(v), "q")`` reaches the same core from the names.
On every vertex, both must give the same C(B(v), q) or both NotABasis, for
``RealizedOM``, its ``to_explicit()``, and ``ExtensionOM`` over either
kind of base, with atom lists and with an explicit table.  The two paths
run on separate oracles, so the principal-pivot stack and the basis cache
of one never answer for the other.  ``klaus_orientation(...).materialize()``
must give ``orient_vertex_*`` of a fresh oracle for every v in vertex
order, total and partial, also when zero principal pivots cut the walk,
when the first complementary set is singular and when an earlier query
put the stack's bottom at v != 0; on a P-LCP it makes one factorization
and 2^n - 1 exchanges.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omcp import linalg
from omcp.extend import ExtensionOM, LexAtom, Localization
from omcp.om import NotABasis
from omcp.plcp import localization_from_q, random_p_matrix
from omcp.realize import RationalMatrix, RealizedOM, hstack, negated, plcp_matrix
from omcp.reduction import klaus_orientation, orient_vertex_partial, orient_vertex_total
from omcp.signs import MINUS, PLUS, ZERO, GroundSet

DATA = Path(__file__).parent / "data"


def by_name(oracle, v):
    answer = oracle.query(oracle.ground.vertex_basis(v), "q")
    return None if isinstance(answer, NotABasis) else (answer.pos_mask, answer.neg_mask)


def oracle_pairs(m: RationalMatrix, q, atom_lists):
    """(label, make) per oracle kind; ``make()`` builds a fresh oracle."""
    n = m.rows
    matrix = plcp_matrix(m, tuple(q))
    ground = GroundSet.complementary(n, with_q=True)
    base_matrix = hstack(RationalMatrix.identity(n), negated(m))
    base_ground = GroundSet.complementary(n)
    realized_base = RealizedOM(base_matrix, base_ground)
    explicit_base = realized_base.to_explicit()
    table = localization_from_q(realized_base, tuple(q)).table
    kinds = [
        ("realized", lambda: RealizedOM(matrix, ground)),
        ("explicit", lambda: RealizedOM(matrix, ground).to_explicit()),
    ]
    for k, atoms in enumerate(atom_lists):
        kinds.append((f"atoms{k}-realized", lambda atoms=atoms: ExtensionOM(
            Localization(RealizedOM(base_matrix, base_ground), atoms))))
        kinds.append((f"atoms{k}-explicit", lambda atoms=atoms: ExtensionOM(
            Localization(explicit_base, atoms))))
    kinds.append(("table-realized", lambda: ExtensionOM(
        Localization(RealizedOM(base_matrix, base_ground), (), table))))
    kinds.append(("table-explicit", lambda: ExtensionOM(Localization(explicit_base, (), table))))
    return kinds


def assert_paths_agree(m: RationalMatrix, q, atom_lists, order):
    n = m.rows
    for label, make in oracle_pairs(m, q, atom_lists):
        by_vertex, by_names = make(), make()
        for v in order:
            got = by_vertex.query_vertex(v)
            assert got == by_name(by_names, v), (label, v)
            if got is not None:
                # + at q, and the support lies in B(v) + q
                q_bit = 1 << 2 * n
                assert got[0] & q_bit
                assert (got[0] | got[1]) & ~(by_vertex.ground.vertex_mask(v) | q_bit) == 0


def atom_lists_for(n: int, rng: random.Random):
    elements = GroundSet.complementary(n).elements
    lists = [
        tuple(LexAtom(f"t{i + 1}", MINUS) for i in range(n)),
        (LexAtom("s1", ZERO), LexAtom(elements[-1], PLUS), LexAtom("s1", MINUS)),
    ]
    lists.append(tuple(
        LexAtom(rng.choice(elements), rng.choice((MINUS, ZERO, PLUS)))
        for _ in range(rng.randint(1, n + 2))
    ))
    return lists


@pytest.mark.parametrize(
    "name", ["lcp5_degenerate", "lcp3_singular", "lcp2_two_singular", "lcp3_nonp"]
)
def test_vertex_entry_matches_the_names_path_on_data_files(name):
    data = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    m = RationalMatrix.from_rows(data["M"])
    q = tuple(Fraction(v) for v in data["q"])
    n = m.rows
    rng = random.Random(n)
    gray = [v ^ v >> 1 for v in range(1 << n)]
    scattered = rng.sample(range(1 << n), 1 << n)
    assert_paths_agree(m, q, atom_lists_for(n, rng), gray + scattered + list(range(1 << n)))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_vertex_entry_matches_the_names_path(data):
    n = data.draw(st.integers(1, 4))
    entries = st.integers(-1, 1)
    m = RationalMatrix.from_rows([[data.draw(entries) for _ in range(n)] for _ in range(n)])
    q = [Fraction(data.draw(entries)) for _ in range(n)]
    elements = GroundSet.complementary(n).elements
    atoms = st.builds(LexAtom, st.sampled_from(elements), st.sampled_from((MINUS, ZERO, PLUS)))
    atom_lists = [tuple(data.draw(st.lists(atoms, max_size=n + 2)))]
    order = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3 << n))
    assert_paths_agree(m, q, atom_lists, order)


def outcome(call):
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", str(exc)


def by_vertex(oracle, n: int, partial: bool):
    """Every vertex oriented on ``oracle`` in vertex order, or the first error."""
    orient = orient_vertex_partial if partial else orient_vertex_total
    return outcome(lambda: [orient(oracle, v, n) for v in range(1 << n)])


def materialized(oracle, n: int, partial: bool):
    def table():
        dense = klaus_orientation(oracle, n, partial).materialize()
        return [dense.outmap(v) for v in dense.vertices()]
    return outcome(table)


def assert_cube_matches(m: RationalMatrix, q, atom_lists, first=None):
    """The materialized Klaus cube of every oracle kind, total and partial,
    against ``orient_vertex_*`` on a fresh one; ``first``, when given, is
    queried lazily before the cube."""
    n = m.rows
    for label, make in oracle_pairs(m, q, atom_lists):
        for partial in (False, True):
            oracle = make()
            if first is not None:
                oracle.query_vertex(first)
            got = materialized(oracle, n, partial)
            assert got == by_vertex(make(), n, partial), (label, first, partial)


@pytest.mark.parametrize(
    "name", ["lcp5_degenerate", "lcp3_singular", "lcp2_two_singular", "lcp3_nonp"]
)
def test_materialized_cube_matches_the_vertex_entry_on_data_files(name):
    data = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    m = RationalMatrix.from_rows(data["M"])
    q = tuple(Fraction(v) for v in data["q"])
    n = m.rows
    atom_lists = atom_lists_for(n, random.Random(n))
    for first in (None, 1, (1 << n) - 1):
        assert_cube_matches(m, q, atom_lists, first)


def test_materialized_cube_walks_from_a_bottom_set_by_a_lazy_query():
    m = random_p_matrix(4, random.Random(3))
    matrix = plcp_matrix(m, (Fraction(1), Fraction(-2), Fraction(0), Fraction(3)))
    ground = GroundSet.complementary(4, with_q=True)
    for first in (5, 10, 15):
        half = ground.vertex_mask(first) >> 4  # the t half of B(first)
        for partial in (False, True):
            oracle = RealizedOM(matrix, ground)
            oracle.query_vertex(first)
            assert oracle._stack[0][0] == half
            got = materialized(oracle, 4, partial)
            assert got == by_vertex(RealizedOM(matrix, ground), 4, partial)
            assert oracle._stack[0][0] == half


def test_materialized_cube_with_a_singular_first_set(invert_calls):
    # s1 = s2 = (1, 0), so B(0) = {s1, s2} is singular: the stack's bottom
    # is factored at vertex 1 instead.
    matrix = RationalMatrix.from_rows([[1, 1, 0, 1, 1], [0, 0, 1, 1, 2]])
    ground = GroundSet.complementary(2, with_q=True)
    kind, table = materialized(RealizedOM(matrix, ground), 2, False)
    assert invert_calls == [True, False]
    assert kind == "ok" and table[0] == (0, 0)
    assert (kind, table) == by_vertex(RealizedOM(matrix, ground), 2, False)
    partial = materialized(RealizedOM(matrix, ground), 2, True)
    assert partial[0] == "error"
    assert partial == by_vertex(RealizedOM(matrix, ground), 2, True)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_materialized_cube_matches_the_vertex_entry(data):
    n = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        m = random_p_matrix(n, random.Random(data.draw(st.integers(0, 2**16))))
    else:
        entries = st.integers(-2, 2)
        m = RationalMatrix.from_rows([[data.draw(entries) for _ in range(n)] for _ in range(n)])
    q = [Fraction(data.draw(st.integers(-2, 2))) for _ in range(n)]
    first = data.draw(st.none() | st.integers(0, (1 << n) - 1))
    elements = GroundSet.complementary(n).elements
    atoms = st.builds(LexAtom, st.sampled_from(elements), st.sampled_from((MINUS, ZERO, PLUS)))
    atom_lists = [tuple(data.draw(st.lists(atoms, max_size=n + 2)))] if n <= 3 else []
    assert_cube_matches(m, q, atom_lists, first)


@pytest.mark.parametrize("first", [None, 5, 10, 200])
def test_materialized_cube_makes_one_exchange_per_vertex(invert_calls, monkeypatch, first):
    rng = random.Random(8)
    m = random_p_matrix(8, rng)
    q = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
    matrix = plcp_matrix(m, tuple(q))
    ground = GroundSet.complementary(8, with_q=True)
    pivots = []
    original = linalg.pivot

    def counting(*args):
        pivots.append(args[1:3])
        return original(*args)

    oracle = RealizedOM(matrix, ground)
    if first is not None:
        oracle.query_vertex(first)
    monkeypatch.setattr(linalg, "pivot", counting)
    table = materialized(oracle, 8, False)
    # The one factorization runs its own 8 pivots inside linalg.invert,
    # before the cube when a lazy query set the stack's bottom.
    assert invert_calls == [False]
    assert len(pivots) == (8 if first is None else 0) + 255
    assert len(oracle._basis_cache) == 0
    monkeypatch.undo()
    assert table == by_vertex(RealizedOM(matrix, ground), 8, False)
