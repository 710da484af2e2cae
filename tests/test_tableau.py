"""The integer tableaux of RealizedOM and the materialized Klaus cube.

One oracle answers a random sequence of queries: bases one exchange away
from the last one, far jumps, singular sets and repeats.  Each answer must
equal that of a freshly built oracle, which factors the basis from
scratch.  Instances mix P-matrices, integer matrices with zeros (non-P,
singular complementary sets) and degenerate right-hand sides (q = 0,
q = -(a column of M)).

C(B(v), q) of a complementary B(v) comes from the principal-pivot stack,
every other query from the cached tableau of its basis.  The stack is
checked against fresh oracles on walks that interleave both kinds of
query in Gray, vertex and random order, on instances with zero principal
pivots, a singular {s_1..s_n} and dependent rows; and its work is pinned:
one factorization and 2^n - 1 pivots per cube materialized in vertex
order, on rows that lose one entry per fixed dimension.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omcp import linalg
from omcp.extend import ExtensionOM, lex_localization
from omcp.plcp import random_p_matrix
from omcp.realize import RationalMatrix, RealizedOM, hstack, negated, plcp_matrix
from omcp.reduction import (
    klaus_orientation,
    orient_vertex_partial,
    orient_vertex_total,
)
from omcp.signs import MINUS, GroundSet

DATA = Path(__file__).parent / "data"


def lcp_oracle(m: RationalMatrix, q) -> RealizedOM:
    return RealizedOM(plcp_matrix(m, tuple(q)), GroundSet.complementary(m.rows, with_q=True))


@st.composite
def lcp_instances(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        m = random_p_matrix(n, random.Random(draw(st.integers(0, 2**16))))
    else:
        entries = st.integers(-2, 2)
        m = RationalMatrix.from_rows([[draw(entries) for _ in range(n)] for _ in range(n)])
    style = draw(st.sampled_from(["zero", "column", "random"]))
    if style == "zero":
        q = [Fraction(0)] * n
    elif style == "column":
        q = [-v for v in m.column(draw(st.integers(0, n - 1)))]
    else:
        q = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)]
    return m, q


def outcome(call):
    """``("ok", call())``, or ``("error", message)`` when it raises ValueError."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", str(exc)


def next_set(kind: str, current: list[str], ground: GroundSet, rng: random.Random) -> list[str]:
    elements = list(ground.elements)
    if kind == "exchange":
        out = set(current)
        out.remove(rng.choice(current))
        out.add(rng.choice([e for e in elements if e not in current]))
        return sorted(out)
    if kind == "far":
        return sorted(rng.sample(elements, len(current)))
    if kind == "vertex":
        v = 0
        for _ in ground.pairs:  # one draw per pair, dimension 0 (the top bit) first
            v = v << 1 | rng.randint(0, 1)
        return sorted(ground.vertex_basis(v))
    return current


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    lcp_instances(),
    st.lists(
        st.tuples(st.sampled_from(["exchange", "far", "vertex", "repeat"]), st.integers(0, 2**16)),
        min_size=1,
        max_size=30,
    ),
)
def test_tableau_answers_match_a_fresh_oracle(instance, steps):
    m, q = instance
    oracle = lcp_oracle(m, q)
    ground = oracle.ground
    current = sorted(ground.vertex_basis(0))
    for kind, seed in steps:
        rng = random.Random(seed)
        current = next_set(kind, current, ground, rng)
        fresh = lcp_oracle(m, q)
        if rng.random() < 0.5:
            e = rng.choice([x for x in ground.elements if x not in current])
            got = outcome(lambda: oracle.query(current, e))
            expected = outcome(lambda: fresh.query(current, e))
        else:
            e = rng.choice(current)
            got = outcome(lambda: oracle.fundamental_cocircuit(current, e))
            expected = outcome(lambda: fresh.fundamental_cocircuit(current, e))
        assert got == expected, (kind, current, e)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(lcp_instances(), st.booleans())
def test_materialize_matches_per_vertex_reference(instance, partial):
    m, q = instance
    n = m.rows
    reference = orient_vertex_partial if partial else orient_vertex_total
    expected = []
    for v in range(1 << n):
        kind, value = outcome(lambda: reference(lcp_oracle(m, q), v, n))
        if kind == "error":
            # The least failing vertex in vertex order names the error.
            expected = ("error", value)
            break
        expected.append(value)
    else:
        expected = ("ok", expected)
    kind, value = outcome(
        lambda: klaus_orientation(lcp_oracle(m, q), n, partial=partial).materialize()
    )
    if kind == "ok":
        value = [value.outmap(v) for v in value.vertices()]
    assert (kind, value) == expected


def test_gray_walk_factors_one_basis(invert_calls):
    rng = random.Random(8)
    m = random_p_matrix(8, rng)
    q = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
    orientation = klaus_orientation(lcp_oracle(m, q), 8).materialize()
    assert invert_calls == [False]
    fresh = lcp_oracle(m, q)
    for v in range(0, 256, 17):
        assert orientation.outmap(v) == orient_vertex_total(fresh, v, 8)


@pytest.mark.parametrize("name", ["lcp3_singular.json", "lcp2_two_singular.json"])
def test_singular_sets_are_found_without_factoring(invert_calls, name):
    data = json.loads((DATA / name).read_text(encoding="utf-8"))
    m = RationalMatrix.from_rows(data["M"])
    q = [Fraction(x) for x in data["q"]]
    n = m.rows
    orientation = klaus_orientation(lcp_oracle(m, q), n).materialize()
    # The walk meets the singular complementary sets and factors nothing more.
    assert invert_calls == [False]
    for v in range(1 << n):
        assert orientation.outmap(v) == orient_vertex_total(lcp_oracle(m, q), v, n)


def test_singular_first_set_is_factored_once(invert_calls):
    # Columns s1 = s2 = (1, 0), t1 = (0, 1), t2 = (1, 1), q = (1, 2):
    # B(0) = {s1, s2} is singular, and the fallback reads that off the cache.
    matrix = RationalMatrix.from_rows([[1, 1, 0, 1, 1], [0, 0, 1, 1, 2]])
    oracle = RealizedOM(matrix, GroundSet.complementary(2, with_q=True))
    orientation = klaus_orientation(oracle, 2).materialize()
    assert invert_calls == [True, False]
    assert orientation.to_outmaps() == ["--", "-+", "++", "++"]


def test_far_jump_pivots_once_per_entering_column(invert_calls, monkeypatch):
    rng = random.Random(9)
    m = random_p_matrix(8, rng)
    q = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
    pivots = []
    original = linalg.pivot

    def counting(*args):
        pivots.append(args[1:3])
        return original(*args)

    monkeypatch.setattr(linalg, "pivot", counting)
    oracle = lcp_oracle(m, q)
    first = orient_vertex_total(oracle, 0, 8)
    # Factoring the first basis runs its own pivots inside linalg.invert.
    pivots.clear()
    last = orient_vertex_total(oracle, 255, 8)
    assert len(pivots) == 8 and invert_calls == [False]
    assert first == orient_vertex_total(lcp_oracle(m, q), 0, 8)
    assert last == orient_vertex_total(lcp_oracle(m, q), 255, 8)


def test_fundamental_cocircuits_agree_with_single_reads():
    rng = random.Random(5)
    m = random_p_matrix(4, rng)
    q = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
    oracle = lcp_oracle(m, q)
    basis = frozenset({"s1", "t2", "t3", "t4"})
    batch = oracle.fundamental_cocircuits(basis)
    assert set(batch) == basis
    for e in basis:
        assert batch[e] == lcp_oracle(m, q).fundamental_cocircuit(basis, e)
    with pytest.raises(ValueError):
        oracle.fundamental_cocircuits({"s1", "t1", "s2"})


def load_lcp(name: str):
    data = json.loads((DATA / name).read_text(encoding="utf-8"))
    return RationalMatrix.from_rows(data["M"]), tuple(Fraction(x) for x in data["q"])


@st.composite
def stack_instances(draw) -> RationalMatrix:
    """The matrix of a realized complementary instance with q: a P-LCP, an
    LCP with zero principal pivots, or an integer matrix whose {s_1..s_n}
    is singular or whose rows are dependent."""
    kind = draw(st.sampled_from(["p-lcp", "singular-file", "singular-s", "dependent-rows"]))
    if kind == "p-lcp":
        n = draw(st.integers(1, 5))
        m = random_p_matrix(n, random.Random(draw(st.integers(0, 2**16))))
        return plcp_matrix(m, tuple(Fraction(draw(st.integers(-3, 3))) for _ in range(n)))
    if kind == "singular-file":
        return plcp_matrix(*load_lcp(draw(st.sampled_from(
            ["lcp3_singular.json", "lcp2_two_singular.json"]
        ))))
    n = draw(st.integers(1 if kind == "singular-s" else 2, 4))
    rows = [[draw(st.integers(-2, 2)) for _ in range(2 * n + 1)] for _ in range(n)]
    if kind == "singular-s":
        for row in rows:
            row[n - 1] = row[0] if n > 1 else 0
    else:
        rows[-1] = [2 * x for x in rows[0]]
    return RationalMatrix.from_rows(rows)


VERTEX_STEPS = ["gray", "vertex", "far", "repeat"]
GENERAL_STEPS = ["cocircuit", "set", "exchange"]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    stack_instances(),
    st.lists(
        st.tuples(st.sampled_from(VERTEX_STEPS + GENERAL_STEPS), st.integers(0, 2**16)),
        min_size=1,
        max_size=40,
    ),
)
def test_stack_answers_match_a_fresh_oracle(matrix, steps):
    n = matrix.rows
    ground = GroundSet.complementary(n, with_q=True)
    oracle = RealizedOM(matrix, ground)
    gray = order = v = 0
    current = sorted(ground.vertex_basis(0))
    for kind, seed in steps:
        rng = random.Random(seed)
        fresh = RealizedOM(matrix, ground)
        if kind in VERTEX_STEPS:
            if kind == "gray":
                gray = (gray + 1) % (1 << n)
                v = gray ^ gray >> 1
            elif kind == "vertex":
                v = order = (order + 1) % (1 << n)
            elif kind == "far":
                v = rng.randrange(1 << n)
            basis = ground.vertex_basis(v)
            got = outcome(lambda: oracle.query(basis, "q"))
            expected = outcome(lambda: fresh.query(basis, "q"))
        elif kind == "cocircuit":
            basis = ground.vertex_basis(v)
            e = rng.choice(sorted(basis))
            got = outcome(lambda: oracle.fundamental_cocircuit(basis, e))
            expected = outcome(lambda: fresh.fundamental_cocircuit(basis, e))
        else:
            current = next_set("far" if kind == "set" else "exchange", current, ground, rng)
            e = rng.choice([x for x in ground.elements if x not in current])
            got = outcome(lambda: oracle.query(current, e))
            expected = outcome(lambda: fresh.query(current, e))
        assert got == expected, (kind, v, current)
        assert len(oracle._stack) <= n + 1


def test_gray_walk_pivots_on_rows_that_shrink(invert_calls, monkeypatch):
    rng = random.Random(8)
    m = random_p_matrix(8, rng)
    q = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
    oracle = lcp_oracle(m, q)
    # Vertex 0, where the walk starts, takes the one factorization.
    orient_vertex_total(oracle, 0, 8)
    calls = []
    original = linalg.pivot

    def recording(t, r, c, d):
        calls.append((r, c, {len(row) for row in t}, sum(map(len, t))))
        return original(t, r, c, d)

    monkeypatch.setattr(linalg, "pivot", recording)
    orientation = klaus_orientation(oracle, 8).materialize()
    assert invert_calls == [False]
    assert len(calls) == 255
    # The pivot at dimension j is at slot 0 and entry j, and sees the slots
    # of dimensions j..n-1 and of q, each over the 8 dimensions.
    assert all(
        r == 0 and widths == {8} and entries == 8 * (8 - c + 1)
        for r, c, widths, entries in calls
    )
    assert sum(entries for *_, entries in calls) == 6056
    assert len(oracle._basis_cache) == 0
    fresh = lcp_oracle(m, q)
    for v in range(0, 256, 17):
        assert orientation.outmap(v) == orient_vertex_total(fresh, v, 8)


def test_extension_walk_keeps_its_pivot_count(monkeypatch):
    m = random_p_matrix(8, random.Random(8))
    base = RealizedOM(hstack(RationalMatrix.identity(8), negated(m)), GroundSet.complementary(8))
    pivots = []
    original = linalg.pivot

    def counting(*args):
        pivots.append(args[1:3])
        return original(*args)

    monkeypatch.setattr(linalg, "pivot", counting)
    klaus_orientation(ExtensionOM(lex_localization(base, "t1", MINUS)), 8).materialize()
    # In vertex order each new base tableau is one exchange from a cached
    # neighbour below it: 255 exchanges, and the 8 pivots of the one
    # factorization.
    assert len(pivots) == 263


def test_each_new_base_tableau_costs_one_pivot(monkeypatch):
    # The games and the degeneracy scans of adversary-n6 ask the base for
    # complementary bases only.  After the first factorization, which
    # pivots once per row, each basis the cache misses is walked to from
    # a cached neighbour one complementary exchange away, with one pivot.
    from omcp.adversary import AdversaryState, random_uniform_base, run_game
    from omcp.pmatroid import is_degenerate

    base = random_uniform_base(6, random.Random(41))
    pivots = []
    original = linalg.pivot

    def counting(*args):
        pivots.append(args[1:3])
        return original(*args)

    monkeypatch.setattr(linalg, "pivot", counting)
    for algo in ("ordered-scan", "jump"):
        result = run_game(algo, AdversaryState(base))
        assert is_degenerate(result.oracle, 6) == (False, None)
    assert len(base._basis_cache) == 64
    assert len(pivots) == base.rank + len(base._basis_cache) - 1
