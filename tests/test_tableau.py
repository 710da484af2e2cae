"""The cached integer tableau of RealizedOM and the Gray-code materialization.

One oracle answers a random sequence of queries: bases one exchange away
from the last one, far jumps, singular sets and repeats.  Each answer must
equal that of a freshly built oracle, which factors the basis from
scratch.  Instances mix P-matrices, integer matrices with zeros (non-P,
singular complementary sets) and degenerate right-hand sides (q = 0,
q = -(a column of M)).
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omcp import linalg
from omcp.plcp import random_p_matrix
from omcp.realize import RationalMatrix, RealizedOM, plcp_matrix
from omcp.reduction import klaus_orientation, orient_vertex_partial, orient_vertex_total
from omcp.signs import GroundSet

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
        return sorted(ground.complementary_basis([rng.randint(0, 1) for _ in ground.pairs]))
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
    current = sorted(ground.complementary_basis([0] * m.rows))
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
