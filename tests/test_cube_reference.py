"""The mask-based cube conditions against sign-by-sign reference definitions.

The references below read vertex coordinates from binary strings and
compare outmaps one sign at a time, so they share no code with
``omcp.cube``; their sign-tuple tables reach an ``Orientation`` only
through its sign strings (``ref_orientation``, ``ref_maps``).  Random tables cover total and partial orientations up to
n = 6, and up to n = 4 for the USO check under its guard: independent
signs per half-edge, edge-consistent orientations, and mirrored all-down
orientations with one face left unoriented (these are partially
Szabo-Welzl, so the downward completion succeeds on them).  Both witness
functions and the USO check are also compared on every table of the 1-
and 2-cube.  Random tables are almost never USOs, so the USO check is
also compared on every edge orientation of the 3-cube (its 744 USOs among
them) and on each 3-cube USO with one edge reversed.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omcp.cube import (
    Orientation,
    complete_downward,
    find_sw_violation,
    is_partially_sw,
    is_uso_exhaustive,
    mirrored_down_orientation,
)
from omcp.pmatroid import UV1, verify_uv1


def ref_orientation(n, maps):
    """The Orientation of a sign-tuple table, through its sign strings."""
    return Orientation.from_outmaps(["".join("-0+"[s + 1] for s in row) for row in maps])


def ref_maps(o):
    """The sign-tuple table of an Orientation, read back from its sign strings."""
    return [tuple("-0+".index(c) - 1 for c in row) for row in o.to_outmaps()]


def ref_bits(v, n):
    return [c == "1" for c in format(v, f"0{n}b")]


def ref_span(v, w, n):
    return [i for i, (a, b) in enumerate(zip(ref_bits(v, n), ref_bits(w, n))) if a != b]


def ref_sw_pair(maps, v, w, n):
    """v != w and equal signs on every dimension where v and w differ."""
    return v != w and all(maps[v][i] == maps[w][i] for i in ref_span(v, w, n))


def ref_pairs(n):
    return [(v, w) for v in range(1 << n) for w in range(v + 1, 1 << n)]


def ref_find_sw_violation(maps, n):
    return next((p for p in ref_pairs(n) if ref_sw_pair(maps, *p, n)), None)


def ref_partial_witness(maps, n):
    """First pair neither unoriented across its span at both ends nor split."""
    for v, w in ref_pairs(n):
        span = ref_span(v, w, n)
        unoriented = all(maps[v][i] == 0 and maps[w][i] == 0 for i in span)
        split = any(maps[v][i] != 0 and maps[w][i] == -maps[v][i] for i in span)
        if not (unoriented or split):
            return v, w
    return None


def ref_downward(maps, n):
    """Each zero becomes +1 where the vertex has a one, else -1."""
    return [
        tuple(s if s != 0 else (1 if bit else -1) for s, bit in zip(row, ref_bits(v, n)))
        for v, row in enumerate(maps)
    ]


def ref_face_iter(n):
    for pattern in itertools.product((0, 1, 2), repeat=n):
        yield pattern  # 2 marks a spanned dimension


def ref_is_uso(maps, n):
    """Every face, spanned dimensions fixed by a 0/1/2 pattern, has exactly one
    vertex whose outmap is -1 on all of them."""
    for pattern in ref_face_iter(n):
        spanned = [i for i, p in enumerate(pattern) if p == 2]
        base = 0
        for i, p in enumerate(pattern):
            if p == 1:
                base |= 1 << (n - 1 - i)
        sinks = 0
        for bits in itertools.product((0, 1), repeat=len(spanned)):
            v = base
            for d, b in zip(spanned, bits):
                if b:
                    v |= 1 << (n - 1 - d)
            if all(maps[v][i] == -1 for i in spanned):
                sinks += 1
                if sinks > 1:
                    return False
        if sinks != 1:
            return False
    return True


def ref_edges(n):
    """Each edge once, as (lower vertex, dimension, upper vertex)."""
    return [
        (v, i, v | (1 << (n - 1 - i)))
        for v in range(1 << n)
        for i in range(n)
        if not ref_bits(v, n)[i]
    ]


def ref_edge_table(n, upward):
    """The total orientation whose k-th edge of ``ref_edges`` points up iff bit k is set."""
    table = [[0] * n for _ in range(1 << n)]
    for k, (v, i, w) in enumerate(ref_edges(n)):
        s = 1 if upward >> k & 1 else -1
        table[v][i], table[w][i] = s, -s
    return [tuple(r) for r in table]


@st.composite
def free_tables(draw, signs, max_n):
    n = draw(st.integers(1, max_n))
    row = st.tuples(*[st.sampled_from(signs)] * n)
    return n, draw(st.lists(row, min_size=1 << n, max_size=1 << n))


@st.composite
def edge_tables(draw, signs, max_n):
    n = draw(st.integers(1, max_n))
    table = [[0] * n for _ in range(1 << n)]
    for v in range(1 << n):
        for i in range(n):
            if not ref_bits(v, n)[i]:
                w = v | (1 << (n - 1 - i))
                s = draw(st.sampled_from(signs))
                table[v][i], table[w][i] = s, -s
    return n, [tuple(r) for r in table]


@st.composite
def face_unoriented_tables(draw, max_n):
    n = draw(st.integers(1, max_n))
    flips = draw(st.sets(st.integers(0, n - 1)))
    pattern = draw(st.lists(st.sampled_from("01*"), min_size=n, max_size=n))
    rows = []
    for v, row in enumerate(ref_maps(mirrored_down_orientation(n, flips))):
        bits = format(v, f"0{n}b")
        inside = all(p == "*" or p == b for p, b in zip(pattern, bits))
        rows.append(tuple(0 if inside and p == "*" else s for s, p in zip(row, pattern)))
    return n, rows


def total_tables(max_n):
    return st.one_of(free_tables((-1, 1), max_n), edge_tables((-1, 1), max_n))


def partial_tables(max_n):
    return st.one_of(
        free_tables((-1, 0, 1), max_n),
        edge_tables((-1, 0, 1), max_n),
        face_unoriented_tables(max_n),
    )


@st.composite
def zero_pair_tables(draw, tables):
    """A table of ``tables`` with vertex w copied from vertex 0 on the
    dimensions where they differ, so that (0, w) is a Szabo-Welzl pair
    (when vertex 0 is oriented there) and the least pair starts at 0."""
    n, maps = draw(tables)
    w = draw(st.integers(1, (1 << n) - 1))
    maps = list(maps)
    span = ref_span(0, w, n)
    maps[w] = tuple(maps[0][i] if i in span else s for i, s in enumerate(maps[w]))
    return n, maps


TOTAL, PARTIAL = total_tables(6), partial_tables(6)
# Non-USO tables whose least pair is (0, w): the pair walk stops early on these.
ZERO_PAIR_TOTAL, ZERO_PAIR_PARTIAL = zero_pair_tables(TOTAL), zero_pair_tables(PARTIAL)


@settings(max_examples=150, deadline=None)
@given(st.one_of(TOTAL, ZERO_PAIR_TOTAL))
def test_find_sw_violation_matches_reference(case):
    n, maps = case
    assert find_sw_violation(ref_orientation(n, maps)) == ref_find_sw_violation(maps, n)


@settings(max_examples=150, deadline=None)
@given(PARTIAL)
def test_find_sw_violation_rejects_partial_tables(case):
    n, maps = case
    o = ref_orientation(n, maps)
    if any(0 in row for row in maps):
        with pytest.raises(ValueError):
            find_sw_violation(o)
    else:
        assert find_sw_violation(o) == ref_find_sw_violation(maps, n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(TOTAL, PARTIAL, ZERO_PAIR_TOTAL, ZERO_PAIR_PARTIAL))
def test_is_partially_sw_matches_reference_with_witness(case):
    n, maps = case
    witness = ref_partial_witness(maps, n)
    assert is_partially_sw(ref_orientation(n, maps)) == (witness is None, witness)


@settings(max_examples=200, deadline=None)
@given(st.one_of(TOTAL, PARTIAL), st.data())
def test_verify_uv1_matches_reference(case, data):
    n, maps = case
    o = ref_orientation(n, maps)
    v = data.draw(st.integers(0, (1 << n) - 1))
    w = data.draw(st.integers(0, (1 << n) - 1))
    assert verify_uv1(UV1(n, v, w), o) == ref_sw_pair(maps, v, w, n)
    found = find_sw_violation(o) if all(0 not in row for row in maps) else None
    if found is not None:
        assert verify_uv1(UV1(n, *found), o)


@settings(max_examples=200, deadline=None)
@given(PARTIAL)
def test_complete_downward_matches_reference(case):
    n, maps = case
    o = ref_orientation(n, maps)
    if ref_partial_witness(maps, n) is not None:
        with pytest.raises(ValueError):
            complete_downward(o)
    else:
        completed = complete_downward(o)
        assert ref_maps(completed) == ref_downward(maps, n)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_witnesses_match_reference_on_every_small_table(n):
    rows = list(itertools.product((-1, 0, 1), repeat=n))
    for maps in itertools.product(rows, repeat=1 << n):
        o = ref_orientation(n, maps)
        witness = ref_partial_witness(maps, n)
        assert is_partially_sw(o) == (witness is None, witness), maps
        if any(0 in row for row in maps):
            with pytest.raises(ValueError):
                find_sw_violation(o)
        else:
            assert find_sw_violation(o) == ref_find_sw_violation(maps, n), maps


@pytest.mark.parametrize("n", [0, 1, 2])
def test_is_uso_matches_reference_on_every_small_table(n):
    rows = list(itertools.product((-1, 0, 1), repeat=n))
    for maps in itertools.product(rows, repeat=1 << n):
        assert is_uso_exhaustive(ref_orientation(n, maps)) == ref_is_uso(maps, n), maps


def test_is_uso_matches_reference_on_the_3_cube():
    usos = []
    for upward in range(1 << len(ref_edges(3))):
        maps = ref_edge_table(3, upward)
        uso = ref_is_uso(maps, 3)
        assert is_uso_exhaustive(ref_orientation(3, maps)) == uso, maps
        if uso:
            usos.append(upward)
    assert len(usos) == 744
    for upward in usos:
        for k in range(len(ref_edges(3))):
            maps = ref_edge_table(3, upward ^ 1 << k)
            assert is_uso_exhaustive(ref_orientation(3, maps)) == ref_is_uso(maps, 3), maps


@pytest.mark.parametrize("n", range(5))
def test_is_uso_matches_reference_on_mirrored_down(n):
    for r in range(n + 1):
        for flips in itertools.combinations(range(n), r):
            o = mirrored_down_orientation(n, flips)
            maps = ref_maps(o)
            assert ref_is_uso(maps, n) and is_uso_exhaustive(o)


@settings(max_examples=300, deadline=None)
@given(st.one_of(total_tables(4), partial_tables(4)))
def test_is_uso_matches_reference_on_random_tables(case):
    n, maps = case
    assert is_uso_exhaustive(ref_orientation(n, maps)) == ref_is_uso(maps, n)
