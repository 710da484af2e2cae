import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import omcp
from omcp.cube import (
    Face,
    Orientation,
    all_down_orientation,
    complete_downward,
    enumerate_usos,
    find_sw_violation,
    flip_vertex,
    holt_klee_value,
    is_hypervertex,
    is_partially_sw,
    is_uso_exhaustive,
    jump_with_fallback,
    mirrored_down_orientation,
    ordered_scan,
    outmap_from_name,
    outmap_name,
    refill_hypervertex,
    sink_find,
    sink_vertex,
    source_vertex,
    unoriented_faces,
    vertex_bit,
    vertex_from_name,
    vertex_name,
)
from omcp.guards import OMCP_SCAN_DIM, SizeGuardError


def edge_table(n, upward):
    """The total orientation whose k-th edge points up iff ``upward[k]``."""
    edges = [(v, i) for v in range(1 << n) for i in range(n) if not vertex_bit(v, i, n)]
    plus = [0] * (1 << n)
    for up, (v, i) in zip(upward, edges):
        plus[v if up else flip_vertex(v, i, n)] |= flip_vertex(0, i, n)
    return Orientation(n, table=[(p, 0) for p in plus])


def edge_consistent_orientations(n):
    """All orientations where the two half-edges of every edge agree."""
    for upward in itertools.product((0, 1), repeat=n << (n - 1)):
        yield edge_table(n, upward)


def test_vertex_encoding():
    assert vertex_name(2, 3) == "010"
    assert vertex_bit(2, 1, 3) == 1 and vertex_bit(2, 0, 3) == 0
    assert flip_vertex(0, 0, 3) == 4


def test_zero_cube_vertex_is_named_by_the_empty_string():
    assert vertex_name(0, 0) == ""
    assert vertex_from_name("", 0) == 0
    with pytest.raises(ValueError):
        vertex_from_name("0", 0)


def test_fig_style_one_edge_uso():
    o = Orientation.from_outmaps(["+", "-"])
    assert find_sw_violation(o) is None
    assert is_uso_exhaustive(o)
    assert sink_vertex(o) == 1


def test_inconsistent_half_edges_detected():
    o = Orientation.from_outmaps(["+", "+"])
    assert find_sw_violation(o) == (0, 1)
    assert not is_uso_exhaustive(o)


def test_all_down_is_uso():
    for n in (1, 2, 3):
        o = all_down_orientation(n)
        assert find_sw_violation(o) is None
        assert is_uso_exhaustive(o)
        assert sink_vertex(o) == 0


def test_cyclic_two_face_is_not_uso():
    # 4-cycle on the 2-cube: no sink in the full face.
    o = Orientation.from_outmaps(["+-", "-+", "+-", "-+"])
    assert not is_uso_exhaustive(o)
    assert find_sw_violation(o) is not None


def test_sw_matches_exhaustive_on_all_consistent_orientations():
    for n in (1, 2):
        for o in edge_consistent_orientations(n):
            assert (find_sw_violation(o) is None) == is_uso_exhaustive(o)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 12 - 1))
def test_sw_matches_exhaustive_sampled_n3(assignment):
    o = edge_table(3, [assignment >> k & 1 for k in range(12)])
    assert (find_sw_violation(o) is None) == is_uso_exhaustive(o)


def test_find_sw_rejects_partial():
    o = Orientation.from_outmaps(["0", "0"])
    with pytest.raises(ValueError):
        find_sw_violation(o)


def test_partially_sw():
    fully_unoriented = Orientation.from_outmaps(["00", "00", "00", "00"])
    assert is_partially_sw(fully_unoriented) == (True, None)
    ppu = Orientation.from_outmaps(["0", "0"])
    assert is_partially_sw(ppu)[0]
    bad = Orientation.from_outmaps(["+", "+"])
    ok, witness = is_partially_sw(bad)
    assert not ok and witness == (0, 1)


def test_complete_downward():
    one = complete_downward(Orientation.from_outmaps(["0", "0"]))
    assert outmap_name(one.outmap(1), 1) == "+" and outmap_name(one.outmap(0), 1) == "-"
    assert sink_vertex(one) == 0
    total = all_down_orientation(2)
    assert complete_downward(total).to_outmaps() == total.to_outmaps()
    two = complete_downward(Orientation.from_outmaps(["00", "00", "00", "00"]))
    assert is_uso_exhaustive(two)
    assert sink_vertex(two) == 0
    with pytest.raises(ValueError):
        complete_downward(Orientation.from_outmaps(["+", "+"]))


def test_unoriented_faces():
    whole = Orientation.from_outmaps(["0", "0"])
    faces = unoriented_faces(whole)
    assert len(faces) == 1 and faces[0].dim == 1
    none = unoriented_faces(all_down_orientation(2))
    assert none == []
    # a consistent hypervertex 1-face inside a 2-cube
    o = Orientation.from_outmaps(["-0", "-0", "+-", "++"])
    (face,) = unoriented_faces(o)
    assert face.spanned == frozenset({1}) and dict(face.fixed) == {0: 0}
    # non-hypervertex zero pattern is rejected
    bad = Orientation.from_outmaps(["-0", "+0", "+-", "-+"])
    with pytest.raises(ValueError):
        unoriented_faces(bad)


def test_face_helpers():
    face = Face.whole(3)
    assert face.dim == 3 and list(face.vertices()) == list(range(8))
    fixed = face.fix_dim(0, 1)
    assert fixed.dim == 2 and all(vertex_bit(v, 0, 3) == 1 for v in fixed.vertices())
    assert fixed.contains(4) and not fixed.contains(0)
    assert fixed.project(0b101) == 0b01


def test_refill_hypervertex_exhaustive_n2():
    usos2 = enumerate_usos(2)
    usos1 = enumerate_usos(1)
    for o in usos2:
        # whole cube is always a hypervertex
        for inner in usos2:
            assert is_uso_exhaustive(refill_hypervertex(o, Face.whole(2), inner))
        for spanned in ({0}, {1}):
            for v in range(4):
                face = Face.of_vertex_span(v, 2, spanned)
                if not is_hypervertex(o, face):
                    continue
                for inner in usos1:
                    assert is_uso_exhaustive(refill_hypervertex(o, face, inner))


def test_refill_identity_and_whole_cube():
    o = all_down_orientation(3)
    same = refill_hypervertex(o, Face.whole(3), o)
    assert same.to_outmaps() == o.to_outmaps()
    other = mirrored_down_orientation(3, [1])
    assert refill_hypervertex(o, Face.whole(3), other).to_outmaps() == other.to_outmaps()


def test_refill_sampled_n3():
    rng = random.Random(23)
    usos3 = enumerate_usos(3)
    usos = {1: enumerate_usos(1), 2: enumerate_usos(2), 3: usos3}
    checked = 0
    while checked < 120:
        o = rng.choice(usos3)
        dim = rng.choice([1, 2])
        spanned = set(rng.sample(range(3), dim))
        face = Face.of_vertex_span(rng.randrange(8), 3, spanned)
        if not is_hypervertex(o, face):
            continue
        inner = rng.choice(usos[dim])
        assert is_uso_exhaustive(refill_hypervertex(o, face, inner))
        checked += 1


def test_refill_rejects_non_hypervertex():
    o = Orientation.from_outmaps(["+-", "--", "++", "-+"])
    face = Face.of_vertex_span(0, 2, {1})
    if not is_hypervertex(o, face):
        with pytest.raises(ValueError):
            refill_hypervertex(o, face, all_down_orientation(1))


def test_holt_klee_values():
    assert holt_klee_value(all_down_orientation(3)) == 3
    assert holt_klee_value(all_down_orientation(1)) == 1
    with pytest.raises(ValueError):
        holt_klee_value(Orientation.from_outmaps(["+-", "-+", "+-", "-+"]))


def test_holt_klee_invariance_under_relabeling():
    o = all_down_orientation(3)
    mirrored = mirrored_down_orientation(3, [0, 2])
    assert holt_klee_value(mirrored) == holt_klee_value(o)
    # relabel dimensions of an arbitrary USO
    base = enumerate_usos(2)[5]
    swapped = Orientation.from_outmaps(
        [outmap_name(base.outmap((v >> 1) | ((v & 1) << 1)), 2)[::-1] for v in range(4)]
    )
    assert holt_klee_value(swapped) == holt_klee_value(base)


def test_sink_find_ordered_scan():
    o = all_down_orientation(3)
    sink, count = sink_find("ordered-scan", o)
    assert sink == 0 and count == 1


def test_sink_find_jump():
    o = Orientation.from_outmaps(["+", "-"])
    sink, count = sink_find("jump", o)
    assert sink == 1 and count == 2


def test_jump_fallback_counts_distinct_queries():
    # mirrored-down sends the jump straight to the sink
    o = mirrored_down_orientation(3, [0, 1, 2])
    sink, count = sink_find("jump", o)
    assert sink == 7 and count <= 3


def test_sink_find_on_enumerated_corpus():
    for o in enumerate_usos(2):
        expected = sink_vertex(o)
        for algo in ("ordered-scan", "jump"):
            sink, count = sink_find(algo, o)
            assert sink == expected
            assert count <= 4


def test_uso_counts():
    assert len(enumerate_usos(1)) == 2
    assert len(enumerate_usos(2)) == 12
    assert len(enumerate_usos(3)) == 744


def test_enumerate_guard():
    with pytest.raises(ValueError):
        enumerate_usos(4)


def test_exhaustive_guard():
    n = OMCP_SCAN_DIM + 1
    o = Orientation(n, fn=lambda v: (0, 0))
    with pytest.raises(SizeGuardError):
        is_uso_exhaustive(o)


def test_outmap_names_round_trip():
    assert outmap_name((0b100, 0b010), 3) == "+0-"
    assert outmap_from_name("+0-") == (0b100, 0b010)
    assert outmap_name((0, 0), 0) == "" and outmap_from_name("") == (0, 0)
    with pytest.raises(ValueError, match="not a sign character"):
        outmap_from_name("+x")


def _outmap_name_by_characters(out, n: int) -> str:
    """The outmap name one character per dimension, from dimension 0 on."""
    plus, zero = out
    return "".join(
        "0" if zero >> k & 1 else "+" if plus >> k & 1 else "-" for k in range(n - 1, -1, -1)
    )


def test_outmap_name_matches_the_character_loop():
    outmaps = [
        (n, (plus, zero))
        for n in range(5)
        for plus in range(1 << n)
        for zero in range(1 << n)
        if not plus & zero
    ]
    rng = random.Random(12)
    for n in (8, 12):
        for _ in range(200):
            zero = rng.getrandbits(n) & rng.getrandbits(n)
            outmaps.append((n, (rng.getrandbits(n) & ~zero, zero)))
    assert len(outmaps) == 3**0 + 3**1 + 3**2 + 3**3 + 3**4 + 400
    for n, out in outmaps:
        assert outmap_name(out, n) == _outmap_name_by_characters(out, n), (n, out)
    assert outmap_name((0, 0), 0) == ""


@pytest.mark.parametrize(
    "row", [(1,), (1, 0, 0), (2, 0), (0, 2), (-1, 0), (1, 1), [1, 0], "+-", 1, (1.0, 0)]
)
def test_orientation_rejects_malformed_rows(row):
    with pytest.raises(ValueError):
        Orientation(1, table=[(0, 0), row])


@pytest.mark.parametrize(
    "build",
    [
        # malformed rows of a table: test_orientation_rejects_malformed_rows
        lambda: Orientation(2, table=[(0, 0)] * 3),
        lambda: Orientation.from_outmaps(["+", "-", "+"]),
        lambda: Orientation.from_outmaps(["+", "--"]),
        lambda: Orientation.from_outmaps(["+", "x"]),
        lambda: Orientation.from_json_dict({"n": 1, "outmaps": ["+", "x"]}),
        lambda: Orientation.from_json_dict({"n": 2, "outmaps": ["+", "-"]}),
        lambda: Orientation.from_json_dict({"outmaps": ["+", "--"]}),
        lambda: Orientation.from_json_dict({"outmaps": ["++", "--", "+-"]}),
    ],
)
def test_every_outside_table_is_checked(build):
    with pytest.raises(ValueError):
        build()


def test_materialize_evaluates_each_vertex_once_in_vertex_order():
    # Vertex order is the order that makes the principal-pivot stack of
    # RealizedOM exchange once per vertex (omcp.realize).
    seen = []

    def recording(v):
        seen.append(v)
        return v, 0

    dense = Orientation(4, fn=recording).materialize()
    assert seen == list(range(16))
    assert [dense.outmap(v) for v in dense.vertices()] == [(v, 0) for v in range(16)]
    assert dense.materialize() is dense and seen == list(range(16))

    def failing(k):
        def fn(v):
            seen.append(v)
            if v >= k:
                raise ValueError(f"vertex {v}")
            return 0, 0
        return fn

    for k in (0, 5, 15):
        seen.clear()
        with pytest.raises(ValueError, match=f"vertex {k}$"):
            Orientation(4, fn=failing(k)).materialize()
        assert seen == list(range(k + 1))


def test_lazy_jump_at_n40():
    # mirrored all-down: every half-edge points toward the sink
    n, sink = 40, 0b1011 << 30
    o = Orientation(n, fn=lambda v: (v ^ sink, 0))
    assert sink_find("jump", o) == (sink, 2)


def test_json_roundtrip():
    o = Orientation.from_outmaps(["+-", "--", "++", "-+"])
    d = o.to_json_dict()
    assert d == {"n": 2, "outmaps": ["+-", "--", "++", "-+"]}
    again = Orientation.from_json_dict(d)
    assert again.to_outmaps() == o.to_outmaps()


def test_import_omcp_does_not_load_networkx():
    # networkx is imported by holt_klee_value on first use, not by ``import omcp``.
    src = str(Path(omcp.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, omcp; print('networkx' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "False\n"
