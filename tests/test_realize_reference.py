"""``RealizedOM``'s set readers against the tableau walks they replaced.

``RealizedOM`` reads its bases, circuits and cocircuits off one table of
the minors of a single compact tableau.  The reference here is the code
that table replaced: one tableau walk over every r-subset of the columns
in lexicographic order, each basis reached from the one before by
``linalg.pivot`` exchanges, its C(B, e) read off the slots and its
C*(B, e) off the rows.  Both must give the same sets, the bases in the
same order, on seeded and hypothesis matrices, on the edge cases of rank
and column structure, and on the LCPs under ``tests/data``.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from omcp import linalg
from omcp.plcp import PlcpInstance, random_p_matrix, random_q
from omcp.realize import RationalMatrix, RealizedOM, _signed_masks, is_generic, plcp_matrix
from omcp.signs import GroundSet
from test_realize import configurations, random_matrix, reference_is_generic
from test_realize_laws import integer_matrix

DATA = Path(__file__).parent / "data"


def ref_all_tableaux(oracle):
    """``(js, ns, d, t)`` for every basis, the rank-subsets of columns taken
    in lexicographic order; each is walked to from the one before and none
    is stored in the basis cache."""
    for target in itertools.combinations(range(oracle.matrix.cols), oracle.rank):
        entry = oracle._walk(sum(1 << j for j in target))
        if entry is not None:
            oracle._last = entry
            yield entry


def ref_bases(oracle):
    names = oracle.ground.elements
    for js, _, _, _ in ref_all_tableaux(oracle):
        yield frozenset(names[j] for j in js)


def ref_circuits(oracle):
    """Every C(B, e) with e outside a basis B, and its negation."""
    return oracle._with_negations(
        _signed_masks(js, column, e, d > 0)
        for js, ns, d, t in ref_all_tableaux(oracle)
        # at rank 0 there are no rows to transpose, and every slot is empty
        for e, column in zip(ns, zip(*t) if t else [()] * len(ns))
    )


def ref_cocircuits(oracle):
    """Every C*(B, e) of every basis tableau, and its negation."""
    return oracle._with_negations(
        _signed_masks(ns, row, e, d < 0)
        for js, ns, d, t in ref_all_tableaux(oracle)
        for e, row in zip(js, t)
    )


def assert_matches_walk(matrix: RationalMatrix, ground: GroundSet | None = None) -> None:
    ground = ground or GroundSet.plain([f"e{j}" for j in range(matrix.cols)])
    table, walk = RealizedOM(matrix, ground), RealizedOM(matrix, ground)
    assert table.circuit_set() == ref_circuits(walk), matrix.entries
    assert table.cocircuits() == ref_cocircuits(walk), matrix.entries
    assert list(table.bases()) == list(ref_bases(walk)), matrix.entries
    assert is_generic(matrix) == reference_is_generic(matrix), matrix.entries


def test_seeded_matrices_match_the_walk():
    # 1-4 rows, 1-8 columns, fractional entries, dependent rows, zero and
    # repeated columns (random_matrix).
    rng = random.Random(28)
    for _ in range(300):
        assert_matches_walk(random_matrix(rng)[1])


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_hypothesis_matrices_match_the_walk(matrix):
    assert_matches_walk(matrix)


EDGE_CASES = {
    "rank 0, one row": [[0, 0, 0]],
    "rank 0, two rows": [[0, 0], [0, 0]],
    "full column rank, square": [[2, 1, 0], [0, 1, 0], [1, 0, -3]],
    "full column rank, dependent rows": [[1, 0], [0, 1], [1, 1]],
    "one column": [[3], ["-1/2"]],
    "zero columns": [[1, 0, 2, 0], [0, 0, 1, 0]],
    "parallel columns": [[1, 2, 0, 2], [1, 2, 1, 2]],
    "antiparallel columns": [[1, -1, 0, "1/2"], [2, -2, 1, 1]],
    "all columns parallel": [[1, -2, 3, "1/3"]],
    "dependent rows": [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, -1]],
    "fractional entries": [["1/2", "-2/3", 1, 0, "5/7"], ["3/4", 0, "-1/5", 2, "1/3"]],
}


@pytest.mark.parametrize("rows", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases_match_the_walk(rows):
    assert_matches_walk(RationalMatrix.from_rows(rows))


@pytest.mark.parametrize("path", sorted(DATA.glob("lcp*.json")), ids=lambda p: p.stem)
def test_data_lcps_match_the_walk(path):
    inst = PlcpInstance.from_json_dict(json.loads(path.read_text()))
    assert_matches_walk(
        plcp_matrix(inst.matrix, inst.q), GroundSet.complementary(inst.n, with_q=True)
    )


def test_seeded_lcps_match_the_walk():
    # P-LCPs and non-P LCPs up to n = 4, whose q often makes them degenerate.
    rng = random.Random(29)
    for n in (2, 3, 4):
        for _ in range(6):
            for m in (random_p_matrix(n, rng), integer_matrix(n, rng)):
                q = random_q(n, rng)
                assert_matches_walk(plcp_matrix(m, q), GroundSet.complementary(n, with_q=True))


def test_set_readers_eliminate_once_and_never_pivot(monkeypatch):
    """One elimination for all three set readers; no basis exchange outside
    it (a walk) and no ``linalg.invert`` (a factorization per basis)."""
    m = RationalMatrix.from_rows([[1, -1, 2], [-1, 3, 2], [3, 2, 2]])
    oracle = RealizedOM(
        plcp_matrix(m, (Fraction(1), Fraction(-3), Fraction(3))),
        GroundSet.complementary(3, with_q=True),
    )
    calls = {"_eliminate": 0, "pivot": 0, "invert": 0}
    inside = []
    for name in calls:
        original = getattr(linalg, name)

        def counting(*args, name=name, original=original):
            if not inside:
                calls[name] += 1
            inside.append(name)
            try:
                return original(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(linalg, name, counting)
    oracle.to_explicit()
    oracle.cocircuits()
    list(oracle.bases())
    assert calls == {"_eliminate": 1, "pivot": 0, "invert": 0}
