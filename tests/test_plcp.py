import random
from fractions import Fraction

import pytest

from omcp.cube import complete_downward, is_uso_exhaustive, outmap_name
from omcp.extend import ExtensionOM, lex_localization
from omcp.plcp import (
    PlcpInstance,
    basic_solution,
    is_lcp_solution,
    is_p_matrix,
    localization_from_q,
    plcp_orientation,
    plcp_ppu,
    random_p_matrix,
    random_q,
)
from omcp.realize import RationalMatrix, RealizedOM, hstack, negated, plcp_matrix
from omcp.reduction import klaus_orientation
from omcp.signs import MINUS, PLUS, GroundSet


def fr(values):
    return tuple(Fraction(v) for v in values)


def test_is_p_matrix():
    assert is_p_matrix(RationalMatrix.from_rows([[1]]))[0]
    assert is_p_matrix(RationalMatrix.from_rows([[2, 0], [0, 3]]))[0]
    ok, witness = is_p_matrix(RationalMatrix.from_rows([[0, 1], [1, 0]]))
    assert not ok and witness == (0,)
    ok, witness = is_p_matrix(RationalMatrix.from_rows([[1, 2], [2, 1]]))
    assert not ok and witness == (0, 1)


def test_random_p_matrices_are_p():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        assert is_p_matrix(random_p_matrix(n, rng))[0]


def test_basic_solution_examples():
    m = RationalMatrix.from_rows([[1]])
    w, z = basic_solution(m, fr([1]), frozenset({"s1"}))
    assert (w, z) == (fr([1]), fr([0]))
    assert is_lcp_solution(m, fr([1]), w, z)
    w, z = basic_solution(m, fr([-1]), frozenset({"t1"}))
    assert (w, z) == (fr([0]), fr([1]))
    assert is_lcp_solution(m, fr([-1]), w, z)
    w, z = basic_solution(m, fr([0]), frozenset({"s1"}))
    assert (w, z) == (fr([0]), fr([0]))


def test_basic_solution_singular():
    m = RationalMatrix.from_rows([[0]])
    assert basic_solution(m, fr([1]), frozenset({"t1"})) is None


def test_plcp_orientation_values():
    m = RationalMatrix.from_rows([[1]])
    assert outmap_name(plcp_orientation(m, fr([1]), 0), 1) == "-"
    assert outmap_name(plcp_orientation(m, fr([0]), 0), 1) == "0"
    assert outmap_name(plcp_orientation(m, fr([0]), 1), 1) == "0"
    o = plcp_ppu(RationalMatrix.from_rows([[2, 0], [0, 3]]), fr([1, 1]))
    assert is_uso_exhaustive(complete_downward(o))


def test_plcp_orientation_singular_basis():
    m = RationalMatrix.from_rows([[0]])
    with pytest.raises(ValueError):
        plcp_orientation(m, fr([1]), 1)


def test_orientation_matches_klaus_pipeline():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.choice([1, 2, 3, 4])
        m = random_p_matrix(n, rng)
        choice = rng.randrange(4)
        if choice == 0:
            q = fr([0] * n)
        elif choice == 1:
            i = rng.randrange(n)
            q = tuple(-m.entries[r][i] for r in range(n))
        elif choice == 2:
            i = rng.randrange(n)
            q = fr([int(r == i) for r in range(n)])
        else:
            q = random_q(n, rng)
        oracle = RealizedOM(plcp_matrix(m, q), GroundSet.complementary(n, with_q=True))
        direct = plcp_ppu(m, q)
        via_matroid = klaus_orientation(oracle, n, partial=True).materialize()
        assert direct.to_outmaps() == via_matroid.to_outmaps()


def test_lexicographic_q_vectors_match_atoms():
    rng = random.Random(19)
    for n in (2, 3):
        while True:
            m = random_p_matrix(n, rng)
            base_matrix = hstack(RationalMatrix.identity(n), negated(m))
            from omcp.realize import is_generic

            if is_generic(base_matrix):
                break
        base = RealizedOM(base_matrix, GroundSet.complementary(n))
        for i in range(n):
            pairs = [
                (tuple(-m.entries[r][i] for r in range(n)), f"t{i+1}", MINUS),
                (tuple(m.entries[r][i] for r in range(n)), f"t{i+1}", PLUS),
                (fr([int(r == i) for r in range(n)]), f"s{i+1}", MINUS),
                (fr([-int(r == i) for r in range(n)]), f"s{i+1}", PLUS),
            ]
            for q, element, sign in pairs:
                direct = plcp_ppu(m, q)
                sigma = lex_localization(base, element, sign)
                via = klaus_orientation(ExtensionOM(sigma), n, partial=True).materialize()
                assert direct.to_outmaps() == via.to_outmaps(), (n, element, sign)


def test_localization_composition_matches_lexicographic_q():
    rng = random.Random(29)
    for n in (2, 3):
        while True:
            m = random_p_matrix(n, rng)
            base_matrix = hstack(RationalMatrix.identity(n), negated(m))
            from omcp.realize import is_generic

            if is_generic(base_matrix):
                break
        base = RealizedOM(base_matrix, GroundSet.complementary(n))
        q1 = tuple(Fraction(v) if rng.random() < 0.6 else Fraction(0) for v in random_q(n, rng))
        q2 = random_q(n, rng)
        sigma1 = localization_from_q(base, q1)
        sigma2 = localization_from_q(base, q2)
        via_sigma = klaus_orientation(ExtensionOM(sigma1.compose(sigma2)), n, partial=True)
        for v in range(2**n):
            # q1 + eps*q2: each basic value takes its sign from q1 unless that is 0
            lex = "".join(
                a if a != "0" else b
                for a, b in zip(
                    outmap_name(plcp_orientation(m, q1, v), n),
                    outmap_name(plcp_orientation(m, q2, v), n),
                )
            )
            assert outmap_name(via_sigma.outmap(v), n) == lex, (n, v)


def test_localization_from_q_matches_realized_extension():
    rng = random.Random(43)
    n = 2
    m = random_p_matrix(n, rng)
    base = RealizedOM(
        hstack(RationalMatrix.identity(n), negated(m)), GroundSet.complementary(n)
    )
    q = random_q(n, rng)
    sigma = localization_from_q(base, q)
    oracle = RealizedOM(plcp_matrix(m, q), GroundSet.complementary(n, with_q=True))
    via_sigma = klaus_orientation(ExtensionOM(sigma), n, partial=True).materialize()
    direct = klaus_orientation(oracle, n, partial=True).materialize()
    assert via_sigma.to_outmaps() == direct.to_outmaps()


def test_instance_json_roundtrip():
    inst = PlcpInstance(RationalMatrix.from_rows([["1", "1/2"], ["0", "1"]]), fr([1, -2]))
    d = inst.to_json_dict()
    assert d["M"] == [["1", "1/2"], ["0", "1"]]
    again = PlcpInstance.from_json_dict(d)
    assert again == inst
