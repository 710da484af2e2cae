import json
from fractions import Fraction
from pathlib import Path

import pytest

from omcp.cube import Orientation
from omcp.om import ExplicitOM
from omcp.pmatroid import (
    M1,
    MV1,
    MV2,
    MV3,
    U1,
    UV1,
    certificate_from_json,
    certificate_to_json,
    check_complementary_bases,
    find_sign_reversing_circuit,
    is_degenerate,
    is_p_matroid,
    solve_omcp_bruteforce,
    verify_certificate,
    verify_mv3_pair,
    verify_u1,
    verify_uv1,
)
from omcp.realize import RationalMatrix, RealizedOM, circuits_from_matrix, plcp_matrix
from omcp.signs import GroundSet, SignedSet

DATA = Path(__file__).parent / "data"


def test_sign_reversing_search(pm, non_pm, ext):
    assert find_sign_reversing_circuit(pm) is None
    witness = find_sign_reversing_circuit(non_pm)
    assert witness is not None and witness.encode() == "+-"
    assert find_sign_reversing_circuit(ext.minor_delete("q")) is None


def test_sign_reversing_requires_complementary_ground(ext):
    with pytest.raises(ValueError):
        find_sign_reversing_circuit(ext)  # still has q


def test_vacuous_complementary_circuit_counts():
    # A circuit supported on a complementary set has no contained pair and
    # is reported sign-reversing.
    g = GroundSet.complementary(2)
    om = ExplicitOM.from_encoded(g, ["++00", "--00"])
    witness = find_sign_reversing_circuit(om)
    assert witness is not None


def test_is_p_matroid(pm, non_pm):
    assert is_p_matroid(pm).is_p
    result = is_p_matroid(non_pm)
    assert not result.is_p and result.sign_reversing.encode() == "+-"


def test_p_matroid_check_is_truthy_exactly_on_p_matroids():
    data = json.loads((DATA / "lcp3_nonp.json").read_text(encoding="utf-8"))
    m, q = RationalMatrix.from_rows(data["M"]), tuple(Fraction(v) for v in data["q"])
    base = RealizedOM(plcp_matrix(m, q), GroundSet.complementary(3, with_q=True))
    assert not bool(is_p_matroid(base.to_explicit().minor_delete("q")))
    p_matrix = RationalMatrix.from_rows([[2, 1, 0], [0, 3, 1], [1, 0, 2]])
    p_base = RealizedOM(plcp_matrix(p_matrix, q), GroundSet.complementary(3, with_q=True))
    assert bool(is_p_matroid(p_base.to_explicit().minor_delete("q")))


def test_is_p_matroid_diagonal_realization():
    m = RationalMatrix.from_rows([[2, 0], [0, 3]])
    om = circuits_from_matrix(plcp_matrix(m, (Fraction(1), Fraction(1))), GroundSet.complementary(2, with_q=True))
    assert is_p_matroid(om.minor_delete("q")).is_p


def test_s_not_basis_detected():
    g = GroundSet.complementary(1)
    om = ExplicitOM.from_encoded(g, ["+0", "-0"])  # s1 is a loop
    result = is_p_matroid(om)
    assert not result.is_p and not result.s_is_basis


def test_check_complementary_bases(ext):
    assert check_complementary_bases(ext, 1) is None
    g = ext.ground
    blocked = ExplicitOM(
        g, ext.circuits | {SignedSet.decode(g, "+00"), SignedSet.decode(g, "-00")}
    )
    assert blocked.is_basis(frozenset({"t1"}))
    assert check_complementary_bases(blocked, 1) == frozenset({"s1"})


def test_check_complementary_bases_zero_column():
    matrix = plcp_matrix(RationalMatrix.from_rows([[0]]), (Fraction(1),))
    oracle = RealizedOM(matrix, GroundSet.complementary(1, with_q=True))
    assert check_complementary_bases(oracle, 1) == frozenset({"t1"})


def test_verify_mv3_pair(ground1q):
    x = SignedSet.decode(ground1q, "+0+")
    y = SignedSet.decode(ground1q, "0++")
    assert verify_mv3_pair(x, y)
    assert not verify_mv3_pair(x, x)
    # opposite signs across the pair fail both branches
    y_bad = SignedSet.decode(ground1q, "0-+")
    assert not verify_mv3_pair(x, y_bad)
    # zero-product branch
    assert verify_mv3_pair(SignedSet.decode(ground1q, "00+"), SignedSet.decode(ground1q, "0++"))
    # non-complementary circuits are rejected
    assert not verify_mv3_pair(SignedSet.decode(ground1q, "+++"), y)


def test_solve_bruteforce(ext, ext_degenerate):
    assert solve_omcp_bruteforce(ext, 1) == M1(SignedSet.decode(ext.ground, "0++"))
    assert solve_omcp_bruteforce(ext_degenerate, 1) == M1(
        SignedSet.decode(ext_degenerate.ground, "00+")
    )


def test_solve_not_found_on_bad_extension():
    # s1 and t1 parallel (not a P-matroid), q opposed to both: no
    # non-negative complementary circuit exists.
    g = GroundSet.complementary(1, with_q=True)
    om = circuits_from_matrix(
        RationalMatrix.from_rows([[1, 1, 1]]), g
    )
    assert solve_omcp_bruteforce(om, 1) is None


def test_solve_returns_mv2():
    matrix = plcp_matrix(RationalMatrix.from_rows([[0]]), (Fraction(-1),))
    oracle = RealizedOM(matrix, GroundSet.complementary(1, with_q=True))
    result = solve_omcp_bruteforce(oracle, 1)
    assert isinstance(result, MV2) and result.basis == frozenset({"t1"})


def test_degeneracy(ext, ext_degenerate):
    assert is_degenerate(ext, 1) == (False, None)
    degenerate, witness = is_degenerate(ext_degenerate, 1)
    assert degenerate and witness == frozenset({"s1"})


def test_is_degenerate_matches_a_scan_of_the_basis_signs():
    # The witness is the first complementary basis, in vertex order, whose
    # C(B, q) vanishes at some element of B; a non-basis still raises.
    import random

    from omcp.extend import ExtensionOM, LexAtom, Localization
    from omcp.plcp import random_p_matrix
    from omcp.realize import hstack, negated

    def reference(oracle):
        ground = oracle.ground
        for basis in map(ground.vertex_basis, range(1 << ground.n_pairs)):
            answer = oracle.query(basis, "q")
            if any(answer.sign_of(e) == 0 for e in basis):
                return True, basis
        return False, None

    found = set()
    for seed in range(24):
        rng = random.Random(seed)
        n = 1 + seed % 3
        base = RealizedOM(
            hstack(RationalMatrix.identity(n), negated(random_p_matrix(n, rng))),
            GroundSet.complementary(n),
        )
        elements = base.ground.elements
        atoms = tuple(
            LexAtom(rng.choice(elements), rng.choice((-1, 0, 1))) for _ in range(rng.randint(0, n))
        )
        oracle = ExtensionOM(Localization(base, atoms))
        result = is_degenerate(oracle, n)
        assert result == reference(oracle), (seed, atoms)
        found.add(result[0])
    assert found == {False, True}
    singular = RealizedOM(
        plcp_matrix(RationalMatrix.from_rows([[0]]), (Fraction(-1),)),
        GroundSet.complementary(1, with_q=True),
    )
    with pytest.raises(ValueError, match="is not a basis"):
        is_degenerate(singular, 1)


@pytest.mark.parametrize(
    "scan", [is_degenerate, check_complementary_bases, solve_omcp_bruteforce],
    ids=["is_degenerate", "check_complementary_bases", "solve_omcp_bruteforce"],
)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_complementary_scans_check_the_pair_count(scan, n):
    # A scan over 2^n vertices of an oracle with 3 pairs is refused, as
    # reduction refuses the same mismatch, instead of scanning 2^3.
    import random

    from omcp.plcp import random_p_matrix, random_q

    rng = random.Random(1)
    m = random_p_matrix(3, rng)
    oracle = RealizedOM(plcp_matrix(m, random_q(3, rng)), GroundSet.complementary(3, with_q=True))
    with pytest.raises(ValueError, match="bit vector does not match complementary structure"):
        scan(oracle, n)
    scan(oracle, 3)


def test_uniform_extension_not_degenerate():
    m = RationalMatrix.from_rows([[2, 0], [0, 3]])
    oracle = RealizedOM(
        plcp_matrix(m, (Fraction(1), Fraction(1))),
        GroundSet.complementary(2, with_q=True),
    )
    assert is_degenerate(oracle, 2) == (False, None)


def test_uniqueness_of_solution_on_p_extensions(ext, ext_degenerate):
    for oracle in (ext, ext_degenerate):
        hits = []
        ground = oracle.ground
        for basis in map(ground.vertex_basis, range(1 << ground.n_pairs)):
            answer = oracle.query(basis, "q")
            if answer.neg_mask == 0:
                hits.append(answer)
        assert len(set(hits)) == 1


def test_verify_m1(ext):
    cert = solve_omcp_bruteforce(ext, 1)
    assert verify_certificate(cert, ext)
    wrong = M1(SignedSet.decode(ext.ground, "+0+"))
    assert not verify_certificate(wrong, ext)


def test_verify_mv1(non_pm, pm):
    cert = MV1(SignedSet.decode(non_pm.ground, "+-"))
    assert verify_certificate(cert, non_pm)
    assert not verify_certificate(cert, pm)


def test_verify_mv2():
    matrix = plcp_matrix(RationalMatrix.from_rows([[0]]), (Fraction(1),))
    oracle = RealizedOM(matrix, GroundSet.complementary(1, with_q=True))
    assert verify_certificate(MV2(frozenset({"t1"})), oracle)
    assert not verify_certificate(MV2(frozenset({"s1"})), oracle)
    assert not verify_certificate(MV2(frozenset({"s1", "t1"})), oracle)


@pytest.mark.parametrize("basis", [{"x1", "x2"}, {"s1", "zz"}])
def test_verify_mv2_rejects_names_outside_the_ground_set(basis):
    matrix = plcp_matrix(RationalMatrix.from_rows([[1, 0], [0, 1]]), (Fraction(1), Fraction(1)))
    oracle = RealizedOM(matrix, GroundSet.complementary(2, with_q=True))
    for instance in (oracle, oracle.to_explicit()):
        assert not verify_certificate(MV2(frozenset(basis)), instance)


def test_verify_mv3_through_oracle(ext):
    g = GroundSet.complementary(1, with_q=True)
    om = circuits_from_matrix(RationalMatrix.from_rows([[1, 1, -1]]), g)
    x = SignedSet.decode(g, "+0+")
    y = SignedSet.decode(g, "0++")
    cert = MV3(x, y)
    assert verify_certificate(cert, om)
    # against the genuine P-matroid extension the membership check fails
    assert not verify_certificate(cert, ext)


def test_certificate_json_roundtrips(ground1q):
    certs = [
        M1(SignedSet.decode(ground1q, "0++")),
        MV1(SignedSet.decode(ground1q, "+-0")),
        MV2(frozenset({"s1"})),
        MV3(SignedSet.decode(ground1q, "+0+"), SignedSet.decode(ground1q, "0++")),
        U1(2, 1),
        UV1(2, 0, 3),
    ]
    for cert in certs:
        d = certificate_to_json(cert)
        again = certificate_from_json(d, ground1q)
        assert again == cert


@pytest.mark.parametrize(
    "d",
    [
        {"kind": "UV1", "v": "0", "w": "11"},
        {"kind": "UV1", "v": "01", "w": "0b"},
        {"kind": "U1", "vertex": "0b1"},
        {"kind": "U1", "vertex": " 1_0"},
        {"kind": "U1", "vertex": "12"},
    ],
)
def test_certificate_from_json_rejects_malformed_vertices(d):
    with pytest.raises(ValueError, match="vertex name must be"):
        certificate_from_json(d)


@pytest.mark.parametrize(
    "d",
    [
        ["U1", ""],
        "U1",
        {"kind": "U1", "vertex": 5},
        {"kind": "U1"},
        {"circuit": "+"},
        {"kind": "MV2", "basis": 5},
        {"kind": "MV2", "basis": ["s1", 1]},
        {"kind": "MV2"},
        {"kind": "M1", "circuit": ["+", "0", "+"]},
        {"kind": "MV1"},
        {"kind": "MV3", "X": "+0+"},
        {"kind": "UV1", "v": "01", "w": None},
        {"kind": "UV1", "w": "01"},
    ],
)
def test_certificate_from_json_rejects_malformed_fields(d, ground1q):
    with pytest.raises(ValueError):
        certificate_from_json(d, ground1q)


def test_zero_cube_sink_certificate_roundtrips_and_verifies():
    d = certificate_to_json(U1(0, 0))
    assert d == {"kind": "U1", "vertex": ""}
    cert = certificate_from_json(d)
    assert cert == U1(0, 0)
    assert verify_certificate(cert, Orientation.from_outmaps([""]))


def test_cube_certificates_of_another_dimension_fail():
    one_cube = Orientation.from_outmaps(["-", "+"])  # sink 0
    assert verify_u1(U1(1, 0), one_cube)
    assert not verify_u1(U1(2, 0), one_cube)
    two_cube = Orientation.from_outmaps(["--", "-+", "+-", "++"])
    assert not verify_certificate(UV1(1, 0, 1), two_cube)
    assert not verify_uv1(UV1(3, 0, 1), Orientation.from_outmaps(["-+"] * 4))
    assert verify_uv1(UV1(2, 0, 1), Orientation.from_outmaps(["-+"] * 4))
