import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from omcp.cube import Orientation, is_sw_pair, vertex_from_name
from omcp.extend import ExtensionOM, lex_localization
from omcp.guards import SizeGuardError
from omcp.om import NOT_A_BASIS, ExplicitOM
from omcp.pmatroid import (
    M1,
    MV1,
    MV2,
    MV3,
    U1,
    UV1,
    _is_complementary,
    certificate_from_json,
    certificate_to_json,
    check_complementary_bases,
    find_sign_reversing_circuit,
    is_degenerate,
    is_p_matroid,
    is_sign_reversing,
    solve_omcp_bruteforce,
    verify_certificate,
    verify_mv3_pair,
    verify_u1,
    verify_uv1,
)
from omcp.realize import RationalMatrix, RealizedOM, circuits_from_matrix, plcp_matrix
from omcp.reduction import klaus_orientation, map_back_sink, map_back_uv1
from omcp.signs import PLUS, SIGNS, ZERO, GroundSet, SignedSet

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


# The pair rules by their definitions, pair by pair through element names;
# the library reads them off the s and t halves of the sign masks.


def reference_sign_reversing(c: SignedSet) -> bool:
    for s, t in c.ground.pairs:
        a, b = c.sign_of(s), c.sign_of(t)
        if a != ZERO and b != ZERO and a != -b:
            return False
    return True


def reference_complementary(c: SignedSet) -> bool:
    return not any(c.sign_of(s) != ZERO and c.sign_of(t) != ZERO for s, t in c.ground.pairs)


def reference_mv3_pair(x: SignedSet, y: SignedSet) -> bool:
    ground = x.ground
    if y.ground != ground or ground.pairs is None or ground.q is None or x == y:
        return False
    if x.sign_of(ground.q) != PLUS or y.sign_of(ground.q) != PLUS:
        return False
    if not (reference_complementary(x) and reference_complementary(y)):
        return False
    for s, t in ground.pairs:
        xs, xt, ys, yt = x.sign_of(s), x.sign_of(t), y.sign_of(s), y.sign_of(t)
        zero_products = xs * yt == ZERO and xt * ys == ZERO
        matching = xs == yt and xt == ys
        if not (zero_products or matching):
            return False
    return True


@pytest.mark.parametrize(
    "ground",
    [GroundSet.complementary(n, with_q) for n in (1, 2) for with_q in (False, True)],
    ids=lambda g: "-".join(g.elements),
)
def test_pair_rules_match_their_name_based_definitions(ground):
    sets = [SignedSet.from_signs(ground, v) for v in itertools.product(SIGNS, repeat=ground.size)]
    assert len(sets) == 3 ** ground.size
    for c in sets:
        assert is_sign_reversing(c) == reference_sign_reversing(c), c
        assert _is_complementary(c) == reference_complementary(c), c
    pairs = [(x, y, reference_mv3_pair(x, y)) for x in sets for y in sets]
    assert [(x, y) for x, y, want in pairs if verify_mv3_pair(x, y) != want] == []
    # the MV3 condition holds on some pairs exactly when there is a q
    assert any(want for _, _, want in pairs) == (ground.q is not None)


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


def test_verify_mv2_accepts_exactly_a_missing_complementary_basis():
    # t1's column is zero, so a complementary set is a basis exactly when it holds s1.
    matrix = plcp_matrix(RationalMatrix.from_rows([[0, 0], [0, 1]]), (Fraction(1), Fraction(1)))
    oracle = RealizedOM(matrix, GroundSet.complementary(2, with_q=True))
    for instance in (oracle, oracle.to_explicit()):
        assert verify_certificate(MV2(frozenset({"t1", "s2"})), instance)
        assert verify_certificate(MV2(frozenset({"t1", "t2"})), instance)
        for basis in (
            {"s1", "t1"},  # a full pair
            {"s1", "q"},
            {"t1", "x"},  # an unknown name
            {"t1"},  # the wrong size
            {"t1", "s2", "t2"},
            {"s1", "s2"},  # a basis
            {"s1", "t2"},
        ):
            assert not verify_certificate(MV2(frozenset(basis)), instance), basis


def test_verify_mv3_through_oracle(ext):
    g = GroundSet.complementary(1, with_q=True)
    om = circuits_from_matrix(RationalMatrix.from_rows([[1, 1, -1]]), g)
    x = SignedSet.decode(g, "+0+")
    y = SignedSet.decode(g, "0++")
    cert = MV3(x, y)
    assert verify_certificate(cert, om)
    # against the genuine P-matroid extension the membership check fails
    assert not verify_certificate(cert, ext)


def test_certificates_over_another_ground_set_do_not_verify():
    # The same certificates over a ground set with other element names are
    # no certificates of the instance: each verifier returns False, and none
    # asks the oracle about names it does not hold.
    native = GroundSet.complementary(1, with_q=True)
    foreign = GroundSet(("a", "b", "q"), (("a", "b"),), "q")

    def certs(g):
        x, y = SignedSet.decode(g, "+0+"), SignedSet.decode(g, "0++")
        basis = frozenset({g.elements[0]})
        return [M1(x), MV1(SignedSet.decode(g, "+-0")), MV2(basis), MV3(x, y)]

    oracle = RealizedOM(RationalMatrix.from_rows([[1, 1, -1]]), native)
    for instance in (oracle, oracle.to_explicit()):
        for cert, valid in zip(certs(native), (True, True, False, True)):
            assert verify_certificate(cert, instance) is valid, cert
        for cert in certs(foreign):
            assert verify_certificate(cert, instance) is False, cert
    base = RealizedOM(RationalMatrix.from_rows([[1, 1]]), GroundSet.complementary(1))
    extension = ExtensionOM(lex_localization(base, "s1", PLUS))
    assert extension.ground == native
    for cert in certs(foreign):
        if not isinstance(cert, MV1):
            assert verify_certificate(cert, extension) is False, cert


def integer_lcp(seed: int) -> tuple[int, RationalMatrix]:
    """n = randint(2, 5), then M, then q, all entries randint(-5, 5), from
    one Random(seed); returns n and the configuration [I; -M; -q]."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = RationalMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    return n, plcp_matrix(m, tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)))


@pytest.mark.parametrize(
    "seed, v, w", [(148, "00000", "00110"), (201, "01", "11"), (288, "0100", "0101")]
)
def test_mv3_with_a_singular_all_s_completion_verifies(seed, v, w):
    # One circuit of each pair is zero on a whole pair, and taking s_i
    # there completes its support to a singular set; a later completion
    # is a basis, and the circuit is its C(B, q).
    n, matrix = integer_lcp(seed)
    ground = GroundSet.complementary(n, with_q=True)
    oracle = RealizedOM(matrix, ground)
    cert = map_back_uv1(oracle, vertex_from_name(v, n), vertex_from_name(w, n), n)
    assert isinstance(cert, MV3)
    all_s = [
        {t if c.sign_of(t) else s for s, t in ground.pairs} for c in (cert.x, cert.y)
    ]
    assert not all(map(oracle.is_basis, all_s))
    for instance in (RealizedOM(matrix, ground), oracle.to_explicit()):
        assert verify_certificate(cert, instance)


def test_every_back_mapped_certificate_of_an_integer_corpus_verifies():
    # Every sink and every Szabo-Welzl pair of 300 seeded integer LCPs,
    # degenerate and singular ones among them, maps back to a certificate
    # that verifies against a fresh oracle.
    kinds = set()
    for seed in range(300):
        n, matrix = integer_lcp(seed)
        ground = GroundSet.complementary(n, with_q=True)
        oracle = RealizedOM(matrix, ground)
        cube = klaus_orientation(oracle, n).materialize()
        out = [cube.outmap(v) for v in range(1 << n)]
        certs = [map_back_sink(oracle, v, n) for v in range(1 << n) if out[v] == (0, 0)]
        certs += [
            map_back_uv1(oracle, v, w, n)
            for v in range(1 << n)
            for w in range(v + 1, 1 << n)
            if is_sw_pair(v, w, out[v], out[w])
        ]
        for cert in certs:
            kinds.add(type(cert).__name__)
            assert verify_certificate(cert, RealizedOM(matrix, ground)), (seed, cert)
    assert kinds == {"M1", "MV2", "MV3"}


class NoBasis:
    """An oracle on which no set is a basis, recording what it is asked."""

    def __init__(self, ground: GroundSet):
        self.ground = ground
        self.asked: list[frozenset[str]] = []

    def query(self, basis, e):
        self.asked.append(frozenset(basis))
        return NOT_A_BASIS


def test_completions_are_asked_in_turn_and_guarded_after_the_first():
    # "+00000+" is zero on the pairs of dimensions 2 and 3: four
    # completions, all s_i first.  At 17 doubly-zero pairs the guard
    # refuses the 2^17 - 1 others after the first query.
    ground = GroundSet.complementary(3, with_q=True)
    oracle = NoBasis(ground)
    assert not verify_certificate(M1(SignedSet.decode(ground, "+00000+")), oracle)
    assert oracle.asked == [
        {"s1", "s2", "s3"}, {"s1", "s2", "t3"}, {"s1", "t2", "s3"}, {"s1", "t2", "t3"}
    ]
    ground = GroundSet.complementary(17, with_q=True)
    oracle = NoBasis(ground)
    with pytest.raises(SizeGuardError, match="completion pairs=17"):
        verify_certificate(M1(SignedSet(ground, 1 << 34, 0)), oracle)
    assert oracle.asked == [{f"s{i}" for i in range(1, 18)}]


def test_m1_on_a_zero_q_needs_one_query_at_n_40():
    # q = 0 is zero on every pair, so z = n: the first completion, S, is a
    # basis and decides.
    n = 40
    ground = GroundSet.complementary(n, with_q=True)
    oracle = RealizedOM(plcp_matrix(RationalMatrix.identity(n), (Fraction(0),) * n), ground)
    asked = []
    query = oracle.query
    oracle.query = lambda basis, e: asked.append(basis) or query(basis, e)
    assert verify_certificate(M1(SignedSet(ground, 1 << 2 * n, 0)), oracle)
    assert len(asked) == 1


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


def test_verifiers_reject_a_ground_set_without_pairs():
    # M1, MV2 and MV3 need q or pairs; MV1 needs pairs for sign reversal.
    g = GroundSet.plain(["a", "b"])
    om = ExplicitOM.from_encoded(g, ["+-", "-+"])
    z = SignedSet.decode(g, "+-")
    certs = [M1(z), MV1(z), MV2(frozenset({"a"})), MV3(z, z.negate())]
    assert [verify_certificate(c, om) for c in certs] == [False] * 4
