import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from omcp.cube import (
    complete_downward,
    outmap_name,
    find_sw_violation,
    is_partially_sw,
    is_uso_exhaustive,
    sink_vertex,
    unoriented_faces,
)
from omcp.om import ExplicitOM
from omcp.pmatroid import (
    M1,
    MV2,
    MV3,
    find_sign_reversing_circuit,
    solve_omcp_bruteforce,
    verify_certificate,
)
from omcp.plcp import is_p_matrix, random_p_matrix, random_q
from omcp.realize import (
    RationalMatrix,
    RealizedOM,
    circuits_from_matrix,
    plcp_matrix,
)
from omcp.reduction import (
    klaus_orientation,
    map_back_sink,
    map_back_uv1,
    orient_vertex_partial,
    orient_vertex_total,
)
from omcp.signs import GroundSet, SignedSet

DATA = Path(__file__).parent / "data"


def realized(m_rows, q_values):
    m = RationalMatrix.from_rows(m_rows)
    q = tuple(Fraction(v) for v in q_values)
    n = m.rows
    return RealizedOM(plcp_matrix(m, q), GroundSet.complementary(n, with_q=True))


def test_vertex_basis_map():
    g = GroundSet.complementary(2, with_q=True)
    assert g.vertex_basis(0b00) == {"s1", "s2"}
    assert g.vertex_basis(0b01) == {"s1", "t2"}
    assert g.vertex_basis(0b10) == {"t1", "s2"}
    assert g.vertex_basis(0b11) == {"t1", "t2"}


@pytest.mark.parametrize(
    "ground, n",
    [(GroundSet.plain(["a", "b", "q"]), 1), (GroundSet.complementary(2, with_q=True), 3)],
    ids=["no-pairs", "pair-count"],
)
def test_vertex_basis_needs_a_matching_complementary_structure(ground, n):
    with pytest.raises(ValueError, match="complementary structure"):
        orient_vertex_total(SimpleNamespace(ground=ground), 0, n)


def test_orientation_one_edge_uso(ext):
    assert outmap_name(orient_vertex_total(ext, 0, 1), 1) == "+"
    assert outmap_name(orient_vertex_total(ext, 1, 1), 1) == "-"
    o = klaus_orientation(ext, 1).materialize()
    assert is_uso_exhaustive(o) and sink_vertex(o) == 1


def test_orientation_degenerate_case(ext_degenerate):
    assert outmap_name(orient_vertex_partial(ext_degenerate, 0, 1), 1) == "0"
    assert outmap_name(orient_vertex_partial(ext_degenerate, 1, 1), 1) == "0"
    assert outmap_name(orient_vertex_total(ext_degenerate, 0, 1), 1) == "-"
    assert outmap_name(orient_vertex_total(ext_degenerate, 1, 1), 1) == "+"
    o = klaus_orientation(ext_degenerate, 1).materialize()
    assert is_uso_exhaustive(o) and sink_vertex(o) == 0


def test_case_one_missing_basis_makes_sink():
    oracle = realized([[0]], [1])  # zero column: {t1} is not a basis
    assert outmap_name(orient_vertex_total(oracle, 1, 1), 1) == "-"
    with pytest.raises(ValueError):
        orient_vertex_partial(oracle, 1, 1)


def test_uniform_extension_has_no_partial_zeros():
    oracle = realized([[2, 0], [0, 3]], [1, 1])
    for v in range(4):
        assert "0" not in outmap_name(orient_vertex_partial(oracle, v, 2), 2)


def test_partial_completion_matches_total():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.choice([2, 3])
        m = random_p_matrix(n, rng)
        styles = [
            tuple(Fraction(0) for _ in range(n)),
            tuple(-m.entries[r][0] for r in range(n)),
            random_q(n, rng),
        ]
        q = styles[rng.randrange(3)]
        oracle = RealizedOM(plcp_matrix(m, q), GroundSet.complementary(n, with_q=True))
        partial = klaus_orientation(oracle, n, partial=True).materialize()
        total = klaus_orientation(oracle, n).materialize()
        assert complete_downward(partial).to_outmaps() == total.to_outmaps()


def test_ppu_structure_on_p_extensions():
    rng = random.Random(37)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        m = random_p_matrix(n, rng)
        q = random_q(n, rng)
        if rng.random() < 0.5:
            q = tuple(Fraction(0) if rng.random() < 0.5 else v for v in q)
        oracle = RealizedOM(plcp_matrix(m, q), GroundSet.complementary(n, with_q=True))
        ppu = klaus_orientation(oracle, n, partial=True).materialize()
        ok, witness = is_partially_sw(ppu)
        assert ok, witness
        unoriented_faces(ppu)  # raises when not disjoint hypervertices
        assert is_uso_exhaustive(complete_downward(ppu))


def test_one_query_per_vertex(ext):
    calls = []
    original = ext.query_vertex

    class Counting:
        ground = ext.ground

        def query_vertex(self, v):
            calls.append(v)
            return original(v)

    o = klaus_orientation(Counting(), 1)
    o.outmap(0)
    o.outmap(1)
    assert len(calls) == 2


def test_map_back_sink(ext, ext_degenerate):
    cert = map_back_sink(ext, 1, 1)
    assert cert == M1(ext.query(frozenset({"t1"}), "q"))
    assert cert.circuit.encode() == "0++"
    cert2 = map_back_sink(ext_degenerate, 0, 1)
    assert cert2.circuit.encode() == "00+"
    assert verify_certificate(cert, ext) and verify_certificate(cert2, ext_degenerate)
    with pytest.raises(ValueError):
        map_back_sink(ext, 0, 1)


def test_map_back_sink_mv2():
    oracle = realized([[0]], [1])
    cert = map_back_sink(oracle, 1, 1)
    assert isinstance(cert, MV2) and cert.basis == frozenset({"t1"})
    assert verify_certificate(cert, oracle)


def test_map_back_uv1_two_sinks():
    # parallel s1, t1 with q making both vertices sinks
    g = GroundSet.complementary(1, with_q=True)
    om = circuits_from_matrix(RationalMatrix.from_rows([[1, 1, -1]]), g)
    o = klaus_orientation(om, 1).materialize()
    violation = find_sw_violation(o)
    assert violation == (0, 1)
    cert = map_back_uv1(om, *violation, 1)
    assert isinstance(cert, MV3)
    assert verify_certificate(cert, om)
    # the violation certifies a genuine sign-reversing circuit downstairs
    assert find_sign_reversing_circuit(om.minor_delete("q")) is not None


def test_map_back_uv1_two_sources():
    g = GroundSet.complementary(1, with_q=True)
    om = circuits_from_matrix(RationalMatrix.from_rows([[1, 1, 1]]), g)
    o = klaus_orientation(om, 1).materialize()
    violation = find_sw_violation(o)
    assert violation is not None
    cert = map_back_uv1(om, *violation, 1)
    assert isinstance(cert, MV3) and verify_certificate(cert, om)
    assert solve_omcp_bruteforce(om, 1) is None


def test_map_back_uv1_mv2():
    oracle = realized([[0]], [1])
    # both vertices are sinks (one via case 1), a Szabo-Welzl violation
    cert = map_back_uv1(oracle, 0, 1, 1)
    assert isinstance(cert, MV2)
    assert verify_certificate(cert, oracle)


def test_map_back_uv1_rejects_non_violation(ext):
    with pytest.raises(ValueError):
        map_back_uv1(ext, 0, 1, 1)


def test_map_back_uv1_checks_the_pair_before_mv2():
    # tests/data/lcp3_singular.json: B(001) is singular, so 001 is a sink,
    # and 011 points back at it along dimension 1: no violation, so no MV2.
    oracle = realized([[0, 3, -2], [2, -3, -2], [-3, -1, 0]], [3, -2, 0])
    assert not oracle.is_basis(oracle.ground.vertex_basis(0b001))
    with pytest.raises(ValueError, match="not a Szabo-Welzl violation"):
        map_back_uv1(oracle, 0b001, 0b011, 3)


def test_p_extension_orientations_are_usos():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.choice([2, 3])
        m = random_p_matrix(n, rng)
        q = random_q(n, rng)
        oracle = RealizedOM(plcp_matrix(m, q), GroundSet.complementary(n, with_q=True))
        o = klaus_orientation(oracle, n).materialize()
        assert find_sw_violation(o) is None
        cert = map_back_sink(oracle, sink_vertex(o), n)
        assert isinstance(cert, M1)
        assert cert == solve_omcp_bruteforce(oracle, n)


def partial_or_none(oracle, v, n):
    """The partial outmap of v, or None when B(v) is not a basis."""
    try:
        return orient_vertex_partial(oracle, v, n)
    except ValueError:
        return None


@pytest.mark.parametrize(
    "name", ["lcp5_degenerate", "lcp3_singular", "lcp3_nonp", "lcp2_two_singular"]
)
def test_swapping_a_complementary_pair_mirrors_the_cube(name):
    """Exchanging the columns of s_i and t_i relabels vertex v as v ^ e_i.

    B(v) of the swapped matrix takes the columns of B(v ^ e_i) of the
    original under the same element names per dimension, so both the
    partial outmaps and the missing bases must match.
    """
    data = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    m = RationalMatrix.from_rows(data["M"])
    q = tuple(Fraction(v) for v in data["q"])
    n = m.rows
    ground = GroundSet.complementary(n, with_q=True)
    original = RealizedOM(plcp_matrix(m, q), ground)
    for i in range(n):
        rows = [list(row) for row in plcp_matrix(m, q).entries]
        for row in rows:
            row[i], row[n + i] = row[n + i], row[i]
        swapped = RealizedOM(RationalMatrix.from_rows(rows), ground)
        e_i = 1 << (n - 1 - i)
        for a, b in ((original, swapped), (original.to_explicit(), swapped.to_explicit())):
            for v in range(1 << n):
                assert partial_or_none(b, v, n) == partial_or_none(a, v ^ e_i, n), (i, v)


def permutation_law_instances():
    """Seeded (label, M, q) at n = 2..5: a P-LCP, the same M with zeros in
    q (degenerate), and an integer matrix that is no P-matrix."""
    rng = random.Random(26)
    cases = []
    for n in range(2, 6):
        m = random_p_matrix(n, rng)
        cases.append((f"p{n}", m, random_q(n, rng)))
        q = list(random_q(n, rng))
        for i in rng.sample(range(n), (n + 1) // 2):
            q[i] = Fraction(0)
        cases.append((f"degenerate{n}", m, tuple(q)))
        while True:
            non_p = RationalMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            if not is_p_matrix(non_p)[0]:
                break
        cases.append((f"nonp{n}", non_p, tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))))
    return cases


def cube_table(oracle, n):
    """Per vertex in vertex order: the total outmap of the materialized cube
    and the partial outmap, None where B(v) is not a basis."""
    total = klaus_orientation(oracle, n).materialize()
    return [(total.outmap(v), partial_or_none(oracle, v, n)) for v in range(1 << n)]


@pytest.mark.parametrize(
    "label, m, q", permutation_law_instances(), ids=[c[0] for c in permutation_law_instances()]
)
def test_permuting_the_pairs_permutes_the_dimensions(label, m, q):
    """(PMP^T, Pq) relabels dimension perm[i] of (M, q) as dimension i.

    B(v) of the permuted instance takes the columns of B(u) of the original,
    where u holds at dimension perm[i] the bit of v at dimension i, so the
    total and partial outmaps, with their bits permuted the same way, and
    the missing bases must match.  So must the certificates: M1 and MV3
    circuits and MV2 bases relabelled the same way, and each verifies.
    """
    n = m.rows
    rng = random.Random(label)
    perm = rng.sample(range(n), n)
    if perm == sorted(perm):
        perm.reverse()
    moved = RationalMatrix(tuple(tuple(m.entries[a][b] for b in perm) for a in perm))
    ground = GroundSet.complementary(n, with_q=True)
    original = RealizedOM(plcp_matrix(m, q), ground)
    permuted = RealizedOM(plcp_matrix(moved, tuple(q[a] for a in perm)), ground)

    def relabel(v):  # a vertex or outmap mask of the original, in the permuted bits
        return sum(1 << n - 1 - i for i in range(n) if v >> n - 1 - perm[i] & 1)

    def relabel_out(out):
        return None if out is None else (relabel(out[0]), relabel(out[1]))

    explicit = (original.to_explicit(), permuted.to_explicit())
    for a, b in ((original, permuted), explicit):
        want, got = cube_table(a, n), cube_table(b, n)
        for v in range(1 << n):
            total, partial = want[v]
            assert got[relabel(v)] == (relabel_out(total), relabel_out(partial)), (perm, v)

    order = perm + [n + a for a in perm] + [2 * n]  # ground index k of the permuted reads order[k]
    names = {f"{side}{perm[i] + 1}": f"{side}{i + 1}" for i in range(n) for side in "st"}

    def relabel_set(c):
        return SignedSet.from_signs(ground, [c.signs[k] for k in order])

    def relabel_cert(cert):
        if isinstance(cert, M1):
            return M1(relabel_set(cert.circuit))
        if isinstance(cert, MV2):
            return MV2(frozenset(names[e] for e in cert.basis))
        return MV3(relabel_set(cert.x), relabel_set(cert.y))

    total = klaus_orientation(original, n).materialize()
    sinks = [v for v in range(1 << n) if total.outmap(v) == (0, 0)]
    pair = find_sw_violation(total)
    certs = []
    if sinks:
        v = sinks[0]
        certs.append((map_back_sink(original, v, n), map_back_sink(permuted, relabel(v), n)))
    if pair is not None:
        v, w = pair
        certs.append(
            (map_back_uv1(original, v, w, n), map_back_uv1(permuted, relabel(v), relabel(w), n))
        )
    assert certs, label
    for cert, moved_cert in certs:
        assert moved_cert == relabel_cert(cert), (perm, cert)
        for instance in (original, explicit[0]):
            assert verify_certificate(cert, instance), cert
        for instance in (permuted, explicit[1]):
            assert verify_certificate(moved_cert, instance), moved_cert
