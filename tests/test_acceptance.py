"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints one PASS/FAIL line
(visible with ``pytest -s``), checks exact values only, and enforces the
stated runtime budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from omcp.adversary import AdversaryState, random_uniform_base, run_game, ss_forcing_run
from omcp.cube import (
    Orientation,
    complete_downward,
    enumerate_usos,
    find_sw_violation,
    holt_klee_value,
    is_partially_sw,
    is_uso_exhaustive,
    mirrored_down_orientation,
    outmap_name,
    refill_hypervertex,
    sink_vertex,
    unoriented_faces,
)
from omcp.extend import ExtensionOM, lex_localization
from omcp.om import ExplicitOM
from omcp.pmatroid import (
    M1,
    MV2,
    MV3,
    check_complementary_bases,
    find_sign_reversing_circuit,
    is_degenerate,
    is_p_matroid,
    solve_omcp_bruteforce,
    verify_certificate,
)
from omcp.plcp import plcp_ppu, random_p_matrix, random_q
from omcp.realize import (
    RationalMatrix,
    RealizedOM,
    circuits_from_matrix,
    hstack,
    is_generic,
    negated,
    omcp_from_plcp,
    plcp_matrix,
)
from omcp.reduction import klaus_orientation, map_back_sink, map_back_uv1
from omcp.signs import MINUS, GroundSet, SignedSet

from conftest import (
    EXT_CIRCUITS,
    EXT_DEGENERATE_CIRCUITS,
    NON_PM_CIRCUITS,
    PM_CIRCUITS,
)

SEED = 20250810


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def load_examples():
    g1 = GroundSet.complementary(1)
    g1q = GroundSet.complementary(1, with_q=True)
    return (
        ExplicitOM.from_encoded(g1, PM_CIRCUITS),
        ExplicitOM.from_encoded(g1, NON_PM_CIRCUITS),
        ExplicitOM.from_encoded(g1q, EXT_CIRCUITS),
        ExplicitOM.from_encoded(g1q, EXT_DEGENERATE_CIRCUITS),
    )


def test_criterion_1_example_fidelity():
    with criterion(1, "example fidelity", 1.0):
        pm, non_pm, ext, ext_degenerate = load_examples()
        assert is_p_matroid(pm).is_p
        result = is_p_matroid(non_pm)
        assert not result.is_p and result.sign_reversing.encode() == "+-"
        assert solve_omcp_bruteforce(ext, 1).circuit.encode() == "0++"
        assert solve_omcp_bruteforce(ext_degenerate, 1).circuit.encode() == "00+"


def test_criterion_2_reduction_fidelity():
    with criterion(2, "reduction fidelity", 1.0):
        _, _, ext, ext_degenerate = load_examples()
        uso = klaus_orientation(ext, 1).materialize()
        assert uso.to_outmaps() == ["+", "-"]  # the edge points from 0 to 1
        assert is_uso_exhaustive(uso) and sink_vertex(uso) == 1

        partial = klaus_orientation(ext_degenerate, 1, partial=True).materialize()
        assert partial.to_outmaps() == ["0", "0"]  # fully unoriented
        completed = complete_downward(partial)
        assert is_uso_exhaustive(completed) and sink_vertex(completed) == 0


def test_criterion_3_structural_theorems_on_corpus():
    with criterion(3, "structural theorems on corpus", 120.0):
        rng = random.Random(SEED)
        instances = 0
        while instances < 200:
            n = 2 + instances % 3
            m = random_p_matrix(n, rng)
            style = instances % 5
            if style == 0:
                q = tuple(Fraction(0) for _ in range(n))
            elif style == 1:
                i = rng.randrange(n)
                q = tuple(-m.entries[r][i] for r in range(n))
            elif style == 2:
                i = rng.randrange(n)
                q = tuple(Fraction(int(r == i)) for r in range(n))
            elif style == 3:
                q = tuple(
                    Fraction(0) if rng.random() < 0.4 else v
                    for v in random_q(n, rng)
                )
            else:
                q = random_q(n, rng)
            oracle = RealizedOM(
                plcp_matrix(m, q), GroundSet.complementary(n, with_q=True)
            )
            ppu = klaus_orientation(oracle, n, partial=True).materialize()

            ok, witness = is_partially_sw(ppu)
            assert ok, (m.entries, q, witness)
            faces = unoriented_faces(ppu)  # raises unless disjoint hypervertices
            completed = complete_downward(ppu)
            assert is_uso_exhaustive(completed), (m.entries, q)

            refilled = ppu
            for face in faces:
                flips = [d for d in range(face.dim) if rng.random() < 0.5]
                inner = mirrored_down_orientation(face.dim, flips)
                refilled = refill_hypervertex(refilled, face, inner)
            assert refilled.is_total()
            assert is_uso_exhaustive(refilled), (m.entries, q)
            instances += 1
        assert instances >= 200


def test_criterion_4_lexicographic_structure():
    with criterion(4, "lexicographic structure", 10.0):
        rng = random.Random(SEED + 1)
        for n in (2, 3):
            base = random_uniform_base(n, rng)
            for i in range(n):
                sigma = lex_localization(base, f"t{i + 1}", MINUS)
                ppu = klaus_orientation(ExtensionOM(sigma), n, partial=True).materialize()
                faces = unoriented_faces(ppu)
                assert len(faces) == 1
                face = faces[0]
                # exactly the upper i-facet, nothing else unoriented
                assert dict(face.fixed) == {i: 1}
                assert face.spanned == frozenset(d for d in range(n) if d != i)
                for v in ppu.vertices():
                    out = outmap_name(ppu.outmap(v), n)
                    if face.contains(v):
                        assert out[i] == "-"  # hypersink: incoming edges only
                        assert all(out[d] == "0" for d in face.spanned)
                    else:
                        assert "0" not in out


def test_criterion_5_lower_bound():
    with criterion(5, "query lower bound", 120.0):
        rng = random.Random(SEED + 2)
        for n in range(1, 7):
            trials = 0
            for _ in range(25):
                base = random_uniform_base(n, rng)
                for algo in ("ordered-scan", "jump"):
                    result = run_game(algo, AdversaryState(base))
                    # run_game already re-verifies the sink and transcript
                    assert result.query_count >= n, (n, algo)
                    degenerate, _ = is_degenerate(result.oracle, n)
                    assert not degenerate, (n, algo)
                    trials += 1
            assert trials >= 50


def test_criterion_6_plcp_equivalence():
    with criterion(6, "plcp equivalence", 60.0):
        rng = random.Random(SEED + 3)
        for n in range(1, 5):
            m = random_p_matrix(n, rng)
            qs = [
                tuple(Fraction(0) for _ in range(n)),
                random_q(n, rng),
                random_q(n, rng),
            ]
            for i in range(n):
                qs.append(tuple(-m.entries[r][i] for r in range(n)))
            for q in qs:
                oracle = RealizedOM(
                    plcp_matrix(m, q), GroundSet.complementary(n, with_q=True)
                )
                direct = plcp_ppu(m, q)
                via_matroid = klaus_orientation(oracle, n, partial=True).materialize()
                assert direct.to_outmaps() == via_matroid.to_outmaps(), (n, q)

        # lexicographic q-vectors realize the corresponding atoms
        for n in (2, 3):
            base = random_uniform_base(n, rng)
            m_cols = negated(
                RationalMatrix(tuple(tuple(row[n:]) for row in base.matrix.entries))
            )
            for i in range(n):
                q = tuple(-m_cols.entries[r][i] for r in range(n))
                direct = plcp_ppu(m_cols, q)
                sigma = lex_localization(base, f"t{i + 1}", MINUS)
                via_sigma = klaus_orientation(
                    ExtensionOM(sigma), n, partial=True
                ).materialize()
                assert direct.to_outmaps() == via_sigma.to_outmaps(), (n, i)


def non_p_instances():
    """Constructed instances whose base matroids are not P-matroids."""
    cases = [
        ([[-1]], [1]),
        ([[-1]], [-1]),
        ([[0]], [1]),
        ([[0]], [-1]),
        ([[-1, 0], [0, 1]], [1, 1]),
        ([[-1, 0], [0, 1]], [-1, 2]),
        ([[0, 1], [1, 0]], [1, -1]),
        ([[1, 3], [3, 1]], [1, 1]),
        ([[1, 3], [3, 1]], [-2, 1]),
        ([[0, 0], [1, 1]], [1, 1]),
    ]
    for rows, q in cases:
        m = RationalMatrix.from_rows(rows)
        yield m, tuple(Fraction(v) for v in q)


def test_criterion_7_total_search_soundness():
    with criterion(7, "total search soundness", 60.0):
        rng = random.Random(SEED + 4)
        mv3_seen = 0
        for m, q in non_p_instances():
            n = m.rows
            ground = GroundSet.complementary(n, with_q=True)
            explicit = omcp_from_plcp(m, q)
            orientation = klaus_orientation(explicit, n).materialize()
            violation = find_sw_violation(orientation)
            if violation is None:
                sink = sink_vertex(orientation)
                cert = map_back_sink(explicit, sink, n)
                assert isinstance(cert, (M1, MV2))
            else:
                cert = map_back_uv1(explicit, *violation, n)
                assert isinstance(cert, (MV3, MV2))
            assert verify_certificate(cert, explicit)
            if isinstance(cert, MV3):
                mv3_seen += 1
                # brute-force confirmation on the same instance
                minor = explicit.minor_delete("q")
                sign_reversing = find_sign_reversing_circuit(minor)
                missing_basis = check_complementary_bases(explicit, n)
                assert sign_reversing is not None or missing_basis is not None
        assert mv3_seen >= 2


def test_criterion_8_forcing_construction():
    with criterion(8, "forcing construction", 5.0):
        forced = ss_forcing_run(8)
        assert forced.n == 3
        assert is_uso_exhaustive(forced)
        assert holt_klee_value(forced) == 2  # strictly below the dimension


def test_criterion_9_oracle_crosschecks():
    with criterion(9, "oracle cross-checks", 60.0):
        g1 = GroundSet.complementary(1)
        g1q = GroundSet.complementary(1, with_q=True)
        corpus = list(load_examples())
        corpus.append(ExplicitOM(GroundSet.plain(["a", "b"]), frozenset()))
        corpus.append(ExplicitOM(GroundSet.plain(["a", "b", "c"]), frozenset()))
        corpus.append(
            circuits_from_matrix(RationalMatrix.from_rows([[1, -1]]), g1)
        )
        corpus.append(
            circuits_from_matrix(RationalMatrix.from_rows([[1, 1, -1]]), g1q)
        )
        corpus.append(
            circuits_from_matrix(RationalMatrix.from_rows([[1, 1, 1]]), g1q)
        )
        m2 = RationalMatrix.from_rows([[2, 0], [0, 3]])
        corpus.append(
            circuits_from_matrix(
                hstack(RationalMatrix.identity(2), negated(m2)),
                GroundSet.complementary(2),
            )
        )
        corpus.append(
            omcp_from_plcp(m2, (Fraction(1), Fraction(1)))
        )
        rng = random.Random(SEED + 5)
        corpus.append(random_uniform_base(2, rng).to_explicit())

        for om in corpus:
            assert om.ground.size <= 6
            assert om.dual().dual().circuits == om.circuits
            for x in om.circuits:
                for y in om.cocircuits():
                    assert x.orthogonal(y)

        assert len(enumerate_usos(1)) == 2
        assert len(enumerate_usos(2)) == 12
        assert len(enumerate_usos(3)) == 744
