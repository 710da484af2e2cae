"""The vertex entry and the names path of every oracle agree.

``query_vertex(v)`` hands the ground-index mask of B(v) to an oracle's
mask core, and ``query(B(v), "q")`` reaches the same core from the names.
On every vertex, both must give the same C(B(v), q) or both NotABasis, for
``RealizedOM``, its ``to_explicit()``, and ``ExtensionOM`` over either
kind of base, with atom lists and with an explicit table.  The two paths
run on separate oracles, so the principal-pivot stack and the basis cache
of one never answer for the other.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omcp.extend import ExtensionOM, LexAtom, Localization
from omcp.om import NotABasis
from omcp.plcp import localization_from_q
from omcp.realize import RationalMatrix, RealizedOM, hstack, negated, plcp_matrix
from omcp.signs import MINUS, PLUS, ZERO, GroundSet

DATA = Path(__file__).parent / "data"


def by_name(oracle, v):
    answer = oracle.query(oracle.ground.vertex_basis(v), "q")
    return None if isinstance(answer, NotABasis) else (answer.pos_mask, answer.neg_mask)


def oracle_pairs(m: RationalMatrix, q, atom_lists):
    """(label, make) per oracle kind; ``make()`` builds a fresh oracle."""
    n = m.rows
    matrix = plcp_matrix(m, tuple(q))
    ground = GroundSet.complementary(n, with_q=True)
    base_matrix = hstack(RationalMatrix.identity(n), negated(m))
    base_ground = GroundSet.complementary(n)
    realized_base = RealizedOM(base_matrix, base_ground)
    explicit_base = realized_base.to_explicit()
    table = localization_from_q(realized_base, tuple(q)).table
    kinds = [
        ("realized", lambda: RealizedOM(matrix, ground)),
        ("explicit", lambda: RealizedOM(matrix, ground).to_explicit()),
    ]
    for k, atoms in enumerate(atom_lists):
        kinds.append((f"atoms{k}-realized", lambda atoms=atoms: ExtensionOM(
            Localization(RealizedOM(base_matrix, base_ground), atoms))))
        kinds.append((f"atoms{k}-explicit", lambda atoms=atoms: ExtensionOM(
            Localization(explicit_base, atoms))))
    kinds.append(("table-realized", lambda: ExtensionOM(
        Localization(RealizedOM(base_matrix, base_ground), (), table))))
    kinds.append(("table-explicit", lambda: ExtensionOM(Localization(explicit_base, (), table))))
    return kinds


def assert_paths_agree(m: RationalMatrix, q, atom_lists, order):
    n = m.rows
    for label, make in oracle_pairs(m, q, atom_lists):
        by_vertex, by_names = make(), make()
        for v in order:
            got = by_vertex.query_vertex(v)
            assert got == by_name(by_names, v), (label, v)
            if got is not None:
                # + at q, and the support lies in B(v) + q
                q_bit = 1 << 2 * n
                assert got[0] & q_bit
                assert (got[0] | got[1]) & ~(by_vertex.ground.vertex_mask(v) | q_bit) == 0


def atom_lists_for(n: int, rng: random.Random):
    elements = GroundSet.complementary(n).elements
    lists = [
        tuple(LexAtom(f"t{i + 1}", MINUS) for i in range(n)),
        (LexAtom("s1", ZERO), LexAtom(elements[-1], PLUS), LexAtom("s1", MINUS)),
    ]
    lists.append(tuple(
        LexAtom(rng.choice(elements), rng.choice((MINUS, ZERO, PLUS)))
        for _ in range(rng.randint(1, n + 2))
    ))
    return lists


@pytest.mark.parametrize(
    "name", ["lcp5_degenerate", "lcp3_singular", "lcp2_two_singular", "lcp3_nonp"]
)
def test_vertex_entry_matches_the_names_path_on_data_files(name):
    data = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    m = RationalMatrix.from_rows(data["M"])
    q = tuple(Fraction(v) for v in data["q"])
    n = m.rows
    rng = random.Random(n)
    gray = [v ^ v >> 1 for v in range(1 << n)]
    scattered = rng.sample(range(1 << n), 1 << n)
    assert_paths_agree(m, q, atom_lists_for(n, rng), gray + scattered + list(range(1 << n)))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_vertex_entry_matches_the_names_path(data):
    n = data.draw(st.integers(1, 4))
    entries = st.integers(-1, 1)
    m = RationalMatrix.from_rows([[data.draw(entries) for _ in range(n)] for _ in range(n)])
    q = [Fraction(data.draw(entries)) for _ in range(n)]
    elements = GroundSet.complementary(n).elements
    atoms = st.builds(LexAtom, st.sampled_from(elements), st.sampled_from((MINUS, ZERO, PLUS)))
    atom_lists = [tuple(data.draw(st.lists(atoms, max_size=n + 2)))]
    order = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3 << n))
    assert_paths_agree(m, q, atom_lists, order)
