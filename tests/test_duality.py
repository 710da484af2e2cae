"""Cocircuits of an explicit oriented matroid against their definition.

``ExplicitOM`` reads its cocircuits off its fundamental circuits by basis
orthogonality.  The reference here is the definition itself: the
inclusion-minimal non-zero sign vectors orthogonal to every circuit,
found by scanning all 3^|E| sign vectors (so at most 7 elements).
"""

import itertools
import random
from fractions import Fraction

from omcp.extend import LexAtom, Localization, materialize_extension
from omcp.realize import RationalMatrix, RealizedOM, circuits_from_matrix
from omcp.signs import SIGNS, GroundSet, SignedSet


def reference_cocircuits(om) -> frozenset[SignedSet]:
    m = om.ground.size
    assert m <= 7

    def orthogonal(x):
        for c in om.circuits:
            products = {a * b for a, b in zip(x, c.signs)} - {0}
            if products and len(products) != 2:
                return False
        return True

    def support(x):
        return frozenset(k for k, s in enumerate(x) if s)

    candidates = [x for x in itertools.product(SIGNS, repeat=m) if any(x) and orthogonal(x)]
    supports = {support(x) for x in candidates}
    return frozenset(
        SignedSet.from_signs(om.ground, x)
        for x in candidates
        if not any(t < support(x) for t in supports)
    )


def assert_matches_reference(om) -> None:
    expected = reference_cocircuits(om)
    assert om.cocircuits() == expected
    for basis in om.bases():
        for e in basis:
            avoid = basis - {e}
            (d,) = [
                y for y in expected
                if y.sign_of(e) > 0 and not any(y.sign_of(b) for b in avoid)
            ]
            assert om.fundamental_cocircuit(basis, e) == d


def seeded_realizations(seed: int, count: int, max_cols: int):
    """Full-row-rank rank-1..3 matrices with a zero column (a loop) and a
    scaled copy of another column (a parallel or antiparallel pair)."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        rank = rng.randint(1, 3)
        cols = rng.randint(rank + 2, max_cols)
        columns = [[Fraction(rng.randint(-2, 2)) for _ in range(rank)] for _ in range(cols)]
        zero, copy, source = rng.sample(range(cols), 3)
        columns[zero] = [Fraction(0)] * rank
        factor = rng.choice([-2, -1, 1, 2])
        columns[copy] = [factor * v for v in columns[source]]
        matrix = RationalMatrix(tuple(tuple(col[i] for col in columns) for i in range(rank)))
        ground = GroundSet.plain("abcdef"[:cols])
        try:
            realized = RealizedOM(matrix, ground)
        except ValueError:
            continue
        found += 1
        yield realized, circuits_from_matrix(matrix, ground)


def test_matrix_cocircuits_match_definition():
    for _, explicit in seeded_realizations(seed=3, count=60, max_cols=6):
        assert_matches_reference(explicit)


def test_extension_cocircuits_match_definition():
    rng = random.Random(5)
    for realized, _ in seeded_realizations(seed=7, count=60, max_cols=6):
        atoms = tuple(
            LexAtom(rng.choice(realized.ground.elements), rng.choice([-1, 1]))
            for _ in range(rng.randint(0, 3))
        )
        assert_matches_reference(materialize_extension(Localization(realized, atoms)))
