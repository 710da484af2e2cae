"""``ExplicitOM.query`` against the basis test and circuit scan it replaced.

The reference decides basis-ness first, by the rank and by looking for a
circuit support inside the set, and only then scans the circuits in
encoded order for the one positive at e whose support lies in B + e.  The
one-pass query must give the same answer, or raise the same ``ValueError``
text, on realized instances and on circuit sets mutated into non-matroids.
"""

import itertools

from hypothesis import given, settings, strategies as st

from omcp.om import NOT_A_BASIS, ExplicitOM
from omcp.realize import circuits_from_matrix
from omcp.signs import PLUS, GroundSet, SignedSet
from conftest import EXT_CIRCUITS
from test_realize import configurations


def ref_mask(ground, names):
    m = 0
    for name in names:
        m |= 1 << ground.index(name)
    return m


def ref_rank(om):
    current = size = 0
    for k in range(om.ground.size):
        candidate = current | (1 << k)
        if not any(c.support_mask & ~candidate == 0 for c in om.circuits):
            current = candidate
            size += 1
    return size


def ref_is_basis(om, names):
    if len(names) != ref_rank(om):
        return False
    m = ref_mask(om.ground, names)
    return not any(c.support_mask & ~m == 0 for c in om.circuits)


def ref_query(om, basis, e):
    names = frozenset(basis)
    if e in names:
        raise ValueError("oracle element must lie outside the queried set")
    om.ground.index(e)
    if not ref_is_basis(om, names):
        return NOT_A_BASIS
    allowed = ref_mask(om.ground, names) | (1 << om.ground.index(e))
    found = None
    for c in sorted(om.circuits, key=lambda c: c.encode()):
        if c.sign_of(e) == PLUS and c.support_mask & ~allowed == 0:
            if found is not None:
                raise ValueError("fundamental circuit is not unique; not a matroid")
            found = c
    if found is None:
        raise ValueError("no fundamental circuit found; circuit set is not a matroid")
    return found


def outcome(query, om, basis, e):
    try:
        return query(om, basis, e)
    except ValueError as exc:
        return "ValueError: " + str(exc)


def checked_outcomes(om):
    """The query's outcomes on every set of size rank - 1 .. rank + 1, every
    element, and the basis-sized sets with one name off the ground set, each
    checked against the reference's."""
    rank = ref_rank(om)
    elements = om.ground.elements
    queries = [
        (basis, e)
        for size in range(max(rank - 1, 0), min(rank + 1, len(elements)) + 1)
        for basis in itertools.combinations(elements, size)
        for e in elements + ("zz",)
    ]
    queries += [((*basis[1:], "zz"), e) for basis, e in queries if len(basis) == rank and basis]
    result = set()
    for basis, e in queries:
        got = outcome(ExplicitOM.query, om, basis, e)
        assert got == outcome(ref_query, om, basis, e), (basis, e)
        result.add(got)
    return result


@st.composite
def mutated(draw):
    """A realized circuit set, as is or mutated: one circuit dropped, the
    composition of two added, or a second sign pattern on one support."""
    matrix = draw(configurations())
    om = circuits_from_matrix(matrix, GroundSet.plain("abcdefg"[: matrix.cols]))
    circuits = sorted(om.circuits, key=lambda c: c.encode())
    kind = draw(st.sampled_from(["none", "drop", "compose", "second-pattern"]))
    if not circuits or kind == "none":
        return om
    pick = st.sampled_from(circuits)
    found = set(circuits)
    if kind == "drop":
        found.discard(draw(pick))
    elif kind == "compose":
        found.add(draw(pick).compose(draw(pick)))
    else:
        c = draw(pick)
        support = [k for k, s in enumerate(c.signs) if s]
        if len(support) < 2:
            return om
        k = draw(st.sampled_from(support))
        signs = list(c.signs)
        signs[k] = -signs[k]
        other = SignedSet(om.ground, tuple(signs))
        found.add(other)
        if draw(st.booleans()):
            found.add(other.negate())
    return ExplicitOM(om.ground, frozenset(found))


@settings(max_examples=150, deadline=None)
@given(mutated())
def test_query_matches_reference(om):
    checked_outcomes(om)


def test_query_matches_reference_on_non_matroid_errors():
    """Both error texts are reached: a second pattern on the support {s1, q}
    gives two candidates for C({s1}, q), and dropping -0+ leaves none."""
    ground = GroundSet.complementary(1, with_q=True)
    twice = ExplicitOM.from_encoded(ground, EXT_CIRCUITS + ["+0+", "-0-"])
    missing = ExplicitOM.from_encoded(ground, [c for c in EXT_CIRCUITS if c != "-0+"])
    not_unique = "ValueError: fundamental circuit is not unique; not a matroid"
    no_circuit = "ValueError: no fundamental circuit found; circuit set is not a matroid"
    assert not_unique in checked_outcomes(twice)
    assert no_circuit in checked_outcomes(missing)
