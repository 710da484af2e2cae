"""``ExplicitOM.query`` and ``check_circuit_axioms`` against the code they replaced.

The query reference decides basis-ness first, by the rank and by looking
for a circuit support inside the set, and only then scans the circuits in
encoded order for the one positive at e whose support lies in B + e.  The
one-pass query must give the same answer, or raise the same ``ValueError``
text, on realized instances and on circuit sets mutated into non-matroids.

The axiom-check reference compares signed sets, building the negation of
each circuit per pair, where the check compares ``(pos, neg)`` masks.
Both must report the same axiom, witnesses and element.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from omcp.om import NOT_A_BASIS, AxiomViolation, ExplicitOM, check_circuit_axioms
from omcp.realize import RationalMatrix, circuits_from_matrix
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
        other = SignedSet.from_signs(om.ground, tuple(signs))
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


def ref_check_circuit_axioms(circuits, ground=None):
    circs = sorted(set(circuits), key=lambda c: c.encode())
    if not circs:
        return None
    if ground is None:
        ground = circs[0].ground
    if any(c.ground != ground for c in circs):
        raise ValueError("circuits live on different ground sets")

    for c in circs:
        if c.is_zero:
            return AxiomViolation("C0", (c,))

    present = set(circs)
    for c in circs:
        if c.negate() not in present:
            return AxiomViolation("C1", (c,))

    masks = [(c.pos_mask, c.neg_mask) for c in circs]
    supports = [p | n for p, n in masks]
    for i, x in enumerate(circs):
        for j, y in enumerate(circs):
            if i == j:
                continue
            if supports[i] & ~supports[j] == 0 and x != y and x != y.negate():
                return AxiomViolation("C2", (x, y))

    for i, x in enumerate(circs):
        xp, xn = masks[i]
        for j, y in enumerate(circs):
            yp, yn = masks[j]
            if x == y.negate():
                continue
            elim = xp & yn
            if not elim:
                continue
            for k, name in enumerate(ground.elements):
                bit = 1 << k
                if not elim & bit:
                    continue
                allowed_pos = (xp | yp) & ~bit
                allowed_neg = (xn | yn) & ~bit
                if not any(
                    zp & ~allowed_pos == 0 and zn & ~allowed_neg == 0
                    for zp, zn in masks
                ):
                    return AxiomViolation("C3", (x, y), name)
    return None


def axiom_outcome(check, om):
    v = check(om.circuits)
    return None if v is None else (v.axiom, v.witnesses, v.element)


@settings(max_examples=150, deadline=None)
@given(mutated())
def test_axiom_check_matches_reference(om):
    assert axiom_outcome(check_circuit_axioms, om) == axiom_outcome(ref_check_circuit_axioms, om)


def mutants(om):
    """The instance, then per circuit: it dropped, it and its negation
    dropped, its composition with two other circuits added (alone and with
    the negation), and a second sign pattern on its support (alone and with
    the negation)."""
    circuits = sorted(om.circuits, key=lambda c: c.encode())
    yield om
    for i, c in enumerate(circuits):
        sets = [om.circuits - {c}, om.circuits - {c, c.negate()}]
        for d in (circuits[(i + 1) % len(circuits)], circuits[(i + 3) % len(circuits)]):
            x = c.compose(d)
            sets += [om.circuits | {x}, om.circuits | {x, x.negate()}]
        k = next(k for k, s in enumerate(c.signs) if s)
        signs = list(c.signs)
        signs[k] = -signs[k]
        x = SignedSet.from_signs(om.ground, tuple(signs))
        sets += [om.circuits | {x}, om.circuits | {x, x.negate()}]
        yield from (ExplicitOM(om.ground, frozenset(found)) for found in sets)


def test_axiom_check_matches_reference_on_mutants():
    rng = random.Random(2302)
    fired = set()
    for cols in (3, 4, 5, 5):
        rows = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(2)]
        om = circuits_from_matrix(RationalMatrix.from_rows(rows), GroundSet.plain("abcde"[:cols]))
        for mutant in mutants(om):
            got = axiom_outcome(check_circuit_axioms, mutant)
            assert got == axiom_outcome(ref_check_circuit_axioms, mutant)
            fired.add(got and got[0])
    assert {None, "C1", "C2", "C3"} <= fired
