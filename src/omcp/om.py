"""Explicit-circuit oriented matroids.

An :class:`ExplicitOM` stores its circuits as signed sets and answers the
standard structural questions: circuit-axiom checking, bases and rank,
uniformity, fundamental circuits, cocircuits read off the fundamental
circuits by basis orthogonality, and single-element deletion.  It also
implements the circuit oracle protocol ``query(B, e) -> NotABasis |
SignedSet`` used throughout the pipeline, so explicit matroids can stand
in wherever an oracle is expected.  This one, ``RealizedOM`` and
``ExtensionOM`` share :class:`CircuitOracle`: both ``query`` and the
vertex entry ``query_vertex(v)`` reach one mask core per oracle.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .guards import DUALITY_ELEMENTS, check
from .signs import ZERO, GroundSet, SignedSet


class NotABasis:
    """Oracle answer for a query whose set is not a basis."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NotABasis"


NOT_A_BASIS = NotABasis()


@dataclass(frozen=True)
class AxiomViolation:
    """Witnessed failure of one of the circuit axioms C0-C3.

    The witnesses reproduce the violation: re-checking the named axiom on
    them (and the element, for C3) fails again.
    """

    axiom: str
    witnesses: tuple[SignedSet, ...]
    element: str | None = None

    def __repr__(self) -> str:
        parts = ", ".join(w.encode() for w in self.witnesses)
        extra = f", e={self.element}" if self.element else ""
        return f"AxiomViolation({self.axiom}: {parts}{extra})"


def check_circuit_axioms(circuits: Iterable[SignedSet]) -> AxiomViolation | None:
    """Return None when C0-C3 all hold, else the first violation found.

    C3 is decided by exhaustive search over circuit pairs and eliminable
    elements; candidates are scanned in canonical (encoded) order so the
    reported witness is deterministic.
    """
    circs = sorted(set(circuits), key=lambda c: c.encode())
    if not circs:
        return None
    ground = circs[0].ground
    if any(c.ground != ground for c in circs):
        raise ValueError("circuits live on different ground sets")

    for c in circs:
        if c.is_zero:
            return AxiomViolation("C0", (c,))

    masks = [(c.pos_mask, c.neg_mask) for c in circs]
    present = set(masks)
    for c, (p, n) in zip(circs, masks):
        if (n, p) not in present:
            return AxiomViolation("C1", (c,))

    for i, (xp, xn) in enumerate(masks):
        for j, (yp, yn) in enumerate(masks):
            if i != j and (xp | xn) & ~(yp | yn) == 0 and (xp, xn) != (yn, yp):
                return AxiomViolation("C2", (circs[i], circs[j]))

    for i, (xp, xn) in enumerate(masks):
        for j, (yp, yn) in enumerate(masks):
            if (xp, xn) == (yn, yp):
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
                    return AxiomViolation("C3", (circs[i], circs[j]), name)
    return None


class CircuitOracle:
    """The names path and the vertex entry of a circuit oracle, both over
    its mask core ``_circuit(mask, index)``: C(B, e) as
    ``(pos_mask, neg_mask)`` for the ground-index mask of B and the index
    of e, or None when B is no basis.  Subclasses provide ``ground``,
    ``rank`` and the core."""

    def _names_query(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        """``query(basis, e)``, checked in this order: e outside the set
        (ValueError), e a ground element (ValueError), the set of the
        rank's size (NotABasis before its names are looked up), then every
        name (ValueError)."""
        names = frozenset(basis)
        if e in names:
            raise ValueError("oracle element must lie outside the queried set")
        ground: GroundSet = self.ground
        j = ground.index(e)
        if len(names) != self.rank:
            return NOT_A_BASIS
        found = self._circuit(ground.mask(names), j)
        return NOT_A_BASIS if found is None else SignedSet(ground, *found)

    def query_vertex(self, v: int) -> tuple[int, int] | None:
        """C(B(v), q) for cube vertex v as ``(pos_mask, neg_mask)``, or None
        when B(v) is not a basis: the mask of B(v) goes to the core with no
        names built."""
        ground: GroundSet = self.ground
        return self._circuit(ground.vertex_mask(v), ground.index(ground.q))


@dataclass(frozen=True)
class ExplicitOM(CircuitOracle):
    """Oriented matroid given by its full circuit collection."""

    ground: GroundSet
    circuits: frozenset[SignedSet]

    def __post_init__(self) -> None:
        if any(c.ground != self.ground for c in self.circuits):
            raise ValueError("circuit ground sets do not match the matroid ground set")

    @classmethod
    def from_encoded(cls, ground: GroundSet, encoded: Iterable[str]) -> "ExplicitOM":
        return cls(ground, frozenset(SignedSet.decode(ground, s) for s in encoded))

    def circuit_set(self) -> frozenset[SignedSet]:
        return self.circuits

    @cached_property
    def _circuit_masks(self) -> tuple[tuple[int, int], ...]:
        """``(pos_mask, support_mask)`` for every circuit."""
        return tuple((c.pos_mask, c.support_mask) for c in self.circuits)

    def _independent(self, m: int) -> bool:
        return not any(sm & ~m == 0 for _, sm in self._circuit_masks)

    def is_independent(self, subset: Iterable[str]) -> bool:
        return self._independent(self.ground.mask(subset))

    @cached_property
    def rank(self) -> int:
        # Greedy extension yields a basis in any matroid.
        current = 0
        for k in range(self.ground.size):
            if self._independent(current | (1 << k)):
                current |= 1 << k
        return current.bit_count()

    def is_basis(self, subset: Iterable[str]) -> bool:
        names = set(subset)
        return len(names) == self.rank and self.is_independent(names)

    def bases(self):
        for combo in itertools.combinations(self.ground.elements, self.rank):
            if self.is_independent(combo):
                yield frozenset(combo)

    def is_uniform(self) -> bool:
        return all(
            self.is_independent(combo)
            for combo in itertools.combinations(self.ground.elements, self.rank)
        )

    def cocircuits(self) -> frozenset[SignedSet]:
        """All cocircuits: the fundamental cocircuits of every basis and their
        negations.  Guarded, since it enumerates r-subsets of the ground set."""
        return self._cocircuits

    @cached_property
    def _cocircuits(self) -> frozenset[SignedSet]:
        check(self.ground.size, DUALITY_ELEMENTS, "ground-set size")
        found: set[SignedSet] = set()
        for basis in self.bases():
            for d in self.fundamental_cocircuits(basis).values():
                found.add(d)
                found.add(d.negate())
        return frozenset(found)

    def dual(self) -> "ExplicitOM":
        return ExplicitOM(self.ground, self.cocircuits())

    def query(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        """Circuit-oracle protocol: NotABasis, or the fundamental circuit C(B, e)."""
        return self._names_query(basis, e)

    def _circuit(self, b: int, e: int) -> tuple[int, int] | None:
        """``(pos_mask, neg_mask)`` of C(B, e) for the ground-index mask ``b``
        of B and the index ``e``, or None when B is no basis.

        One pass over the circuit masks decides both.  A set of the rank's
        size is a basis iff no circuit support lies inside it, and C(B, e)
        is the circuit positive at e whose support lies in B + e.  NotABasis
        takes precedence over the errors for a circuit set that is no
        matroid, so the pass finishes before either is raised.
        """
        if b.bit_count() != self.rank:
            return None
        e_bit = 1 << e
        found = None
        unique = True
        for pos, support in self._circuit_masks:
            outside = support & ~b
            if not outside:
                return None
            if outside == e_bit and pos & e_bit:
                if found is not None:
                    unique = False
                found = pos, support ^ pos
        if not unique:
            raise ValueError("fundamental circuit is not unique; not a matroid")
        if found is None:
            raise ValueError("no fundamental circuit found; circuit set is not a matroid")
        return found

    def fundamental_circuit(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        return self.query(basis, e)

    def fundamental_cocircuit(self, basis: Iterable[str], e: str) -> SignedSet:
        """The unique cocircuit positive at e whose support avoids B minus e."""
        names = frozenset(basis)
        if e not in names:
            raise ValueError("fundamental cocircuits need an element of the basis")
        return self.fundamental_cocircuits(names)[e]

    def fundamental_cocircuits(self, basis: Iterable[str]) -> dict[str, SignedSet]:
        """C*(B, e) for every e in B, by basis orthogonality: + at e, 0 on B
        minus e, and -C(B, f)_e at each f outside B.  Each C(B, f) is read
        once and shared across the elements of B."""
        names = frozenset(basis)
        if not self.is_basis(names):
            raise ValueError("fundamental cocircuits are defined for bases only")
        ground = self.ground
        b = ground.mask(names)
        outside = [(1 << f, self._circuit(b, f)) for f in range(ground.size) if not b >> f & 1]
        result = {}
        for e in names:
            bit = 1 << ground.index(e)
            pos, neg = bit, 0
            for f_bit, (c_pos, c_neg) in outside:
                if c_neg & bit:
                    pos |= f_bit
                elif c_pos & bit:
                    neg |= f_bit
            result[e] = SignedSet(ground, pos, neg)
        return result

    def minor_delete(self, e: str) -> "ExplicitOM":
        """Deletion minor: keep circuits vanishing at e, restricted to E minus e."""
        self.ground.index(e)
        new_ground = self.ground.without(e)
        kept = frozenset(
            c.restricted_to(new_ground) for c in self.circuits if c.sign_of(e) == ZERO
        )
        return ExplicitOM(new_ground, kept)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        d: dict = {"ground": list(self.ground.elements)}
        if self.ground.pairs is not None:
            d["n"] = self.ground.n_pairs
        d["circuits"] = sorted(c.encode() for c in self.circuits)
        return d

    @classmethod
    def from_json_dict(cls, d: dict, validate: bool = True) -> "ExplicitOM":
        ground = ground_from_json(d)
        circuits = d.get("circuits", [])
        if not isinstance(circuits, list) or not all(isinstance(c, str) for c in circuits):
            raise ValueError("'circuits' must be a list of sign strings")
        om = cls.from_encoded(ground, circuits)
        if validate:
            violation = check_circuit_axioms(om.circuits)
            if violation is not None:
                raise ValueError(f"circuit axioms fail: {violation!r}")
        return om


def ground_from_json(d: dict) -> GroundSet:
    """GroundSet from instance JSON; complementary structure is recognized by shape."""
    if not isinstance(d, dict):
        raise ValueError("an instance must be a JSON object")
    elements = d["ground"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ValueError("'ground' must be a list of element names")
    elements = tuple(elements)
    n = d.get("n")
    if n is not None:
        if type(n) is not int or n < 1:
            raise ValueError("complementary ground sets need an integer n >= 1")
        with_q = len(elements) == 2 * n + 1
        expected = GroundSet.complementary(n, with_q=with_q)
        if elements != expected.elements:
            raise ValueError("ground does not match canonical s_1..s_n, t_1..t_n[, q] order")
        return expected
    return GroundSet.plain(elements)


def load_instance(path: str, validate: bool = True) -> ExplicitOM:
    with open(path, "r", encoding="utf-8") as fh:
        return ExplicitOM.from_json_dict(json.load(fh), validate=validate)
