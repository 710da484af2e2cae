"""Single-element extensions specified by localizations.

A localization assigns a sign to every cocircuit of a base matroid and
thereby determines an extension by one new element, which is always
named ``q`` and placed last in the extended ground set.  Lexicographic
atoms [s*e] (sign s times the cocircuit's entry at e) are localizations,
and localizations are closed under first-nonzero composition, so a
composition list of atoms is kept symbolic; explicit cocircuit tables are
supported as well.  The extension is never materialized on the main path:
:class:`ExtensionOM` answers fundamental-circuit queries directly from
the rule C(B, q)_b = -sigma(C*(B, b)) for b in B, and is the one place
that builds C(B, q).  An atom never needs the cocircuits themselves: by
basis orthogonality C*(B, b)_e = -C(B, e)_b for e outside B, so [s*e]
gives C(B, q) the entries s * C(B, e) on B, one base query, and for e in
B it gives -s at e alone (Bjorner et al. 1999, section 3.4).  Only an
explicit table reads fundamental cocircuits, for the elements of B that
every atom leaves at zero.  The atoms are resolved once per oracle to
their ground bits, and the base is asked through its mask core, with the
mask of B and the index of e, so a query by cube vertex builds no names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .guards import DUALITY_ELEMENTS, check
from .om import AxiomViolation, CircuitOracle, ExplicitOM, NotABasis, check_circuit_axioms
from .signs import MINUS, PLUS, SIGNS, ZERO, GroundSet, SignedSet, char_sign, sign_char


@dataclass(frozen=True)
class LexAtom:
    """One lexicographic step: cocircuit D evaluates to sign * D_element."""

    element: str
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in SIGNS:
            raise ValueError("atom sign must be -1, 0 or +1")


@dataclass(frozen=True, eq=False)
class Localization:
    """Sign assignment on the cocircuits of ``base``.

    Evaluation walks the atom list left to right and returns the first
    non-zero value; when all atoms vanish it falls back to the explicit
    table (if any), else to zero.  An :class:`ExtensionOM` asks the base
    for C(B, e) through its mask core ``_circuit(mask, index)``, which
    :class:`~omcp.om.ExplicitOM` and :class:`~omcp.realize.RealizedOM`
    have, and for ``ground``, ``rank`` and ``is_basis``; an explicit table
    additionally needs ``fundamental_cocircuits`` and ``cocircuits()``.
    """

    base: object
    atoms: tuple[LexAtom, ...] = ()
    table: Mapping[SignedSet, int] | None = None

    def __post_init__(self) -> None:
        ground: GroundSet = self.base.ground
        for atom in self.atoms:
            ground.index(atom.element)
        if self.table is not None:
            for key, value in self.table.items():
                if key.ground != ground:
                    raise ValueError("table keys must be base cocircuits")
                if value not in SIGNS:
                    raise ValueError("table values must be signs")

    def evaluate(self, cocircuit: SignedSet) -> int:
        for atom in self.atoms:
            v = atom.sign * cocircuit.sign_of(atom.element)
            if v != ZERO:
                return v
        if self.table is not None:
            try:
                return self.table[cocircuit]
            except KeyError:
                raise ValueError(
                    f"localization table has no entry for {cocircuit.encode()}"
                ) from None
        return ZERO

    def compose(self, other: "Localization") -> "Localization":
        """First-nonzero composition; self is consulted first."""
        if self.base is not other.base and self.base != other.base:
            raise ValueError("composition requires a common base")
        if self.table is None:
            return Localization(self.base, self.atoms + other.atoms, other.table)
        merged = {
            d: (self.evaluate(d) or other.evaluate(d))
            for d in self.base.cocircuits()
        }
        return Localization(self.base, (), merged)

    def to_table(self) -> "Localization":
        full = {d: self.evaluate(d) for d in self.base.cocircuits()}
        return Localization(self.base, (), full)

    def to_json_dict(self) -> dict:
        if self.table is None:
            return {"atoms": [[a.element, sign_char(a.sign)] for a in self.atoms]}
        d = {k.encode(): sign_char(v) for k, v in self.table.items()}
        out: dict = {"table": dict(sorted(d.items()))}
        if self.atoms:
            out["atoms"] = [[a.element, sign_char(a.sign)] for a in self.atoms]
        return out

    @classmethod
    def from_json_dict(cls, base, d: dict) -> "Localization":
        atoms = d.get("atoms", [])
        if not isinstance(atoms, list) or not all(
            isinstance(a, list) and len(a) == 2 and all(isinstance(x, str) for x in a)
            for a in atoms
        ):
            raise ValueError("'atoms' must be a list of [element, sign] string pairs")
        table = d.get("table")
        if "table" in d:
            if not isinstance(table, dict) or not all(
                isinstance(v, str) for v in table.values()
            ):
                raise ValueError("'table' must map sign strings to sign strings")
            table = {
                SignedSet.decode(base.ground, k): char_sign(v) for k, v in table.items()
            }
        return cls(base, tuple(LexAtom(e, char_sign(s)) for e, s in atoms), table)


def lex_localization(base, element: str, sign: int) -> Localization:
    """The lexicographic localization [sign * element] over ``base``."""
    return Localization(base, (LexAtom(element, sign),))


def extension_fundamental_circuit(sigma: Localization, basis: Iterable[str]) -> SignedSet:
    """C(B, q) of the extension specified by sigma, for a basis B of the base."""
    answer = ExtensionOM(sigma).query(basis, "q")
    if isinstance(answer, NotABasis):
        raise ValueError("extension fundamental circuits need a basis of the base")
    return answer


@dataclass(frozen=True, eq=False)
class ExtensionOM(CircuitOracle):
    """Circuit oracle for the extension of ``sigma.base`` specified by sigma.

    Queries with e = q against a subset of the old ground set use the
    localization rule (module docstring), atoms first: each one signs the
    elements of B that the atoms before it left at zero, and the scan stops
    once all of B is signed, so on a uniform base the first atom outside B
    decides every entry.  C(B, e) is queried at most once per element e
    outside B.  Queries entirely inside the old ground set delegate to the
    base.  Queries whose set contains q are outside the supported
    surface and raise.
    """

    sigma: Localization

    @cached_property
    def ground(self) -> GroundSet:
        return self.sigma.base.ground.extended_by_q()

    @property
    def base(self):
        return self.sigma.base

    @cached_property
    def _atoms(self) -> tuple[tuple[int, int, int], ...]:
        """``(bit, index, sign)`` of each atom that can sign an element: the
        first atom with a non-zero sign on each element, in list order."""
        first: dict[str, int] = {}
        for atom in self.sigma.atoms:
            if atom.sign != ZERO:
                first.setdefault(atom.element, atom.sign)
        index = self.ground.index
        return tuple([(1 << index(e), index(e), s) for e, s in first.items()])

    def query(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        names = frozenset(basis)
        # _names_query raises first when e lies in the set.
        if e not in names and "q" in names:
            raise ValueError("queries with q inside the basis are not supported")
        return self._names_query(names, e)

    @property
    def rank(self) -> int:
        return self.base.rank

    def _circuit(self, b: int, e: int) -> tuple[int, int] | None:
        """``(pos_mask, neg_mask)`` of C(B, e) for the ground-index mask ``b``
        of a subset B of the base and the index ``e``, or None when B is no
        basis; the base's core answers every e but q, whose index is last,
        so the base masks carry over as they are."""
        base = self.base
        if e != self.ground.size - 1:
            return base._circuit(b, e)
        if b.bit_count() != base.rank:
            return None
        free = b  # the elements of B still at zero
        pos, neg = 1 << e, 0  # + at q
        queried = False
        for bit, k, sign in self._atoms:
            if not free:
                break
            # (p, n): what [-e] adds, -C(B, e) for e outside B or + at e
            # in B; [+e] adds the swap.
            if b & bit:
                p, n = bit, 0
            else:
                circuit = base._circuit(b, k)
                if circuit is None:
                    return None
                queried = True
                n, p = circuit
            if sign == PLUS:
                p, n = n, p
            pos, neg = pos | p & free, neg | n & free
            free &= ~(p | n)
        if not queried and not base.is_basis(self.ground.names(b)):
            return None
        if free and self.sigma.table is not None:
            for element, d in base.fundamental_cocircuits(self.ground.names(b)).items():
                bit = 1 << self.ground.index(element)
                if free & bit:
                    s = self.sigma.evaluate(d)
                    if s == MINUS:
                        pos |= bit
                    elif s == PLUS:
                        neg |= bit
        return pos, neg

    def fundamental_circuit(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        return self.query(basis, e)


@dataclass(frozen=True)
class LocalizationValidation:
    valid: bool
    by_construction: bool = False
    reason: str | None = None
    violation: AxiomViolation | None = None


def materialize_extension(sigma: Localization) -> ExplicitOM:
    """Full circuit list of the extension: lifted base circuits plus every
    ±C(B, q) over all bases of the base.  Intended for small instances."""
    base = sigma.base
    oracle = ExtensionOM(sigma)
    ground = oracle.ground
    circuits: set[SignedSet] = set()
    for c in base.circuit_set():
        lifted = SignedSet(ground, c.pos_mask, c.neg_mask)
        circuits.add(lifted)
        circuits.add(lifted.negate())
    for basis in base.bases():
        c = oracle.query(basis, "q")
        circuits.add(c)
        circuits.add(c.negate())
    return ExplicitOM(ground, frozenset(circuits))


def validate_localization(sigma: Localization) -> LocalizationValidation:
    """Check that sigma describes a valid extension.

    Lexicographic atoms and their compositions are valid by construction
    and are stamped as such.  Explicit tables get the best-effort check:
    sign-oddness on every ± cocircuit pair, then circuit axioms on the
    materialized extension circuit family.
    """
    if sigma.table is None:
        return LocalizationValidation(valid=True, by_construction=True)
    base = sigma.base
    check(base.ground.size + 1, DUALITY_ELEMENTS, "extension ground size")
    cocircuits = base.cocircuits()
    for d in cocircuits:
        try:
            v = sigma.evaluate(d)
            w = sigma.evaluate(d.negate())
        except ValueError as exc:
            return LocalizationValidation(valid=False, reason=str(exc))
        if w != -v:
            return LocalizationValidation(
                valid=False,
                reason=f"not sign-odd at {d.encode()}: "
                f"sigma(-Y)={sign_char(w)} but -sigma(Y)={sign_char(-v)}",
            )
    extension = materialize_extension(sigma)
    violation = check_circuit_axioms(extension.circuits)
    if violation is not None:
        return LocalizationValidation(
            valid=False, reason="extension circuit family fails the circuit axioms",
            violation=violation,
        )
    return LocalizationValidation(valid=True)
