"""P-matroid checks, complementarity solving, and search certificates.

A P-matroid lives on a paired ground set S u T: S is a basis and no
circuit is sign-reversing (opposite signs on every complementary pair it
contains).  The solution and violation certificates of the two total
search problems are defined here together with self-contained verifiers,
so third-party certificates can be validated bit for bit:

* M1  - non-negative complementary circuit through q (a solution),
* MV1 - sign-reversing circuit,
* MV2 - complementary n-set that is not a basis,
* MV3 - two complementary q-positive circuits matching per-pair,
* U1  - cube vertex with all half-edges incoming (a sink),
* UV1 - vertex pair contradicting the unique-sink condition.

Each pair rule is one mask expression on the dimension-order s and t
halves of sign masks (``GroundSet.halves``) or on ``GroundSet.t_half``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cube import is_sw_pair, vertex_from_name, vertex_name
from .guards import OMCP_SCAN_DIM, check
from .om import NotABasis
from .signs import PLUS, ZERO, GroundSet, SignedSet


# -- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class M1:
    circuit: SignedSet


@dataclass(frozen=True)
class MV1:
    circuit: SignedSet


@dataclass(frozen=True)
class MV2:
    basis: frozenset[str]


@dataclass(frozen=True)
class MV3:
    x: SignedSet
    y: SignedSet


@dataclass(frozen=True)
class U1:
    n: int
    vertex: int


@dataclass(frozen=True)
class UV1:
    n: int
    v: int
    w: int


Certificate = M1 | MV1 | MV2 | MV3 | U1 | UV1


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, M1):
        return {"kind": "M1", "circuit": cert.circuit.encode()}
    if isinstance(cert, MV1):
        return {"kind": "MV1", "circuit": cert.circuit.encode()}
    if isinstance(cert, MV2):
        return {"kind": "MV2", "basis": sorted(cert.basis)}
    if isinstance(cert, MV3):
        return {"kind": "MV3", "X": cert.x.encode(), "Y": cert.y.encode()}
    if isinstance(cert, U1):
        return {"kind": "U1", "vertex": vertex_name(cert.vertex, cert.n)}
    if isinstance(cert, UV1):
        return {"kind": "UV1", "v": vertex_name(cert.v, cert.n), "w": vertex_name(cert.w, cert.n)}
    raise TypeError(f"not a certificate: {cert!r}")


def certificate_from_json(d: dict, ground: GroundSet | None = None) -> Certificate:
    """The certificate a JSON object describes; ValueError when it is malformed."""
    if not isinstance(d, dict):
        raise ValueError("a certificate must be a JSON object")

    def text(key: str) -> str:
        value = d.get(key)
        if not isinstance(value, str):
            raise ValueError(f"certificate field {key!r} must be a string")
        return value

    kind = d.get("kind")
    if kind in ("M1", "MV1", "MV3") and ground is None:
        raise ValueError("circuit certificates need the instance ground set")
    if kind in ("M1", "MV1"):
        circuit = SignedSet.decode(ground, text("circuit"))
        return M1(circuit) if kind == "M1" else MV1(circuit)
    if kind == "MV2":
        basis = d.get("basis")
        if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
            raise ValueError("certificate field 'basis' must be a list of element names")
        return MV2(frozenset(basis))
    if kind == "MV3":
        return MV3(SignedSet.decode(ground, text("X")), SignedSet.decode(ground, text("Y")))
    if kind == "U1":
        vertex = text("vertex")
        return U1(len(vertex), vertex_from_name(vertex, len(vertex)))
    if kind == "UV1":
        v = text("v")
        return UV1(len(v), vertex_from_name(v, len(v)), vertex_from_name(text("w"), len(v)))
    raise ValueError(f"unknown certificate kind: {kind!r}")


# -- P-matroid structure --------------------------------------------------


def _halves(c: SignedSet) -> tuple[int, int, int, int]:
    """The s and t halves of c's positive mask, then of its negative mask."""
    return (*c.ground.halves(c.pos_mask), *c.ground.halves(c.neg_mask))


def is_sign_reversing(circuit: SignedSet) -> bool:
    """Opposite signs on every complementary pair contained in the support.

    A circuit whose support contains no complementary pair satisfies the
    condition vacuously and is reported as sign-reversing; inside a genuine
    P-matroid extension such circuits cannot exist within S u T.
    """
    if circuit.ground.pairs is None:
        raise ValueError("sign-reversal needs a complementary ground set")
    ps, pt, ns, nt = _halves(circuit)
    return not (ps & pt | ns & nt)


def find_sign_reversing_circuit(om) -> SignedSet | None:
    """First sign-reversing circuit in canonical order, or None."""
    ground: GroundSet = om.ground
    if ground.pairs is None or ground.q is not None:
        raise ValueError("expected a complementary ground set without q")
    return min(filter(is_sign_reversing, om.circuit_set()), key=SignedSet.encode, default=None)


@dataclass(frozen=True)
class PMatroidCheck:
    is_p: bool
    s_is_basis: bool
    sign_reversing: SignedSet | None

    def __bool__(self) -> bool:
        return self.is_p


def is_p_matroid(om) -> PMatroidCheck:
    """S must be a basis and no circuit may be sign-reversing."""
    ground: GroundSet = om.ground
    if ground.pairs is None or ground.q is not None:
        raise ValueError("expected a complementary ground set without q")
    s_set = frozenset(s for s, _ in ground.pairs)
    s_ok = om.is_basis(s_set)
    witness = find_sign_reversing_circuit(om)
    return PMatroidCheck(s_ok and witness is None, s_ok, witness)


def _answers(oracle, n: int):
    """``(v, query_vertex(v))`` for the 2^n cube vertices of a scan over
    the complementary bases of an oracle with n pairs, asked as the scan
    goes; the guard is checked once, before any query."""
    if oracle.ground.n_pairs != n:
        raise ValueError("bit vector does not match complementary structure")
    check(n, OMCP_SCAN_DIM, "omcp scan dimension")
    for v in range(1 << n):
        yield v, oracle.query_vertex(v)


def check_complementary_bases(oracle, n: int) -> frozenset[str] | None:
    """First of the 2^n complementary sets the oracle rejects, else None."""
    ground: GroundSet = oracle.ground
    if ground.q is None:
        raise ValueError("expected an extension oracle with element q")
    for v, answer in _answers(oracle, n):
        if answer is None:
            return ground.vertex_basis(v)
    return None


def _is_complementary(c: SignedSet) -> bool:
    """No complementary pair lies in the support of c."""
    s, t = c.ground.halves(c.support_mask)
    return not s & t


def verify_mv3_pair(x: SignedSet, y: SignedSet) -> bool:
    """Pure MV3 condition on two signed sets (no oracle membership check)."""
    ground = x.ground
    if y.ground != ground or ground.q is None or x == y:
        return False
    if x.sign_of(ground.q) != PLUS or y.sign_of(ground.q) != PLUS:
        return False
    if not (_is_complementary(x) and _is_complementary(y)):
        return False
    # Per pair, zero products or matching signs across it: on complementary x
    # and y, s_i of one and t_i of the other are never non-zero and opposite.
    xps, xpt, xns, xnt = _halves(x)
    yps, ypt, yns, ynt = _halves(y)
    return not (xps & ynt | xns & ypt | xpt & yns | xnt & yps)


def solve_omcp_bruteforce(oracle, n: int) -> M1 | MV2 | None:
    """Scan all complementary bases for an all-non-negative C(B, q).

    Returns the first M1 found, an MV2 when some complementary set is not a
    basis, or None when the full scan finds neither (a non-P-matroid input
    without an easily extracted certificate).
    """
    ground: GroundSet = oracle.ground
    for v, answer in _answers(oracle, n):
        if answer is None:
            return MV2(ground.vertex_basis(v))
        if answer[1] == 0:
            return M1(SignedSet(ground, *answer))
    return None


def is_degenerate(oracle, n: int) -> tuple[bool, frozenset[str] | None]:
    """Some complementary basis B with C(B, q) vanishing on part of B: as
    C(B, q) lives on B + q and is + at q, a support of at most n elements."""
    ground: GroundSet = oracle.ground
    for v, answer in _answers(oracle, n):
        if answer is None:
            raise ValueError(f"complementary set {sorted(ground.vertex_basis(v))} is not a basis")
        if (answer[0] | answer[1]).bit_count() <= n:
            return True, ground.vertex_basis(v)
    return False, None


# -- verifiers ------------------------------------------------------------


def _is_fundamental(c: SignedSet, oracle) -> bool:
    """c, + at q and complementary, is C(B, q) for the first basis B among
    the complementary n-sets that hold its support minus q: a circuit
    inside B + q through q is C(B, q).  The sets take s_i or t_i on each of
    the z pairs where c is zero, all s_i first, and the other 2^z - 1 come
    only after a guard on z.  False when none is a basis."""
    pairs = c.ground.pairs
    options = [(t,) if c.sign_of(t) else (s,) if c.sign_of(s) else (s, t) for s, t in pairs]
    for k, basis in enumerate(itertools.product(*options)):
        if k == 1:
            check(sum(len(o) - 1 for o in options), OMCP_SCAN_DIM, "completion pairs")
        answer = oracle.query(basis, oracle.ground.q)
        if not isinstance(answer, NotABasis):
            return answer == c
    return False


def verify_m1(cert: M1, oracle) -> bool:
    c = cert.circuit
    ground: GroundSet = oracle.ground
    if c.ground != ground or ground.q is None:
        return False
    if c.neg_mask != 0 or c.sign_of(ground.q) != PLUS or not _is_complementary(c):
        return False
    return _is_fundamental(c, oracle)


def verify_mv1(cert: MV1, om) -> bool:
    """Against an explicit instance: membership plus the sign-reversal property."""
    z = cert.circuit
    ground: GroundSet = om.ground
    if z.ground != ground or ground.pairs is None:
        return False
    if ground.q is not None and z.sign_of(ground.q) != ZERO:
        return False
    return z in om.circuit_set() and is_sign_reversing(z)


def verify_mv2(cert: MV2, oracle) -> bool:
    ground: GroundSet = oracle.ground
    if ground.q is None or not cert.basis.issubset(ground.elements):
        return False
    if ground.t_half(ground.mask(cert.basis)) is None:
        return False
    return isinstance(oracle.query(cert.basis, ground.q), NotABasis)


def verify_mv3(cert: MV3, oracle) -> bool:
    """Condition check plus circuit membership through the oracle."""
    if cert.x.ground != oracle.ground or not verify_mv3_pair(cert.x, cert.y):
        return False
    return all(_is_fundamental(c, oracle) for c in (cert.x, cert.y))


def verify_u1(cert: U1, orientation) -> bool:
    return cert.n == orientation.n and orientation.outmap(cert.vertex) == (0, 0)


def verify_uv1(cert: UV1, orientation) -> bool:
    return cert.n == orientation.n and is_sw_pair(
        cert.v, cert.w, orientation.outmap(cert.v), orientation.outmap(cert.w)
    )


def verify_certificate(cert: Certificate, instance) -> bool:
    """Dispatch on kind; ``instance`` is an oracle, explicit matroid, or orientation."""
    if isinstance(cert, M1):
        return verify_m1(cert, instance)
    if isinstance(cert, MV1):
        return verify_mv1(cert, instance)
    if isinstance(cert, MV2):
        return verify_mv2(cert, instance)
    if isinstance(cert, MV3):
        return verify_mv3(cert, instance)
    if isinstance(cert, U1):
        return verify_u1(cert, instance)
    if isinstance(cert, UV1):
        return verify_uv1(cert, instance)
    raise TypeError(f"not a certificate: {cert!r}")
