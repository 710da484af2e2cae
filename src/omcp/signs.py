"""Signed sets over named ground sets.

Signs are the three ints ``-1, 0, +1``, so sign arithmetic is integer
arithmetic: ``-s`` negates and ``a * b`` multiplies, never floating
point.  A :class:`SignedSet` is a signed set (X+, X-) over a
:class:`GroundSet`, stored as two disjoint bit masks indexed by the
element order, and is the carrier for circuits and cocircuits alike.
All values here are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

MINUS, ZERO, PLUS = -1, 0, 1
SIGNS = (MINUS, ZERO, PLUS)

_SIGN_CHAR = {PLUS: "+", MINUS: "-", ZERO: "0"}
_CHAR_SIGN = {"+": PLUS, "-": MINUS, "0": ZERO}
# Each byte with its eight bits in reverse order.
_REVERSED_BYTE = tuple([sum((b >> k & 1) << 7 - k for k in range(8)) for b in range(256)])


def sign_char(s: int) -> str:
    return _SIGN_CHAR[s]


def char_sign(c: str) -> int:
    try:
        return _CHAR_SIGN[c]
    except KeyError:
        raise ValueError(f"not a sign character: {c!r}") from None


def sign_masks(values: Iterable[int]) -> tuple[int, int]:
    """``(pos_mask, neg_mask)``: bit k set where entry k is positive (negative)."""
    pos = neg = 0
    for k, v in enumerate(values):
        if v > 0:
            pos |= 1 << k
        elif v < 0:
            neg |= 1 << k
    return pos, neg


@dataclass(frozen=True)
class GroundSet:
    """Ordered, named ground set, optionally with complementary structure.

    Complementary ground sets pair up elements (s_i, t_i) and may carry a
    distinguished extension element q; their canonical element order is
    s_1..s_n, t_1..t_n, q.  A complementary n-set is named by the t half
    of its ground-index mask, bit i set where it holds t_i (dimension
    order).  The pair rules are read off ``halves`` and ``t_half``.  Cube
    vertex v names B(v) by the same bits reversed, v_i at bit n - 1 - i,
    read only by ``vertex_mask``, ``vertex_basis`` and ``on_vertex``.
    """

    elements: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...] | None = None
    q: str | None = None

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("ground-set element names must be unique")
        if self.pairs is not None:
            expected = [s for s, _ in self.pairs] + [t for _, t in self.pairs]
            if self.q is not None:
                expected.append(self.q)
            if list(self.elements) != expected:
                raise ValueError(
                    "complementary ground set must be ordered s_1..s_n, t_1..t_n[, q]"
                )
        elif self.q is not None:
            raise ValueError("distinguished element q requires complementary structure")

    @classmethod
    def complementary(cls, n: int, with_q: bool = False) -> "GroundSet":
        if n < 1:
            raise ValueError("complementary ground sets need at least one pair")
        s_names = tuple(f"s{i}" for i in range(1, n + 1))
        t_names = tuple(f"t{i}" for i in range(1, n + 1))
        q = "q" if with_q else None
        elements = s_names + t_names + ((q,) if q else ())
        return cls(elements, tuple(zip(s_names, t_names)), q)

    @classmethod
    def plain(cls, names: Iterable[str]) -> "GroundSet":
        return cls(tuple(names))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown ground-set element: {name!r}") from None

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def n_pairs(self) -> int:
        if self.pairs is None:
            raise ValueError("ground set has no complementary structure")
        return len(self.pairs)

    def pair(self, i: int) -> tuple[str, str]:
        """The i-th complementary pair (s_{i+1}, t_{i+1}), zero-based."""
        if self.pairs is None:
            raise ValueError("ground set has no complementary structure")
        return self.pairs[i]

    @cached_property
    def pair_masks(self) -> tuple[int, ...]:
        """Per dimension i, the ground-index mask of s_i and t_i; empty
        without complementary structure.  A set that holds one of the two
        is one exchange away from its image under ``mask ^ pair``."""
        if self.pairs is None:
            return ()
        n = self.n_pairs
        return tuple([1 << i | 1 << i + n for i in range(n)])

    def _mirror(self, x: int) -> int:
        """The n low bits of x in reverse order, bit i to bit n - 1 - i: a
        vertex's bits in dimension order, and back."""
        n = self.n_pairs
        r = 0
        for shift in range(0, n, 8):
            r = r << 8 | _REVERSED_BYTE[x >> shift & 255]
        return r >> -n % 8

    def vertex_columns(self, t: int) -> list[int]:
        """Ground indices of the complementary n-set with t half ``t``, in
        dimension order: dimension i is index i + n * t_i, t_i bit i of t."""
        n = self.n_pairs
        return [i + n * (t >> i & 1) for i in range(n)]

    def halves(self, mask: int) -> tuple[int, int]:
        """The s half and the t half of a ground-index mask, both in
        dimension order (bit i for s_i and for t_i); q is in neither."""
        n = self.n_pairs
        return mask & (1 << n) - 1, mask >> n & (1 << n) - 1

    def t_half(self, mask: int) -> int | None:
        """The t half ``mask >> n`` of a complementary n-set's ground-index
        mask, or None when the mask is no complementary n-set: its s half
        and its t half, q included, must be complements."""
        n = self.n_pairs
        full, t = (1 << n) - 1, mask >> n
        return t if mask & full ^ t == full else None

    def vertex_mask(self, v: int) -> int:
        """The ground-index mask of B(v): bit i (s_i) where v_i = 0, bit
        i + n (t_i) where v_i = 1, for v_i bit n - 1 - i of cube vertex v."""
        n = self.n_pairs
        t = self._mirror(v)
        return (1 << n) - 1 ^ t | t << n

    def on_vertex(self, v: int, *masks: int) -> tuple[int, ...]:
        """The bits of each mask at the elements of B(v), in vertex order:
        bit n - 1 - i holds the element of dimension i.  v is mirrored once
        for all of them."""
        n, mirror = self.n_pairs, self._mirror
        t = mirror(v)
        s = (1 << n) - 1 ^ t
        return tuple([mirror(mask & s | mask >> n & t) for mask in masks])

    def in_basis(self, b: int, bits: int) -> int:
        """The ground-index mask of the elements of the complementary n-set
        with ground-index mask ``b`` whose dimension i has bit i set in
        ``bits``: s_i where b holds s_i, t_i where it holds t_i."""
        n = self.n_pairs
        t = b >> n
        return bits & ~t | (bits & t) << n

    def vertex_basis(self, v: int) -> frozenset[str]:
        """B(v), the complementary n-set of vertex v: s_i where v_i = 0, t_i where v_i = 1."""
        return self.names(self.vertex_mask(v))

    def mask(self, names: Iterable[str]) -> int:
        """The ground-index mask of ``names``; ValueError on an unknown name."""
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names(self, mask: int) -> frozenset[str]:
        """The elements whose ground-index bits are set in ``mask``."""
        return frozenset([name for k, name in enumerate(self.elements) if mask >> k & 1])

    def without(self, name: str) -> "GroundSet":
        """Ground set with one element deleted (pairing kept only when q is removed)."""
        idx = self.index(name)
        remaining = self.elements[:idx] + self.elements[idx + 1 :]
        if self.q == name:
            return GroundSet(remaining, self.pairs, None)
        return GroundSet(remaining)

    def extended_by_q(self) -> "GroundSet":
        """This ground set with the extension element q appended last; one
        object per ground set, so every extension of one base shares it."""
        if self.q is not None:
            raise ValueError("ground set already has a distinguished element")
        if "q" in self.elements:
            raise ValueError("element name 'q' already in use")
        return self._extended

    @cached_property
    def _extended(self) -> "GroundSet":
        return GroundSet(self.elements + ("q",), self.pairs, None if self.pairs is None else "q")


@dataclass(frozen=True)
class SignedSet:
    """Signed set X = (X+, X-) over a ground set: bit k of ``pos_mask``
    (``neg_mask``) is set when ground element k lies in X+ (X-).

    The two masks are the whole value; the sign vector ``signs`` and the
    text form ``encode`` are read off them.  Build one from signs with
    :meth:`from_signs` or from text with :meth:`decode`.
    """

    ground: GroundSet
    pos_mask: int
    neg_mask: int

    def __post_init__(self) -> None:
        if self.pos_mask & self.neg_mask or (self.pos_mask | self.neg_mask) >> self.ground.size:
            raise ValueError("sign masks must be disjoint subsets of the ground set")

    @classmethod
    def from_signs(cls, ground: GroundSet, signs: Sequence[int]) -> "SignedSet":
        """The signed set with sign ``signs[k]`` at ground element k."""
        if len(signs) != ground.size:
            raise ValueError("sign vector length does not match ground set")
        if any(s not in SIGNS for s in signs):
            raise ValueError("signs must be -1, 0 or +1")
        return cls(ground, *sign_masks(signs))

    @classmethod
    def decode(cls, ground: GroundSet, text: str) -> "SignedSet":
        return cls.from_signs(ground, [char_sign(c) for c in text])

    @classmethod
    def zero(cls, ground: GroundSet) -> "SignedSet":
        return cls(ground, 0, 0)

    @property
    def signs(self) -> tuple[int, ...]:
        """The sign vector, entry k the sign of ground element k."""
        p, n = self.pos_mask, self.neg_mask
        return tuple([(p >> k & 1) - (n >> k & 1) for k in range(self.ground.size)])

    def encode(self) -> str:
        p, n = self.pos_mask, self.neg_mask
        return "".join([_SIGN_CHAR[(p >> k & 1) - (n >> k & 1)] for k in range(self.ground.size)])

    def sign_of(self, name: str) -> int:
        bit = 1 << self.ground.index(name)
        return PLUS if self.pos_mask & bit else (MINUS if self.neg_mask & bit else ZERO)

    @property
    def support_mask(self) -> int:
        return self.pos_mask | self.neg_mask

    def support(self) -> frozenset[str]:
        return self.ground.names(self.support_mask)

    @property
    def is_zero(self) -> bool:
        return not self.support_mask

    def negate(self) -> "SignedSet":
        return SignedSet(self.ground, self.neg_mask, self.pos_mask)

    def compose(self, other: "SignedSet") -> "SignedSet":
        """Entrywise first-nonzero composition: self wins wherever non-zero."""
        if self.ground != other.ground:
            raise ValueError("composition requires a common ground set")
        free = ~self.support_mask
        return SignedSet(
            self.ground,
            self.pos_mask | other.pos_mask & free,
            self.neg_mask | other.neg_mask & free,
        )

    def orthogonal(self, other: "SignedSet") -> bool:
        """Disjoint supports, or some common element agrees and some disagrees."""
        if self.ground != other.ground:
            raise ValueError("orthogonality requires a common ground set")
        common = self.support_mask & other.support_mask
        if common == 0:
            return True
        agree = (self.pos_mask & other.pos_mask) | (self.neg_mask & other.neg_mask)
        disagree = (self.pos_mask & other.neg_mask) | (self.neg_mask & other.pos_mask)
        return agree != 0 and disagree != 0

    def restricted_to(self, ground: GroundSet) -> "SignedSet":
        """Restriction onto a ground set whose elements are a subset of ours."""
        return SignedSet.from_signs(ground, [self.sign_of(name) for name in ground.elements])

    def __hash__(self) -> int:  # the masks only: rehashing the ground set costs 10x more
        return hash((self.pos_mask, self.neg_mask))

    def __repr__(self) -> str:
        return f"SignedSet({self.encode()!r})"
