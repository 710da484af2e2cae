"""Exact-rational realizations of oriented matroids.

A column configuration over the rationals realizes an oriented matroid
whose circuits are the sign patterns of the minimal linear dependencies
among columns.  :class:`RealizedOM` answers basis and fundamental
circuit/cocircuit queries from exact integer basis tableaux, and reads
its whole circuit and cocircuit sets off the tableaux of all its bases:
every circuit is a fundamental circuit and every cocircuit a fundamental
cocircuit of some basis.  The module also builds the complementarity
instance [I; -M; -q] from an LCP pair (M, q).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from . import linalg
from .guards import MATRIX_COLUMNS, check
from .om import NOT_A_BASIS, ExplicitOM, NotABasis
from .signs import GroundSet, SignedSet, sign_masks

Vector = tuple[Fraction, ...]


def parse_rational(value) -> Fraction:
    """Fraction from int, string 'p/q', or float-free decimal string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.replace("−", "-").strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot parse rational from {value!r}")


def parse_vector(values: Iterable) -> Vector:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of rationals, got {values!r}")
    return tuple(parse_rational(v) for v in values)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix of exact rationals, stored row-major."""

    entries: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.entries and len({len(r) for r in self.entries}) != 1:
            raise ValueError("rows must have equal length")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"expected a list of matrix rows, got {rows!r}")
        return cls(tuple(parse_vector(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            tuple(
                tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
            )
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.entries]

    def to_json_rows(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.entries]


def hstack(*parts: RationalMatrix) -> RationalMatrix:
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise ValueError("row counts differ")
    return RationalMatrix(
        tuple(
            tuple(itertools.chain.from_iterable(p.entries[i] for p in parts))
            for i in range(rows)
        )
    )


def negated(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(tuple(tuple(-v for v in row) for row in m.entries))


def circuits_from_matrix(matrix: RationalMatrix, ground: GroundSet) -> ExplicitOM:
    """Oriented matroid of the column configuration, as an explicit circuit set."""
    return RealizedOM(matrix, ground).to_explicit()


def _integer_tableau(cols: list[list[int]], js: list[int]):
    """``(d, t)`` with ``t = d * B^-1 A`` over all the integer columns
    ``cols`` of A, B its square submatrix on the columns ``js``, from one
    ``linalg.invert``; None when B is singular."""
    inv = linalg.invert([[cols[j][i] for j in js] for i in range(len(js))])
    if inv is None:
        return None
    d, rows = inv
    return d, [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]


def is_generic(matrix: RationalMatrix) -> bool:
    """Every row-count-sized column subset is nonsingular (uniform realization).

    Each column's denominators are cleared once; a positive column scaling
    cannot make a minor vanish, so the work is on integers.  B is the first
    r independent columns, as elimination finds them, and T = D * B^-1 A
    its integer tableau, from one ``linalg.invert``, read on the m - r
    other columns.  An r-subset S is a basis iff the k x k minor of T
    on the rows of B - S and the columns of S - B is non-zero, k = |S - B|:
    by Cramer's rule that minor is +-D^(k-1) det A_S.  So the entries of T
    settle k = 1, and each k >= 2 takes one ``linalg.det`` per k x k minor,
    C(r, k) C(m - r, k) of them: C(m, r) - 1 minors in all, instead of
    C(m, r) determinants of size r.  Stops at the first zero.
    """
    r, m = matrix.rows, matrix.cols
    if m < r:
        return True
    cols = [linalg.integer_multiple(matrix.column(j))[1] for j in range(m)]
    basis = linalg.pivot_columns([[col[i] for col in cols] for i in range(r)])
    if len(basis) < r:
        return False
    rest = [j for j in range(m) if j not in basis]
    t = [[row[j] for j in rest] for row in _integer_tableau(cols, basis)[1]]
    if any(0 in row for row in t):
        return False
    for k in range(2, min(r, m - r) + 1):
        for ii in itertools.combinations(t, k):
            for jj in itertools.combinations(range(m - r), k):
                if linalg.det([[row[j] for j in jj] for row in ii]) == 0:
                    return False
    return True


def plcp_matrix(m: RationalMatrix, q: Vector) -> RationalMatrix:
    """The configuration [I; -M; -q] with columns s_1..s_n, t_1..t_n, q."""
    n = m.rows
    if m.cols != n or len(q) != n:
        raise ValueError("need a square M and a matching q")
    neg_q = RationalMatrix(tuple((-v,) for v in q))
    return hstack(RationalMatrix.identity(n), negated(m), neg_q)


def omcp_from_plcp(m: RationalMatrix, q: Vector) -> ExplicitOM:
    """Explicit circuit set of the complementarity instance built from (M, q)."""
    ground = GroundSet.complementary(m.rows, with_q=True)
    return RealizedOM(plcp_matrix(m, q), ground).to_explicit()


class RealizedOM:
    """Circuit oracle backed by a rational realization.

    The oracle keeps a maximal independent set of the matrix rows, which
    span the same row space and so realize the same oriented matroid, and
    an integer copy A of its columns on those rows, each scaled by the
    positive lcm of its denominators, which leaves the oriented matroid
    unchanged too.  Each basis B caches its tableau T = D * B^-1 A over
    all columns, with D = +-det B and the column index of the basis
    element behind each row (None when B is singular).  C(B, e) is read
    off column e of T and C*(B, e) off the row of e, both times sign(D),
    without further arithmetic.  Only the first tableau is factored, by
    ``linalg.invert``; every other basis is walked to from the tableau
    used last, one ``linalg.pivot`` per entering column.  The dict stays:
    games, their transcript checks and degeneracy scans revisit bases in
    vertex order, and walking there anew costs many times the pivots.
    The circuit and cocircuit sets are read off the tableaux of all
    bases, which one walk visits in lexicographic order without caching;
    a circuit recurs at every basis that contains its support minus one
    element, so each is kept once, as its pair of sign masks, before it
    becomes a SignedSet.
    """

    def __init__(self, matrix: RationalMatrix, ground: GroundSet):
        if matrix.cols != ground.size:
            raise ValueError("column count does not match ground-set size")
        self.matrix = matrix
        self.ground = ground
        cols = [linalg.integer_multiple(matrix.column(j))[1] for j in range(matrix.cols)]
        kept = list(range(matrix.rows))
        if linalg.mat_rank([[col[i] for col in cols] for i in kept]) < len(kept):
            kept = linalg.pivot_columns(cols)  # of the transpose: the first independent rows
        self._spanning = RationalMatrix(tuple(matrix.entries[i] for i in kept))
        self._columns = tuple([col[i] for i in kept] for col in cols)
        self._basis_cache: dict = {}
        self._last = None

    @property
    def rank(self) -> int:
        return self._spanning.rows

    def _column_indices(self, names: Iterable[str]) -> list[int]:
        return sorted(map(self.ground.index, names))

    def _tableau(self, names: frozenset[str]):
        """``(js, d, t)`` with ``t = d * B^-1 A``, or None when ``names`` is no basis.

        Row k of ``t`` belongs to the basis column ``js[k]``.  Cached per
        basis; the entry used last starts the walk to the next miss.
        """
        if len(names) != self.rank:
            return None
        cache = self._basis_cache
        if names not in cache:
            cache[names] = self._walk(self._column_indices(names))
        entry = cache[names]
        if entry is not None:
            self._last = entry
        return entry

    def _walk(self, target: list[int]):
        """The tableau of the columns ``target``, walked from the last one used.

        Each entering column c, in increasing index, replaces the first
        leaving row with a non-zero entry in column c.  None when there is
        no such row: then c depends on columns that stay, so ``target`` is
        no basis.
        """
        if self._last is None:
            first = _integer_tableau(self._columns, target)
            return None if first is None else (target, *first)
        js, d, t = self._last
        js = list(js)
        stays = set(target)
        for c in sorted(stays.difference(js)):
            for i, j in enumerate(js):
                if j not in stays and t[i][c] != 0:
                    break
            else:
                return None
            t = linalg.pivot(t, i, c, d)
            d = t[i][c]
            js[i] = c
        return js, d, t

    def _all_tableaux(self) -> Iterator[tuple[list[int], int, list[list[int]]]]:
        """``(js, d, t)`` for every basis, the rank-subsets of columns taken
        in lexicographic order; each is walked to from the one before and
        none is stored in the basis cache."""
        for target in itertools.combinations(range(self.matrix.cols), self.rank):
            entry = self._walk(list(target))
            if entry is not None:
                self._last = entry
                yield entry

    def bases(self) -> Iterator[frozenset[str]]:
        """Every basis, in the order of :meth:`ExplicitOM.bases`."""
        names = self.ground.elements
        for js, _, _ in self._all_tableaux():
            yield frozenset(names[j] for j in js)

    def _signed(self, d: int, x: Iterable[int]) -> SignedSet:
        """The signed set sign(d) * x; a negative d swaps the two masks."""
        return SignedSet(self.ground, *sign_masks(x)[:: 1 if d > 0 else -1])

    def _fundamental_masks(
        self, js: list[int], d: int, t: list[list[int]], e: int
    ) -> tuple[int, int]:
        """``(pos_mask, neg_mask)`` of C(B, e), sign(D) times -(column e of T)
        on B and D at e: + at e, and -sign(D) * sign(T[k][e]) at the basis
        column of row k."""
        above = below = 0
        for j, row in zip(js, t):
            if row[e] > 0:
                above |= 1 << j
            elif row[e] < 0:
                below |= 1 << j
        return (1 << e | below, above) if d > 0 else (1 << e | above, below)

    def is_basis(self, subset: Iterable[str]) -> bool:
        return self._tableau(frozenset(subset)) is not None

    def is_independent(self, subset: Iterable[str]) -> bool:
        cols = [self._columns[j] for j in self._column_indices(subset)]
        return linalg.mat_rank(cols) == len(cols)

    def is_uniform(self) -> bool:
        return self._uniform

    @cached_property
    def _uniform(self) -> bool:
        return is_generic(self._spanning)

    def query(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        """NotABasis, or the fundamental circuit C(B, e) from column e of the tableau."""
        names = frozenset(basis)
        if e in names:
            raise ValueError("oracle element must lie outside the queried set")
        j_e = self.ground.index(e)
        entry = self._tableau(names)
        if entry is None:
            return NOT_A_BASIS
        return SignedSet(self.ground, *self._fundamental_masks(*entry, j_e))

    def fundamental_circuit(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        return self.query(basis, e)

    def fundamental_cocircuit(self, basis: Iterable[str], e: str) -> SignedSet:
        """Signs of the basis covector vanishing on B minus e, positive at e:
        sign(D) times the row of e in the tableau."""
        names = frozenset(basis)
        if e not in names:
            raise ValueError("fundamental cocircuits need an element of the basis")
        entry = self._tableau(names)
        if entry is None:
            raise ValueError("fundamental cocircuits are defined for bases only")
        js, d, t = entry
        return self._signed(d, t[js.index(self.ground.index(e))])

    def fundamental_cocircuits(self, basis: Iterable[str]) -> dict[str, SignedSet]:
        """C*(B, e) for every e in B, each read off the cached tableau of B."""
        names = frozenset(basis)
        return {e: self.fundamental_cocircuit(names, e) for e in names}

    def cocircuits(self) -> frozenset[SignedSet]:
        """All cocircuits: every row of every basis tableau, times sign(D), and
        its negation."""
        return self._cocircuits

    @cached_property
    def _cocircuits(self) -> frozenset[SignedSet]:
        found = {self._signed(d, row) for _, d, t in self._all_tableaux() for row in t}
        return frozenset(found | {y.negate() for y in found})

    def circuit_set(self) -> frozenset[SignedSet]:
        return self._explicit.circuits

    def to_explicit(self) -> ExplicitOM:
        return self._explicit

    @cached_property
    def _explicit(self) -> ExplicitOM:
        """Every C(B, e) with e outside a basis B, and its negation.

        Each C(B, e) is read as its pair of masks, and one SignedSet is
        built per distinct pair and per negation.
        """
        check(self.matrix.cols, MATRIX_COLUMNS, "matrix columns")
        found = {
            self._fundamental_masks(js, d, t, e)
            for js, d, t in self._all_tableaux()
            for e in range(self.matrix.cols)
            if e not in js
        }
        found.update([(neg, pos) for pos, neg in found])
        return ExplicitOM(self.ground, frozenset(SignedSet(self.ground, *x) for x in found))
