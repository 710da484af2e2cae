"""Exact-rational realizations of oriented matroids.

A column configuration over the rationals realizes an oriented matroid
whose circuits are the sign patterns of the minimal linear dependencies
among columns.  Besides materializing that circuit set, this module
provides :class:`RealizedOM`, an oracle-grade representation that answers
basis and fundamental circuit/cocircuit queries directly from the matrix
without ever enumerating circuits, and the construction producing the
complementarity instance [I; -M; -q] from an LCP pair (M, q).
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
from .signs import MINUS, PLUS, ZERO, GroundSet, SignedSet

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

    def scale_column(self, j: int, factor: Fraction) -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(v * factor if k == j else v for k, v in enumerate(row))
                for row in self.entries
            )
        )

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
    """Oriented matroid of the column configuration.

    Column subsets are scanned in increasing size; a subset that contains no
    previously found circuit support and is linearly dependent is minimal,
    and its (one-dimensional) exact kernel yields the dependency signs.
    Both sign variants are emitted, normalized so the first non-zero
    coefficient of the representative is positive.
    """
    if matrix.cols != ground.size:
        raise ValueError("column count does not match ground-set size")
    check(matrix.cols, MATRIX_COLUMNS, "matrix columns")

    found_supports: list[int] = []
    circuits: set[SignedSet] = set()
    indices = range(matrix.cols)
    for size in range(1, matrix.cols + 1):
        for combo in itertools.combinations(indices, size):
            mask = 0
            for j in combo:
                mask |= 1 << j
            if any(s & ~mask == 0 for s in found_supports):
                continue
            kernel = linalg.kernel_vector_of_columns(
                [matrix.column(j) for j in combo]
            )
            if kernel is None:
                continue
            if any(v == 0 for v in kernel):
                raise RuntimeError("kernel of a minimal dependent set must have full support")
            if kernel[0] < 0:
                kernel = [-v for v in kernel]
            signs = [ZERO] * ground.size
            for j, v in zip(combo, kernel):
                signs[j] = PLUS if v > 0 else MINUS
            circuit = SignedSet(ground, tuple(signs))
            circuits.add(circuit)
            circuits.add(circuit.negate())
            found_supports.append(mask)
    return ExplicitOM(ground, frozenset(circuits))


def is_generic(matrix: RationalMatrix) -> bool:
    """Every row-count-sized column subset is nonsingular (uniform realization).

    Each column's denominators are cleared once; a positive column scaling
    cannot make a minor vanish, so the minors are taken on integers.
    """
    r = matrix.rows
    cols = [linalg.integer_multiple(matrix.column(j))[1] for j in range(matrix.cols)]
    for combo in itertools.combinations(range(matrix.cols), r):
        if linalg.det([[cols[j][i] for j in combo] for i in range(r)]) == 0:
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
    return circuits_from_matrix(plcp_matrix(m, q), ground)


@dataclass(frozen=True, eq=False)
class RealizedOM:
    """Circuit oracle backed by a full-row-rank rational realization.

    Queries are answered from exact integer tableaux, so no part of the
    circuit collection is materialized up front.  The oracle keeps an
    integer copy A of its columns, each scaled by the positive lcm of its
    denominators, which leaves the oriented matroid unchanged.  Each basis
    B caches its tableau T = D * B^-1 A over all columns, with D = +-det B
    and the column index of the basis element behind each row (None when
    B is singular).  C(B, e) is read off column e of T and C*(B, e) off
    the row of e, both times sign(D), without further arithmetic.  Only
    the first tableau is factored, by ``linalg.invert``; every other
    basis is walked to from the tableau used last, one ``linalg.pivot``
    per entering column.  The dict stays: games, their transcript checks
    and degeneracy scans revisit bases in vertex order, and walking
    there anew costs many times the pivots.
    Rank-deficient realizations go through :func:`circuits_from_matrix`
    and :class:`ExplicitOM` instead; every configuration this package
    builds has an [I; ...] block.
    """

    matrix: RationalMatrix
    ground: GroundSet

    def __post_init__(self) -> None:
        if self.matrix.cols != self.ground.size:
            raise ValueError("column count does not match ground-set size")
        self.__dict__["_columns"] = tuple(
            linalg.integer_multiple(self.matrix.column(j))[1] for j in range(self.matrix.cols)
        )
        if linalg.mat_rank(self._rows(range(self.matrix.cols))) != self.matrix.rows:
            raise ValueError("realization oracle requires full row rank")

    @property
    def rank(self) -> int:
        return self.matrix.rows

    def _rows(self, js: Iterable[int]) -> list[list[int]]:
        """Row-major integer submatrix on the columns ``js``."""
        cols = [self._columns[j] for j in js]
        return [[col[i] for col in cols] for i in range(self.rank)]

    def _column_indices(self, names: Iterable[str]) -> list[int]:
        return sorted(map(self.ground.index, names))

    def _tableau(self, names: frozenset[str]):
        """``(js, d, t)`` with ``t = d * B^-1 A``, or None when ``names`` is no basis.

        Row k of ``t`` belongs to the basis column ``js[k]``.  Cached per
        basis; the entry used last starts the walk to the next miss.
        """
        if len(names) != self.rank:
            return None
        cache = self.__dict__.setdefault("_basis_cache", {})
        if names not in cache:
            cache[names] = self._walk(self._column_indices(names))
        entry = cache[names]
        if entry is not None:
            self.__dict__["_last"] = entry
        return entry

    def _walk(self, target: list[int]):
        """The tableau of the columns ``target``, walked from the last one used.

        Each entering column c, in increasing index, replaces the first
        leaving row with a non-zero entry in column c.  None when there is
        no such row: then c depends on columns that stay, so ``target`` is
        no basis.
        """
        last = self.__dict__.get("_last")
        if last is None:
            inv = linalg.invert(self._rows(target))
            if inv is None:
                return None
            d, rows = inv
            cols = self._columns
            return target, d, [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]
        js, d, t = last
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

    def is_basis(self, subset: Iterable[str]) -> bool:
        return self._tableau(frozenset(subset)) is not None

    def is_independent(self, subset: Iterable[str]) -> bool:
        js = self._column_indices(subset)
        return linalg.mat_rank(self._rows(js)) == len(js)

    def is_uniform(self) -> bool:
        return self._uniform

    @cached_property
    def _uniform(self) -> bool:
        return is_generic(self.matrix)

    def query(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        """NotABasis, or the fundamental circuit C(B, e) from column e of the tableau."""
        names = frozenset(basis)
        if e in names:
            raise ValueError("oracle element must lie outside the queried set")
        j_e = self.ground.index(e)
        entry = self._tableau(names)
        if entry is None:
            return NOT_A_BASIS
        js, d, t = entry
        signs = [ZERO] * self.ground.size
        signs[j_e] = PLUS
        # C(B, e) is -(B^-1 a_e) on B and + at e.
        for j, row in zip(js, t):
            v = row[j_e] if d > 0 else -row[j_e]
            signs[j] = MINUS if v > 0 else (PLUS if v < 0 else ZERO)
        return SignedSet(self.ground, tuple(signs))

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
        row = t[js.index(self.ground.index(e))]
        if d < 0:
            row = [-x for x in row]
        return SignedSet(
            self.ground, tuple(PLUS if v > 0 else (MINUS if v < 0 else ZERO) for v in row)
        )

    def fundamental_cocircuits(self, basis: Iterable[str]) -> dict[str, SignedSet]:
        """C*(B, e) for every e in B, each read off the cached tableau of B."""
        names = frozenset(basis)
        return {e: self.fundamental_cocircuit(names, e) for e in names}

    def hyperplanes(self) -> Iterator[tuple[list[Fraction], SignedSet]]:
        """``(y, cocircuit)`` per set of rank - 1 columns spanning a hyperplane.

        y is normal to the hyperplane; the cocircuit holds the signs of
        ``y . column`` over the integer columns.  A hyperplane spanned by
        several column sets comes once per set.
        """
        n = self.rank
        cols = self._columns
        for combo in itertools.combinations(range(self.matrix.cols), n - 1):
            sub = [cols[j] for j in combo]
            if sub and linalg.mat_rank([[c[i] for c in sub] for i in range(n)]) != n - 1:
                continue
            # y spans the orthogonal complement of the chosen columns.
            y = linalg.kernel_vector_of_columns(
                [[col[i] for col in sub] for i in range(n)] if sub else []
            )
            if y is None:
                if sub:
                    continue
                y = [Fraction(1)] + [Fraction(0)] * (n - 1)
            signs = []
            for col in cols:
                v = sum(y[i] * col[i] for i in range(n))
                signs.append(PLUS if v > 0 else (MINUS if v < 0 else ZERO))
            if any(signs):
                yield y, SignedSet(self.ground, tuple(signs))

    def cocircuits(self) -> frozenset[SignedSet]:
        """All cocircuits, one ± pair per hyperplane spanned by columns."""
        return self._cocircuits

    @cached_property
    def _cocircuits(self) -> frozenset[SignedSet]:
        return frozenset(x for _, d in self.hyperplanes() for x in (d, d.negate()))

    def circuit_set(self) -> frozenset[SignedSet]:
        return self._explicit.circuits

    def to_explicit(self) -> ExplicitOM:
        return self._explicit

    @cached_property
    def _explicit(self) -> ExplicitOM:
        return circuits_from_matrix(self.matrix, self.ground)
