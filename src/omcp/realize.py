"""Exact-rational realizations of oriented matroids.

A column configuration over the rationals realizes an oriented matroid
whose circuits are the sign patterns of the minimal linear dependencies
among columns.  :class:`RealizedOM` answers basis and fundamental
circuit/cocircuit queries from exact integer basis tableaux, cached by
basis mask, the first one read off a single ``linalg.invert`` of its
basis on the other columns and every later one reached by exchanges.
Its basis, circuit and cocircuit sets come from one table: every minor
of a single compact tableau, a chirotope of the realization up to known
signs, read by Cramer's rule.  The fundamental circuit C(B, q) of a complementary basis
comes from a principal-pivot stack instead, keyed by the t half of B's
mask, whose transposed tableaux drop one slot per fixed dimension and
are not cached; asked in cube vertex order through ``query_vertex(v)``,
it walks the whole cube depth-first, one exchange per vertex.  The
module also builds the complementarity instance [I; -M; -q] from an LCP
pair (M, q).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from . import linalg
from .guards import MATRIX_COLUMNS, check
from .om import CircuitOracle, ExplicitOM, NotABasis
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


def _integer_tableau(cols: list[list[int]], js: list[int], ns: list[int]):
    """``(d, t)``: the compact tableau ``t = d * B^-1 A`` on the columns
    ``ns``, one slot each (see :mod:`omcp.linalg`), for the integer
    columns ``cols`` of A and B their square submatrix on the columns
    ``js``, from one ``linalg.invert``; None when B is singular."""
    height = range(len(js))
    return linalg.invert(
        [[cols[j][i] for j in js] for i in height],
        [[cols[j][i] for j in ns] for i in height],
    )


def _compact(cols: list[list[int]], r: int):
    """``(js, ns, d, t)``: the compact tableau of the integer columns ``cols``
    on their first ``r`` rows at the first independent columns ``js``."""
    full, js, d, _ = linalg._eliminate([[col[i] for col in cols] for i in range(r)], len(cols))
    ns = [j for j in range(len(cols)) if j not in js]
    return js, ns, d, [[row[j] for j in ns] for row in full]


def _minors(t: list[list[int]], r: int, w: int):
    """Every minor of the r x w tableau ``t``, one row tuple R at a time:
    ``(R, {C: minor})`` for the position masks C of the slots, level 0 first.

    Each k x k minor is the Laplace expansion along the last row of R: the
    sum over the i-th j in C of (-1)^i T[max R][j] times the minor on
    R - max R and C - j.  The cofactor sign is (-1)^(k-1+i), so level k
    holds its minors times (-1)^(k(k-1)/2).  Two levels are kept.
    """
    below = {(): {0: 1}}
    yield (), below[()]
    for k in range(1, min(r, w) + 1):
        slots = [(sum(1 << j for j in cc), cc) for cc in itertools.combinations(range(w), k)]
        level = {}
        for rr in itertools.combinations(range(r), k):
            row, lower = t[rr[-1]], below[rr[:-1]]
            level[rr] = here = {}
            for mask, cc in slots:
                s, e = 0, 1
                for j in cc:
                    s += e * row[j] * lower[mask ^ 1 << j]
                    e = -e
                here[mask] = s
            yield rr, here
        below = level


def is_generic(matrix: RationalMatrix) -> bool:
    """Every row-count-sized column subset is nonsingular (uniform realization).

    Positive column scaling cannot make a minor vanish, so each column's
    denominators are cleared once.  An r-subset S is a basis iff the minor
    on B ^ S of the compact tableau T of one elimination, at its basis B,
    is non-zero: by Cramer's rule it is +-D^(k-1) det A_S, k = |S - B|.  So
    the first row tuple of :func:`_minors` with a zero minor ends the scan.
    """
    r, m = matrix.rows, matrix.cols
    js, ns, _, t = _compact([linalg.integer_multiple(matrix.column(j))[1] for j in range(m)], r)
    return m < r or len(js) == r and all(all(here.values()) for _, here in _minors(t, r, m - r))


def _cramer(minors: dict[int, int], rows: list[int], slots: list[int], flip: bool):
    """``(pos_mask, neg_mask)`` of every circuit of [D I | T], up to negation,
    from the minors of T keyed by ground masks (``RealizedOM._table``), for
    the ground indices ``rows`` and ``slots`` of T and ``flip = D > 0``.
    Swapped, with ``flip = D < 0``, it reads the dual [-T^T | D I].

    Where the k minors on k - 1 rows R and the slots X - j are non-zero,
    the kernel vectors (y, x) with y = 0 on R and x on X are the multiples
    of one circuit, and every circuit is one of these; by Cramer's rule
    x_j = (-1)^idx(j) det T[R, X - j], y_i = -sign(D) (-1)^#{a in R : a < i}
    det T[R + i, X], and the level sign of the minors leaves (-1)^(k-1) on y.
    """
    found = set()
    rows, slots = [1 << i for i in rows], [1 << j for j in slots]
    for k in range(1, min(len(rows) + 1, len(slots)) + 1):
        heads = [
            (r, [(i, (r & i - 1).bit_count() + k - 1 + flip & 1) for i in rows if not r & i])
            for r in map(sum, itertools.combinations(rows, k - 1))
        ]
        for xx in itertools.combinations(slots, k):
            x, xs = sum(xx), [(j, a & 1) for a, j in enumerate(xx)]
            for r, others in heads:
                key, pos, neg = r | x, 0, 0
                for i, odd in xs + others:
                    v = minors[key ^ i]
                    if v and (v > 0) ^ odd:
                        pos |= i
                    elif v:
                        neg |= i
                    elif i & x:
                        break
                else:
                    found.add((pos, neg))
    return found


def _signed_masks(keys: Iterable[int], values: Iterable[int], e: int, flip: bool):
    """``(pos_mask, neg_mask)`` of the signed set that is + at ``e`` and has
    the sign of each value at its key, negated there when ``flip``.

    On a compact tableau ``(js, ns, d, t)`` (see :class:`RealizedOM`),
    C(B, e) takes the basis columns ``js``, the slot of e and
    ``flip = d > 0``: sign(D) times minus that slot on B, and D at e.
    C*(B, e) takes the slot columns ``ns``, the row of e and
    ``flip = d < 0``: sign(D) times the full row of e, which has D at e and
    0 at the other basis columns.
    """
    above = below = 0
    for j, x in zip(keys, values):
        if x > 0:
            above |= 1 << j
        elif x < 0:
            below |= 1 << j
    return (1 << e | below, above) if flip else (1 << e | above, below)


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


class RealizedOM(CircuitOracle):
    """Circuit oracle backed by a rational realization.

    The oracle keeps a maximal independent set of the matrix rows, which
    span the same row space and so realize the same oriented matroid, and
    an integer copy A of its columns on those rows, each scaled by the
    positive lcm of its denominators, which leaves the oriented matroid
    unchanged too.  Each basis B caches its compact tableau (see
    :mod:`omcp.linalg`), keyed by the ground-index mask of B: the basis
    column behind each row, the column behind each slot, D = +-det B and
    T = D * B^-1 A on the slots only, r x (m - r) integers (None when B
    is singular).  C(B, e) is read off the slot of e and C*(B, e) off the
    row of e, with D at e and 0 at the other basis columns, both times
    sign(D), without further arithmetic.  Only the first tableau is
    factored: ``linalg.invert`` eliminates B together with the other
    columns once, and its result is T.  Every other basis is walked to,
    one ``linalg.pivot`` per entering column: the leaving column takes
    over the entering column's slot, with D in its own row and -T[i][c] in
    every other row i.  The walk starts from a cached basis that differs
    from B in one complementary pair, one exchange, when there is one, and
    from the tableau used last otherwise.  The dict stays for these
    queries: games, their transcript checks and degeneracy scans revisit
    bases in vertex order, and walking there anew costs many times the
    pivots.

    Every query reaches one mask core, ``_circuit(mask, index)``:
    ``query(B, e)`` turns the names into a mask after its checks, and the
    vertex entry ``query_vertex(v)`` asks for C(B(v), q) with the mask of
    B(v), so no names are built on the way.

    C(B, q) of a complementary n-set B (ground with q, rank n) is the slot
    of q of the principal pivot transform of [M | q] at B (Tucker 1963),
    and comes from a principal-pivot stack that caches nothing per set and
    reads no cube vertex order.  It names B by the t half t of B's mask,
    bit i for dimension i (see :class:`GroundSet`).  An entry holds t, the
    number k of its fixed dimensions, the low k bits of t, its D and its
    tableau transposed: one list per slot, for the dimensions >= k and
    then q, each holding n entries in dimension order.  The bottom, k = 0,
    is factored from the first set queried (t = 0 for a materialized
    cube) and stays for the oracle's lifetime; later general queries walk
    from it, but it does not enter the basis cache, and a singular first
    set is cached as no basis and not factored again.  A query for t pops
    the entries with ``(state ^ t) & (1 << k) - 1`` non-zero.  Then, for
    each dimension j where the top differs from t, lowest first, it cuts
    the slots below j off (one outer slice), pivots at the slot of j and
    the entry of j, drops the slot of j and pushes the result with
    k = j + 1; the undecided dimensions keep their state.  The cut is
    exact: an exchange at (r, c) reads only row r and slot c and updates
    each other slot from itself, and no exchange above the new entry reads
    a slot below j.  So the stack holds at most n + 1 entries.  The sets
    that agree with an entry on its fixed dimensions form one run of cube
    vertex order, whose highest bit is dimension 0, so a scan in vertex
    order, as a materialized cube makes, is a depth-first walk of the
    pivot tree that pushes each entry once: 2^n - 1 exchanges from any
    bottom, one per vertex after the first from vertex 0.  On the
    transposed layout the rows of the dimensions exchanged on the path
    from the bottom, ``t ^ bottom``, read negated (see :mod:`omcp.linalg`),
    which the answer undoes with that one mask.  A zero principal pivot
    goes to the cached tableaux, as every other query does.

    The basis, circuit and cocircuit sets are read off ``_table``, every
    minor of the compact tableau T of one first basis B keyed by the ground
    mask of its rows and slots: the minor at B ^ S is +-D^(k-1) det A_S for
    an r-subset S.  ``_cramer`` reads the circuits off it and, transposed,
    the cocircuits; each is kept once, as its pair of sign masks.
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
        self._stack: list[tuple[int, int, int, list[list[int]]]] = []
        self._q = None if ground.q is None else ground.index(ground.q)

    @cached_property
    def rank(self) -> int:
        return self._spanning.rows

    def _tableau(self, b: int):
        """``(js, ns, d, t)``, the compact tableau of the columns in the
        ground-index mask ``b``, or None when they are no basis.

        Row k of ``t`` belongs to the basis column ``js[k]`` and slot s to
        the column ``ns[s]``.  Cached per basis mask; the entry used last
        starts the walk to the next miss unless a cached basis lies one
        exchange of a complementary pair away.
        """
        if b.bit_count() != self.rank:
            return None
        cache = self._basis_cache
        if b not in cache:
            cache[b] = self._walk(b)
        entry = cache[b]
        if entry is not None:
            self._last = entry
        return entry

    def _names_tableau(self, names: frozenset[str]):
        """:meth:`_tableau` of ``names``; a set of the wrong size is no basis
        before its names are looked up."""
        return self._tableau(self.ground.mask(names)) if len(names) == self.rank else None

    def _walk(self, b: int):
        """The tableau of the columns in the mask ``b``, walked from a cached
        neighbour ``b ^ pair`` if there is one, else from the last one used.

        Each entering column c, in slot order, replaces the first leaving
        row with a non-zero entry in the slot of c.  None when there is no
        such row: then c depends on columns that stay, so ``b`` is no basis.
        """
        start = self._last
        for pair in self.ground.pair_masks:
            near = self._basis_cache.get(b ^ pair)
            if near is not None:
                start = near
                break
        if start is None:
            target = [j for j in range(len(self._columns)) if b >> j & 1]
            ns = [j for j in range(len(self._columns)) if not b >> j & 1]
            first = _integer_tableau(self._columns, target, ns)
            return None if first is None else (target, ns, *first)
        js, ns, d, t = start
        js, ns = list(js), list(ns)
        for s, c in enumerate(ns):
            if not b >> c & 1:
                continue
            for i, j in enumerate(js):
                if not b >> j & 1 and t[i][s] != 0:
                    break
            else:
                return None
            d, t = t[i][s], linalg.pivot(t, i, s, d)
            js[i], ns[s] = c, j
        return js, ns, d, t

    @cached_property
    def _table(self) -> tuple[list[int], list[int], int, dict[int, int]]:
        """``(js, ns, d, minors)``: the basis ``js`` of one elimination, the
        slots ``ns``, D, and every minor of the tableau T, keyed by the
        ground-index mask of its rows and slots (class docstring)."""
        check(self.matrix.cols, MATRIX_COLUMNS, "matrix columns")
        js, ns, d, t = _compact(self._columns, self.rank)
        at_slots, minors = [0], {}  # the ground mask of each slot position mask
        for j in ns:
            at_slots += [c | 1 << j for c in at_slots]
        for rr, here in _minors(t, len(js), len(ns)):
            rows = sum(1 << js[i] for i in rr)
            minors.update({rows | at_slots[c]: v for c, v in here.items()})
        return js, ns, d, minors

    def bases(self) -> Iterator[frozenset[str]]:
        """Every basis, in the order of :meth:`ExplicitOM.bases`."""
        js, _, _, minors = self._table
        b, names = sum(1 << j for j in js), self.ground.elements
        for s in itertools.combinations(range(self.matrix.cols), self.rank):
            if minors[b ^ sum(1 << j for j in s)]:
                yield frozenset(names[j] for j in s)

    def is_basis(self, subset: Iterable[str]) -> bool:
        return self._names_tableau(frozenset(subset)) is not None

    def is_independent(self, subset: Iterable[str]) -> bool:
        cols = [self._columns[j] for j in map(self.ground.index, set(subset))]
        return linalg.mat_rank(cols) == len(cols)

    def is_uniform(self) -> bool:
        return self._uniform

    @cached_property
    def _uniform(self) -> bool:
        return is_generic(self._spanning)

    def _bottom(self, t: int, b: int):
        """The stack's bottom entry, factored from the complementary n-set
        with t half ``t`` and mask ``b`` when the stack is empty; None when
        the rank is not n or the set is no basis.  A set the cache holds as
        no basis is not factored again; a singular one is cached as such."""
        stack = self._stack
        if stack:
            return stack[0]
        ground, cache = self.ground, self._basis_cache
        if ground.n_pairs != self.rank or b in cache and cache[b] is None:
            return None
        js = ground.vertex_columns(t)
        ns = ground.vertex_columns(~t) + [self._q]
        first = _integer_tableau(self._columns, js, ns)
        if first is None:
            cache[b] = None
            return None
        d, rows = first
        self._last = js, ns, d, rows
        stack.append((t, 0, d, [list(slot) for slot in zip(*rows)]))
        return stack[0]

    def _stack_circuit(self, t: int, b: int) -> tuple[int, int] | None:
        """C(B, q) as ``(pos_mask, neg_mask)`` for the complementary n-set B
        with t half ``t`` and mask ``b``, from the principal-pivot stack
        (class docstring); None at a zero principal pivot or if B is no basis.

        The answer is sign(D) times minus the slot of q of the entry at t,
        with the rows of the dimensions exchanged on the path from the
        bottom read negated."""
        if self._bottom(t, b) is None:
            return None
        stack = self._stack
        state, k, d, u = stack[-1]
        while (state ^ t) & (1 << k) - 1:
            stack.pop()
            state, k, d, u = stack[-1]
        diff = state ^ t
        while diff:
            bit = diff & -diff
            j = bit.bit_length() - 1
            u = u[j - k:]  # cut the slots below j
            p = u[0][j]
            if p == 0:
                return None
            d, u = p, linalg.pivot(u, 0, j, d)[1:]  # drop the slot of j
            state, k, diff = state ^ bit, j + 1, diff ^ bit
            stack.append((state, k, d, u))
        above, below = sign_masks(u[-1])  # bit i: the row of dimension i
        negated = t ^ stack[0][0]  # the dimensions exchanged from the bottom
        if d > 0:
            negated = ~negated
        swap = (above ^ below) & negated
        ground = self.ground
        return 1 << self._q | ground.in_basis(b, above ^ swap), ground.in_basis(b, below ^ swap)

    def _circuit(self, b: int, e: int) -> tuple[int, int] | None:
        """``(pos_mask, neg_mask)`` of C(B, e) for the ground-index mask ``b``
        of B and the index ``e``, or None when B is no basis: C(B, q) of a
        complementary B from the principal-pivot stack, every other answer,
        and one the stack cannot give, from the slot of e in the cached
        tableau."""
        half = self.ground.t_half(b) if e == self._q else None
        found = None if half is None else self._stack_circuit(half, b)
        if found is not None:
            return found
        entry = self._tableau(b)
        if entry is None:
            return None
        js, ns, d, t = entry
        s = ns.index(e)
        return _signed_masks(js, [row[s] for row in t], e, d > 0)

    def query(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        """NotABasis, or the fundamental circuit C(B, e) from the slot of e."""
        return self._names_query(basis, e)

    def fundamental_circuit(self, basis: Iterable[str], e: str) -> SignedSet | NotABasis:
        return self.query(basis, e)

    def fundamental_cocircuit(self, basis: Iterable[str], e: str) -> SignedSet:
        """Signs of the basis covector vanishing on B minus e, positive at e:
        sign(D) times the row of e in the tableau."""
        names = frozenset(basis)
        if e not in names:
            raise ValueError("fundamental cocircuits need an element of the basis")
        entry = self._names_tableau(names)
        if entry is None:
            raise ValueError("fundamental cocircuits are defined for bases only")
        js, ns, d, t = entry
        j_e = self.ground.index(e)
        return SignedSet(self.ground, *_signed_masks(ns, t[js.index(j_e)], j_e, d < 0))

    def fundamental_cocircuits(self, basis: Iterable[str]) -> dict[str, SignedSet]:
        """C*(B, e) for every e in B, each read off the cached tableau of B."""
        names = frozenset(basis)
        return {e: self.fundamental_cocircuit(names, e) for e in names}

    def cocircuits(self) -> frozenset[SignedSet]:
        """All cocircuits: the circuits of the dual, read off the table."""
        return self._cocircuits

    @cached_property
    def _cocircuits(self) -> frozenset[SignedSet]:
        js, ns, d, minors = self._table
        return self._with_negations(_cramer(minors, ns, js, d < 0))

    def circuit_set(self) -> frozenset[SignedSet]:
        return self._explicit.circuits

    def to_explicit(self) -> ExplicitOM:
        return self._explicit

    @cached_property
    def _explicit(self) -> ExplicitOM:
        js, ns, d, minors = self._table
        return ExplicitOM(self.ground, self._with_negations(_cramer(minors, js, ns, d > 0)))

    def _with_negations(self, masks: Iterable[tuple[int, int]]) -> frozenset[SignedSet]:
        """One SignedSet per distinct mask pair and per negation."""
        found = set(masks)
        found.update([(neg, pos) for pos, neg in found])
        return frozenset(SignedSet(self.ground, *x) for x in found)
