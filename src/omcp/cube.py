"""Hypercube orientations, partial orientations, and sink-finding.

Vertices of the n-cube are integers whose binary string (most significant
bit = dimension 0) matches the serialized vertex order 00, 01, 10, 11, ...
An orientation maps each vertex to its outmap, a tuple of half-edge signs:
+1 for outgoing, -1 for incoming, 0 for an unoriented (degenerate)
half-edge in the partial case.  Outmaps are the only stored and public
form.  The downward rule and the pair test run on two bit masks per
outmap, outgoing and unoriented, in vertex bit order.  The Szabo-Welzl,
partial and USO checks are one fold over two 2^n-bit vertex sets per
dimension, outgoing and unoriented, permuted by block swaps.  The USO
check shares it because a sign table has one sink in every face iff no
pair fails the Szabo-Welzl condition (Szabo & Welzl, FOCS 2001).  Masks
are derived inside this module only.  Orientations are either dense
tables or pure query oracles; both are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .guards import OMCP_SCAN_DIM, USO_EXHAUSTIVE_DIM, check
from .signs import MINUS, PLUS, ZERO, char_sign, sign_char


def vertex_bit(v: int, i: int, n: int) -> int:
    return (v >> (n - 1 - i)) & 1


def vertex_bits(v: int, n: int) -> tuple[int, ...]:
    return tuple(vertex_bit(v, i, n) for i in range(n))


def flip_vertex(v: int, i: int, n: int) -> int:
    return v ^ (1 << (n - 1 - i))


def project(v: int, dims: Sequence[int], n: int) -> int:
    """Vertex of the len(dims)-cube given by the coordinates of v on ``dims``, in order."""
    p = 0
    for d in dims:
        p = p << 1 | vertex_bit(v, d, n)
    return p


def _masks(out: Sequence[int]) -> tuple[int, int]:
    """(outgoing, unoriented) bit masks of one outmap, in vertex bit order."""
    plus = zero = 0
    for s in out:
        plus = plus << 1 | (s == PLUS)
        zero = zero << 1 | (s == ZERO)
    return plus, zero


def downward_outmap(v: int, out: Sequence[int]) -> tuple[int, ...]:
    """The outmap of v with every unoriented half-edge directed downward.

    Downward means toward the endpoint with fewer ones: the half-edge of
    dimension i is outgoing exactly when v has a one there.
    """
    n = len(out)
    plus, zero = _masks(out)
    down = plus | (zero & v)
    return tuple(PLUS if vertex_bit(down, i, n) else MINUS for i in range(n))


def is_sw_pair(v: int, w: int, out_v: Sequence[int], out_w: Sequence[int]) -> bool:
    """v != w and the outmaps agree on every dimension where v and w differ (UV1)."""
    (plus_v, zero_v), (plus_w, zero_w) = _masks(out_v), _masks(out_w)
    return v != w and (v ^ w) & ((plus_v ^ plus_w) | (zero_v ^ zero_w)) == 0


def vertex_name(v: int, n: int) -> str:
    """The name of vertex v: n characters '0' or '1', empty on the 0-cube."""
    return format(v, f"0{n}b") if n else ""


def vertex_from_name(s: str, n: int) -> int:
    """The vertex named by exactly n characters '0' or '1'."""
    if len(s) != n or s.strip("01"):
        raise ValueError(f"vertex name must be {n} characters 0 or 1, got {s!r}")
    return int(s or "0", 2)


class Orientation:
    """(Partial) orientation of the n-cube, dense table or query oracle."""

    def __init__(
        self,
        n: int,
        table: Sequence[tuple[int, ...]] | None = None,
        fn: Callable[[int], tuple[int, ...]] | None = None,
    ):
        if (table is None) == (fn is None):
            raise ValueError("provide exactly one of table or fn")
        self.n = n
        if table is not None:
            table = tuple(tuple(row) for row in table)
            if len(table) != 1 << n or any(len(row) != n for row in table):
                raise ValueError("table must hold one sign vector per vertex")
            self._table: tuple[tuple[int, ...], ...] | None = table
            self._fn = None
        else:
            self._table = None
            self._fn = fn

    @classmethod
    def from_outmaps(cls, outmaps: Sequence[str]) -> "Orientation":
        n = len(outmaps[0])
        return cls(
            n, table=[tuple(char_sign(c) for c in row) for row in outmaps]
        )

    def to_outmaps(self) -> list[str]:
        return ["".join(sign_char(s) for s in self.outmap(v)) for v in self.vertices()]

    def outmap(self, v: int) -> tuple[int, ...]:
        if self._table is not None:
            return self._table[v]
        return tuple(self._fn(v))

    def vertices(self) -> range:
        return range(1 << self.n)

    def materialize(self) -> "Orientation":
        """The dense table, listed in vertex order.

        Vertices are evaluated in Gray-code order, v = k ^ (k >> 1), so
        consecutive queries differ in one dimension and an oracle can move
        between them by one basis exchange.  When a vertex raises
        ValueError, the unevaluated vertices below it are evaluated in
        vertex order, so the error raised is that of the least failing
        vertex, as in a pass in vertex order.
        """
        if self._table is not None:
            return self
        check(self.n, OMCP_SCAN_DIM, "materialized cube dimension")
        table: list = [None] * (1 << self.n)
        for k in self.vertices():
            v = k ^ (k >> 1)
            try:
                table[v] = self.outmap(v)
            except ValueError:
                for u in range(v):
                    if table[u] is None:
                        self.outmap(u)
                raise
        return Orientation(self.n, table=table)

    def is_total(self) -> bool:
        return all(ZERO not in self.outmap(v) for v in self.vertices())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "outmaps": self.to_outmaps()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Orientation":
        outmaps = d.get("outmaps") if isinstance(d, dict) else None
        if not isinstance(outmaps, list) or not outmaps or not all(
            isinstance(row, str) for row in outmaps
        ):
            raise ValueError("'outmaps' must be a non-empty list of sign strings")
        o = cls.from_outmaps(outmaps)
        if o.n != d.get("n", o.n):
            raise ValueError("dimension does not match outmap length")
        return o


class CountingOracle:
    """Caching wrapper; ``count`` is the number of distinct vertices evaluated."""

    def __init__(self, fn: Callable[[int], tuple[int, ...]]):
        self._fn = fn
        self.cache: dict[int, tuple[int, ...]] = {}

    def __call__(self, v: int) -> tuple[int, ...]:
        if v not in self.cache:
            self.cache[v] = tuple(self._fn(v))
        return self.cache[v]

    @property
    def count(self) -> int:
        return len(self.cache)


@dataclass(frozen=True)
class Face:
    """Subcube: fixed coordinates with values plus the spanned dimension set."""

    n: int
    fixed: tuple[tuple[int, int], ...]
    spanned: frozenset[int]

    def __post_init__(self) -> None:
        fixed_dims = {d for d, _ in self.fixed}
        if fixed_dims & self.spanned or fixed_dims | self.spanned != set(range(self.n)):
            raise ValueError("fixed and spanned dimensions must partition [n]")
        if list(self.fixed) != sorted(self.fixed):
            raise ValueError("fixed coordinates must be sorted by dimension")

    @classmethod
    def whole(cls, n: int) -> "Face":
        return cls(n, (), frozenset(range(n)))

    @classmethod
    def of_vertex_span(cls, v: int, n: int, spanned: Iterable[int]) -> "Face":
        spanned = frozenset(spanned)
        fixed = tuple(
            (i, vertex_bit(v, i, n)) for i in range(n) if i not in spanned
        )
        return cls(n, fixed, spanned)

    @property
    def dim(self) -> int:
        return len(self.spanned)

    def contains(self, v: int) -> bool:
        return all(vertex_bit(v, d, self.n) == b for d, b in self.fixed)

    def vertices(self) -> Iterator[int]:
        base = 0
        for d, b in self.fixed:
            if b:
                base |= 1 << (self.n - 1 - d)
        span = sorted(self.spanned)
        for bits in itertools.product((0, 1), repeat=len(span)):
            v = base
            for d, b in zip(span, bits):
                if b:
                    v |= 1 << (self.n - 1 - d)
            yield v

    def fix_dim(self, i: int, bit: int) -> "Face":
        if i not in self.spanned:
            raise ValueError("can only fix a spanned dimension")
        fixed = tuple(sorted(self.fixed + ((i, bit),)))
        return Face(self.n, fixed, self.spanned - {i})

    def project(self, v: int) -> int:
        """Vertex of the dim(face)-cube given by the spanned coordinates."""
        return project(v, sorted(self.spanned), self.n)


def _vertex_sets(o: Orientation) -> tuple[list[int], list[int]]:
    """Per vertex bit, the vertices whose half-edge is outgoing, and unoriented."""
    n = o.n
    plus, zero = [0] * n, [0] * n
    for v in o.vertices():
        for i, s in enumerate(o.outmap(v)):
            if s == PLUS:
                plus[n - 1 - i] |= 1 << v
            elif s == ZERO:
                zero[n - 1 - i] |= 1 << v
    return plus, zero


def _sw_pairs(n: int, plus: list[int], zero: list[int]) -> Iterator[tuple[int, int]]:
    """The first failing pair (v, v ^ d) at each difference d != 0 that has one.

    v fails at d when v and v ^ d are not both unoriented on all of d and no
    dimension of d has both ends oriented and opposite: with no unoriented
    half-edge, the Szabo-Welzl pair condition.  The failing set is closed
    under v -> v ^ d, so its least v has v < v ^ d.  d walks the Gray code,
    and the sets permuted by v -> v ^ d follow by one block swap per step.
    """
    full = (1 << (1 << n)) - 1
    # low[b]: the vertices whose bit b is 0, runs of 2^b ones and zeros
    low = [full // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(n)]
    partial = any(zero)
    # moved[c] and moved[n + c]: plus[c] and zero[c] permuted by v -> v ^ d
    moved = plus + zero if partial else plus
    d = 0
    for k in range(1, 1 << n):
        b = (k & -k).bit_length() - 1
        d ^= 1 << b
        shift, m = 1 << b, low[b]
        moved = [(x >> shift) & m | (x & m) << shift for x in moved]
        unoriented, split = (full if partial else 0), 0
        for c in range(n):
            if d >> c & 1:
                differ = plus[c] ^ moved[c]
                if partial:
                    unoriented &= zero[c] & moved[n + c]
                    differ &= ~(zero[c] | moved[n + c])
                split |= differ
        failing = full & ~(unoriented | split)
        if failing:
            v = (failing & -failing).bit_length() - 1
            yield v, v ^ d


def find_sw_violation(o: Orientation) -> tuple[int, int] | None:
    """Pair v != w agreeing on every spanned half-edge direction, else None.

    The returned pair is the UV1 witness shape: the least such pair v < w,
    the least of the first pairs per difference.  None means the orientation
    satisfies the pairwise condition equivalent to being a USO.
    """
    plus, zero = _vertex_sets(o)
    if any(zero):
        raise ValueError("total orientation required")
    return min(_sw_pairs(o.n, plus, zero), default=None)


def is_uso_exhaustive(o: Orientation) -> bool:
    """Definition check: every non-empty subcube has exactly one sink.

    That holds iff no pair fails the Szabo-Welzl condition once half-edges
    that do not come in count as outgoing; the fold stops at a failure.
    """
    check(o.n, USO_EXHAUSTIVE_DIM, "cube dimension")
    plus, zero = _vertex_sets(o)
    outgoing = [p | z for p, z in zip(plus, zero)]
    return next(_sw_pairs(o.n, outgoing, [0] * o.n), None) is None


def is_partially_sw(o: Orientation) -> tuple[bool, tuple[int, int] | None]:
    """Every pair is either fully unoriented across its span or split somewhere."""
    witness = min(_sw_pairs(o.n, *_vertex_sets(o)), default=None)
    return witness is None, witness


def complete_downward(o: Orientation) -> Orientation:
    """Direct every unoriented edge from the endpoint with more ones downward."""
    ok, witness = is_partially_sw(o)
    if not ok:
        raise ValueError(f"not partially Szabo-Welzl, witness pair {witness}")
    return Orientation(o.n, table=[downward_outmap(v, o.outmap(v)) for v in o.vertices()])


def unoriented_faces(o: Orientation) -> list[Face]:
    """Maximal unoriented faces; validates they are disjoint hypervertices.

    Every vertex with zero entries spans a face along its zero dimensions;
    all vertices of that face must share the identical sign vector (same
    zeros, same orientation toward the rest of the cube), otherwise the
    input was not produced by the complementarity reduction and a
    ValueError is raised.
    """
    n = o.n
    maps = [o.outmap(v) for v in o.vertices()]
    faces: dict[Face, int] = {}
    for v in o.vertices():
        zero_dims = frozenset(i for i in range(n) if maps[v][i] == ZERO)
        if not zero_dims:
            continue
        face = Face.of_vertex_span(v, n, zero_dims)
        if face in faces:
            continue
        for w in face.vertices():
            if maps[w] != maps[v]:
                raise ValueError(
                    f"unoriented region at {vertex_name(v, n)} is not a hypervertex face"
                )
        faces[face] = v
    return sorted(faces, key=lambda f: (sorted(f.spanned), f.fixed))


def is_hypervertex(o: Orientation, face: Face) -> bool:
    """All face vertices orient identically toward the non-spanned dimensions."""
    outside = [i for i in range(face.n) if i not in face.spanned]
    reference = None
    for v in face.vertices():
        signature = tuple(o.outmap(v)[i] for i in outside)
        if reference is None:
            reference = signature
        elif signature != reference:
            return False
    return True


def refill_hypervertex(o: Orientation, face: Face, inner: Orientation) -> Orientation:
    """Replace the interior orientation of a hypervertex face.

    The spanned dimensions of each face vertex take their signs from
    ``inner`` at the projected vertex; everything else is unchanged.
    """
    if inner.n != face.dim:
        raise ValueError("inner orientation dimension does not match the face")
    if not is_hypervertex(o, face):
        raise ValueError("face is not a hypervertex")
    n = o.n
    span = sorted(face.spanned)
    table = [list(o.outmap(v)) for v in o.vertices()]
    for v in face.vertices():
        inner_map = inner.outmap(face.project(v))
        for k, d in enumerate(span):
            table[v][d] = inner_map[k]
    return Orientation(n, table=[tuple(row) for row in table])


def source_vertex(o: Orientation) -> int:
    for v in o.vertices():
        if all(s == PLUS for s in o.outmap(v)):
            return v
    raise ValueError("orientation has no source")


def sink_vertex(o: Orientation) -> int:
    return ordered_scan(o.outmap, o.n)


def holt_klee_value(o: Orientation) -> int:
    """Maximum number of internally vertex-disjoint directed source-sink paths.

    Unit-capacity max flow on the node-split digraph; the source and sink
    themselves are not split.  The orientation must be a USO.
    """
    import networkx as nx  # deferred: costs most of ``import omcp`` and only this needs it

    n = o.n
    if n == 0:
        raise ValueError("Holt-Klee value needs n >= 1: a 0-cube's source is its sink")
    if not is_uso_exhaustive(o):
        raise ValueError("Holt-Klee value is defined for USOs")
    src, snk = source_vertex(o), sink_vertex(o)
    graph = nx.DiGraph()

    def node(v: int, side: str):
        return "s" if v == src else ("t" if v == snk else (side, v))

    for v in o.vertices():
        if v not in (src, snk):
            graph.add_edge(("in", v), ("out", v), capacity=1)
        for i, s in enumerate(o.outmap(v)):
            if s == PLUS:
                w = flip_vertex(v, i, n)
                graph.add_edge(node(v, "out"), node(w, "in"), capacity=1)
    return nx.maximum_flow_value(graph, "s", "t")


# -- sink-finding algorithms ------------------------------------------------


def ordered_scan(query: Callable[[int], tuple[int, ...]], n: int) -> int:
    for v in range(1 << n):
        if all(s == MINUS for s in query(v)):
            return v
    raise ValueError("orientation has no sink")


def jump_with_fallback(query: Callable[[int], tuple[int, ...]], n: int) -> int:
    """Repeat v <- v xor outmap(v); on a revisit fall back to ordered scan."""
    visited: set[int] = set()
    v = 0
    while v not in visited:
        visited.add(v)
        plus, zero = _masks(query(v))
        if not plus | zero:
            return v
        v ^= plus
    return ordered_scan(query, n)


ALGORITHMS: dict[str, Callable] = {
    "ordered-scan": ordered_scan,
    "jump": jump_with_fallback,
}


def sink_find(algo, o: Orientation) -> tuple[int, int]:
    """Run a deterministic sink-finding algorithm; returns (sink, query count)."""
    if isinstance(algo, str):
        algo = ALGORITHMS[algo]
    counter = CountingOracle(o.outmap)
    v = algo(counter, o.n)
    if any(s != MINUS for s in counter(v)):
        raise RuntimeError("algorithm returned a non-sink")
    return v, counter.count


def enumerate_usos(n: int) -> list[Orientation]:
    """All USOs of the n-cube from edge-direction brute force (0 <= n <= 3)."""
    if not 0 <= n <= 3:
        raise ValueError(f"enumeration needs n in 0..3, got n={n}")
    edges = [
        (v, i)
        for v in range(1 << n)
        for i in range(n)
        if not vertex_bit(v, i, n)
    ]
    result = []
    for assignment in range(1 << len(edges)):
        table = [[ZERO] * n for _ in range(1 << n)]
        for k, (v, i) in enumerate(edges):
            w = flip_vertex(v, i, n)
            if assignment >> k & 1:
                table[v][i], table[w][i] = PLUS, MINUS  # edge points upward
            else:
                table[v][i], table[w][i] = MINUS, PLUS
        o = Orientation(n, table=[tuple(r) for r in table])
        if is_uso_exhaustive(o):
            result.append(o)
    return result


def all_down_orientation(n: int) -> Orientation:
    """Every edge directed toward the vertex with fewer ones; sink is 0."""
    return mirrored_down_orientation(n, ())


def mirrored_down_orientation(n: int, flip_dims: Iterable[int]) -> Orientation:
    """All-down after mirroring the given coordinates; still a USO.

    Vertex v takes the downward completion of an all-unoriented outmap at
    its mirror image ``v ^ flips``.
    """
    flips = sum(flip_vertex(0, i, n) for i in set(flip_dims))
    unoriented = (ZERO,) * n
    return Orientation(
        n, table=[downward_outmap(v ^ flips, unoriented) for v in range(1 << n)]
    )
