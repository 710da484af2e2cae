"""Hypercube orientations, partial orientations, and sink-finding.

Vertices of the n-cube are integers whose binary string (most significant
bit = dimension 0) matches the serialized vertex order 00, 01, 10, 11, ...
An outmap is the pair ``(plus, zero)`` of n-bit masks in the same bit
order: bit n-1-i of ``plus`` is set when the half-edge of dimension i is
outgoing, bit n-1-i of ``zero`` when it is unoriented (degenerate, partial
case only); every other half-edge is incoming, so ``(0, 0)`` is a sink.
Every layer stores, passes and tests this one form; sign strings such as
``"+0-"`` exist only in :func:`outmap_name` and :func:`outmap_from_name`.
The Szabo-Welzl, partial and USO checks are one fold over two 2^n-bit
vertex sets per dimension, outgoing and unoriented, permuted by block
swaps.  The USO check shares it because an orientation has one sink in
every face iff no pair fails the Szabo-Welzl condition (Szabo & Welzl,
FOCS 2001).  Orientations are either dense tables or pure query oracles;
both are immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .guards import HOLT_KLEE_DIM, OMCP_SCAN_DIM, check
from .signs import char_sign, sign_masks

Outmap = tuple[int, int]
# A vertex-order bit of ``plus`` as the sign it names in an outmap's name.
_PLUS_MINUS = str.maketrans("10", "+-")


def vertex_bit(v: int, i: int, n: int) -> int:
    return (v >> (n - 1 - i)) & 1


def flip_vertex(v: int, i: int, n: int) -> int:
    return v ^ (1 << (n - 1 - i))


def project(v: int, dims: Sequence[int], n: int) -> int:
    """Vertex of the len(dims)-cube given by the coordinates of v on ``dims``, in order."""
    p = 0
    for d in dims:
        p = p << 1 | vertex_bit(v, d, n)
    return p


def embed(p: int, dims: Sequence[int], n: int) -> int:
    """Inverse of :func:`project`: p's coordinates placed on ``dims``, zero elsewhere."""
    return sum(1 << (n - 1 - d) for j, d in enumerate(dims) if vertex_bit(p, j, len(dims)))


def downward_outmap(v: int, out: Outmap) -> Outmap:
    """The outmap of v with every unoriented half-edge directed downward.

    Downward means toward the endpoint with fewer ones: the half-edge of
    dimension i is outgoing exactly when v has a one there.
    """
    plus, zero = out
    return plus | zero & v, 0


def is_sw_pair(v: int, w: int, out_v: Outmap, out_w: Outmap) -> bool:
    """v != w and the outmaps agree on every dimension where v and w differ (UV1)."""
    (plus_v, zero_v), (plus_w, zero_w) = out_v, out_w
    return v != w and (v ^ w) & ((plus_v ^ plus_w) | (zero_v ^ zero_w)) == 0


def vertex_name(v: int, n: int) -> str:
    """The name of vertex v: n characters '0' or '1', empty on the 0-cube."""
    return format(v, f"0{n}b") if n else ""


def vertex_from_name(s: str, n: int) -> int:
    """The vertex named by exactly n characters '0' or '1'."""
    if len(s) != n or s.strip("01"):
        raise ValueError(f"vertex name must be {n} characters 0 or 1, got {s!r}")
    return int(s or "0", 2)


def outmap_name(out: Outmap, n: int) -> str:
    """The name of an outmap: per dimension '+' outgoing, '0' unoriented, '-' incoming.

    The bits of ``plus`` name every dimension '+' or '-'; the bits of
    ``zero``, from the highest, then overwrite theirs with '0'.
    """
    plus, zero = out
    name = format(plus | 1 << n, "b")[1:].translate(_PLUS_MINUS)
    while zero:
        top = zero.bit_length()
        k = n - top
        name = name[:k] + "0" + name[k + 1:]
        zero ^= 1 << top - 1
    return name


def outmap_from_name(s: str) -> Outmap:
    """The outmap named by a string of '+', '0' and '-', one per dimension."""
    plus, minus = sign_masks(char_sign(c) for c in reversed(s))
    return plus, ((1 << len(s)) - 1) & ~(plus | minus)


def _is_outmap(row, n: int) -> bool:
    """Two disjoint n-bit non-negative ints."""
    return (
        isinstance(row, tuple)
        and len(row) == 2
        and all(isinstance(x, int) and 0 <= x < 1 << n for x in row)
        and not row[0] & row[1]
    )


class Orientation:
    """(Partial) orientation of the n-cube, dense table or query oracle."""

    def __init__(
        self,
        n: int,
        table: Sequence[Outmap] | None = None,
        fn: Callable[[int], Outmap] | None = None,
    ):
        if (table is None) == (fn is None):
            raise ValueError("provide exactly one of table or fn")
        self.n = n
        if table is not None:
            table = tuple(table)
            if len(table) != 1 << n or not all(_is_outmap(row, n) for row in table):
                raise ValueError("table must hold one (plus, zero) mask pair per vertex")
            self._table: tuple[Outmap, ...] | None = table
            self._fn = None
        else:
            self._table = None
            self._fn = fn

    @classmethod
    def from_outmaps(cls, outmaps: Sequence[str]) -> "Orientation":
        n = len(outmaps[0])
        table = [outmap_from_name(row) for row in outmaps]
        if len(table) != 1 << n or any(len(row) != n for row in outmaps):
            raise ValueError("table must hold one sign vector per vertex")
        return cls(n, table=table)

    def to_outmaps(self) -> list[str]:
        return [outmap_name(self.outmap(v), self.n) for v in self.vertices()]

    def outmap(self, v: int) -> Outmap:
        if self._table is not None:
            return self._table[v]
        return self._fn(v)

    def vertices(self) -> range:
        return range(1 << self.n)

    def materialize(self) -> "Orientation":
        """The dense table, each vertex evaluated once, in vertex order.

        The first vertex that raises ends the pass, so its error is that of
        the least failing vertex.  For the Klaus orientation of
        :mod:`omcp.reduction` over a ``RealizedOM``, vertex order is a
        depth-first walk of the oracle's principal-pivot stack, one basis
        exchange per vertex.  The table holds the oracle's own outmaps and
        is not checked again.
        """
        if self._table is not None:
            return self
        check(self.n, OMCP_SCAN_DIM, "materialized cube dimension")
        # past __init__, which checks the tables that come from outside
        dense = Orientation.__new__(Orientation)
        dense.n, dense._fn = self.n, None
        dense._table = tuple([self._fn(v) for v in self.vertices()])
        return dense

    def is_total(self) -> bool:
        return not any(self.outmap(v)[1] for v in self.vertices())

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
        base = sum(b << (self.n - 1 - d) for d, b in self.fixed)
        span = sorted(self.spanned)
        return (base | embed(p, span, self.n) for p in range(1 << len(span)))

    @property
    def fixed_mask(self) -> int:
        """The mask of the fixed dimensions, in vertex bit order."""
        return sum(1 << (self.n - 1 - d) for d, _ in self.fixed)

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
        p, z = o.outmap(v)
        for b in range(n):
            if p >> b & 1:
                plus[b] |= 1 << v
            elif z >> b & 1:
                zero[b] |= 1 << v
    return plus, zero


def _sw_pairs(n: int, plus: list[int], zero: list[int]) -> Iterator[tuple[int, int]]:
    """The first failing pair (v, v ^ d) at each difference d != 0 that has
    one, until no later difference can give a pair less than one yielded.

    v fails at d when v and v ^ d are not both unoriented on all of d and no
    dimension of d has both ends oriented and opposite: with no unoriented
    half-edge, the Szabo-Welzl pair condition.  The failing set is closed
    under v -> v ^ d, so its least v has v < v ^ d.  d walks the Gray code,
    and the sets permuted by v -> v ^ d follow by one block swap per step.
    The Gray index k and its d have the same highest bit, so once a pair
    (0, w) is out and k reaches 2^j > w, every later d is at least 2^j and
    every later pair greater than (0, w): the walk stops there, and the
    least pair yielded is the least failing pair.
    """
    full = (1 << (1 << n)) - 1
    # low[b]: the vertices whose bit b is 0, runs of 2^b ones and zeros
    low = [full // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(n)]
    partial = any(zero)
    # moved[c] and moved[n + c]: plus[c] and zero[c] permuted by v -> v ^ d
    moved = plus + zero if partial else plus
    d = 0
    stop = 1 << n
    for k in range(1, 1 << n):
        if k == stop:
            return
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
            if v == 0:
                stop = 1 << d.bit_length()
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
    check(o.n, OMCP_SCAN_DIM, "cube dimension")
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

    Every vertex with unoriented half-edges spans a face along those
    dimensions; all vertices of that face must share the identical outmap
    (same unoriented dimensions, same orientation toward the rest of the
    cube), otherwise the input was not produced by the complementarity
    reduction and a ValueError is raised.
    """
    n = o.n
    maps = [o.outmap(v) for v in o.vertices()]
    faces: dict[Face, int] = {}
    for v in o.vertices():
        zero = maps[v][1]
        if not zero:
            continue
        face = Face.of_vertex_span(v, n, (i for i in range(n) if vertex_bit(zero, i, n)))
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
    outside = face.fixed_mask
    maps = {o.outmap(v) for v in face.vertices()}
    return len({(plus & outside, zero & outside) for plus, zero in maps}) == 1


def refill_hypervertex(o: Orientation, face: Face, inner: Orientation) -> Orientation:
    """Replace the interior orientation of a hypervertex face.

    The spanned dimensions of each face vertex take their half-edges from
    ``inner`` at the projected vertex; everything else is unchanged.
    """
    if inner.n != face.dim:
        raise ValueError("inner orientation dimension does not match the face")
    if not is_hypervertex(o, face):
        raise ValueError("face is not a hypervertex")
    n = o.n
    span, outside = sorted(face.spanned), face.fixed_mask
    table = [o.outmap(v) for v in o.vertices()]
    for v in face.vertices():
        (plus, zero), (inner_plus, inner_zero) = table[v], inner.outmap(face.project(v))
        table[v] = (
            plus & outside | embed(inner_plus, span, n),
            zero & outside | embed(inner_zero, span, n),
        )
    return Orientation(n, table=table)


def source_vertex(o: Orientation) -> int:
    for v in o.vertices():
        if o.outmap(v)[0] == (1 << o.n) - 1:
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
    check(n, HOLT_KLEE_DIM, "cube dimension")
    if not is_uso_exhaustive(o):
        raise ValueError("Holt-Klee value is defined for USOs")
    src, snk = source_vertex(o), sink_vertex(o)
    graph = nx.DiGraph()

    def node(v: int, side: str):
        return "s" if v == src else ("t" if v == snk else (side, v))

    for v in o.vertices():
        if v not in (src, snk):
            graph.add_edge(("in", v), ("out", v), capacity=1)
        plus = o.outmap(v)[0]
        for i in range(n):
            if vertex_bit(plus, i, n):
                w = flip_vertex(v, i, n)
                graph.add_edge(node(v, "out"), node(w, "in"), capacity=1)
    return nx.maximum_flow_value(graph, "s", "t")


# -- sink-finding algorithms ------------------------------------------------


def ordered_scan(query: Callable[[int], Outmap], n: int) -> int:
    for v in range(1 << n):
        if query(v) == (0, 0):
            return v
    raise ValueError("orientation has no sink")


def jump_with_fallback(query: Callable[[int], Outmap], n: int) -> int:
    """Repeat v <- v xor outmap(v); on a revisit fall back to ordered scan."""
    visited: set[int] = set()
    v = 0
    while v not in visited:
        visited.add(v)
        plus, zero = query(v)
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
    counter = functools.cache(o.outmap)  # counts distinct vertices evaluated
    v = algo(counter, o.n)
    if counter(v) != (0, 0):
        raise RuntimeError("algorithm returned a non-sink")
    return v, counter.cache_info().currsize


def enumerate_usos(n: int) -> list[Orientation]:
    """All USOs of the n-cube from edge-direction brute force (0 <= n <= 3)."""
    if not 0 <= n <= 3:
        raise ValueError(f"enumeration needs n in 0..3, got n={n}")
    edges = [
        (v, 1 << (n - 1 - i))
        for v in range(1 << n)
        for i in range(n)
        if not vertex_bit(v, i, n)
    ]
    result = []
    for assignment in range(1 << len(edges)):
        plus = [0] * (1 << n)
        for k, (v, bit) in enumerate(edges):
            # the edge points upward, away from v, when bit k is set
            plus[v if assignment >> k & 1 else v | bit] |= bit
        o = Orientation(n, table=[(p, 0) for p in plus])
        if is_uso_exhaustive(o):
            result.append(o)
    return result


def all_down_orientation(n: int) -> Orientation:
    """Every edge directed toward the vertex with fewer ones; sink is 0."""
    return mirrored_down_orientation(n, ())


def mirrored_down_orientation(n: int, flip_dims: Iterable[int]) -> Orientation:
    """All-down after mirroring the given coordinates; still a USO.

    Vertex v points along every dimension where its mirror image
    ``v ^ flips`` has a one, toward the mirrored all-down sink ``flips``.
    """
    flips = sum(flip_vertex(0, i, n) for i in set(flip_dims))
    return Orientation(n, table=[(v ^ flips, 0) for v in range(1 << n)])
