"""From complementarity instances to cube orientations and back.

Vertex v of the n-cube names the complementary basis B(v) that picks s_i
when v_i = 0 and t_i when v_i = 1, as :class:`omcp.signs.GroundSet` maps
it.  The orientation asks the oracle's vertex entry
(:meth:`omcp.om.CircuitOracle.query_vertex`) once per vertex it orients,
and its dense table asks every vertex in vertex order, which
``RealizedOM``'s principal-pivot stack answers with one exchange per
vertex.  Each answer is C(B(v), q) as its two masks, and names and
signed sets are built only for a certificate or an error message.  The
outmap of v, the mask pair ``(plus, zero)`` of :mod:`omcp.cube`, is read
off C(B(v), q), in three cases:

1. B(v) is not a basis: make v a sink, ``(0, 0)``.
2. The entry at the basis element of dimension i vanishes: orient the
   degenerate half-edge downward (incoming for v_i = 0, outgoing for
   v_i = 1), which is exactly the downward completion of the partial rule.
3. Otherwise the classic rule: a negative circuit entry gives an outgoing
   half-edge, a positive entry an incoming one.

The partial variant keeps case-2 half-edges unoriented and is the object
whose unoriented regions form disjoint hypervertex faces.  Sinks and
Szabo-Welzl violation pairs of the derived orientation map back to
solution and violation certificates of the complementarity instance.
"""

from __future__ import annotations

from .cube import Orientation, Outmap, downward_outmap, is_sw_pair
from .pmatroid import M1, MV2, MV3, verify_mv3_pair
from .signs import GroundSet, SignedSet


def _query(oracle, v: int, n: int):
    """(C(B(v), q) as ``(pos_mask, neg_mask)``, partial outmap): one vertex
    query for v, or (None, None) when B(v) is not a basis.

    The half-edge of dimension i carries the negated entry of C(B(v), q)
    at the basis element of that dimension, read into vertex bit order by
    one ``GroundSet.on_vertex`` call for both masks.
    """
    ground: GroundSet = oracle.ground
    if ground.pairs is None or len(ground.pairs) != n:
        raise ValueError("bit vector does not match complementary structure")
    answer = oracle.query_vertex(v)
    if answer is None:
        return None, None
    pos, neg = answer
    return answer, ground.on_vertex(v, neg, ~(pos | neg))


def _total(v: int, out: Outmap | None) -> Outmap:
    return (0, 0) if out is None else downward_outmap(v, out)


def orient_vertex_total(oracle, v: int, n: int) -> Outmap:
    return _total(v, _query(oracle, v, n)[1])


def orient_vertex_partial(oracle, v: int, n: int) -> Outmap:
    out = _query(oracle, v, n)[1]
    if out is None:
        raise ValueError(f"complementary set {sorted(oracle.ground.vertex_basis(v))} is not a basis")
    return out


def klaus_orientation(oracle, n: int, partial: bool = False) -> Orientation:
    """Orientation oracle wrapping the reduction: one vertex query per outmap."""
    orient = orient_vertex_partial if partial else orient_vertex_total
    return Orientation(n, fn=lambda v: orient(oracle, v, n))


def map_back_sink(oracle, v: int, n: int) -> M1 | MV2:
    """Sink of the derived orientation -> M1 solution, or MV2 on a missing basis."""
    answer, out = _query(oracle, v, n)
    if _total(v, out) != (0, 0):
        raise ValueError("vertex is not a sink of the derived orientation")
    ground: GroundSet = oracle.ground
    if answer is None:
        return MV2(ground.vertex_basis(v))
    if answer[1] != 0:
        raise RuntimeError("sink circuit has negative entries; oracle is inconsistent")
    return M1(SignedSet(ground, *answer))


def map_back_uv1(oracle, v: int, w: int, n: int) -> MV3 | MV2:
    """Szabo-Welzl violation pair -> MV3 (or MV2 when a basis query fails)."""
    if v == w:
        raise ValueError("violation pair must be distinct")
    (x, ov), (y, ow) = _query(oracle, v, n), _query(oracle, w, n)
    if not is_sw_pair(v, w, _total(v, ov), _total(w, ow)):
        raise ValueError("pair is not a Szabo-Welzl violation of the derived orientation")
    ground: GroundSet = oracle.ground
    for u, answer in ((v, x), (w, y)):
        if answer is None:
            return MV2(ground.vertex_basis(u))
    x, y = SignedSet(ground, *x), SignedSet(ground, *y)
    if not verify_mv3_pair(x, y):
        raise RuntimeError("violation pair did not produce a valid MV3 certificate")
    return MV3(x, y)
