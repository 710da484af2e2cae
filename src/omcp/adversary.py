"""Adversarial lower-bound games for deterministic sink-finding.

The main adversary plays against a sink-finding algorithm over a uniform
base (given by a generic realization): it starts from the all-zero
localization, and whenever a vertex inside the still-unoriented hypersink
subcube U is queried, it composes one negative lexicographic atom on the
lowest dimension spanning U.  That orients the queried vertex's facet of U
completely, keeps the other facet an unoriented hypersink, and shrinks U
by one dimension, so the first n queried vertices are never the sink.
Finalization composes negative t-atoms for the remaining dimensions,
yielding a non-degenerate instance consistent with the whole transcript.

The second construction is the collision-driven first phase that answers
queries through a growing dimension set L and a USO on the cube spanned
by L; a fixed five-query schedule forces it to build a 3-cube orientation
that is a USO but admits only two vertex-disjoint source-sink paths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cube import (
    Face,
    Orientation,
    Outmap,
    embed,
    flip_vertex,
    holt_klee_value,
    is_uso_exhaustive,
    project,
    sink_find,
    vertex_bit,
)
from .extend import ExtensionOM, Localization, lex_localization
from .guards import GAME_DIM, check
from .plcp import random_p_matrix
from .realize import RealizedOM, RationalMatrix, hstack, negated
from .reduction import orient_vertex_total
from .signs import MINUS, GroundSet


class AdversaryState:
    """Mutable game state: current localization, hypersink subcube, transcript."""

    def __init__(self, base):
        ground: GroundSet = base.ground
        if ground.pairs is None or ground.q is not None:
            raise ValueError("adversary base must live on a complementary ground set")
        self.base = base
        self.n = ground.n_pairs
        # The guard comes first: the uniformity check takes C(2n, n) - 1 minors.
        check(self.n, GAME_DIM, "game dimension")
        if not base.is_uniform():
            raise ValueError("adversary base must be uniform")
        self.sigma = Localization(base)
        self.hypersink = Face.whole(self.n)
        self.transcript: list[tuple[int, Outmap]] = []

    @property
    def sigma(self) -> Localization:
        return self.oracle.sigma

    @sigma.setter
    def sigma(self, sigma: Localization) -> None:
        # One oracle per localization: answers that compose no atom reuse it.
        self.oracle = ExtensionOM(sigma)

    def answer(self, v: int) -> Outmap:
        """Total outmap of v, composing one atom if v lies in U."""
        u = self.hypersink
        if u.dim > 0 and u.contains(v):
            i = min(u.spanned)
            s_name, t_name = self.base.ground.pair(i)
            bit = vertex_bit(v, i, self.n)
            element = t_name if bit == 0 else s_name
            self.sigma = self.sigma.compose(lex_localization(self.base, element, MINUS))
            self.hypersink = u.fix_dim(i, 1 - bit)
        out = orient_vertex_total(self.oracle, v, self.n)
        self.transcript.append((v, out))
        return out

    def finalize(self) -> ExtensionOM:
        """Orient the remaining hypersink with negative t-atoms, ascending."""
        sigma = self.sigma
        for i in sorted(self.hypersink.spanned):
            _, t_name = self.base.ground.pair(i)
            sigma = sigma.compose(lex_localization(self.base, t_name, MINUS))
        return ExtensionOM(sigma)


@dataclass(frozen=True)
class GameResult:
    query_count: int
    transcript: tuple[tuple[int, Outmap], ...]
    oracle: ExtensionOM
    sink: int


def run_game(algo, state: AdversaryState) -> GameResult:
    """Play until the algorithm claims a sink; verify the claim and transcript."""
    claimed, count = sink_find(algo, Orientation(state.n, fn=state.answer))
    oracle = state.finalize()
    if orient_vertex_total(oracle, claimed, state.n) != (0, 0):
        raise RuntimeError("algorithm claimed a vertex that is not the sink")
    for v, recorded in state.transcript:
        if orient_vertex_total(oracle, v, state.n) != recorded:
            raise RuntimeError("finalized instance contradicts the transcript")
    return GameResult(count, tuple(state.transcript), oracle, claimed)


def random_uniform_base(n: int, rng: random.Random) -> RealizedOM:
    """Generic realization [I; -M] of a random P-matrix; uniformity checked."""
    check(n, GAME_DIM, "game dimension")  # before any draw: each reads C(2n, n) minors
    for _ in range(64):
        m = random_p_matrix(n, rng)
        base = RealizedOM(
            hstack(RationalMatrix.identity(n), negated(m)), GroundSet.complementary(n)
        )
        # is_uniform reads every minor of one basis tableau and caches its
        # answer, so AdversaryState(base) does not recompute it.
        if base.is_uniform():
            return base
    raise RuntimeError("could not draw a generic P-matrix realization")


# -- collision-forcing first phase ------------------------------------------


class SSState:
    """First-phase state: dimension set L, a USO on the L-cube, queried vertices.

    Queries are answered by the projected location in the L-cube and
    outgoing everywhere else; when a query would collide with an earlier
    one under projection, the lowest differing non-L dimension is added to
    L and the L-cube orientation is doubled, with the new cross edges
    oriented away from the vertices queried so far (free slots point
    downward, which keeps the doubled orientation a USO either way).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("first phase needs n >= 2")
        self.n = n
        self.budget = n - math.ceil(math.log2(n))
        self.dims: list[int] = []
        self.s_tilde = Orientation(0, table=[(0, 0)])
        self.queried: list[int] = []

    def _extend(self, ell: int) -> None:
        old_dims = self.dims
        new_dims = sorted(old_dims + [ell])
        pos = new_dims.index(ell)
        hosts = {
            project(u, old_dims, self.n): vertex_bit(u, ell, self.n)
            for u in self.queried
        }
        k = len(old_dims)
        kept = [j for j in range(k + 1) if j != pos]
        table = []
        for p_new in range(1 << (k + 1)):
            p_old = project(p_new, kept, k + 1)
            old_plus, _ = self.s_tilde.outmap(p_old)
            plus = embed(old_plus, kept, k + 1)
            # away from the queried host, else downward
            if vertex_bit(p_new, pos, k + 1) == hosts.get(p_old, 1):
                plus |= flip_vertex(0, pos, k + 1)
            table.append((plus, 0))
        self.dims = new_dims
        self.s_tilde = Orientation(k + 1, table=table)

    def answer(self, v: int) -> Outmap:
        if v not in self.queried and len(self.queried) >= self.budget:
            raise RuntimeError("first-phase query budget exhausted")
        in_l = embed((1 << len(self.dims)) - 1, self.dims, self.n)
        collider = next((u for u in self.queried if u != v and (u ^ v) & in_l == 0), None)
        if collider is not None:
            # the lowest differing dimension outside L is the highest differing bit
            ell = self.n - ((collider ^ v) & ~in_l).bit_length()
            self._extend(ell)
            in_l |= flip_vertex(0, ell, self.n)
        plus, _ = self.s_tilde.outmap(project(v, self.dims, self.n))
        if v not in self.queried:
            self.queried.append(v)
        return ((1 << self.n) - 1) & ~in_l | embed(plus, self.dims, self.n), 0


def ss_forcing_run(n: int) -> Orientation:
    """Drive the first phase with the fixed five-query schedule (n >= 8).

    Returns the forced 3-cube orientation; it is validated to be a USO
    whose Holt-Klee value is 2, one short of the dimension.
    """
    if n < 8:
        raise ValueError("the forcing schedule needs n >= 8")
    state = SSState(n)
    pool = [0, 1, 2]

    def vertex_of(ones) -> int:
        return sum(flip_vertex(0, d, n) for d in ones)

    def incoming(ones, which: str) -> int:
        """The one pool dimension along which the answer at ``ones`` is incoming."""
        plus, _ = state.answer(vertex_of(ones))
        detected = [d for d in pool if not vertex_bit(plus, d, n)]
        if len(detected) != 1:
            raise RuntimeError(f"{which} answer must have exactly one incoming edge")
        return detected[0]

    state.answer(vertex_of([]))
    ell1 = incoming(pool, "second")
    ell2 = incoming([d for d in pool if d != ell1], "third")
    ell3 = next(d for d in pool if d not in (ell1, ell2))

    before = len(state.dims)
    state.answer(vertex_of([ell1]))
    if len(state.dims) != before:
        raise RuntimeError("fourth query must not grow L")

    state.answer(vertex_of([ell3]))
    if sorted(state.dims) != sorted(pool):
        raise RuntimeError("the schedule must end with L equal to the pool")

    forced = state.s_tilde
    if not is_uso_exhaustive(forced):
        raise RuntimeError("forced orientation is not a USO")
    if holt_klee_value(forced) != 2:
        raise RuntimeError("forced orientation must have Holt-Klee value 2")
    return forced
