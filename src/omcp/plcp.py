"""Linear complementarity front end over exact rationals.

An instance (M, q) reaches the cube through the realization [I; -M; -q]
and the Klaus reduction, like every other complementarity instance.  This
module keeps the direct path beside it: solving w - Mz = q with the
complementarity pattern of a cube vertex selects one basic variable per
index, and the negated signs of the basic values orient that vertex.
The direct path shares no code with ``RealizedOM``; the tests and the
benchmark use it as the independent cross-check of the reduction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from . import linalg
from .cube import Orientation, Outmap, vertex_bit
from .guards import OMCP_SCAN_DIM, check
from .realize import RationalMatrix, RealizedOM, Vector, hstack, parse_vector
from .signs import SignedSet, sign_masks


@dataclass(frozen=True)
class PlcpInstance:
    matrix: RationalMatrix
    q: Vector

    def __post_init__(self) -> None:
        if self.matrix.rows != self.matrix.cols or len(self.q) != self.matrix.rows:
            raise ValueError("need a square M and a matching q")

    @property
    def n(self) -> int:
        return self.matrix.rows

    def to_json_dict(self) -> dict:
        return {"M": self.matrix.to_json_rows(), "q": [str(v) for v in self.q]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PlcpInstance":
        return cls(RationalMatrix.from_rows(d["M"]), parse_vector(d["q"]))


def is_p_matrix(m: RationalMatrix) -> tuple[bool, tuple[int, ...] | None]:
    """All 2^n - 1 principal minors positive; witness index set on failure."""
    if m.rows != m.cols:
        raise ValueError("P-matrix check needs a square matrix")
    n = m.rows
    check(n, OMCP_SCAN_DIM, "P-matrix dimension")
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            sub = [[m.entries[i][j] for j in combo] for i in combo]
            if linalg.det(sub) <= 0:
                return False, combo
    return True, None


def _basis_columns(m: RationalMatrix, basis: frozenset[str]) -> list[list[Fraction]]:
    """Columns of [I; -M] selected by a complementary basis, in dimension order."""
    n = m.rows
    cols = []
    for i in range(n):
        if f"s{i + 1}" in basis:
            cols.append([Fraction(int(r == i)) for r in range(n)])
        elif f"t{i + 1}" in basis:
            cols.append([-m.entries[r][i] for r in range(n)])
        else:
            raise ValueError(f"basis misses dimension {i + 1}")
    return [[cols[j][r] for j in range(n)] for r in range(n)]


def basic_solution(
    m: RationalMatrix, q: Vector, basis: frozenset[str]
) -> tuple[Vector, Vector] | None:
    """Solve w - Mz = q with z_i = 0 for s_i in B, w_i = 0 for t_i in B.

    None when the selected column basis is singular.
    """
    n = m.rows
    rows = _basis_columns(m, basis)
    u = linalg.solve(rows, list(q))
    if u is None:
        return None
    w = [Fraction(0)] * n
    z = [Fraction(0)] * n
    for i in range(n):
        if f"s{i + 1}" in basis:
            w[i] = u[i]
        else:
            z[i] = u[i]
    return tuple(w), tuple(z)


def is_lcp_solution(m: RationalMatrix, q: Vector, w: Vector, z: Vector) -> bool:
    n = m.rows
    for i in range(n):
        lhs = w[i] - sum(m.entries[i][j] * z[j] for j in range(n))
        if lhs != q[i]:
            return False
    return all(v >= 0 for v in w) and all(v >= 0 for v in z) and all(
        w[i] * z[i] == 0 for i in range(n)
    )


def plcp_orientation(m: RationalMatrix, q: Vector, v: int) -> Outmap:
    """Outmap (plus, zero) of vertex v from the basic-solution signs at B(v).

    A positive basic value gives an incoming half-edge, a negative one an
    outgoing half-edge; degenerate (zero) basic values stay unoriented.
    """
    n = m.rows
    # B(v) by name, apart from GroundSet's vertex map, which this path cross-checks
    basis = frozenset(f"t{i + 1}" if vertex_bit(v, i, n) else f"s{i + 1}" for i in range(n))
    solution = basic_solution(m, q, basis)
    if solution is None:
        raise ValueError(f"basis at vertex {v:0{n}b} is singular")
    # the non-basic variable of each index is 0, so w_i + z_i is the basic value;
    # reversed, index i lands on vertex bit n - 1 - i
    positive, negative = sign_masks(reversed([a + b for a, b in zip(*solution)]))
    return negative, ((1 << n) - 1) & ~(positive | negative)


def plcp_ppu(m: RationalMatrix, q: Vector) -> Orientation:
    return Orientation(m.rows, fn=lambda v: plcp_orientation(m, q, v)).materialize()


def localization_from_q(base: RealizedOM, q: Vector):
    """Explicit localization table induced by a q-vector on a realized base.

    The extension is realized by [A | -q] for the base matrix A, and the
    localization rule of ``ExtensionOM`` read backwards gives
    sigma(C*(B, e)) = -C(B, q)_e for every basis B and every e in B.
    """
    from .extend import Localization

    extended = RealizedOM(
        hstack(base.matrix, RationalMatrix(tuple((-v,) for v in q))), base.ground.extended_by_q()
    )
    if extended.rank != base.rank:
        raise ValueError("q lies outside the column span of the base")
    table: dict[SignedSet, int] = {}
    for basis in base.bases():
        circuit = extended.query(basis, "q")
        for e, d in base.fundamental_cocircuits(basis).items():
            sigma = -circuit.sign_of(e)
            table[d] = sigma
            table[d.negate()] = -sigma
    return Localization(base, (), table)


def random_p_matrix(n: int, rng: random.Random) -> RationalMatrix:
    """Strictly diagonally dominant with positive diagonal, hence a P-matrix.

    Off-diagonal entries are non-zero rationals with varied denominators so
    that realizations [I; -M] come out generic with high probability.
    """
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            sign = -1 if rng.random() < 0.5 else 1
            row.append(
                Fraction(sign * rng.randint(1, 9), rng.randint(1, 3))
            )
        row[i] = sum(abs(v) for v in row) + Fraction(rng.randint(1, 6), rng.randint(1, 3))
        rows.append(row)
    return RationalMatrix(tuple(tuple(r) for r in rows))


def random_q(n: int, rng: random.Random) -> Vector:
    return tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
