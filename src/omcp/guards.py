"""Size guards for brute-force enumerations.

Every exhaustive routine is bounded by a default limit and raises
:class:`SizeGuardError` instead of running unbounded.  The only override
is the environment variable ``OMCP_GUARD_OVERRIDE``: an integer that
raises all defaults below it at once and never lowers one.
"""

from __future__ import annotations

import os

# Defaults: ground-set size for cocircuit enumeration over all bases, cube
# dimension for the Holt-Klee max flow, cube dimension for sink-finding
# games, matrix columns for circuit enumeration over all bases of a
# realization, and the dimension n of every other 2^n scan: complementary
# sets (OMCP solve, degeneracy, basis checks), principal minors (P-matrix
# check), the vertices of a materialized cube orientation and the
# exhaustive USO check.
DUALITY_ELEMENTS = 12
HOLT_KLEE_DIM = 4
GAME_DIM = 6
MATRIX_COLUMNS = 14
OMCP_SCAN_DIM = 16


class SizeGuardError(RuntimeError):
    """An enumeration would exceed its configured size guard."""


def resolve(default: int) -> int:
    """Effective limit: the default, raised by ``OMCP_GUARD_OVERRIDE`` if set."""
    env = os.environ.get("OMCP_GUARD_OVERRIDE")
    if not env:
        return default
    try:
        return max(default, int(env))
    except ValueError:
        raise ValueError(f"OMCP_GUARD_OVERRIDE must be an integer, got {env!r}") from None


def check(value: int, default: int, what: str) -> None:
    limit = resolve(default)
    if value > limit:
        raise SizeGuardError(f"{what}={value} exceeds size guard {limit}")
