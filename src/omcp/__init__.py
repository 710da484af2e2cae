"""Oriented-matroid complementarity toolbox.

Circuit-level P-matroid recognition with certificates, reduction of
complementarity instances (possibly degenerate) to unique sink
orientations of the hypercube, localization-based extension machinery,
an adversarial query lower bound for deterministic sink-finding, and an
exact-rational linear complementarity front end.
"""

from .adversary import AdversaryState, GameResult, SSState, run_game, ss_forcing_run
from .cube import Face, Orientation, enumerate_usos, holt_klee_value, is_uso_exhaustive
from .extend import ExtensionOM, LexAtom, Localization, lex_localization
from .om import NOT_A_BASIS, AxiomViolation, ExplicitOM, NotABasis, check_circuit_axioms
from .pmatroid import (
    M1,
    MV1,
    MV2,
    MV3,
    U1,
    UV1,
    Certificate,
    is_p_matroid,
    solve_omcp_bruteforce,
    verify_certificate,
)
from .plcp import PlcpInstance, is_p_matrix
from .realize import RationalMatrix, RealizedOM, circuits_from_matrix, omcp_from_plcp
from .reduction import klaus_orientation, map_back_sink, map_back_uv1
from .signs import MINUS, PLUS, ZERO, GroundSet, SignedSet

__version__ = "0.1.0"

__all__ = [
    "AdversaryState",
    "AxiomViolation",
    "Certificate",
    "ExplicitOM",
    "ExtensionOM",
    "Face",
    "GameResult",
    "GroundSet",
    "LexAtom",
    "Localization",
    "M1",
    "MINUS",
    "MV1",
    "MV2",
    "MV3",
    "NOT_A_BASIS",
    "NotABasis",
    "Orientation",
    "PLUS",
    "PlcpInstance",
    "RationalMatrix",
    "RealizedOM",
    "SSState",
    "SignedSet",
    "U1",
    "UV1",
    "ZERO",
    "check_circuit_axioms",
    "circuits_from_matrix",
    "enumerate_usos",
    "holt_klee_value",
    "is_p_matroid",
    "is_p_matrix",
    "is_uso_exhaustive",
    "klaus_orientation",
    "lex_localization",
    "map_back_sink",
    "map_back_uv1",
    "omcp_from_plcp",
    "run_game",
    "solve_omcp_bruteforce",
    "ss_forcing_run",
    "verify_certificate",
]
