"""Embedded MILP engine: dense simplex, branch and bound, and the two
network-bound encodings used by the robustness tests."""

from .branch_bound import DEFAULT_NODE_LIMIT, branch_and_bound
from .encode import EncodedProblem, encode_nearest_ce, encode_output_bound
from .problem import EQ, GE, LE, LinearProgram, MilpProblem, SolveResult
from .simplex import simplex_solve

__all__ = [
    "LE",
    "GE",
    "EQ",
    "LinearProgram",
    "MilpProblem",
    "SolveResult",
    "simplex_solve",
    "branch_and_bound",
    "DEFAULT_NODE_LIMIT",
    "EncodedProblem",
    "encode_output_bound",
    "encode_nearest_ce",
]
