"""Branch and bound over binary variables, bounded by LP relaxations.

Depth-first search with deterministic exploration order: branch on the most
fractional binary (ties to the lowest index), explore the child matching the
rounded relaxation value first.  Binaries already fixed via equal bounds are
honoured, which is how the encoders presolve stably active/inactive ReLUs.
A node whose relaxation hits the simplex iteration limit ends the search with
status ``iteration_limit``.

The root relaxation is the problem's own LP, solved cold, so it starts
from the standard form the LP keeps (shared by the problems
``MilpProblem.with_objective`` makes of it).  Every child fixes one more
binary, so each stack entry is ``(parent result, j, value)`` and the child
is the root LP re-solved from its parent's optimal tableau with x_j fixed at
``value`` (``simplex_solve(lp, warm=...)``): no child LP is made and no
bound array copied.
"""

from __future__ import annotations

import numpy as np

from .problem import MilpProblem, SolveResult
from .simplex import simplex_solve

__all__ = ["branch_and_bound", "INTEGRALITY_TOL", "DEFAULT_NODE_LIMIT"]

INTEGRALITY_TOL = 1e-6
DEFAULT_NODE_LIMIT = 1_000_000


def branch_and_bound(milp: MilpProblem, node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Globally optimal solution over integral binary assignments."""
    lp = milp.lp
    binaries = milp.binary_idx
    minimise = lp.sense == "min"
    sgn = 1.0 if minimise else -1.0  # compare on sgn * objective (always min)

    best_obj = np.inf
    best_x = None
    nodes = 0
    hit_limit = False

    stack = [None]  # the root, then (parent result, j, value) per child
    while stack:
        if nodes >= node_limit:
            hit_limit = True
            break
        nodes += 1
        res = simplex_solve(lp, warm=stack.pop())
        if res.status == "infeasible":
            continue
        if res.status == "iteration_limit":
            # An unsolved relaxation bounds nothing: give up on the search.
            return SolveResult(status="iteration_limit", nodes=nodes)
        if res.status == "unbounded":
            # Binaries are bounded, so the unbounded ray is continuous and
            # survives any integral completion.
            return SolveResult(status="unbounded", nodes=nodes)
        bound = sgn * res.objective
        if bound >= best_obj - 1e-9:
            continue
        frac = np.abs(res.x[binaries] - np.round(res.x[binaries])) if binaries.size else None
        if binaries.size == 0 or frac.max(initial=0.0) <= INTEGRALITY_TOL:
            best_obj = bound
            best_x = res.x
            continue
        j = binaries[int(np.argmax(frac))]
        first = 1.0 if res.x[j] >= 0.5 else 0.0  # the rounded value, explored first
        stack.append((res, j, 1.0 - first))
        stack.append((res, j, first))

    if best_x is None:
        if hit_limit:
            return SolveResult(status="node_limit", nodes=nodes)
        # Exhausted search: every leaf relaxation was infeasible.
        return SolveResult(status="infeasible", nodes=nodes)
    status = "node_limit" if hit_limit else "optimal"
    return SolveResult(status=status, objective=sgn * best_obj, x=best_x, nodes=nodes)
