"""Robustness certificates for counterfactuals under bounded parameter shifts.

A counterfactual is robust for its target class when the interval abstraction
assigns it that class.  One rule reads the class off the certified logit box,
:func:`~cfcert.intervals.dominant_class`: for single-logit models the logit
lower bound must be >= 0 (upper bound < 0 for class 0), for multi-logit
models the target's lower bound must dominate every other class's upper
bound (strictly for lower classes: ties go to the lowest index).
Each side is certified through the MILP encoding, except in a model without
hidden layers, whose interval enclosure is exact: every parameter occurs
once in its logit and no two logits share one.  An undefined interval
verdict counts as not robust.  A solve that ends without an optimum (a node
or iteration limit, or an infeasible or unbounded status, which only
numerical failure gives), and a certified endpoint outside the range its
interval enclosure and the point model allow, are reported as not robust
with a distinct ``unresolved`` flag.

Callers that need only the yes/no answer use :func:`robust_flags`, which
settles a row by the point model's class or by one batched interval
arithmetic pass when it can and solves the MILP only for the rest.
:func:`delta_validity`, the share of a batch that :func:`robust_flags` finds
robust, is the one certified-validity routine; the benchmark uses it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .intervals import ShiftSet, abstract, dominant_class, interval_bounds, interval_forward
from .milp import DEFAULT_NODE_LIMIT, branch_and_bound, encode_output_bound
from .milp.branch_bound import INTEGRALITY_TOL
from .milp.simplex import FEASIBILITY_TOL
from .models import (
    ParametricModel,
    affine_layers,
    check_target,
    class_of_logits,
    classify,
    classify_batch,
    forward,
)

__all__ = [
    "RobustnessVerdict",
    "logit_bound",
    "is_delta_robust",
    "is_sound",
    "robust_flags",
    "delta_validity",
]


@dataclass
class RobustnessVerdict:
    """Outcome of a robustness test plus the bounds that decided it.

    ``bounds`` maps class label to a [lo, hi] pair; the side the decision
    rests on is certified (MILP, or the exact enclosure of a model without
    hidden layers), the complementary side is the interval-arithmetic
    enclosure.  ``strictly_robust`` is populated only when soundness of the
    original input was checked.
    """

    robust: bool
    target_class: int
    bounds: dict[int, tuple[float, float]]
    strictly_robust: bool | None = None
    nodes_explored: int = 0
    wall_ms: float = 0.0
    unresolved: bool = False

    def to_dict(self) -> dict:
        return {
            "robust": self.robust,
            "strictly_robust": self.strictly_robust,
            "target_class": self.target_class,
            "bounds": {str(k): [v[0], v[1]] for k, v in sorted(self.bounds.items())},
            "nodes_explored": self.nodes_explored,
            "wall_ms": self.wall_ms,
            "unresolved": self.unresolved,
        }


def logit_bound(
    model: ParametricModel,
    shift: ShiftSet,
    x,
    output_index: int,
    direction: str,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> tuple[float | None, int, bool]:
    """One certified endpoint of an output logit: (value, nodes, unresolved).

    A search that ends without an optimum is unresolved and has no value:
    one cut short by the node or the simplex iteration limit, and one that
    ends infeasible or unbounded, which the problem can only be through
    numerical failure, since its shift set holds the point model."""
    enc = encode_output_bound(model, x, shift.delta, output_index, direction)
    res = branch_and_bound(enc.problem, node_limit=node_limit)
    if not res.optimal:
        return None, res.nodes, True
    return res.objective, res.nodes, False


def _enclosed(
    value: float, direction: str, ia_lo: float, ia_hi: float, point: float
) -> float | None:
    """A certified endpoint checked against the range it must lie in and
    moved into it; None when it lies outside by more than the solver's slack.

    The unshifted model is in the shift set, so a minimum cannot exceed the
    point logit nor a maximum fall below it; interval arithmetic encloses
    every shifted model, so neither can pass its IA endpoint.  The solver
    meets that range only to its own tolerances: a binary accepted within
    ``INTEGRALITY_TOL`` of integral lets a ReLU move by that fraction of its
    pre-activation enclosure (its big-M constants), which the IA width of the
    logit bounds, and rows hold to ``FEASIBILITY_TOL`` at the scale of the
    logit.  Within that slack the endpoint is clamped into the range, so a
    verdict never contradicts the point class or the interval
    classification.  Where rounding leaves the range empty (the IA endpoint
    past the point logit by an ulp, at delta 0) the IA endpoint wins.
    """
    tol = INTEGRALITY_TOL * (ia_hi - ia_lo) + FEASIBILITY_TOL * max(1.0, abs(ia_lo), abs(ia_hi))
    if direction == "min":
        if not ia_lo - tol <= value <= point + tol:
            return None
        return max(min(value, point), ia_lo)
    if not point - tol <= value <= ia_hi + tol:
        return None
    return min(max(value, point), ia_hi)


def _exact(model: ParametricModel) -> bool:
    """A model without hidden layers, whose interval enclosure is exact."""
    return len(affine_layers(model)) == 1


def _side_problems(enc, sides):
    """The MILP of each side, made when the loop reaches it: the encoded
    problem for the first side, then that problem with each further side's
    objective, which shares the standard form the first side's solve built."""
    yield enc.problem
    out = enc.var_index["out"]
    for index, direction, _ in sides[1:]:
        c = np.zeros(enc.problem.lp.num_vars)
        c[out[index]] = 1.0
        yield enc.problem.with_objective(c, direction)


def _certify(
    model: ParametricModel, shift: ShiftSet, x, target: int, node_limit: int
) -> RobustnessVerdict:
    """The one robustness decision: certify every side, then compare.

    A side is (logit index, direction, bounds label): the target's minimum
    first, then each competitor's maximum; a single-logit model has the one
    side its target demands.  Each side's certified endpoint replaces its
    interval-arithmetic one in ``bounds``; an unresolved side keeps the
    enclosure and makes the verdict not robust.  A side is unresolved when
    its solve found no optimum or its endpoint fails :func:`_enclosed`.  A model
    without hidden layers needs no solver: its enclosure is exact, so it is
    the certified endpoint of every side.
    Every side is the same MILP over the one enclosure with another
    objective, so a verdict abstracts the model once, encodes it once (the
    enclosure is the encoding's ``pre[-1]``) and builds one standard form;
    each further side adds only its objective
    (``MilpProblem.with_objective``).  Every side still solves from the
    tableau a problem of its own would start from, so the bounds and node
    counts equal :func:`logit_bound`'s bit for bit.
    The verdict is robust when every side is resolved and the certified
    box assigns the target (:func:`dominant_class`).  It is unresolved when
    some side is and the point model, which lies in the shift set, assigns
    the target; a point of another class already refutes it.
    """
    if model.num_outputs == 1:
        sides = [(0, "min" if target == 1 else "max", 1)]
    else:
        t0 = target - 1
        sides = [(t0, "min", target)]
        sides += [(j, "max", j + 1) for j in range(model.num_outputs) if j != t0]
    im = abstract(model, shift)
    bounds: dict[int, tuple[float, float]] = {}
    nodes = 0
    unresolved = False
    if _exact(model):
        ia_lo, ia_hi = interval_forward(im, x)
        for index, _, label in sides:
            bounds[label] = (float(ia_lo[index]), float(ia_hi[index]))
    else:
        index, direction, _ = sides[0]
        enc = encode_output_bound(model, x, shift.delta, index, direction, im=im)
        (ia_lo, ia_hi), point = enc.pre[-1], forward(model, x)
        for (index, direction, label), problem in zip(sides, _side_problems(enc, sides)):
            lo, hi = float(ia_lo[index]), float(ia_hi[index])
            res = branch_and_bound(problem, node_limit=node_limit)
            nodes += res.nodes
            value = None
            if res.optimal:
                value = _enclosed(res.objective, direction, lo, hi, float(point[index]))
            if value is None:
                unresolved = True
            elif direction == "min":
                lo = value
            else:
                hi = value
            bounds[label] = (lo, hi)
    lo, hi = (np.array(side) for side in zip(*(bounds[k] for k in sorted(bounds))))
    robust = not unresolved and dominant_class(lo, hi) == target
    # Only the MILP branch, which sets point, leaves a side unresolved.
    unresolved = unresolved and class_of_logits(point) == target
    return RobustnessVerdict(
        robust=robust,
        target_class=target,
        bounds=bounds,
        nodes_explored=nodes,
        unresolved=unresolved,
    )


def _target(model: ParametricModel, target: int | None) -> int:
    """The class a robustness test certifies, checked: class 1 of a
    single-logit model unless given; a multi-logit model needs it given."""
    if target is None:
        if model.num_outputs != 1:
            raise ValueError("multi-class robustness test needs an explicit target class")
        target = 1
    check_target(model, target)
    return target


def is_delta_robust(
    model: ParametricModel,
    shift: ShiftSet,
    x_prime,
    target: int | None = None,
    check_soundness_of=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> RobustnessVerdict:
    """Certify a counterfactual for its target class (class 1 by default
    for a single-logit model), timed.  A multi-logit model takes one
    minimisation for the target plus one maximisation per competing class.
    With ``check_soundness_of`` the verdict also says whether that original
    input keeps its point class under the abstraction."""
    target = _target(model, target)
    start = time.perf_counter()
    verdict = _certify(model, shift, x_prime, target, node_limit)
    if check_soundness_of is not None:
        sound = is_sound(model, shift, check_soundness_of, node_limit=node_limit)
        verdict.strictly_robust = bool(verdict.robust and sound)
    verdict.wall_ms = (time.perf_counter() - start) * 1000.0
    return verdict


def is_sound(
    model: ParametricModel,
    shift: ShiftSet,
    x,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> bool:
    """True iff the abstraction still assigns x its point-model class."""
    return _certify(model, shift, x, classify(model, x), node_limit).robust


def robust_flags(
    model: ParametricModel,
    shift: ShiftSet,
    X,
    target: int | None = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> list[bool]:
    """``is_delta_robust(model, shift, x, target=target).robust`` for each row
    x of X, with a MILP only for the rows two cheap tests leave open.

    A row the point model assigns to another class is not robust: the
    unshifted model lies in the shift set.  A row the interval abstraction
    assigns the target is robust: interval arithmetic encloses the logit
    range the MILP computes; one pass over all the rows the point class
    leaves open tests them.  Every other row goes to ``is_delta_robust``,
    except in a model without hidden layers: its enclosure is exact, so the
    interval pass has already decided the row as ``is_delta_robust`` would.
    The answers agree with ``is_delta_robust`` except where it gives up (an
    unresolved verdict is not robust, while a cheap test may settle the
    row) and where two logits, or a logit and 0, are equal up to rounding
    that the point model and interval arithmetic settle differently.  At
    delta 0 the shift set holds only the point model, so its class decides
    every row.  Rows that are not ``input_dim`` wide are a ``ValueError``.
    """
    target = _target(model, target)
    X = np.asarray(X, dtype=np.float64)
    if not X.size:
        return []
    flags = classify_batch(model, X) == target
    if shift.delta == 0.0:
        return flags.tolist()
    rows = np.flatnonzero(flags)
    lo, hi = interval_bounds(abstract(model, shift), X[rows], X[rows])[-1]
    exact = _exact(model)
    for i in rows[dominant_class(lo, hi) != target]:
        flags[i] = not exact and is_delta_robust(
            model, shift, X[i], target=target, node_limit=node_limit
        ).robust
    return flags.tolist()


def delta_validity(
    model: ParametricModel,
    shift: ShiftSet,
    ce_batch,
    targets=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> float:
    """Certified validity: the share of a counterfactual batch that
    :func:`robust_flags` finds robust for its target, one call per distinct
    target."""
    ces = [np.asarray(ce, dtype=np.float64) for ce in ce_batch]
    if not ces:
        raise ValueError("counterfactual batch is empty")
    if targets is None:
        targets = [None] * len(ces)
    elif len(targets) != len(ces):
        raise ValueError(f"{len(targets)} targets for {len(ces)} counterfactuals")
    robust = 0
    for t in dict.fromkeys(targets):
        batch = [ce for ce, ce_target in zip(ces, targets) if ce_target == t]
        robust += sum(robust_flags(model, shift, batch, t, node_limit))
    return robust / len(ces)
