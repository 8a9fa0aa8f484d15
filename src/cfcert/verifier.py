"""Robustness certificates for counterfactuals under bounded parameter shifts.

A counterfactual is robust for its target class when the interval abstraction
assigns it that class: for single-logit models the certified logit lower
bound must be >= 0 (upper bound < 0 for class 0), for multi-logit models the
target's certified lower bound must dominate every other class's certified
upper bound.  Networks are certified through the MILP encoding; logistic
models have a closed form.  An undefined interval verdict counts as not
robust, and a solver node-limit is reported as not robust with a distinct
``unresolved`` flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .intervals import ShiftSet, abstract, interval_forward
from .milp import DEFAULT_NODE_LIMIT, branch_and_bound, encode_output_bound
from .models import LogisticModel, ParametricModel, as_feature_vector, classify

__all__ = [
    "RobustnessVerdict",
    "logit_bound",
    "is_delta_robust",
    "is_delta_robust_binary",
    "is_delta_robust_multi",
    "is_sound",
    "delta_validity",
]


@dataclass
class RobustnessVerdict:
    """Outcome of a robustness test plus the bounds that decided it.

    ``bounds`` maps class label to a [lo, hi] pair; the side the decision
    rests on is certified (MILP / closed form), the complementary side is the
    interval-arithmetic enclosure.  ``strictly_robust`` is populated only
    when soundness of the original input was checked.
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


def _logistic_bounds(model: LogisticModel, delta: float, x) -> tuple[float, float]:
    """Exact logit range over the parameter box; each parameter occurs once."""
    v = as_feature_vector(x, model.input_dim)
    z = float(model.weights @ v)
    width = delta * float(np.abs(v).sum())
    if model.bias is not None:
        z += model.bias
        width += delta
    return z - width, z + width


def logit_bound(
    model: ParametricModel,
    shift: ShiftSet,
    x,
    output_index: int,
    direction: str,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> tuple[float | None, int, bool]:
    """One certified endpoint of an output logit: (value, nodes, unresolved)."""
    if isinstance(model, LogisticModel):
        lo, hi = _logistic_bounds(model, shift.delta, x)
        return (lo if direction == "min" else hi), 0, False
    enc = encode_output_bound(model, x, shift.delta, output_index, direction)
    res = branch_and_bound(enc.problem, node_limit=node_limit)
    if res.status == "node_limit":
        return None, res.nodes, True
    if not res.optimal:
        raise RuntimeError(f"bound problem ended with status {res.status}")
    return res.objective, res.nodes, False


def _certify(
    model: ParametricModel, shift: ShiftSet, x, target: int, node_limit: int
) -> RobustnessVerdict:
    """The one robustness decision: certify every side, then compare.

    A side is (logit index, direction, bounds label): the target's minimum
    first, then each competitor's maximum; a single-logit model has the one
    side its target demands.  Each side's certified endpoint replaces its
    interval-arithmetic one in ``bounds``; an unresolved side keeps the
    enclosure and makes the verdict not robust.  Binary: the logit minimum
    is >= 0 for class 1, the maximum < 0 for class 0.  Multi-class: the
    target's minimum is >= every competitor's maximum.
    """
    if model.num_outputs == 1:
        sides = [(0, "min" if target == 1 else "max", 1)]
    else:
        t0 = target - 1
        sides = [(t0, "min", target)]
        sides += [(j, "max", j + 1) for j in range(model.num_outputs) if j != t0]
    ia_lo, ia_hi = interval_forward(abstract(model, shift), x)
    bounds: dict[int, tuple[float, float]] = {}
    values = []
    nodes = 0
    unresolved = False
    for index, direction, label in sides:
        value, n, u = logit_bound(model, shift, x, index, direction, node_limit)
        nodes += n
        unresolved |= u
        lo, hi = float(ia_lo[index]), float(ia_hi[index])
        if not u:
            lo, hi = (value, hi) if direction == "min" else (lo, value)
        bounds[label] = (lo, hi)
        values.append(value)
    if unresolved:
        robust = False
    elif model.num_outputs == 1:
        robust = values[0] >= 0.0 if target == 1 else values[0] < 0.0
    else:
        robust = not any(values[0] < hi_j for hi_j in values[1:])
    return RobustnessVerdict(
        robust=robust,
        target_class=target,
        bounds=bounds,
        nodes_explored=nodes,
        unresolved=unresolved,
    )


def _checked_verdict(model, shift, x_prime, target, check_soundness_of, node_limit):
    """``_certify`` timed, plus the optional soundness check of the original input."""
    start = time.perf_counter()
    verdict = _certify(model, shift, x_prime, target, node_limit)
    if check_soundness_of is not None:
        sound = is_sound(model, shift, check_soundness_of, node_limit=node_limit)
        verdict.strictly_robust = bool(verdict.robust and sound)
    verdict.wall_ms = (time.perf_counter() - start) * 1000.0
    return verdict


def is_delta_robust_binary(
    model: ParametricModel,
    shift: ShiftSet,
    x_prime,
    target: int = 1,
    check_soundness_of=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> RobustnessVerdict:
    """Certify a counterfactual for a single-logit model."""
    if model.num_outputs != 1:
        raise ValueError("binary robustness test needs a single-logit model")
    if target not in (0, 1):
        raise ValueError("binary target must be 0 or 1")
    return _checked_verdict(model, shift, x_prime, target, check_soundness_of, node_limit)


def is_delta_robust_multi(
    model: ParametricModel,
    shift: ShiftSet,
    x_prime,
    target: int,
    check_soundness_of=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> RobustnessVerdict:
    """Certify a counterfactual for a multi-logit model: one minimisation for
    the target plus one maximisation per competing class."""
    n_out = model.num_outputs
    if n_out < 2:
        raise ValueError("multi-class robustness test needs >= 2 logits")
    if not 1 <= target <= n_out:
        raise ValueError(f"target class {target} out of range 1..{n_out}")
    return _checked_verdict(model, shift, x_prime, target, check_soundness_of, node_limit)


def is_delta_robust(
    model: ParametricModel,
    shift: ShiftSet,
    x_prime,
    target: int | None = None,
    check_soundness_of=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> RobustnessVerdict:
    """Dispatch on model arity; binary target defaults to class 1."""
    if model.num_outputs == 1:
        return is_delta_robust_binary(
            model, shift, x_prime, 1 if target is None else target, check_soundness_of, node_limit
        )
    if target is None:
        raise ValueError("multi-class robustness test needs an explicit target class")
    return is_delta_robust_multi(model, shift, x_prime, target, check_soundness_of, node_limit)


def is_sound(
    model: ParametricModel,
    shift: ShiftSet,
    x,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> bool:
    """True iff the abstraction still assigns x its point-model class."""
    return _certify(model, shift, x, classify(model, x), node_limit).robust


def delta_validity(
    model: ParametricModel,
    shift: ShiftSet,
    ce_batch,
    targets=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> float:
    """Fraction of a counterfactual batch passing the robustness test."""
    ces = [np.asarray(ce, dtype=np.float64) for ce in ce_batch]
    if not ces:
        raise ValueError("counterfactual batch is empty")
    if targets is None:
        targets = [None] * len(ces)
    flags = [
        is_delta_robust(model, shift, ce, target=t, node_limit=node_limit).robust
        for ce, t in zip(ces, targets)
    ]
    return float(np.mean(flags))
