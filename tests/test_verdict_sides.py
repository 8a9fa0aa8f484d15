"""Differential test: a verdict's shared problem against one problem per side.

``is_delta_robust`` abstracts the model once, encodes it once and builds one
standard form per verdict; each further side is the encoded problem under
another objective.  The reference certifies each side alone, as
``logit_bound`` does (its own abstraction, encoding, standard form and
search), and checks the endpoint with ``_enclosed`` against the enclosure
``interval_forward`` gives.  Agreement is exact -- the bytes of every
bound, the node count, ``robust`` and ``unresolved`` -- over binary nets
with two hidden layers and 3- and 4-class nets with one and two, at
delta 0, 0.01 and 0.05.
"""

import numpy as np
import pytest

import cfcert.verifier
from cfcert.intervals import ShiftSet, abstract, dominant_class, interval_forward
from cfcert.milp import LinearProgram, MilpProblem, simplex
from cfcert.models import forward
from cfcert.verifier import _enclosed, is_delta_robust, logit_bound
from conftest import random_network

DELTAS = (0.0, 0.01, 0.05)
# (hidden layers, logits)
ARCHS = (([6, 6], 1), ([6], 3), ([6, 6], 3), ([5], 4), ([5, 5], 4))


def _sides(model, target):
    if model.num_outputs == 1:
        return [(0, "min" if target == 1 else "max", 1)]
    t0 = target - 1
    return [(t0, "min", target)] + [
        (j, "max", j + 1) for j in range(model.num_outputs) if j != t0
    ]


def per_side_verdict(model, shift, x, target):
    """(bounds, nodes, robust, unresolved) with every side certified alone."""
    ia_lo, ia_hi = interval_forward(abstract(model, shift), x)
    point = forward(model, x)
    bounds, nodes, unresolved = {}, 0, False
    for index, direction, label in _sides(model, target):
        lo, hi = float(ia_lo[index]), float(ia_hi[index])
        value, n, u = logit_bound(model, shift, x, index, direction)
        nodes += n
        value = None if u else _enclosed(value, direction, lo, hi, float(point[index]))
        if value is None:
            unresolved = True
        elif direction == "min":
            lo = value
        else:
            hi = value
        bounds[label] = (lo, hi)
    lo, hi = (np.array(side) for side in zip(*(bounds[k] for k in sorted(bounds))))
    robust = not unresolved and dominant_class(lo, hi) == target
    return bounds, nodes, robust, unresolved


def _bits(bounds):
    return {label: (lo.hex(), hi.hex()) for label, (lo, hi) in bounds.items()}


def _targets(model):
    return (0, 1) if model.num_outputs == 1 else tuple(range(1, model.num_outputs + 1))


@pytest.mark.parametrize("hidden, n_out", ARCHS)
def test_shared_problem_equals_one_problem_per_side(hidden, n_out):
    rng = np.random.default_rng(7000 + 10 * len(hidden) + n_out)
    seen = {"robust": 0, "refuted": 0, "branched": 0}
    for _ in range(3):
        model = random_network(rng, n_in=3, hidden=hidden, n_out=n_out)
        for x in rng.uniform(-1.0, 2.0, (3, 3)):
            for delta in DELTAS:
                shift = ShiftSet("inf", delta)
                for target in _targets(model):
                    verdict = is_delta_robust(model, shift, x, target=target)
                    bounds, nodes, robust, unresolved = per_side_verdict(model, shift, x, target)
                    case = (hidden, n_out, x, delta, target)
                    assert _bits(verdict.bounds) == _bits(bounds), case
                    assert verdict.nodes_explored == nodes, case
                    assert verdict.robust == robust and verdict.unresolved == unresolved, case
                    seen["robust" if robust else "refuted"] += 1
                    seen["branched"] += nodes > len(bounds)
    # Both answers occur.  With one hidden layer a side is an LP (the first
    # layer is a box); with two some side's search goes past its root.
    if len(hidden) == 1:
        assert seen.pop("branched") == 0, seen
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("hidden, n_out", ARCHS)
def test_a_verdict_encodes_and_standardises_once(hidden, n_out, monkeypatch):
    rng = np.random.default_rng(7100 + 10 * len(hidden) + n_out)
    model = random_network(rng, n_in=3, hidden=hidden, n_out=n_out)
    counts = {}

    def spy(name, real):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapped

    for owner, name in (
        (cfcert.verifier, "encode_output_bound"),
        (cfcert.verifier, "branch_and_bound"),
        (simplex, "_standardise"),
        (LinearProgram, "__post_init__"),
        (MilpProblem, "__post_init__"),
    ):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    sides = 1 if n_out == 1 else n_out
    shift = ShiftSet("inf", 0.05)
    for x in rng.uniform(-1.0, 2.0, (4, 3)):
        for target in _targets(model):
            counts.clear()
            is_delta_robust(model, shift, x, target=target)
            # Not even the encoding validates its rows again.
            assert counts == {
                "encode_output_bound": 1, "_standardise": 1, "branch_and_bound": sides
            }, (x, target)
