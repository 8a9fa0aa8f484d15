"""Shared fixtures: the small worked-example models and independent oracles
(activation-pattern enumeration, parameter-box sampling, vertex enumeration,
scipy's HiGHS) used to cross-check the certified machinery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import reference_encode
from cfcert.milp import simplex_solve
from cfcert.milp.problem import GE, LE, LinearProgram
from cfcert.models import Layer, LogisticModel, ReluNetwork, affine_layers, flatten, unflatten


@pytest.fixture
def logistic_ref():
    """The two-weight, bias-free logistic model sigma(-x1 + x2)."""
    return LogisticModel(weights=[-1.0, 1.0])


@pytest.fixture
def binary_net():
    """Two ReLU hidden nodes feeding one logit: max(0,x1) - max(0,x2)."""
    return ReluNetwork(
        layers=(Layer(weights=[[1.0, 0.0], [0.0, 1.0]]), Layer(weights=[[1.0, -1.0]]))
    )


@pytest.fixture
def multi_net():
    """Three-logit network over the same two hidden ReLUs."""
    return ReluNetwork(
        layers=(
            Layer(weights=[[1.0, 0.0], [0.0, 1.0]]),
            Layer(weights=[[1.0, -1.0], [0.0, 0.5], [-1.0, 1.0]]),
        )
    )


def random_network(rng, n_in=None, hidden=None, n_out=1, with_bias=True):
    """Small random ReLU network for randomized properties."""
    n_in = n_in or int(rng.integers(2, 4))
    hidden = hidden if hidden is not None else [int(rng.integers(2, 5))]
    sizes = [n_in] + list(hidden) + [n_out]
    layers = []
    for a, b in zip(sizes[:-1], sizes[1:]):
        layers.append(
            Layer(
                weights=rng.normal(0, 1, (b, a)),
                bias=rng.normal(0, 0.3, b) if with_bias else None,
            )
        )
    return ReluNetwork(layers=tuple(layers))


def sample_shifted_logits(model, x, delta, n_samples, rng):
    """Logits of n_samples models with every parameter shifted within
    +/- delta (the inf-ball), evaluated batch-wise per layer."""
    x = np.asarray(x, dtype=np.float64)
    layers = affine_layers(model)
    V = np.broadcast_to(x, (n_samples, x.size)).copy()
    for i, (w, b) in enumerate(layers):
        W = w + rng.uniform(-delta, delta, (n_samples,) + w.shape)
        V = np.einsum("noi,ni->no", W, V)
        if b is not None:
            V = V + b + rng.uniform(-delta, delta, (n_samples, b.size))
        if i < len(layers) - 1:
            V = np.maximum(V, 0.0)
    return V


def _forward_theta(template, theta, x):
    from cfcert.models import forward

    return forward(unflatten(template, theta), x)


def corner_logits(model, x, delta):
    """Exact logit extrema over the 2^d corners of the parameter box
    (linear models only: the optimum of a linear function sits at a corner)."""
    theta = flatten(model)
    lo, hi = np.inf, -np.inf
    for corner in itertools.product((-delta, delta), repeat=theta.size):
        z = _forward_theta(model, theta + np.array(corner), x)
        lo = min(lo, z.min())
        hi = max(hi, z.max())
    return lo, hi


def enumerate_pattern_bound(network, x, delta, output_index, direction):
    """Exhaustive oracle: best LP optimum over all 2^k fixed activation
    patterns of the big-M encoding that gives every hidden layer, the first
    included, rows and binaries (``reference_encode``).  Every binary is
    fixed, those the encoder's presolve fixed included, so the enumeration
    is over the full pattern space and independently validates that presolve
    and the box the encoder under test makes of the first layer."""
    enc = reference_encode.encode_output_bound_first_layer_rows(
        network, x, delta, output_index, direction
    )
    lp = enc.problem.lp
    binaries = list(enc.problem.binary_idx)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lo = lp.lo.copy()
        hi = lp.hi.copy()
        for j, b in zip(binaries, bits):
            lo[j] = hi[j] = b
        res = simplex_solve(
            LinearProgram(
                c=lp.c, A=lp.A, rel=lp.rel, rhs=lp.rhs, lo=lo, hi=hi, sense=lp.sense
            )
        )
        if res.optimal:
            if best is None:
                best = res.objective
            elif direction == "min":
                best = min(best, res.objective)
            else:
                best = max(best, res.objective)
    return best


def cap_warm_dual_loops(monkeypatch, max_iter: int) -> None:
    """Cap the dual simplex of every child that branch and bound re-solves
    from its parent's tableau (``warm=(parent, j, value)``) at ``max_iter``
    pivots; root LPs run it uncapped."""
    from cfcert.milp import branch_bound, simplex

    real_loop, real_solve = simplex.dual_pivot_loop, branch_bound.simplex_solve
    warm_solve = [False]

    def loop(tab, basis, limit, tol):
        return real_loop(tab, basis, max_iter if warm_solve[0] else limit, tol)

    def solve(lp, warm=None):
        warm_solve[0] = warm is not None
        return real_solve(lp, warm=warm)

    monkeypatch.setattr(simplex, "dual_pivot_loop", loop)
    monkeypatch.setattr(branch_bound, "simplex_solve", solve)


def enumerate_vertices(lp: LinearProgram):
    """Vertex-enumeration LP oracle for tiny problems: intersect every
    n-subset of the constraint/bound hyperplanes, keep feasible points."""
    n = lp.num_vars
    rows = [(lp.A[i], float(lp.rhs[i])) for i in range(lp.A.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lo[j]):
            rows.append((e.copy(), float(lp.lo[j])))
        if np.isfinite(lp.hi[j]):
            rows.append((e.copy(), float(lp.hi[j])))
    best = None
    arg = None
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.vstack([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        try:
            pt = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not _feasible(lp, pt):
            continue
        val = float(lp.c @ pt)
        if best is None or (lp.sense == "min" and val < best) or (
            lp.sense == "max" and val > best
        ):
            best, arg = val, pt
    return best, arg


def _feasible(lp: LinearProgram, pt: np.ndarray, tol: float = 1e-8) -> bool:
    from cfcert.milp.problem import EQ, GE, LE

    if np.any(pt < lp.lo - tol) or np.any(pt > lp.hi + tol):
        return False
    lhs = lp.A @ pt
    for i in range(lp.A.shape[0]):
        r = int(lp.rel[i])
        if r == LE and lhs[i] > lp.rhs[i] + tol:
            return False
        if r == GE and lhs[i] < lp.rhs[i] - tol:
            return False
        if r == EQ and abs(lhs[i] - lp.rhs[i]) > tol:
            return False
    return True


def highs_optimum(problem, polish=False):
    """Optimal objective of a MilpProblem according to scipy's HiGHS, or
    None when HiGHS finds it infeasible.

    A HiGHS MILP solution may violate a row by its MIP feasibility
    tolerance (1e-6).  With ``polish`` the binaries of that solution are
    fixed and the LP that remains is solved again, whose optimal vertex
    meets every row to rounding."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp = problem.lp
    sign = 1.0 if lp.sense == "min" else -1.0
    integrality = np.zeros(lp.num_vars)
    integrality[problem.binary_idx] = 1
    lower = np.where(lp.rel == LE, -np.inf, lp.rhs)
    upper = np.where(lp.rel == GE, np.inf, lp.rhs)
    rows = [LinearConstraint(lp.A, lower, upper)] if lp.A.shape[0] else []
    res = milp(
        sign * lp.c,
        integrality=integrality,
        bounds=Bounds(lp.lo, lp.hi),
        constraints=rows,
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    if polish and problem.binary_idx.size:
        lo, hi = lp.lo.copy(), lp.hi.copy()
        lo[problem.binary_idx] = hi[problem.binary_idx] = np.round(res.x[problem.binary_idx])
        res = milp(sign * lp.c, bounds=Bounds(lo, hi), constraints=rows)
        assert res.status == 0, res.message
    return sign * float(res.fun)
