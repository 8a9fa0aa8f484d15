import numpy as np
import pytest

import cfcert.verifier
from cfcert._kernels import STATUS_ITER_LIMIT
from cfcert.intervals import ShiftSet, abstract, interval_classify, interval_forward
from cfcert.milp import SolveResult, branch_and_bound, encode_output_bound
from cfcert.models import Layer, LogisticModel, ReluNetwork, classify, flatten, forward, unflatten
from cfcert.verifier import (
    delta_validity,
    is_delta_robust,
    is_sound,
    robust_flags,
)

from conftest import corner_logits, random_network, sample_shifted_logits


def test_binary_worked_example(logistic_ref):
    shift = ShiftSet("inf", 0.1)
    x = [0.7, 0.5]
    v_bad = is_delta_robust(logistic_ref, shift, [0.7, 0.7], check_soundness_of=x)
    assert not v_bad.robust and v_bad.strictly_robust is False
    v_good = is_delta_robust(logistic_ref, shift, [0.7, 0.86], check_soundness_of=x)
    assert v_good.robust and v_good.strictly_robust is True
    assert v_good.bounds[1][0] >= 0.0


def test_binary_delta_zero_reduces_to_classification(logistic_ref):
    rng = np.random.default_rng(0)
    shift = ShiftSet("inf", 0.0)
    for _ in range(20):
        x = rng.uniform(0, 1, 2)
        want = classify(logistic_ref, x) == 1
        assert is_delta_robust(logistic_ref, shift, x).robust == want


def test_binary_target_zero(logistic_ref):
    shift = ShiftSet("inf", 0.05)
    assert is_delta_robust(logistic_ref, shift, [0.9, 0.2], target=0).robust
    assert not is_delta_robust(logistic_ref, shift, [0.9, 0.2], target=1).robust


def test_multi_worked_example(multi_net):
    shift = ShiftSet("inf", 0.05)
    v = is_delta_robust(multi_net, shift, [3, 1], target=1, check_soundness_of=[2, 2])
    assert v.robust and v.strictly_robust is True
    assert v.bounds[1][0] == pytest.approx(1.40, abs=1e-6)
    assert v.bounds[2][1] == pytest.approx(0.82, abs=1e-6)
    assert v.bounds[3][1] == pytest.approx(-1.40, abs=1e-6)
    # Same input cannot be certified for the class the abstraction rejects.
    assert not is_delta_robust(multi_net, shift, [2, 2], target=1).robust


def test_multi_delta_zero_reduces_to_classification(multi_net):
    rng = np.random.default_rng(1)
    shift = ShiftSet("inf", 0.0)
    for _ in range(20):
        x = rng.uniform(0, 3, 2)
        got = is_delta_robust(multi_net, shift, x, target=2).robust
        assert got == (classify(multi_net, x) == 2)


def test_soundness_examples(logistic_ref, multi_net):
    assert is_sound(logistic_ref, ShiftSet("inf", 0.1), [0.7, 0.5])
    assert is_sound(multi_net, ShiftSet("inf", 0.05), [2, 2])
    # Widening far enough always crosses the boundary.
    assert not is_sound(logistic_ref, ShiftSet("inf", 5.0), [0.7, 0.5])


def test_robust_certificate_survives_sampling_attack():
    rng = np.random.default_rng(2)
    checked = 0
    for trial in range(12):
        net = random_network(rng, hidden=[3], n_out=1)
        delta = float(rng.uniform(0.02, 0.1))
        shift = ShiftSet("inf", delta)
        x = rng.uniform(0, 1, net.input_dim)
        verdict = is_delta_robust(net, shift, x, target=classify(net, x) or 1)
        if not verdict.robust:
            continue
        checked += 1
        sampled = sample_shifted_logits(net, x, delta, 10_000, rng)
        if verdict.target_class == 1:
            assert np.all(sampled[:, 0] >= 0.0)
        else:
            assert np.all(sampled[:, 0] < 0.0)
    assert checked >= 3


def test_monotone_fragility(binary_net):
    shift_grid = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4]
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(0, 2, 2)
        flags = [
            is_delta_robust(binary_net, ShiftSet("inf", d), x).robust for d in shift_grid
        ]
        # Once robustness is lost it never comes back at larger deltas.
        assert all(a >= b for a, b in zip(flags, flags[1:]))


def test_verifier_never_contradicts_interval_verdict():
    rng = np.random.default_rng(4)
    for _ in range(15):
        net = random_network(rng, hidden=[3, 2], n_out=1)
        x = rng.uniform(0, 1, net.input_dim)
        delta = float(rng.uniform(0.01, 0.1))
        shift = ShiftSet("inf", delta)
        ia = interval_classify(abstract(net, shift), x)
        if ia.label == 1:
            assert is_delta_robust(net, shift, x).robust


def test_logistic_closed_form_matches_corner_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        m = LogisticModel(weights=rng.normal(0, 1, d), bias=float(rng.normal()))
        x = rng.uniform(0, 1, d)
        delta = float(rng.uniform(0.01, 0.3))
        verdict = is_delta_robust(m, ShiftSet("inf", delta), x)
        lo, hi = corner_logits(m, x, delta)
        assert verdict.bounds[1][0] == pytest.approx(lo, abs=1e-10)
        assert verdict.bounds[1][1] == pytest.approx(hi, abs=1e-10)


def test_delta_validity_fractions(logistic_ref):
    shift = ShiftSet("inf", 0.1)
    assert delta_validity(logistic_ref, shift, [[0.7, 0.86], [0.6, 0.9]]) == 1.0
    assert delta_validity(logistic_ref, shift, [[0.9, 0.2]]) == 0.0
    assert delta_validity(logistic_ref, shift, [[0.7, 0.7], [0.7, 0.86]]) == 0.5
    with pytest.raises(ValueError):
        delta_validity(logistic_ref, shift, [])


def test_delta_validity_targets_must_match_the_batch(logistic_ref):
    shift = ShiftSet("inf", 0.1)
    batch = [[0.7, 0.86], [0.9, 0.2], [0.7, 0.7]]
    for targets in ([1], [1, 0, 1, 1]):
        with pytest.raises(ValueError, match="targets for 3 counterfactuals"):
            delta_validity(logistic_ref, shift, batch, targets)
    assert delta_validity(logistic_ref, shift, batch, [1, 0, 0]) == 2 / 3


def test_node_limit_reports_unresolved():
    rng = np.random.default_rng(6)
    # Large delta keeps every ReLU unstable so branching is unavoidable.
    net = random_network(rng, n_in=3, hidden=[6, 6], n_out=1)
    verdict = is_delta_robust(
        net, ShiftSet("inf", 0.5), rng.uniform(0, 1, 3), node_limit=1
    )
    assert not verdict.robust and verdict.unresolved


def test_verdict_serialization(logistic_ref):
    v = is_delta_robust(logistic_ref, ShiftSet("inf", 0.1), [0.7, 0.86])
    doc = v.to_dict()
    assert set(doc) == {
        "robust",
        "strictly_robust",
        "target_class",
        "bounds",
        "nodes_explored",
        "wall_ms",
        "unresolved",
    }
    assert doc["robust"] is True and doc["bounds"]["1"][0] >= 0


def test_multi_requires_target(multi_net):
    with pytest.raises(ValueError):
        is_delta_robust(multi_net, ShiftSet("inf", 0.05), [2, 2])


def _verdict_doc(verdict):
    doc = verdict.to_dict()
    doc.pop("wall_ms")
    return doc


def _p_sphere(rng, size, p, radius):
    """A random point of the p-sphere of the given radius: Gaussian or
    one-hot directions, rescaled to p-norm radius."""
    u = np.zeros(size)
    if rng.random() < 0.3:
        u[rng.integers(size)] = rng.choice([-1.0, 1.0])  # a vertex of the 1-ball
    else:
        u = rng.normal(size=size)
    return radius * u / np.linalg.norm(u, ord=p)


@pytest.mark.parametrize("p", [1, 2])
def test_p_norm_shift_uses_the_enclosing_inf_box(p):
    rng = np.random.default_rng(20 + p)
    robust_seen = 0
    for k in range(12):
        if k % 3 == 0:
            model = LogisticModel(weights=rng.normal(0, 1, 3), bias=float(rng.normal()))
        else:
            model = random_network(rng, n_in=3, hidden=[4], n_out=1 if k % 3 == 1 else 3)
        delta = float(rng.uniform(0.01, 0.1))
        theta = flatten(model)
        for x in rng.uniform(0, 1, (3, 3)):
            target = classify(model, x)
            verdict = is_delta_robust(model, ShiftSet(p, delta), x, target=target)
            reference = is_delta_robust(model, ShiftSet("inf", delta), x, target=target)
            assert _verdict_doc(verdict) == _verdict_doc(reference)
            if not verdict.robust:
                continue
            robust_seen += 1
            for _ in range(50):
                shifted = unflatten(model, theta + _p_sphere(rng, theta.size, p, delta))
                assert classify(shifted, x) == target
    assert robust_seen >= 5


def test_iteration_limit_reports_unresolved(binary_net, monkeypatch):
    monkeypatch.setattr(
        "cfcert.milp.simplex.pivot_loop",
        lambda tab, basis, max_iter, tol: (STATUS_ITER_LIMIT, max_iter),
    )
    verdict = is_delta_robust(binary_net, ShiftSet("inf", 0.05), [2.0, 0.5], target=1)
    assert not verdict.robust and verdict.unresolved


def test_certificate_outside_its_enclosure_is_unresolved(binary_net, monkeypatch):
    shift = ShiftSet("inf", 0.05)
    x = [2.0, 0.5]
    honest = is_delta_robust(binary_net, shift, x, target=1)
    assert honest.robust and not honest.unresolved
    ia_lo, ia_hi = interval_forward(abstract(binary_net, shift), x)
    point = forward(binary_net, x)[0]

    def solver_returning(value):
        return lambda problem, node_limit: SolveResult(status="optimal", objective=value, nodes=1)

    # Below the IA lower bound, then above the point logit: each breaks an
    # inequality every certified minimum must satisfy.
    for value in (ia_lo[0] - 1.0, point + 1.0):
        monkeypatch.setattr("cfcert.verifier.branch_and_bound", solver_returning(value))
        verdict = is_delta_robust(binary_net, shift, x, target=1)
        assert not verdict.robust and verdict.unresolved
        assert verdict.bounds[1] == (float(ia_lo[0]), float(ia_hi[0]))
    # Within the solver's slack an endpoint is clamped into its range.
    for value, clamped in ((ia_lo[0] - 1e-9, ia_lo[0]), (point + 1e-9, point)):
        monkeypatch.setattr("cfcert.verifier.branch_and_bound", solver_returning(value))
        verdict = is_delta_robust(binary_net, shift, x, target=1)
        assert verdict.robust and not verdict.unresolved
        assert verdict.bounds[1] == (float(clamped), float(ia_hi[0]))


@pytest.mark.parametrize("n_out", [1, 3])
def test_single_hidden_layer_certificates_are_never_unresolved(n_out):
    # With one hidden layer every parameter box feeds one term, so interval
    # arithmetic is exact and each certified endpoint equals its IA endpoint:
    # a runtime check tighter than the solver's tolerances would show here.
    rng = np.random.default_rng(40 + n_out)
    sides = 0
    for width in (4, 8, 16):
        model = random_network(rng, n_in=2, hidden=[width], n_out=n_out)
        for delta, scale in ((0.01, 1.0), (0.05, 10.0), (0.2, 100.0)):
            shift = ShiftSet("inf", delta)
            im = abstract(model, shift)
            for x in rng.uniform(-scale, scale, (4, 2)):
                ia_lo, ia_hi = interval_forward(im, x)
                for target in (0, 1) if n_out == 1 else (1, 2, 3):
                    verdict = is_delta_robust(model, shift, x, target=target)
                    assert not verdict.unresolved, (width, delta, x, target)
                    for label, (lo, hi) in verdict.bounds.items():
                        k = 0 if n_out == 1 else label - 1
                        assert lo == pytest.approx(ia_lo[k], rel=1e-9, abs=1e-9)
                        assert hi == pytest.approx(ia_hi[k], rel=1e-9, abs=1e-9)
                        sides += 1
    assert sides >= 72


@pytest.mark.parametrize("kind", ["logistic", "one-layer-3-logit"])
def test_models_without_hidden_layers_are_certified_by_their_exact_enclosure(kind, monkeypatch):
    # Every parameter occurs once in its logit, so the enclosure is the LP
    # optimum of each side: no node is explored and no solver is called.
    rng = np.random.default_rng(61)
    monkeypatch.setattr("cfcert.verifier.branch_and_bound", None)
    sides = 0
    for _ in range(6):
        if kind == "logistic":
            model = LogisticModel(weights=rng.normal(0, 1, 3), bias=float(rng.normal()))
            targets = (0, 1)
        else:
            model = random_network(rng, n_in=3, hidden=[], n_out=3)
            targets = (1, 2, 3)
        for delta in (0.0, 0.02, 0.2):
            shift = ShiftSet("inf", delta)
            x = rng.uniform(-1, 2, 3)
            for target in targets:
                verdict = is_delta_robust(model, shift, x, target=target)
                assert verdict.nodes_explored == 0 and not verdict.unresolved
                if model.num_outputs == 1:
                    decisive = [(0, "min" if target == 1 else "max", 1)]
                else:
                    decisive = [(target - 1, "min", target)]
                    decisive += [(j, "max", j + 1) for j in range(3) if j != target - 1]
                for index, direction, label in decisive:
                    enc = encode_output_bound(model, x, delta, index, direction)
                    optimum = branch_and_bound(enc.problem).objective
                    mine = verdict.bounds[label][0 if direction == "min" else 1]
                    assert mine == pytest.approx(optimum, rel=1e-9, abs=1e-9)
                    sides += 1
    assert sides >= 36


def _model_with_a_boundary(kind, rng):
    """A random model of the given kind whose point class is not constant
    over the box [-0.5, 1.5]^2.  In a "3class-tied" model logits 1 and 2
    are equal everywhere, so class 2 wins no point."""
    while True:
        if kind == "logistic":
            model = LogisticModel(weights=rng.normal(0, 1, 2), bias=float(rng.normal(0, 0.3)))
        else:
            hidden = [8, 8] if kind == "8x8" else [8]
            n_out = 3 if kind.startswith("3class") else 1
            model = random_network(rng, n_in=2, hidden=hidden, n_out=n_out)
        if kind == "3class-tied":
            out = model.layers[-1]
            W, b = out.weights.copy(), out.bias.copy()
            W[1], b[1] = W[0], b[0]
            model = ReluNetwork(layers=model.layers[:-1] + (Layer(weights=W, bias=b),))
        if len({classify(model, x) for x in rng.uniform(-0.5, 1.5, (50, 2))}) > 1:
            return model


def _crossings(model, rng, count):
    """Points where the point class changes along a random segment of the
    box, found by bisection, with the segment's unit direction."""
    out = []
    while len(out) < count:
        a, b = rng.uniform(-0.5, 1.5, (2, 2))
        if classify(model, a) == classify(model, b):
            continue
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if classify(model, a + mid * (b - a)) == classify(model, a):
                lo = mid
            else:
                hi = mid
        out.append((a + hi * (b - a), (b - a) / np.linalg.norm(b - a)))
    return out


@pytest.mark.parametrize("kind", ["logistic", "8", "8x8", "3class", "3class-tied"])
def test_robust_flags_match_is_delta_robust(kind, monkeypatch):
    seeds = {"logistic": 30, "8": 31, "8x8": 32, "3class": 33, "3class-tied": 34}
    rng = np.random.default_rng(seeds[kind])
    model = _model_with_a_boundary(kind, rng)
    points = [
        x + sign * step * d
        for x, d in _crossings(model, rng, 3)
        for step in (1e-9, 0.02, 0.3)
        for sign in (-1.0, 1.0)
    ]
    if kind == "3class-tied":
        assert all(forward(model, p)[0] == forward(model, p)[1] for p in points)
    targets = (0, 1) if model.num_outputs == 1 else (1, 2, 3)
    counts = {"rows": 0, "interval": 0, "milp": 0}
    original = cfcert.verifier.interval_bounds

    def ia_spy(im, v_lo, v_hi):
        counts["interval"] += len(v_lo)
        return original(im, v_lo, v_hi)

    def milp_spy(*args, **kwargs):
        counts["milp"] += 1
        return is_delta_robust(*args, **kwargs)

    monkeypatch.setattr("cfcert.verifier.interval_bounds", ia_spy)
    monkeypatch.setattr("cfcert.verifier.is_delta_robust", milp_spy)
    for delta in (0.0, 0.01, 0.05):
        shift = ShiftSet("inf", delta)
        for target in targets:
            want = [is_delta_robust(model, shift, p, target=target).robust for p in points]
            assert robust_flags(model, shift, points, target) == want, (delta, target)
            counts["rows"] += len(points)
    point_class_exits = counts["rows"] - counts["interval"]
    interval_exits = counts["interval"] - counts["milp"]
    assert point_class_exits > 0 and interval_exits > 0 and counts["milp"] > 0, counts


def test_robust_flags_check_the_target_like_is_delta_robust(logistic_ref, multi_net):
    shift = ShiftSet("inf", 0.05)
    assert robust_flags(logistic_ref, shift, [[0.2, 0.9]]) == [True]
    assert robust_flags(logistic_ref, shift, []) == []
    for model, target in ((logistic_ref, 2), (multi_net, None), (multi_net, 4)):
        with pytest.raises(ValueError):
            is_delta_robust(model, shift, [0.5, 0.5], target=target)
        with pytest.raises(ValueError):
            robust_flags(model, shift, [[0.5, 0.5]], target)

