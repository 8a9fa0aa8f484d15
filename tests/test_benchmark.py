import re
from dataclasses import replace

import numpy as np
import pytest

from cfcert import benchmark
from cfcert.benchmark import BenchmarkConfig, run_benchmark
from cfcert.data import SplitSpec, split, synth_binary
from cfcert.generators import CounterfactualRecord, get_candidates
from cfcert.intervals import ShiftSet
from cfcert.metrics import validity_after_retraining
from cfcert.models import (
    LogisticModel,
    affine_layers,
    classify,
    classify_batch,
    flatten,
    forward_batch,
    p_distance,
)
from cfcert.training import RetrainSpec, TrainConfig, retrain_fleet, train, train_with_fleets
from cfcert.verifier import robust_flags


@pytest.fixture(scope="module")
def small_report():
    ds = synth_binary(240, noise=0.2, seed=13)
    config = BenchmarkConfig(
        methods=("mce", "mce-r", "nnce", "rnce-ff"),
        deltas=(0.02, 0.05),
        n_test=6,
        seeds=(13, 14),
        architecture="logistic",
        train=TrainConfig(epochs=100, seed=13, l2=0.05),
    )
    return run_benchmark(synth_binary(240, noise=0.2, seed=13), config)


def test_method_lists_keep_their_names_and_order():
    # Built from generators.GENERATORS; the desk workload runs METHODS in this
    # order and checks ROBUST_METHODS, so its digest rests on both.
    assert benchmark.METHODS == (
        "mce", "mce-r", "gce", "gce-r", "nnce", "rnce-ff", "rnce-ft", "rnce-tf", "rnce-tt"
    )
    assert benchmark.ROBUST_METHODS == ("mce-r", "gce-r", "rnce-ff", "rnce-ft", "rnce-tf", "rnce-tt")
    assert BenchmarkConfig().methods == ("mce", "mce-r", "nnce", "rnce-ff")


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"n_test": 0}, r"need n_test >= 1 and a seed, got 0 and \(0,"),
        ({"seeds": ()}, r"need n_test >= 1 and a seed, got 20 and \(\)"),
        ({"replicas": 0}, "replica count must be >= 1"),
        ({"p": 3}, "supported norm orders are 1, 2 and inf"),
        ({"deltas": (0.02, -0.01)}, "delta must be finite and >= 0"),
        ({"curve_grid": (0.01, float("nan"))}, "delta must be finite and >= 0"),
        ({"curve_grid": (-1.0,)}, "delta must be finite and >= 0"),
    ],
)
def test_config_checks_its_settings_before_any_seed_trains(knobs, message):
    with pytest.raises(ValueError, match=message):
        BenchmarkConfig(**knobs)


def test_class_pair_flips_the_first_class_to_the_last(binary_net, multi_net):
    # The study and `cfcert estimate-delta` explain source-class rows towards
    # this target.
    assert benchmark.class_pair(binary_net) == (0, 1)
    assert benchmark.class_pair(multi_net) == (1, 3)


def test_report_row_structure(small_report):
    methods = {(r["method"], r["target_delta"]) for r in small_report.rows}
    assert ("mce", "-") in methods
    assert ("mce-r", "0.02") in methods and ("mce-r", "0.05") in methods
    for row in small_report.rows:
        for key in ("vr_mean", "l1_mean", "lof_mean", "found_rate"):
            assert key in row


def test_fractions_in_unit_interval(small_report):
    for row in small_report.rows:
        for key, value in row.items():
            if value is None or not isinstance(value, float):
                continue
            if key.startswith(("vr", "v_delta", "found")) and key.endswith(("mean", "rate")):
                assert 0.0 <= value <= 1.0


def test_means_match_detail_recomputation(small_report):
    for row in small_report.rows:
        cells = [
            d
            for d in small_report.detail
            if d["method"] == row["method"]
            and (d["target_delta"] if d["target_delta"] is not None else "-") == row["target_delta"]
        ]
        vals = [c["l1"] for c in cells if c["l1"] is not None]
        if vals:
            assert row["l1_mean"] == pytest.approx(float(np.mean(vals)))


def test_robust_methods_beat_plain_on_certified_validity(small_report):
    by = {(r["method"], r["target_delta"]): r for r in small_report.rows}
    assert by[("mce-r", "0.05")]["v_delta_0.05_mean"] == 1.0
    assert by[("rnce-ff", "0.05")]["v_delta_0.05_mean"] == 1.0
    assert by[("mce", "-")]["v_delta_0.05_mean"] < 1.0


def test_rnce_certified_validity_is_its_flagged_share(small_report):
    # rnce flags its CEs through robust_flags and the benchmark scores them
    # through delta_validity: at the method's own delta the two must agree.
    entries = [d for d in small_report.detail if d["method"].startswith("rnce-")]
    assert entries
    for entry in entries:
        found = [r for r in entry["records"] if r["found"]]
        if found:
            flagged = sum(r["robust"] for r in found) / len(found)
            assert entry[f"v_delta_{entry['target_delta']}"] == flagged, entry["target_delta"]


def test_cost_robustness_tradeoff(small_report):
    by = {(r["method"], r["target_delta"]): r for r in small_report.rows}
    assert by[("mce", "-")]["l1_mean"] <= by[("mce-r", "0.05")]["l1_mean"] + 1e-12


def test_delta_zero_v_delta_equals_validity():
    ds = synth_binary(200, noise=0.15, seed=20)
    config = BenchmarkConfig(
        methods=("nnce",),
        deltas=(0.0,),
        n_test=6,
        seeds=(20,),
        architecture="logistic",
        train=TrainConfig(epochs=80, seed=20, l2=0.05),
    )
    report = run_benchmark(ds, config)
    row = report.rows[0]
    # At zero shift the certificate test is plain validity, and generator
    # outputs are valid by construction.
    assert row["v_delta_0.0_mean"] == 1.0


def test_timing_lives_outside_reports(small_report):
    assert small_report.timings
    assert "seconds" not in small_report.to_json()
    assert "seconds" not in small_report.to_csv()
    assert "seconds_mean" in small_report.timing_csv()


def test_rnce_finds_nothing_where_no_training_row_is_robust():
    # The desk workload's configuration at run seed 45964, rnce methods
    # only.  At delta_inc no target-class training row keeps its class under
    # every shift: for a logistic model the worst shifted margin has the
    # closed form w.x + b - delta (|x|_1 + 1), and it is negative for every
    # such row.  So the right answer is no counterfactual and no certified
    # validity, at every rnce variant.
    seed = 45964
    dataset = synth_binary(300, noise=0.2, seed=0)
    config = BenchmarkConfig(
        methods=tuple(m for m in benchmark.METHODS if m.startswith("rnce-")),
        n_test=3,
        seeds=(seed,),
        architecture="logistic",
        train=TrainConfig(epochs=100, seed=0, l2=0.05),
        replicas=3,
    )
    report = run_benchmark(dataset, config)
    at_inc = [d for d in report.detail if d["target_delta"] == "inc"]
    assert [d["method"] for d in at_inc] == list(config.methods)
    for entry in at_inc:
        assert entry["found_rate"] == 0.0, entry["method"]
        assert entry["v_delta_inc"] is None and entry["v_delta_val"] is None, entry["method"]

    delta = at_inc[0]["deltas"]["inc"]
    d1_train = split(dataset, SplitSpec(seed=seed))[0]
    model = train(d1_train.X, d1_train.y, "logistic", replace(config.train, seed=seed))
    assert get_candidates(model, d1_train.X, ShiftSet("inf", delta), 1, robust_init=True).size == 0
    rows = d1_train.X[classify_batch(model, d1_train.X) == 1]
    ((w, b),) = affine_layers(model)
    margins = rows @ w[0] + b[0] - delta * (np.abs(rows).sum(axis=1) + 1.0)
    assert rows.shape[0] > 0 and margins.max() < 0.0


@pytest.mark.parametrize("architecture, p", [("logistic", "inf"), ((6,), 1), ((6,), 2)])
def test_a_robust_flag_that_an_in_box_replica_refutes_fails_the_run(monkeypatch, architecture, p):
    # A mutated certificate: rnce-ff's one record is flagged robust at a CE
    # that the replica nearest the model sends to the source class.  The
    # delta is that replica's distance, so it is the one replica inside.
    dataset, seed = synth_binary(240, noise=0.2, seed=0), 5
    config = BenchmarkConfig(
        methods=("rnce-ff",),
        p=p,
        n_test=2,
        seeds=(seed,),
        architecture=architecture,
        train=TrainConfig(epochs=20, seed=0, l2=0.05),
        replicas=2,
    )
    # The seed's fleet, rebuilt as _run_seed builds it.
    d1_train, _, d2_train, _ = split(dataset, SplitSpec(seed=seed))
    data, cfg = (d1_train.X, d1_train.y, d2_train.X, d2_train.y), replace(config.train, seed=seed)
    specs = [RetrainSpec(mode=mode, replicas=2) for mode in ("complete", "leave_one_out")]
    model, fleet = train_with_fleets(*data, specs, architecture, cfg)
    fleet += retrain_fleet(model, *data, RetrainSpec(mode="incremental", replicas=2), architecture, cfg)
    distances = [p_distance(flatten(model), flatten(r), p) for r in fleet]
    nearest = int(np.argmin(distances))
    wrong = d1_train.X[np.argmin(forward_batch(fleet[nearest], d1_train.X)[:, 0])]
    assert classify(fleet[nearest], wrong) == 0

    def mutated_grid(methods, model, shifts, inputs, target, X, **knobs):
        record = CounterfactualRecord(
            method="rnce-ff", target_class=target, found=True, x_prime=wrong, robust=True, shift=shifts[0]
        )
        return [("rnce-ff", 0, [record])]

    monkeypatch.setattr(benchmark, "generate_grid", mutated_grid)
    label = re.escape(repr(float(distances[nearest])))
    with pytest.raises(RuntimeError, match=rf"^seed 5: rnce-ff .* delta {label} .* replica {nearest} "):
        run_benchmark(dataset, replace(config, deltas=(distances[nearest],)))


def _fleet_check(model, fleet, ces, targets, delta, p):
    """The fleet oracle: a replica within ``delta`` of the model in the
    p-norm lies in the shift set, so it must keep every CE certified at
    ``delta`` in its target class.  Returns the number of (CE, in-box
    replica) pairs checked and the pairs that break that."""
    theta = flatten(model)
    inside = [r for r in fleet if p_distance(theta, flatten(r), p) <= delta]
    broken = [(x, t, r) for x, t in zip(ces, targets) for r in inside if classify(r, x) != t]
    return len(ces) * len(inside), broken


def test_every_certified_ce_keeps_its_class_under_the_fleet_inside_its_delta():
    dataset = synth_binary(240, noise=0.2, seed=0)
    config = BenchmarkConfig(
        methods=benchmark.ROBUST_METHODS,
        n_test=4,
        seeds=(5, 6, 7),
        architecture="logistic",
        train=TrainConfig(epochs=100, seed=0, l2=0.05),
        replicas=3,
    )
    report = run_benchmark(dataset, config)
    checked = 0
    for seed in config.seeds:
        # The seed's fleet, rebuilt as _run_seed builds it.
        d1_train, _, d2_train, _ = split(dataset, SplitSpec(seed=seed))
        cfg = replace(config.train, seed=seed)
        model = train(d1_train.X, d1_train.y, config.architecture, cfg)
        fleet = [
            replica
            for mode in ("complete", "leave_one_out", "incremental")
            for replica in retrain_fleet(
                model, d1_train.X, d1_train.y, d2_train.X, d2_train.y,
                RetrainSpec(mode=mode, replicas=config.replicas), config.architecture, cfg,
            )
        ]
        for entry in (d for d in report.detail if d["seed"] == seed):
            found = [r for r in entry["records"] if r["found"]]
            if found:  # the same fleet the run scored
                ces, tgts = [np.array(r["x_prime"]) for r in found], [r["target_class"] for r in found]
                assert validity_after_retraining(ces, tgts, fleet) == entry["vr"]
            robust = [r for r in found if r["robust"]]
            pairs, broken = _fleet_check(
                model,
                fleet,
                [np.array(r["x_prime"]) for r in robust],
                [r["target_class"] for r in robust],
                entry["deltas"][entry["target_delta"]],
                config.p,
            )
            assert not broken, (seed, entry["method"], entry["target_delta"])
            checked += pairs
    assert checked > 0, "no certified CE met an in-box replica"


def test_fleet_check_skips_a_replica_just_outside_delta():
    # Class 1 is logit >= 0.  Shifting each parameter by s against x lowers
    # the logit 1.1 by s (|x|_1 + 1) = 2.2 s, so x loses its class at s = 0.5.
    model = LogisticModel(weights=[1.0, -2.0], bias=0.5)
    x = np.array([1.0, 0.2])
    delta = 0.5 * (1 - 1e-6)
    assert robust_flags(model, ShiftSet("inf", delta), x[None], 1) == [True]

    def shifted(s):
        return LogisticModel(weights=[1.0 - s, -2.0 - s], bias=0.5 - s)

    inside, outside = shifted(delta / 2), shifted(0.5 * (1 + 1e-6))
    assert classify(outside, x) == 0
    assert delta < p_distance(flatten(model), flatten(outside), "inf") < delta * (1 + 1e-5)
    assert _fleet_check(model, [inside, outside], [x], [1], delta, "inf") == (1, [])
    # Inside a larger delta it is counted, and x there is a wrong "robust".
    assert len(_fleet_check(model, [outside], [x], [1], 2 * delta, "inf")[1]) == 1
