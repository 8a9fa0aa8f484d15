import numpy as np
import pytest

from cfcert import benchmark
from cfcert.benchmark import BenchmarkConfig, run_benchmark
from cfcert.data import synth_binary
from cfcert.training import TrainConfig


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
