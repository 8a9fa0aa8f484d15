"""End-to-end benchmark runner.

For each seed: split the data, train the deployed model, build a retrained
fleet (complete / leave-one-out / incremental replicas), pick the shift
magnitudes (given explicitly or estimated), generate counterfactuals per
method for a batch of test inputs, and score validity-after-retraining,
certified validity per shift, cost and plausibility.  Results aggregate to
mean/std over seeds.

Determinism: every cell derives its randomness from the run seed alone, and
results are assembled in seed order, so reports are byte-identical at any
worker count.  Wall-clock timings are therefore kept out of the metric
report and written to a separate timing table.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, SplitSpec, split
from .generators import generate
from .intervals import ShiftSet
from .metrics import DEFAULT_LOF_K, l1_normalized, lof_scores, validity_after_retraining
from .models import classify, classify_batch
from .training import (
    RetrainSpec,
    TrainConfig,
    estimate_delta_incremental,
    estimate_delta_validation,
    retrain_fleet,
    train,
)
# is_delta_robust is unused here: perfbench/tracing.py::BINDINGS wraps it and raises if it is missing.
from .verifier import delta_validity, is_delta_robust  # noqa: F401

__all__ = ["BenchmarkConfig", "MetricReport", "run_benchmark", "METHODS"]

METHODS = ("mce", "mce-r", "gce", "gce-r", "nnce", "rnce-ff", "rnce-ft", "rnce-tf", "rnce-tt")
ROBUST_METHODS = ("mce-r", "gce-r", "rnce-ff", "rnce-ft", "rnce-tf", "rnce-tt")

# Incremental retraining fine-tunes on this share of D2 for this many epochs,
# both for the fleet and for the delta_inc estimate.
INCREMENTAL_FRACTION = 0.10
INCREMENTAL_ITERATIONS = 10
# The delta_val estimate: validation inputs and the magnitude grid it scans.
N_VAL = 20
DELTA_GRID = tuple(np.round(np.arange(0.005, 0.2001, 0.005), 6))


@dataclass
class BenchmarkConfig:
    methods: tuple = ("mce", "mce-r", "nnce", "rnce-ff")
    deltas: tuple | None = None  # explicit magnitudes; None -> estimate inc/val
    p: str | float = "inf"
    n_test: int = 20
    seeds: tuple = (0, 1, 2, 3, 4)
    architecture: object = "logistic"  # "logistic" or tuple of hidden sizes
    train: TrainConfig = field(default_factory=TrainConfig)
    replicas: int = 5
    node_limit: int = 200_000
    workers: int = 1
    curve_grid: tuple | None = None  # extra deltas for the validity curve

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")


@dataclass
class MetricReport:
    rows: list[dict]
    detail: list[dict]
    delta_labels: list[str]
    timings: list[dict] = field(default_factory=list)  # kept out of reports

    def to_csv(self) -> str:
        buf = io.StringIO()
        cols = ["method", "target_delta"]
        for label in self.delta_labels:
            cols += [f"v_delta_{label}_mean", f"v_delta_{label}_std"]
        cols += [
            "found_rate",
            "vr_mean",
            "vr_std",
            "l1_mean",
            "l1_std",
            "lof_mean",
            "lof_std",
        ]
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({c: _fmt(row.get(c)) for c in cols})
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {"rows": self.rows, "detail": self.detail, "delta_labels": self.delta_labels},
            indent=2,
            sort_keys=True,
        )

    def curve_dat(self) -> str | None:
        """Gnuplot-ready certified-validity-vs-delta table (one method per
        column), when the run collected a curve grid."""
        curves = [
            (d["method"] if d["target_delta"] is None else f"{d['method']}@{d['target_delta']}",
             d["curve"])
            for d in self.detail
            if d.get("curve")
        ]
        if not curves:
            return None
        deltas = sorted({float(k) for _, c in curves for k in c})
        methods = list(dict.fromkeys(key for key, _ in curves))
        lines = ["# delta " + " ".join(methods)]
        for delta in deltas:
            cells = []
            for m in methods:
                vals = [c[repr(delta)] for key, c in curves if key == m and repr(delta) in c]
                cells.append(repr(float(np.mean(vals))) if vals else "nan")
            lines.append(f"{delta!r} " + " ".join(cells))
        return "\n".join(lines) + "\n"

    def timing_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "target_delta", "seconds_mean"])
        seen = {}
        for d in self.timings:
            key = (d["method"], d["target_delta"])
            seen.setdefault(key, []).append(d["seconds"])
        for (method, target), secs in seen.items():
            writer.writerow([method, target, f"{float(np.mean(secs)):.3f}"])
        return buf.getvalue()


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


def _run_seed(args):
    """Full pipeline for one seed; pure function of (dataset, config, seed)."""
    dataset_dict, config, seed = args
    dataset = Dataset(**dataset_dict)
    d1_train, d1_test, d2_train, d2_test = split(dataset, SplitSpec(seed=seed))
    cfg = replace(config.train, seed=seed)
    model = train(d1_train.X, d1_train.y, config.architecture, cfg)

    fleet = []
    for mode in ("complete", "leave_one_out", "incremental"):
        spec = RetrainSpec(
            mode=mode,
            replicas=config.replicas,
            fraction=INCREMENTAL_FRACTION,
            iterations=INCREMENTAL_ITERATIONS,
        )
        fleet += retrain_fleet(
            model, d1_train.X, d1_train.y, d2_train.X, d2_train.y, spec, config.architecture, cfg
        )

    multi = model.num_outputs > 1
    source_class = 1 if multi else 0
    target = model.num_classes if multi else 1

    if config.deltas is not None:
        deltas = [(repr(float(d)), float(d)) for d in config.deltas]
    else:
        inc = estimate_delta_incremental(
            model,
            d2_train.X,
            d2_train.y,
            fractions=(INCREMENTAL_FRACTION,),
            replicas=config.replicas,
            iterations=INCREMENTAL_ITERATIONS,
            config=cfg,
        )
        val_pool = d2_test.X[classify_batch(model, d2_test.X) == source_class]
        val = estimate_delta_validation(
            model,
            fleet,
            d1_train.X,
            val_pool[:N_VAL],
            targets=[target] * min(N_VAL, val_pool.shape[0]),
            grid=DELTA_GRID,
            p=config.p,
        )
        deltas = [("val", float(val["delta_val"])), ("inc", float(inc["delta_inc"]))]

    mask = classify_batch(model, d1_test.X) == source_class
    test_inputs = d1_test.X[mask][: config.n_test]

    detail = []
    for method in config.methods:
        targets_rows = deltas if method in ROBUST_METHODS else [(None, None)]
        for label, delta in targets_rows:
            shift = ShiftSet(config.p, delta) if delta is not None else ShiftSet(config.p, 0.0)
            started = time.perf_counter()
            records = [
                generate(method, model, shift, x, target, d1_train.X, node_limit=config.node_limit)
                for x in test_inputs
            ]
            seconds = time.perf_counter() - started
            found = [r for r in records if r.found]
            ces = [r.x_prime for r in found]
            tgts = [r.target_class for r in found]
            entry = {
                "seed": seed,
                "method": method,
                "target_delta": label,
                "deltas": {lab: d for lab, d in deltas},
                "found_rate": len(found) / max(len(records), 1),
                "seconds": seconds,
                "records": [r.to_dict() for r in records],
            }
            if found:
                entry["vr"] = validity_after_retraining(ces, tgts, fleet)
                entry["l1"] = float(np.mean([l1_normalized(x, r.x_prime) for x, r in zip(test_inputs, records) if r.found]))
                entry["lof"] = float(np.mean(lof_scores(np.vstack(ces), d1_train.X, k=min(DEFAULT_LOF_K, d1_train.n - 1))))
                for lab, d in deltas:
                    entry[f"v_delta_{lab}"] = delta_validity(
                        model, ShiftSet(config.p, d), ces, tgts, config.node_limit
                    )
                if config.curve_grid:
                    entry["curve"] = {
                        repr(float(d)): delta_validity(
                            model, ShiftSet(config.p, d), ces, tgts, config.node_limit
                        )
                        for d in config.curve_grid
                    }
            else:
                entry["vr"] = None
                entry["l1"] = None
                entry["lof"] = None
                for lab, _ in deltas:
                    entry[f"v_delta_{lab}"] = None
            detail.append(entry)
    return detail


def run_benchmark(dataset: Dataset, config: BenchmarkConfig) -> MetricReport:
    dataset_dict = {
        "X": dataset.X,
        "y": dataset.y,
        "features": dataset.features,
        "label_name": dataset.label_name,
        "scaler": dataset.scaler,
    }
    jobs = [(dataset_dict, config, seed) for seed in config.seeds]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_seed = list(pool.map(_run_seed, jobs))
    else:
        per_seed = [_run_seed(job) for job in jobs]

    detail = [entry for seed_detail in per_seed for entry in seed_detail]
    # Wall-clock varies run to run; strip it so reports stay byte-identical.
    timings = [
        {"method": d["method"], "target_delta": d["target_delta"], "seconds": d.pop("seconds")}
        for d in detail
    ]
    delta_labels = sorted({lab for d in detail for lab in d["deltas"]})

    rows = []
    for method in config.methods:
        targets = sorted(
            {d["target_delta"] for d in detail if d["method"] == method}, key=lambda v: (v is None, v)
        )
        for target_label in targets:
            cells = [
                d for d in detail if d["method"] == method and d["target_delta"] == target_label
            ]
            row = {
                "method": method,
                "target_delta": target_label if target_label is not None else "-",
                "found_rate": _mean([c["found_rate"] for c in cells]),
            }
            for key in ("vr", "l1", "lof"):
                vals = [c[key] for c in cells if c[key] is not None]
                row[f"{key}_mean"] = _mean(vals)
                row[f"{key}_std"] = _std(vals)
            for lab in delta_labels:
                vals = [c.get(f"v_delta_{lab}") for c in cells]
                vals = [v for v in vals if v is not None]
                row[f"v_delta_{lab}_mean"] = _mean(vals)
                row[f"v_delta_{lab}_std"] = _std(vals)
            rows.append(row)
    return MetricReport(rows=rows, detail=detail, delta_labels=delta_labels, timings=timings)


def _mean(vals):
    return float(np.mean(vals)) if vals else None


def _std(vals):
    return float(np.std(vals)) if vals else None
