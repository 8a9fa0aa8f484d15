"""End-to-end benchmark runner.

For each seed: split the data, train the deployed model with its complete
and leave-one-out fleets as one schedule, fine-tune its incremental fleet,
pick the shift magnitudes (given explicitly or estimated), generate
counterfactuals per method for a batch of test inputs, check every CE flagged
robust against the replicas inside its shift, and score
validity-after-retraining, certified validity per shift, cost and
plausibility.  Results aggregate to mean/std over seeds.

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
from .generators import DEFAULT_METHODS, GENERATORS, generate_grid
from .intervals import ShiftSet
from .metrics import DEFAULT_LOF_K, lof_scores, validity_after_retraining
from .models import classify, classify_batch, flatten, p_distance
from .training import (
    INCREMENTAL_FRACTION,
    RetrainSpec,
    TrainConfig,
    estimate_delta_incremental,
    estimate_delta_validation,
    retrain_fleet,
    train_with_fleets,
)
# train and is_delta_robust are unused here: perfbench/tracing.py::BINDINGS
# wraps them and raises if either is missing.
from .training import train  # noqa: F401
from .verifier import delta_validity, is_delta_robust  # noqa: F401

__all__ = ["BenchmarkConfig", "MetricReport", "run_benchmark", "METHODS"]

METHODS = tuple(GENERATORS)
# Run once per delta label: their records carry a verdict at the shift.
ROBUST_METHODS = tuple(name for name, method in GENERATORS.items() if method.robust)

# The delta_val estimate: validation inputs and the magnitude grid it scans.
N_VAL = 20
DELTA_GRID = tuple(np.round(np.arange(0.005, 0.2001, 0.005), 6))


@dataclass
class BenchmarkConfig:
    methods: tuple = DEFAULT_METHODS
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
        if self.n_test < 1 or not self.seeds:
            raise ValueError(f"need n_test >= 1 and a seed, got {self.n_test} and {self.seeds}")
        if self.replicas < 1:
            raise ValueError("replica count must be >= 1")
        for d in (0.0, *(self.deltas or ()), *(self.curve_grid or ())):
            ShiftSet(self.p, d)  # the norm order and every magnitude


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
        """Mean wall-clock seconds per (method, delta label) cell over the
        seeds.  Work a seed shares between cells (``generate_grid``'s one
        GCE batch for ``gce`` and ``gce-r`` at every label) is timed in the
        first cell that needs it; the later cells show only their own work."""
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


def class_pair(model) -> tuple[int, int]:
    """The study's (source, target) classes: 0 -> 1 for one logit, 1 -> l
    for l logits."""
    return (1, model.num_classes) if model.num_outputs > 1 else (0, 1)


def _run_seed(args):
    """Full pipeline for one seed; pure function of (dataset, config, seed)."""
    dataset, config, seed = args
    d1_train, d1_test, d2_train, d2_test = split(dataset, SplitSpec(seed=seed))
    cfg = replace(config.train, seed=seed)
    data = (d1_train.X, d1_train.y, d2_train.X, d2_train.y)
    specs = [RetrainSpec(mode=mode, replicas=config.replicas) for mode in ("complete", "leave_one_out")]
    model, fleet = train_with_fleets(*data, specs, config.architecture, cfg)
    incremental = RetrainSpec(mode="incremental", replicas=config.replicas)
    fleet += retrain_fleet(model, *data, incremental, config.architecture, cfg)

    source_class, target = class_pair(model)

    if config.deltas is not None:
        deltas = [(repr(float(d)), float(d)) for d in config.deltas]
    else:
        inc = estimate_delta_incremental(
            model,
            d2_train.X,
            d2_train.y,
            fractions=(INCREMENTAL_FRACTION,),
            replicas=config.replicas,
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
        )
        deltas = [("val", float(val["delta_val"])), ("inc", float(inc["delta_inc"]))]

    mask = classify_batch(model, d1_test.X) == source_class
    test_inputs = d1_test.X[mask][: config.n_test]

    detail = []
    scored = []  # (entry, its CEs): one LOF call below scores them all
    shifts = [ShiftSet(config.p, d) for _, d in deltas]
    theta = flatten(model)
    distances = [p_distance(theta, flatten(replica), config.p) for replica in fleet]
    cells = generate_grid(
        config.methods, model, shifts, test_inputs, target, d1_train.X, node_limit=config.node_limit
    )
    started = time.perf_counter()
    for method, k, records in cells:
        seconds = time.perf_counter() - started
        if k is not None:
            _check_against_fleet(seed, method, deltas[k], records, fleet, distances)
        found = [r for r in records if r.found]
        ces = [r.x_prime for r in found]
        tgts = [r.target_class for r in found]
        entry = {
            "seed": seed,
            "method": method,
            "target_delta": None if k is None else deltas[k][0],
            "deltas": {lab: d for lab, d in deltas},
            "found_rate": len(found) / max(len(records), 1),
            "seconds": seconds,
            "records": [r.to_dict() for r in records],
        }
        if found:
            entry["vr"] = validity_after_retraining(ces, tgts, fleet)
            entry["l1"] = float(np.mean([r.distance for r in found]))
            scored.append((entry, ces))
            for (lab, _), shift in zip(deltas, shifts):
                entry[f"v_delta_{lab}"] = delta_validity(model, shift, ces, tgts, config.node_limit)
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
        started = time.perf_counter()
    if scored:
        # A query row's LOF score does not depend on the other query rows.
        ces = np.vstack([ce for _, entry_ces in scored for ce in entry_ces])
        scores = lof_scores(ces, d1_train.X, k=min(DEFAULT_LOF_K, d1_train.n - 1))
        ends = np.cumsum([len(entry_ces) for _, entry_ces in scored])
        for (entry, _), part in zip(scored, np.split(scores, ends[:-1])):
            entry["lof"] = float(np.mean(part))
    return detail


def _check_against_fleet(seed, method, delta, records, fleet, distances):
    """Every CE flagged robust at a shift keeps its target class under
    every replica of the fleet inside that shift (``distances[i] <= delta``):
    such a replica is one of the models the certificate covers.  A replica
    that moves the CE is a wrong "robust" verdict, a ``RuntimeError``."""
    label, magnitude = delta
    robust = [r for r in records if r.found and r.robust]
    if not robust:
        return
    ces = np.vstack([r.x_prime for r in robust])
    targets = np.array([r.target_class for r in robust])
    for i, (replica, distance) in enumerate(zip(fleet, distances)):
        if distance <= magnitude and (classify_batch(replica, ces) != targets).any():
            raise RuntimeError(
                f"seed {seed}: {method} flags a CE robust at delta {label} that replica {i}"
                f" ({distance!r} away) does not classify to its target"
            )


def pmap(fn, items, workers: int) -> list:
    """Order-preserving map of ``fn`` over ``items`` on up to ``workers``
    processes; the results are the same at any worker count."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_benchmark(dataset: Dataset, config: BenchmarkConfig) -> MetricReport:
    jobs = [(dataset, config, seed) for seed in config.seeds]
    per_seed = pmap(_run_seed, jobs, config.workers)

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
