"""Command-line surface.

Subcommands: ``train`` fits and persists a model, ``verify`` certifies
counterfactuals against a shift budget, ``explain`` generates
counterfactuals, ``estimate-delta`` runs the two magnitude-identification
strategies, and ``benchmark`` runs the full study.  Machine-readable output
goes to stdout or the output directory; diagnostics to stderr.  Every
stochastic command requires --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import METHODS, BenchmarkConfig, class_pair, pmap, run_benchmark
from .data import Dataset, SplitSpec, fit_scale, load_csv, split, synth_binary, synth_multiclass
from .generators import GENERATORS, generate_all, resolve_method
from .intervals import ShiftSet
from .models import classify_batch, counterfactual_target, load_model, save_model
from .training import (
    INCREMENTAL_ITERATIONS,
    TrainConfig,
    RetrainSpec,
    estimate_delta_incremental,
    estimate_delta_validation,
    train,
    train_with_fleets,
)
from .verifier import is_delta_robust


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _load_dataset(args) -> Dataset:
    if getattr(args, "synth", None):
        kind, _, size = args.synth.partition(":")
        n = int(size or 500)
        if kind == "moons":
            return synth_binary(n, seed=args.seed or 0)
        if kind == "blobs3":
            return synth_multiclass(n, classes=3, seed=args.seed or 0)
        raise ValueError(f"unknown synthetic dataset {kind!r} (use moons or blobs3)")
    if not args.dataset or not args.schema:
        raise ValueError("need --dataset and --schema (or --synth)")
    return load_csv(args.dataset, args.schema)


def _parse_arch(text: str):
    if text == "logistic":
        return "logistic"
    return tuple(int(v) for v in text.split(",") if v)


def _train_config(args) -> TrainConfig:
    """The SGD settings of the --lr, --epochs, --batch-size and --seed flags."""
    return TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size, seed=args.seed
    )


def _read_inputs(path):
    """The document of an inputs file, checked to hold an "inputs" list."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("inputs"), list):
        raise ValueError(f'{path}: needs an "inputs" list')
    return doc


def _load_inputs(path):
    doc = _read_inputs(path)
    inputs = [np.asarray(row, dtype=np.float64) for row in doc["inputs"]]
    targets = doc.get("targets")
    if targets is not None and (not isinstance(targets, list) or len(targets) != len(inputs)):
        raise ValueError(
            f'{path}: "targets" must list one class for each of the {len(inputs)} inputs'
        )
    return inputs, targets


def _write_jsonl(out, items) -> None:
    """One sorted-key JSON line per item's ``to_dict()``, to the file at
    ``out``, or to stdout when it is not given."""
    lines = "".join(json.dumps(item.to_dict(), sort_keys=True) + "\n" for item in items)
    if out:
        Path(out).write_text(lines)
    else:
        sys.stdout.write(lines)


def _write_manifest(outdir: Path, command: str, args_dict: dict) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(args_dict.items()) if k != "func"},
        "versions": {"cfcert": __version__, "numpy": np.__version__},
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    if args.scale:
        dataset = fit_scale(dataset)
    model = train(dataset.X, dataset.y, _parse_arch(args.arch), _train_config(args))
    accuracy = float(np.mean(classify_batch(model, dataset.X) == dataset.y))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_model(model, outdir / "model.json")
    if args.scale and dataset.scaler is not None:
        (outdir / "scaler.json").write_text(
            json.dumps(
                {"mins": dataset.scaler.mins.tolist(), "maxs": dataset.scaler.maxs.tolist()},
                sort_keys=True,
            )
            + "\n"
        )
    _write_manifest(outdir, "train", vars(args))
    print(json.dumps({"model": str(outdir / "model.json"), "train_accuracy": accuracy}))
    return 0


def _verify_job(job):
    model, shift, x_prime, target, original, node_limit = job
    return is_delta_robust(
        model, shift, x_prime, target=target, check_soundness_of=original, node_limit=node_limit
    )


def cmd_verify(args) -> int:
    model = load_model(args.model)
    shift = ShiftSet(args.p, args.delta)
    inputs, targets = _load_inputs(args.ces)
    if targets is None:
        targets = [args.target] * len(inputs)
    original = None
    if args.check_soundness:
        if not args.input:
            raise ValueError("--check-soundness needs --input with the original point")
        rows = _read_inputs(args.input)["inputs"]
        if not rows:
            raise ValueError(f'{args.input}: the "inputs" list is empty')
        original = np.asarray(rows[0], dtype=np.float64)
    jobs = [
        (model, shift, x_prime, target, original, args.node_limit)
        for x_prime, target in zip(inputs, targets)
    ]
    verdicts = pmap(_verify_job, jobs, args.workers)
    _write_jsonl(args.out, verdicts)
    unresolved = sum(v.unresolved for v in verdicts)
    if unresolved:
        print(
            f"warning: {unresolved} of {len(verdicts)} verdicts unresolved (no certified"
            f" optimum within --node-limit {args.node_limit}); they read not robust",
            file=sys.stderr,
        )
    return 0 if all(v.robust for v in verdicts) else 1


def _explain_job(method, model, shift, X, knobs, job):
    target, inputs = job
    return generate_all(method, model, shift, inputs, target, X, **knobs)


def cmd_explain(args) -> int:
    model = load_model(args.model)
    inputs, targets = _load_inputs(args.inputs)
    shift = ShiftSet(args.p, args.delta)
    method = resolve_method(args.method, args.robust_init == "t", args.optimal == "t")
    X_train = _load_dataset(args).X if GENERATORS[method].uses_data else None
    knobs = dict(margin=args.margin, margin_step=args.margin_step, max_rounds=args.max_iters,
                 lam=args.lam, node_limit=args.node_limit)
    # One generate_all batch per target class and worker share, all in one
    # map; the records go back in input order.
    groups = {}
    for i, x in enumerate(inputs):
        target = counterfactual_target(model, x, targets[i] if targets else args.target)
        groups.setdefault(target, []).append(i)
    jobs = [
        (target, part) for target, rows in groups.items()
        for part in np.array_split(rows, max(args.workers, 1)) if part.size
    ]
    run = partial(_explain_job, method, model, shift, X_train, knobs)
    batches = pmap(run, [(target, [inputs[i] for i in part]) for target, part in jobs], args.workers)
    records = [None] * len(inputs)
    for (_, part), batch in zip(jobs, batches):
        for i, record in zip(part, batch):
            records[i] = record
    _write_jsonl(args.out, records)
    return 0 if all(r.found for r in records) else 1


def cmd_estimate_delta(args) -> int:
    dataset = _load_dataset(args)
    d1_train, _, d2_train, d2_test = split(dataset, SplitSpec(seed=args.seed))
    config = _train_config(args)
    arch = _parse_arch(args.arch)
    if args.strategy == "incremental":
        model = train(d1_train.X, d1_train.y, arch, config)
        report = estimate_delta_incremental(
            model,
            d2_train.X,
            d2_train.y,
            replicas=args.replicas,
            iterations=args.iterations,
            config=config,
        )
    else:
        specs = [RetrainSpec(mode=mode, replicas=args.replicas) for mode in ("complete", "leave_one_out")]
        model, fleet = train_with_fleets(
            d1_train.X, d1_train.y, d2_train.X, d2_train.y, specs, arch, config
        )
        source, target = class_pair(model)
        pool = d2_test.X[classify_batch(model, d2_test.X) == source][: args.n_val]
        report = estimate_delta_validation(
            model,
            fleet,
            d1_train.X,
            pool,
            targets=[target] * pool.shape[0],
            p=args.p,
        )
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "delta_report.json").write_text(text + "\n")
        _write_manifest(outdir, "estimate-delta", vars(args))
    print(text)
    return 0


def cmd_benchmark(args) -> int:
    dataset = _load_dataset(args)
    config = BenchmarkConfig(
        methods=tuple(args.methods.split(",")),
        deltas=tuple(float(v) for v in args.deltas.split(",")) if args.deltas else None,
        p=args.p,
        n_test=args.n_test,
        seeds=tuple(args.seed + i for i in range(args.n_seeds)),
        architecture=_parse_arch(args.arch),
        train=_train_config(args),
        replicas=args.replicas,
        node_limit=args.node_limit,
        workers=args.workers,
        curve_grid=tuple(float(v) for v in args.curve.split(",")) if args.curve else None,
    )
    started = time.perf_counter()
    report = run_benchmark(dataset, config)
    elapsed = time.perf_counter() - started
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(report.to_csv())
    (outdir / "report.json").write_text(report.to_json() + "\n")
    (outdir / "timing.csv").write_text(report.timing_csv())
    curve = report.curve_dat()
    if curve is not None:
        (outdir / "validity_curve.dat").write_text(curve)
    _write_manifest(outdir, "benchmark", vars(args))
    print(json.dumps({"out": str(outdir), "rows": len(report.rows), "seconds": round(elapsed, 3)}))
    return 0


def _add_common_data(p):
    p.add_argument("--dataset", help="CSV dataset path")
    p.add_argument("--schema", help="JSON schema sidecar path")
    p.add_argument("--synth", help="synthetic dataset, e.g. moons:500 or blobs3:600")


def _add_train_knobs(p):
    p.add_argument("--arch", default="logistic", help="'logistic' or hidden sizes like '8,8'")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=32)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cfcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train and persist a model")
    _add_common_data(p)
    _add_train_knobs(p)
    p.add_argument("--scale", action="store_true", help="min-max scale features first")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="certify counterfactuals against a shift budget")
    p.add_argument("--model", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--p", default="inf", choices=["1", "2", "inf"])
    p.add_argument("--ces", required=True, help="JSON file with {'inputs': [...]}")
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--check-soundness", action="store_true")
    p.add_argument("--input", help="JSON file with the original input (for soundness)")
    p.add_argument("--node-limit", type=int, default=1_000_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="write verdict JSONL here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("explain", help="generate counterfactuals")
    p.add_argument("--model", required=True)
    p.add_argument("--method", required=True, choices=[*GENERATORS, "rnce"])
    _add_common_data(p)
    p.add_argument("--inputs", required=True, help="JSON file with {'inputs': [...]}")
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--p", default="inf", choices=["1", "2", "inf"])
    p.add_argument("--robust-init", default="f", choices=["t", "f"])
    p.add_argument("--optimal", default="f", choices=["t", "f"])
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("--margin-step", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--lam", type=float, default=0.1)
    p.add_argument("--node-limit", type=int, default=1_000_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write record JSONL here instead of stdout")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("estimate-delta", help="identify shift magnitudes")
    p.add_argument("--strategy", required=True, choices=["incremental", "validation"])
    _add_common_data(p)
    _add_train_knobs(p)
    p.add_argument("--replicas", type=int, default=5)
    p.add_argument("--iterations", type=int, default=INCREMENTAL_ITERATIONS)
    p.add_argument("--n-val", type=int, default=20)
    p.add_argument("--p", default="inf", choices=["1", "2", "inf"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate_delta)

    p = sub.add_parser("benchmark", help="run the full benchmark study")
    _add_common_data(p)
    _add_train_knobs(p)
    p.add_argument(
        "--methods", default=",".join(BenchmarkConfig.methods), help=f"subset of {METHODS}"
    )
    p.add_argument("--deltas", help="comma-separated magnitudes; omit to estimate inc/val")
    p.add_argument("--p", default="inf", choices=["1", "2", "inf"])
    p.add_argument("--n-test", type=int, default=20)
    p.add_argument("--n-seeds", type=int, default=5)
    p.add_argument("--replicas", type=int, default=5)
    p.add_argument("--node-limit", type=int, default=200_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--curve", help="comma-separated deltas for a gnuplot validity-vs-delta table"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
