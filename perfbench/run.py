#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of cfcert.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; cfcert is imported from ``src/``.
One process, one client, closed loop: the next operation starts when the
previous one returns.  Workloads: certify, rnce, mce-r, desk (see
``workloads.py`` for what each stresses and why).  The seed draws the
operation inputs; the models they run against are fixtures.

``--trace 0`` runs the loop for ``--seconds`` seconds and reports:

* ``setup_s`` (s): median of several back-to-back set-ups (data, training,
  inputs);
* ``peak_rss_mb`` (MB): peak resident memory of the process;
* ``ops_per_s`` (1/s): operations completed per second -- certificates
  (certify), counterfactuals (rnce, mce-r) or ``run_benchmark`` calls
  (desk) -- as the median over blocks of consecutive operations, each block
  holding one operation of every kind the workload mixes;
* ``op_ms_p50`` (ms): median operation latency.

Times are wall-clock times brought to a fixed reference speed (see
``speed.py``), which cancels the drift of a shared machine; the raw figures
are printed beside them.  The human-readable lines above the result also
give the figures under their workload names (certs_per_s, cert_ms_p50,
ces_per_s, ce_ms_p50, desk_s), ``failed_share``, the sample count and,
where at least 100 operations ran, the p90 latency (ten or more samples
beyond it).

``--trace 1`` runs a fixed number of operations (so counts repeat exactly
for a seed, whatever ``--seconds`` says) with the binding sites of
``tracing.BINDINGS`` wrapped, reports the per-layer metrics, writes the
spans to ``perfbench/out/``, and replays the same operations untraced to
report the tracing overhead.

Every result is checked outside the timed section against oracles that do
not use cfcert's simplex or B&B (``oracles.py``); each failed operation
counts in ``failed``.  The environment (kernel mode, Python, numpy, scipy,
nproc) is printed with every result.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

TAIL_PERCENTILE = 90
TAIL_MIN_SAMPLES = 100  # ten samples beyond the p90


def _load_cfcert():
    """Import cfcert from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "cfcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no cfcert sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cfcert

    if Path(cfcert.__file__).resolve().parent != SRC / "cfcert":
        raise SystemExit(f"error: imported cfcert from {cfcert.__file__}, not from {SRC}")
    return cfcert


def environment() -> dict:
    import scipy
    from cfcert._kernels import KERNEL_MODE

    return {
        "kernel_mode": KERNEL_MODE,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def warn_missing_jit() -> None:
    """Warn on stderr when numba is declared but cannot be imported."""
    import tomllib

    pyproject = ROOT / "pyproject.toml"
    if not pyproject.is_file():
        return
    with open(pyproject, "rb") as fh:
        deps = tomllib.load(fh).get("project", {}).get("dependencies", [])
    declared = any(d.replace(" ", "").lower().startswith("numba") for d in deps)
    if declared and importlib.util.find_spec("numba") is None:
        print(
            "warning: numba is a declared dependency but cannot be imported; "
            "the simplex pivot loop runs interpreted",
            file=sys.stderr,
        )


def _median_setup(cls, seed: int):
    """Build the workload ``setup_repeats`` times back to back; median
    set-up time, raw and at reference speed (sampled before and after)."""
    before = speed.sample(0.01)
    times = []
    for _ in range(cls.setup_repeats):
        start = time.perf_counter()
        workload = cls(seed)
        times.append(time.perf_counter() - start)
    raw = statistics.median(times)
    return workload, raw, raw * speed.scale(before, speed.sample(0.01))


def _run_ops(workload, items, tracer=None):
    """Run items in order; returns [(item, result, error, seconds)]."""
    done = []
    for request, item in enumerate(items):
        if tracer is not None:
            tracer.request = request
        start = time.perf_counter()
        try:
            result, error = workload.run(item), None
        except Exception as exc:  # a raising operation is a counted failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        done.append((item, result, error, time.perf_counter() - start))
    return done


def _timed_loop(workload, seconds: float):
    """Closed loop over the pool (cycled if need be) for ``seconds``, with
    reference samples between operations.  Returns the operations and the
    factor that brings each one's wall time to the reference speed."""
    pool = workload.pool
    done = []
    gaps = [speed.sample(0.0)]
    busy = spent = 0.0
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        done += _run_ops(workload, [pool[len(done) % len(pool)]])
        busy += done[-1][3]
        gaps.append(speed.sample(speed.REF_SHARE * busy - spent))
        spent += sum(gaps[-1])
    factors = [speed.scale(gaps[i], gaps[i + 1]) for i in range(len(done))]
    return done, factors


def check(workload, done, seed: int):
    """Oracle checks, once per distinct item; repeats must match the first.

    Returns (number of failed operations, failure messages, digests).
    """
    rng = np.random.default_rng([seed, 99])
    messages = []
    failed = 0
    first = {}
    bad = set()
    for item, result, error, _ in done:
        if error is not None:
            msgs = [f"raised {error}"]
        elif item.key not in first:
            first[item.key] = workload.digest(item, result)
            msgs = workload.check(item, result, rng)
            if msgs:
                bad.add(item.key)
        elif first[item.key] != workload.digest(item, result):
            msgs = ["repeat gave a different result"]
        else:
            msgs = []
        failed += bool(msgs) or item.key in bad
        messages += [f"{item.key}: {msg}" for msg in msgs]
    return failed, messages, first


def verdict_digest(first: dict) -> str:
    text = "\n".join(first[k] for k in sorted(first))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _block_rate(ms: list[float], size: int) -> float:
    """Median over complete blocks of ``size`` consecutive operations of
    operations per second (all operations form one block if none is)."""
    blocks = [ms[i : i + size] for i in range(0, len(ms) - size + 1, size)] or [ms]
    return statistics.median(1e3 * len(b) / sum(b) for b in blocks)


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


NAMES = {
    "certify": ("certs_per_s", "cert_ms"),
    "rnce": ("ces_per_s", "ce_ms"),
    "mce-r": ("ces_per_s", "ce_ms"),
    "desk": ("desk_calls_per_s", "desk_ms"),
}


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload, setup_raw, setup_s = _median_setup(cls, seed)
    done, factors = _timed_loop(workload, seconds)
    failed, failures, first = check(workload, done, seed)
    raw_ms = [1e3 * d[3] for d in done]
    scaled_ms = [ms * f for ms, f in zip(raw_ms, factors)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (_block_rate(scaled_ms, cls.block_size), "1/s"),
        "op_ms_p50": (statistics.median(scaled_ms), "ms"),
    }
    rate, lat = NAMES[name]
    named = {
        rate: metrics["ops_per_s"],
        f"{lat}_p50": metrics["op_ms_p50"],
        "failed_share": (failed / len(done), "ratio"),
        "samples": (len(done), "count"),
    }
    if len(done) >= TAIL_MIN_SAMPLES:
        named[f"{lat}_p{TAIL_PERCENTILE}"] = (_percentile(scaled_ms, TAIL_PERCENTILE), "ms")
    if name == "desk":
        named["desk_s"] = (metrics["op_ms_p50"][0] / 1e3, "s")
    named.update({
        f"raw.{rate}": (_block_rate(raw_ms, cls.block_size), "1/s"),
        f"raw.{lat}_p50": (statistics.median(raw_ms), "ms"),
        "raw.setup_s": (setup_raw, "s"),
        "speed_factor_median": (statistics.median(factors), "ratio"),
    })
    return {
        "attempted": len(done),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "named": named,
        "digest": verdict_digest(first),
    }


def run_traced(name: str, seed: int, ops: int | None = None) -> dict:
    """Fixed-count traced run; ``ops`` overrides the workload's count."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload, setup_raw, _ = _median_setup(cls, seed)
    items = workload.pool[: ops or cls.trace_ops]
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        done = _run_ops(workload, items, tracer)
        traced_s = time.perf_counter() - start
    tracer.check_reached(cls.must_reach)
    start = time.perf_counter()
    _run_ops(workload, items)
    untraced_s = time.perf_counter() - start
    failed, failures, first = check(workload, done, seed)

    metrics = layer_metrics(tracer.spans)
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
    return {
        "attempted": len(done),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "named": {
            "traced_s": (traced_s, "s"),
            "untraced_s": (untraced_s, "s"),
            "raw.setup_s": (setup_raw, "s"),
        },
        "digest": verdict_digest(first),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "rnce", "mce-r", "desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_cfcert()
    warn_missing_jit()
    env = environment()
    if args.trace:
        out = run_traced(args.workload, args.seed)
    else:
        out = run_untraced(args.workload, args.seed, args.seconds)

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} digest {out['digest']}")
    for key, (value, unit) in {**out["named"], **out["metrics"]}.items():
        print(f"#   {key:<34} {value:>16.6g} {unit}")
    for msg in out["failures"][:20]:
        print(f"# FAILED {msg}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"environment": env, **result, "named": out["named"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
