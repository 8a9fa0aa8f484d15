"""Spans and per-layer counters, recorded from the benchmark's own files.

Each traced layer is reached through a module-level name that some cfcert
module looks up at call time (its *binding site*).  ``BINDINGS`` is the one
table of those sites; :class:`Tracer` swaps each for a wrapper that records a
span (name, start, end, parent, request id) plus the counts it can read from
the call's arguments and result, and puts the originals back on exit.
Nothing inside ``src/`` changes.

A missing binding raises :class:`TracingError` at install time, and
:meth:`Tracer.check_reached` raises when a layer a workload must reach
recorded no call, so an import refactor cannot silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

from cfcert._kernels import STATUS_ITER_LIMIT

# (layer, module, attribute) for every wrapped binding site.
BINDINGS = (
    ("kernels", "cfcert.milp.simplex", "pivot_loop"),
    ("simplex", "cfcert.milp.branch_bound", "simplex_solve"),
    ("branch_bound", "cfcert.verifier", "branch_and_bound"),
    ("branch_bound", "cfcert.generators", "branch_and_bound"),
    ("encode.output_bound", "cfcert.verifier", "encode_output_bound"),
    ("encode.nearest_ce", "cfcert.generators", "encode_nearest_ce"),
    ("intervals", "cfcert.verifier", "abstract"),
    ("intervals", "cfcert.verifier", "interval_forward"),
    ("verifier", "cfcert.generators", "is_delta_robust"),
    ("verifier", "cfcert.benchmark", "is_delta_robust"),
    # The workloads call the verifier and the generators through these names.
    ("verifier", "cfcert.verifier", "is_delta_robust"),
    ("generators", "cfcert.generators", "mce_robust"),
    ("generators", "cfcert.generators", "rnce"),
    ("kdtree", "cfcert.generators", "KDTree"),
    ("training.train", "cfcert.benchmark", "train"),
    ("training.fleet", "cfcert.benchmark", "retrain_fleet"),
    ("training.delta_estimate", "cfcert.benchmark", "estimate_delta_incremental"),
    ("training.delta_estimate", "cfcert.benchmark", "estimate_delta_validation"),
    ("metrics.lof", "cfcert.benchmark", "lof_scores"),
    ("metrics.vr", "cfcert.benchmark", "validity_after_retraining"),
)

# Network sizes reported by verifier.ms_per_cert.<size> / nodes_per_cert.<size>.
SIZES = ("logistic", "8", "16", "8x8", "3class")



class TracingError(RuntimeError):
    """A binding site is missing or a required layer recorded no call."""


@dataclass
class Span:
    name: str  # "<module>.<attribute>" of the binding site, or "kdtree.query"
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    request: int  # index of the workload operation that caused it
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def size_label(model) -> str:
    """'logistic', hidden widths joined by 'x', or '<k>class' for k logits."""
    if not hasattr(model, "layers"):
        return "logistic"
    if model.num_outputs > 1:
        return f"{model.num_outputs}class"
    return "x".join(str(h) for h in model.hidden_sizes)


def _info(layer: str, args, out) -> dict:
    """Counts readable from one call's arguments and result."""
    if layer == "kernels":
        status, iterations = out
        rows, cols = args[0].shape
        pivots = iterations if status == STATUS_ITER_LIMIT else iterations - 1
        return {"pivots": int(pivots), "rows": rows, "cols": cols}
    if layer == "simplex":
        return {"infeasible": out.status == "infeasible"}
    if layer == "branch_bound":
        return {"nodes": int(out.nodes), "node_limit": out.status == "node_limit"}
    if layer.startswith("encode."):
        lp, binaries = out.problem.lp, out.problem.binary_idx
        free = int((lp.lo[binaries] != lp.hi[binaries]).sum())
        return {"rows": int(lp.A.shape[0]), "free_binaries": free}
    if layer == "verifier":
        return {
            "robust": bool(out.robust),
            "unresolved": bool(out.unresolved),
            "nodes": int(out.nodes_explored),
            "size": size_label(args[0]),
        }
    if layer == "generators":
        return {"found": bool(out.found), "rounds": int(out.iterations)}
    return {}


class Tracer:
    """Swaps the binding sites for recording wrappers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, 0.0, 0.0, parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap_function(self, name: str, layer: str, fn):
        # A call that raises keeps an empty ``info``; its counts read as 0.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.info = _info(layer, args, out)
            return out

        return traced

    def _wrap_kdtree(self, name: str, cls):
        tracer = self

        class TracedKDTree(cls):
            def __init__(self, *args, **kwargs):
                span = tracer._open(name, "kdtree")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(span)
                span.info = {"build": True}

            def neighbors(self, query):
                inner = super().neighbors(query)
                while True:
                    span = tracer._open("kdtree.query", "kdtree")
                    try:
                        item = next(inner)
                    except StopIteration:
                        span.info = {"yielded": 0}
                        return
                    finally:
                        tracer._close(span)
                    span.info = {"yielded": 1}
                    yield item

        TracedKDTree.__name__ = cls.__name__
        TracedKDTree.__qualname__ = cls.__qualname__
        return TracedKDTree

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise TracingError("tracer already installed")
        for layer, module_name, attr in BINDINGS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TracingError(f"binding site {module_name}.{attr} is missing")
            original = getattr(module, attr)
            name = f"{module_name}.{attr}"
            if isinstance(original, type):
                wrapper = self._wrap_kdtree(name, original)
            else:
                wrapper = self._wrap_function(name, layer, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------
    def check_reached(self, layers) -> None:
        seen = {span.layer.split(".")[0] for span in self.spans}
        seen |= {span.layer for span in self.spans}
        missing = [layer for layer in layers if layer not in seen]
        if missing:
            raise TracingError(f"layers recorded zero calls: {', '.join(missing)}")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            **span.info,
                        }
                    )
                    + "\n"
                )


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit) from one traced section."""
    child_s = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            child_s[span.parent] += span.seconds
            children[span.parent].append(i)

    def of(layer_prefix: str):
        return [i for i, s in enumerate(spans) if s.layer.startswith(layer_prefix)]

    def busy(idx) -> float:
        return sum(spans[i].seconds for i in idx)

    def self_s(idx) -> float:
        return sum(spans[i].seconds - child_s[i] for i in idx)

    def child_count(idx, layer: str) -> int:
        return sum(1 for i in idx for c in children[i] if spans[c].layer == layer)

    out: dict[str, tuple[float, str]] = {}

    k = of("kernels")
    pivots = sum(spans[i].info.get("pivots", 0) for i in k)
    k_busy = busy(k)
    out["kernels.pivots"] = (pivots, "count")
    out["kernels.busy_s"] = (k_busy, "s")
    out["kernels.us_per_pivot"] = (_mean(k_busy * 1e6, pivots), "us")
    out["kernels.flops_computed"] = (
        sum(2 * spans[i].info.get("rows", 0) * spans[i].info.get("cols", 0) * spans[i].info.get("pivots", 0) for i in k),
        "flop",
    )

    s = of("simplex")
    out["simplex.solves"] = (len(s), "count")
    out["simplex.self_s"] = (self_s(s), "s")
    out["simplex.pivots_per_solve"] = (_mean(pivots, len(s)), "count")
    out["simplex.infeasible_share"] = (
        _mean(sum(spans[i].info.get("infeasible", 0) for i in s), len(s)),
        "ratio",
    )

    b = of("branch_bound")
    nodes = [spans[i].info.get("nodes", 0) for i in b]
    out["branch_bound.calls"] = (len(b), "count")
    out["branch_bound.nodes"] = (sum(nodes), "count")
    out["branch_bound.nodes_per_call"] = (_mean(sum(nodes), len(b)), "count")
    out["branch_bound.max_nodes"] = (max(nodes, default=0), "count")
    out["branch_bound.self_s"] = (self_s(b), "s")
    out["branch_bound.node_limit_hits"] = (sum(spans[i].info.get("node_limit", 0) for i in b), "count")

    enc_all = of("encode.")
    for kind in ("output_bound", "nearest_ce"):
        e = of(f"encode.{kind}")
        out[f"encode.{kind}.calls"] = (len(e), "count")
        out[f"encode.{kind}.busy_s"] = (busy(e), "s")
    out["encode.rows_mean"] = (_mean(sum(spans[i].info.get("rows", 0) for i in enc_all), len(enc_all)), "count")
    out["encode.free_binaries_mean"] = (
        _mean(sum(spans[i].info.get("free_binaries", 0) for i in enc_all), len(enc_all)),
        "count",
    )

    iv = of("intervals")
    out["intervals.calls"] = (len(iv), "count")
    out["intervals.busy_s"] = (busy(iv), "s")

    v = of("verifier")
    out["verifier.verdicts"] = (len(v), "count")
    out["verifier.self_s"] = (self_s(v), "s")
    out["verifier.milp_calls_per_verdict"] = (_mean(child_count(v, "branch_bound"), len(v)), "count")
    out["verifier.robust_share"] = (_mean(sum(spans[i].info.get("robust", 0) for i in v), len(v)), "ratio")
    out["verifier.unresolved"] = (sum(spans[i].info.get("unresolved", 0) for i in v), "count")
    for size in SIZES:
        sv = [i for i in v if spans[i].info.get("size", 0) == size]
        out[f"verifier.ms_per_cert.{size}"] = (_mean(busy(sv) * 1e3, len(sv)), "ms")
        out[f"verifier.nodes_per_cert.{size}"] = (
            _mean(sum(spans[i].info.get("nodes", 0) for i in sv), len(sv)),
            "count",
        )

    g = of("generators")
    out["generators.ces"] = (len(g), "count")
    out["generators.self_s"] = (self_s(g), "s")
    out["generators.verify_calls_per_ce"] = (_mean(child_count(g, "verifier"), len(g)), "count")
    out["generators.rounds_per_ce"] = (_mean(sum(spans[i].info.get("rounds", 0) for i in g), len(g)), "count")
    out["generators.found_share"] = (_mean(sum(spans[i].info.get("found", 0) for i in g), len(g)), "ratio")

    builds = [i for i in of("kdtree") if spans[i].info.get("build")]
    queries = [i for i in of("kdtree") if not spans[i].info.get("build")]
    out["kdtree.builds"] = (len(builds), "count")
    out["kdtree.build_s"] = (busy(builds), "s")
    out["kdtree.neighbors_yielded"] = (sum(spans[i].info.get("yielded", 0) for i in queries), "count")
    out["kdtree.query_s"] = (busy(queries), "s")

    out["training.train_s"] = (busy(of("training.train")), "s")
    out["training.fleet_s"] = (busy(of("training.fleet")), "s")
    out["training.delta_estimate_s"] = (busy(of("training.delta_estimate")), "s")
    out["metrics.lof_s"] = (busy(of("metrics.lof")), "s")
    out["metrics.vr_s"] = (busy(of("metrics.vr")), "s")
    return out
