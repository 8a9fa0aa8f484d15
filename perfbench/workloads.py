"""The four seeded workloads.

Each workload builds its inputs from the seed alone (``__init__`` is the
set-up that ``setup_s`` times), exposes a ``pool`` of operations in a fixed
order, in which every ``block_size`` consecutive entries hold one operation
of each kind the workload mixes, runs one operation with :meth:`run`, and
checks a result against the oracles with :meth:`check`, outside the timed
section.  cfcert is always
called through module attributes (``verifier.is_delta_robust``,
``generators.rnce``, ...) so that the tracer's bindings see the calls.

Why these workloads:

* certify -- the ``cfcert verify`` path: B&B over the output-bound encoding,
  with IA-easy, deep, non-robust and multi-logit certificates mixed.
* rnce -- hundreds of shallow verifier calls per CE (every query re-filters
  every target-class candidate row, then line-searches) plus a k-d tree walk;
  per-call overhead and call count matter, not tree depth.
* mce-r -- the nearest-CE encoding, where every ReLU is unstable over the
  input box: larger LPs, deeper trees, one verifier call per round.
* desk -- ``run_benchmark`` on a logistic model: training, delta estimation
  and metrics dominate while the MILP engine does little.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

import cfcert.benchmark as benchmark
import cfcert.generators as generators
import cfcert.verifier as verifier
from cfcert.data import synth_binary, synth_multiclass
from cfcert.intervals import ShiftSet
from cfcert.milp import encode_nearest_ce, encode_output_bound
from cfcert.models import classify, classify_batch, forward_batch
from cfcert.training import TrainConfig, train

import oracles

TRAIN = dict(learning_rate=0.1, epochs=100, l2=0.01)

# The deployed models and datasets are fixtures of each workload: they are
# trained in set-up from this fixed seed, while --seed draws the operation
# inputs (candidate CEs, queries, run seeds).  The cost of one operation
# depends strongly on the model it runs against, so seed-dependent models
# would make one run's figures incomparable with another's.
FIXTURE_SEED = 0


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _data_seed(seed: int, stream: int) -> int:
    return int(_rng(seed, stream).integers(2**31))


def _fmt(value) -> str:
    return "none" if value is None else f"{value:.9e}"


def _decisive_sides(model, target: int):
    """(logit index, direction, verdict.bounds label) of every certified
    bound a verdict rests on."""
    if model.num_outputs == 1:
        return [(0, "min" if target == 1 else "max", 1)]
    return [(j, "min" if j == target - 1 else "max", j + 1) for j in range(model.num_outputs)]


def _oracle_bound(model, x, delta: float, index: int, direction: str) -> float:
    """HiGHS on the encoded MILP, or the closed form for a logistic model."""
    if hasattr(model, "layers"):
        return oracles.highs_optimum(encode_output_bound(model, x, delta, index, direction).problem)
    return oracles.logistic_bound(model, x, delta, direction)


def _robust_ce_failures(model, x_prime, delta, target, rng) -> list[str]:
    """Checks on a CE claimed robust: point class, sampled shifts, HiGHS."""
    failures = []
    if classify(model, x_prime) != target:
        failures.append("CE is not classified to its target")
    if not oracles.survives_sampled_shifts(model, x_prime, delta, target, rng):
        failures.append("a sampled parameter shift flips the robust CE")
    shift = ShiftSet("inf", delta)
    direction = "min" if target == 1 else "max"
    bound, _, unresolved = verifier.logit_bound(model, shift, x_prime, 0, direction)
    if unresolved:
        failures.append("re-certifying the CE hit the node limit")
        return failures
    ref = oracles.highs_optimum(encode_output_bound(model, x_prime, delta, 0, direction).problem)
    if not oracles.agrees(bound, ref):
        failures.append(f"decisive bound: cfcert {bound!r} vs HiGHS {ref!r}")
    if (ref >= 0.0) != (target == 1):
        failures.append(f"HiGHS bound {ref!r} refutes robustness")
    return failures


@dataclass(frozen=True)
class CertifyItem:
    size: str
    block: int
    fraction: float
    delta: float
    x: np.ndarray
    target: int

    @property
    def key(self) -> str:
        return f"{self.size}/{self.block}/{self.fraction}/{self.delta}"


class Certify:
    """Candidate CEs verified one at a time at two shift magnitudes."""

    name = "certify"
    must_reach = ("kernels", "simplex", "branch_bound", "encode.output_bound", "intervals", "verifier")
    trace_ops = 120
    setup_repeats = 3
    ARCHS = {"logistic": "logistic", "8": (8,), "16": (16,), "8x8": (8, 8), "3class": (8,)}
    BLOCKS = 20
    FRACTIONS = (0.02, 0.1, 0.3)  # of the way from the boundary to the target point
    DELTAS = (0.01, 0.04)
    block_size = len(ARCHS) * len(FRACTIONS) * len(DELTAS)

    def __init__(self, seed: int):
        binary = synth_binary(300, noise=0.2, seed=FIXTURE_SEED)
        multi = synth_multiclass(300, 3, spread=0.12, seed=FIXTURE_SEED)
        cfg = TrainConfig(seed=FIXTURE_SEED, **TRAIN)
        self.models = {}
        crossings = {}
        targets = {}
        per_size = self.BLOCKS * len(self.FRACTIONS) * len(self.DELTAS)
        for i, (size, arch) in enumerate(self.ARCHS.items()):
            data = multi if size == "3class" else binary
            model = train(data.X, data.y, arch, cfg)
            self.models[size] = model
            source, targets[size] = (1, 3) if size == "3class" else (0, 1)
            crossings[size] = iter(
                self._crossings(model, data.X, source, targets[size], per_size, _rng(seed, 10 + i))
            )
        # Every operation gets its own crossing; blocks of one operation per
        # (size, fraction, delta) make every prefix of the pool the same mix.
        self.pool = [
            CertifyItem(size, k, f, d, self._stepped(next(crossings[size]), f), targets[size])
            for k in range(self.BLOCKS)
            for size in self.ARCHS
            for f in self.FRACTIONS
            for d in self.DELTAS
        ]

    @staticmethod
    def _crossings(model, X, source, target, count, rng):
        """(source point a, target point b, boundary crossing s) triples, the
        crossing found by bisection on the point model's class alone."""
        labels = classify_batch(model, X)
        src, tgt = X[labels == source], X[labels == target]
        out = []
        for _ in range(count):
            a = src[rng.integers(len(src))]
            b = tgt[rng.integers(len(tgt))]
            lo, hi = 0.0, 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if classify(model, (1.0 - mid) * a + mid * b) == target:
                    hi = mid
                else:
                    lo = mid
            out.append((a, b, hi))
        return out

    @staticmethod
    def _stepped(crossing, fraction: float) -> np.ndarray:
        """The point a given fraction of the way from the crossing to b."""
        a, b, s = crossing
        t = s + fraction * (1.0 - s)
        return (1.0 - t) * a + t * b

    def run(self, item: CertifyItem):
        return verifier.is_delta_robust(
            self.models[item.size], ShiftSet("inf", item.delta), item.x, target=item.target
        )

    def check(self, item: CertifyItem, verdict, rng) -> list[str]:
        if verdict.unresolved:
            return ["verdict unresolved"]
        model = self.models[item.size]
        failures = []
        ref = {}
        for index, direction, label in _decisive_sides(model, item.target):
            ref[label] = _oracle_bound(model, item.x, item.delta, index, direction)
            mine = verdict.bounds[label][0 if direction == "min" else 1]
            if not oracles.agrees(mine, ref[label]):
                failures.append(f"logit {index} {direction}: cfcert {mine!r} vs oracle {ref[label]!r}")
        # Margin by which the oracle bounds certify the target (> 0: robust).
        if model.num_outputs == 1:
            margin = ref[1] if item.target == 1 else -ref[1]
        else:
            margin = ref[item.target] - max(v for k, v in ref.items() if k != item.target)
        if abs(margin) > oracles.AGREE_TOL and (margin > 0) != verdict.robust:
            failures.append(f"verdict robust={verdict.robust} contradicts oracle margin {margin!r}")
        if verdict.robust and not oracles.survives_sampled_shifts(
            model, item.x, item.delta, item.target, rng
        ):
            failures.append("a sampled parameter shift flips a robust verdict")
        return failures

    def digest(self, item: CertifyItem, verdict) -> str:
        bounds = ",".join(
            f"{k}:{_fmt(lo)}:{_fmt(hi)}" for k, (lo, hi) in sorted(verdict.bounds.items())
        )
        return f"{item.key}|{verdict.robust}|{verdict.nodes_explored}|{bounds}"


@dataclass(frozen=True)
class QueryItem:
    index: int
    x: np.ndarray

    @property
    def key(self) -> str:
        return str(self.index)


class _CeWorkload:
    """Shared set-up of rnce and mce-r: a width-8 network on 2-D moons and
    queries the point model assigns to class 0."""

    setup_repeats = 10
    target = 1
    QUERIES = 200
    STRATA = 4
    block_size = STRATA

    def __init__(self, seed: int):
        data = synth_binary(300, noise=0.2, seed=FIXTURE_SEED)
        queries = synth_binary(4 * self.QUERIES, noise=0.2, seed=_data_seed(seed, 1))
        self.model = train(data.X, data.y, (8,), TrainConfig(seed=FIXTURE_SEED, **TRAIN))
        self.X = data.X
        source = queries.X[classify_batch(self.model, queries.X) == 1 - self.target]
        source = source[: self.QUERIES]
        # A query's cost depends on its distance to the boundary.  Strata of
        # that distance (point-model logit quartiles), taken in turn, give
        # every run the same mix of near and far queries; within a stratum
        # the queries keep their random order.
        by_logit = np.argsort(forward_batch(self.model, source)[:, 0], kind="stable")
        strata = [np.sort(part) for part in np.array_split(by_logit, self.STRATA)]
        order = [int(i) for k in range(len(strata[-1])) for stratum in strata for i in stratum[k : k + 1]]
        self.pool = [QueryItem(i, source[i]) for i in order]
        self.shift = ShiftSet("inf", self.DELTA)

    def check(self, item: QueryItem, record, rng) -> list[str]:
        if not record.found:
            return ["no counterfactual found"]
        if not record.robust:
            return ["counterfactual not certified robust"]
        return _robust_ce_failures(self.model, record.x_prime, self.DELTA, self.target, rng)

    def digest(self, item: QueryItem, record) -> str:
        x = "none" if record.x_prime is None else ",".join(_fmt(v) for v in record.x_prime)
        return f"{item.key}|{record.found}|{record.robust}|{record.iterations}|{x}"


class Rnce(_CeWorkload):
    name = "rnce"
    must_reach = (
        "kernels", "simplex", "branch_bound", "encode.output_bound", "intervals", "verifier",
        "generators", "kdtree",
    )
    trace_ops = 12
    DELTA = 0.02
    CANDIDATES = 48  # fixture: the training rows rnce searches

    def __init__(self, seed: int):
        super().__init__(seed)
        pick = _rng(FIXTURE_SEED, 2).choice(len(self.X), size=self.CANDIDATES, replace=False)
        self.candidates = self.X[np.sort(pick)]

    def run(self, item: QueryItem):
        return generators.rnce(
            self.model, self.candidates, item.x, self.shift,
            target=self.target, robust_init=True, optimal=True,
        )


class MceRobust(_CeWorkload):
    name = "mce-r"
    must_reach = (
        "kernels", "simplex", "branch_bound", "encode.nearest_ce", "encode.output_bound",
        "intervals", "verifier", "generators",
    )
    trace_ops = 6
    DELTA = 0.01
    MARGIN_STEP = 0.3

    def run(self, item: QueryItem):
        return generators.mce_robust(
            self.model, self.shift, item.x, self.target, margin_step=self.MARGIN_STEP
        )

    def check(self, item: QueryItem, record, rng) -> list[str]:
        failures = super().check(item, record, rng)
        if record.found:
            margin = record.trace[-1]
            enc = encode_nearest_ce(self.model, item.x, self.target, margin=margin)
            ref = oracles.highs_optimum(enc.problem)
            if not oracles.agrees(record.distance, ref):
                failures.append(f"nearest-CE optimum: cfcert {record.distance!r} vs HiGHS {ref!r}")
        return failures


@dataclass(frozen=True)
class DeskItem:
    seeds: tuple

    @property
    def key(self) -> str:
        return ",".join(map(str, self.seeds))


class Desk:
    """One ``run_benchmark`` call per operation: one run seed, logistic
    model over ``synth_binary``, all methods, both delta estimates."""

    name = "desk"
    must_reach = ("kernels", "verifier", "generators", "kdtree", "training", "metrics", "intervals")
    trace_ops = 3
    setup_repeats = 100
    block_size = 1
    N_TEST = 3
    REPLICAS = 3
    CALLS = 64

    def __init__(self, seed: int):
        self.dataset = synth_binary(300, noise=0.2, seed=FIXTURE_SEED)
        self.config = benchmark.BenchmarkConfig(
            methods=benchmark.METHODS,
            deltas=None,
            n_test=self.N_TEST,
            seeds=(0,),
            architecture="logistic",
            train=TrainConfig(epochs=100, seed=FIXTURE_SEED, l2=0.05),
            replicas=self.REPLICAS,
        )
        base = _data_seed(seed, 1) % 100_000
        self.pool = [DeskItem((base + k,)) for k in range(self.CALLS)]

    def run(self, item: DeskItem):
        return benchmark.run_benchmark(self.dataset, replace(self.config, seeds=item.seeds))

    def check(self, item: DeskItem, report, rng) -> list[str]:
        """Certified validity of each robust method at its own delta must
        equal the share of CEs the method flagged robust: every flagged CE
        certifies and no other does.  Methods that certify by construction
        (mce-r, rnce-*) must flag every CE.  gce-r may return CEs flagged not
        robust once its rounds run out, by design."""
        failures = []
        for entry in report.detail:
            if entry["method"] not in benchmark.ROBUST_METHODS:
                continue
            label = entry["target_delta"]
            found = [r for r in entry["records"] if r["found"]]
            flagged = sum(bool(r["robust"]) for r in found) / max(len(found), 1)
            validity = entry.get(f"v_delta_{label}")
            where = f"seed {entry['seed']} {entry['method']}@{label}"
            if found and validity != flagged:
                failures.append(f"{where}: certified validity {validity} != flagged share {flagged}")
            complete = entry["method"] != "gce-r"
            if complete and (validity != 1.0 or len(found) != len(entry["records"])):
                failures.append(f"{where}: certified validity {validity}, found {len(found)}")
        return failures

    def digest(self, item: DeskItem, report) -> str:
        return f"{item.key}|{hashlib.sha256(report.to_json().encode()).hexdigest()}"


WORKLOADS = {w.name: w for w in (Certify, Rnce, MceRobust, Desk)}
