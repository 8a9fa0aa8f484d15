"""Tests of the benchmark itself: counts and verdicts repeat exactly for a
seed, and the tracer fails loudly instead of silently zeroing a layer.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._load_cfcert()

import cfcert.verifier  # noqa: E402
import tracing  # noqa: E402

COUNTS = (
    "kernels.pivots",
    "simplex.solves",
    "branch_bound.calls",
    "branch_bound.nodes",
    "encode.output_bound.calls",
    "encode.nearest_ce.calls",
    "verifier.verdicts",
    "generators.ces",
    "kdtree.neighbors_yielded",
)


@pytest.mark.parametrize("name, ops", [("certify", 12), ("rnce", 2), ("mce-r", 2), ("desk", 1)])
def test_counts_and_verdict_digest_repeat(name, ops):
    first = run.run_traced(name, seed=3, ops=ops)
    second = run.run_traced(name, seed=3, ops=ops)
    assert first["failed"] == 0, first["failures"]
    assert first["digest"] == second["digest"]
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["verifier.verdicts"][0] > 0


def test_missing_binding_fails_loudly(monkeypatch):
    original = cfcert.verifier.is_delta_robust
    broken = tracing.BINDINGS + (("verifier", "cfcert.verifier", "no_such_function"),)
    monkeypatch.setattr(tracing, "BINDINGS", broken)
    with pytest.raises(tracing.TracingError, match="no_such_function"):
        tracing.Tracer().install()
    assert cfcert.verifier.is_delta_robust is original


def test_unreached_layer_fails_loudly():
    with pytest.raises(tracing.TracingError, match="kdtree"):
        tracing.Tracer().check_reached(("kdtree",))


def test_result_line_has_the_contract_keys(capsys):
    assert run.main(["--workload", "rnce", "--seed", "5", "--seconds", "0.1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {"setup_s", "peak_rss_mb", "ops_per_s", "op_ms_p50"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
