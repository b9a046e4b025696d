"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_UNITS = {"greedy": 4, "continuous": 2, "certify": 1}
DETERMINISTIC = ("oracle_calls", "membership_calls", "value_sum", "ratio_min", "failed_frac")


def bench(workload: str, seed: int = 1, trace: int = 0) -> tuple[dict, dict]:
    """Run the benchmark tiny; return (last line, detail line) as dicts."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--units", str(TINY_UNITS[workload]),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    result, detail = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert set(detail["metrics"]) == set(run.UNITS)
    for name, entry in detail["metrics"].items():
        assert entry["unit"] == run.UNITS[name]
        assert isinstance(entry["value"], (int, float))
    for name in ("setup_s", "solve_ref", "oracle_calls", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0, name


def test_counts_repeat_for_a_seed_and_change_with_it():
    first, second, other = (bench("greedy", seed)[1]["metrics"] for seed in (3, 3, 4))
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    assert first["value_sum"] != other["value_sum"]
    assert first["oracle_calls"] != other["oracle_calls"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_its_overhead(workload):
    result, detail = bench(workload, trace=1)
    assert result["correct"]
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(result["metrics"]) == list(tracing.LAYER_METRICS)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == tracing.LAYER_METRICS[name]
    assert detail["trace"]["paired_units"] >= 1
    assert detail["trace"]["untraced_ref"] > 0 and detail["trace"]["traced_ref"] > 0
    assert layers["trace.overhead_frac"] == pytest.approx(
        detail["trace"]["traced_ref"] / detail["trace"]["untraced_ref"] - 1
    )
    if workload == "greedy":
        idle = [k for k in layers if k.startswith(("extension.", "bruteforce."))]
        assert idle and all(layers[k] == 0 for k in idle)
        assert layers["core.eval.calls"] > 0 and layers["core.eval_batch.calls"] == 0
    if workload == "continuous":
        assert layers["core.eval.calls"] < 0.01 * layers["core.eval_batch.points"]
        assert layers["polymatroid.member.calls"] > 0
    if workload == "certify":
        assert layers["harness.run_cell.calls"] == 16
        assert layers["bruteforce.brute_force_opt.calls"] == 16
        assert layers["knapsack.starts"] > 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.UNITS[name] for name in run.END_TO_END
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "greedy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_separable_concave_reference_matches_enumeration():
    coeffs, powers, cap, budget = [1.3, 0.7, 2.0], [0.5, 1.0, 0.3], [3, 4, 2], 5
    best = max(
        sum(a * k**p for a, p, k in zip(coeffs, powers, x))
        for x in itertools.product(*(range(c + 1) for c in cap))
        if sum(x) <= budget
    )
    assert workloads.separable_concave_opt(coeffs, powers, cap, budget) == pytest.approx(best)
