"""Tests of the benchmark itself, on the small "smoke" inputs.

    python3 -m pytest -q -p no:cacheprovider perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    """Run run.py for one smoke iteration; return (process, parsed result)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, result


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, result = bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_two_traced_runs_give_identical_counts(workload):
    (p1, first), (p2, second) = bench(workload, 1), bench(workload, 1)
    assert p1.returncode == 0 and p2.returncode == 0, p1.stderr + p2.stderr
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in tracing.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_one_wrong_polynomial_is_a_failed_operation(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    args = dict(name="cache-requests", reference=reference, seed=5, stream=0,
                outdir=tmp_path, size="smoke")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "cache-requests",
         "--seed", "5", "--stream", "0", "--dir", str(tmp_path),
         "--size", "smoke", "--trace", "0"],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert workloads.check(**args, codes=out["codes"], stderr=out["stderr"]) == (40, 0)

    path = tmp_path / "request-0007.json"
    payload = json.loads(path.read_text())
    payload["coeffs"][len(payload["coeffs"]) // 2] += "1"
    path.write_text(json.dumps(payload))
    assert workloads.check(**args, codes=out["codes"], stderr=out["stderr"]) == (40, 1)


def test_aggregate_computes_self_time(tmp_path):
    spans = [
        {"id": 0, "name": "cli.x", "parent": -1, "start_ns": 0, "end_ns": 100},
        {"id": 1, "name": "qpoly.exact_div", "parent": 0, "start_ns": 10,
         "end_ns": 40, "madds": 6},
        {"id": 2, "name": "qpoly.exact_div", "parent": 0, "start_ns": 50,
         "end_ns": 70, "madds": 4},
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    agg = tracing.aggregate(path)
    assert agg["root_ns"] == 100
    assert agg["layers"]["cli.x"]["self_ns"] == 50
    assert agg["layers"]["qpoly.exact_div"]["busy_ns"] == 50
    assert agg["layers"]["qpoly.exact_div"]["counts"]["madds"] == 10


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    proc, _ = bench("conjecture-grid", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
