"""Self-test of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_end_to_end(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "1":
        layer_s = [values[k] for k in set(tracing.SELF_METRIC.values()) | {"round.other_s"}]
        assert values["round.other_s"] >= 0
        assert math.isclose(sum(layer_s), values["trace.run_s"], rel_tol=1e-9)
    else:
        assert 0.0 <= values["retrieval_acc"] <= 1.0
        assert all(v > 0 for v in values.values())


def test_mismatched_digest_fails_the_gate(tmp_path):
    args = Namespace(workload="dense", seed=3, tiny=True, tmp=str(tmp_path))
    result = run.run_worker(args, 0, 0, time.monotonic() + 120)
    assert run.gate([result]) == []
    result["reps"][-1]["digests"]["final.ckpt"] = "0" * 64
    problems = run.gate([result])
    assert len(problems) == 1 and "digests" in problems[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "protocol", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
