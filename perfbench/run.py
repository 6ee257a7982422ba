#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fassl federated round loop.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 30 --trace 0

Runs from the root of a source tree holding ``src/fassl``. The workload runs
in a worker process with BLAS and OpenMP pinned to one thread. With
``--trace 0`` it measures untraced whole runs and prints the end-to-end
metrics; with ``--trace 1`` it spends half the time on an untraced worker
and half on a traced one, and prints the per-layer metrics, including the
tracing overhead (traced minus untraced ``run_s``). Both modes check the
outputs: every run of one master seed must write the same ``final.ckpt`` and
``results.csv`` bytes, every accuracy lies in [0, 1], and the CSV, optima
table, tracker and checkpoint agree. The digests are printed so that two
commits can be compared byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
TIME_LIMIT_S = 170.0  # the whole command must end within 180 s

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def typical_rounds(reps: list[dict]) -> list[float]:
    """Each round's median time over the repeated runs of its master seed.

    Every run of one master seed does the same work round by round, so what
    the repeats of a round differ by is time taken from the process from
    outside (a busy host, a stolen vCPU). Such a burst stretches a few
    repeats of a round; the median over repeats leaves it out, and the tail
    of the rounds is left to the program's own heavy rounds.
    """
    by_seed = defaultdict(list)
    for rep in reps:
        by_seed[rep["subseed"]].append(rep["round_ms"])
    return [statistics.median(times) for runs in by_seed.values() for times in zip(*runs)]


def git_commit() -> str:
    """HEAD of the source tree, read from its own .git only (a plain checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, seconds: float, trace: int, deadline: float) -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace), "--tmp", args.tmp,
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(results: list[dict]) -> list[str]:
    """Correctness problems across every run of every worker of one workload."""
    problems = [p for r in results for p in r["problems"]]
    seen: dict[int, dict] = {}
    for r in results:
        for rep in r["reps"]:
            if rep["failed"]:
                continue
            problems.extend(rep["problems"])
            first = seen.setdefault(rep["subseed"], rep)
            if rep["digests"] != first["digests"]:
                problems.append(f"master seed #{rep['subseed']}: digests {rep['digests']} differ from {first['digests']}")
            if rep["retrieval_acc"] != first["retrieval_acc"]:
                problems.append(f"master seed #{rep['subseed']}: retrieval_acc differs between runs")
    return problems


def end_to_end(result: dict) -> tuple[dict, dict]:
    """Metrics of an untraced worker, and the sample count behind each."""
    reps = [rep for rep in result["reps"] if not rep["failed"]]
    accs = {rep["subseed"]: rep["retrieval_acc"] for rep in reps}
    rounds = typical_rounds(reps)
    return {
        "setup_s": statistics.median(result["setup"]["setup_s"]),
        "run_s": statistics.median(rep["run_s"] for rep in reps),
        "round_ms_p50": statistics.median(rounds),
        "round_ms_p90": p90(rounds),
        "clips_per_s": statistics.median(rep["clips"] / rep["run_s"] for rep in reps),
        "peak_rss_mb": result["peak_rss_mb"],
        "retrieval_acc": statistics.fmean(accs.values()),
    }, {"setups": len(result["setup"]["setup_s"]), "runs": len(reps), "rounds": len(rounds)}


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    """Metrics of a traced worker, and the sample count behind each."""
    reps = [rep for rep in traced["reps"] if not rep["failed"]]
    # One run's breakdown, that of the median traced run, so the `_s` entries add up to trace.run_s.
    median_rep = sorted(reps, key=lambda rep: rep["run_s"])[(len(reps) - 1) // 2]
    pooled = {k: [ms for rep in reps for ms in rep[k]] for k in ("client_ms", "aggregate_ms", "eval_ms")}
    layers = dict(median_rep["layers"])
    layers.update({
        "data.synth_s": statistics.median(traced["setup"]["data.synth_s"]),
        "data.partition_s": statistics.median(traced["setup"]["data.partition_s"]),
        "orchestrator.client_ms_p50": statistics.median(pooled["client_ms"]),
        "orchestrator.client_ms_p90": p90(pooled["client_ms"]),
        "aggregation.aggregate_ms_p50": statistics.median(pooled["aggregate_ms"]),
        "evaluator.eval_ms_p50": statistics.median(pooled["eval_ms"]),
        "trace.run_s": median_rep["run_s"],
        "trace.overhead_s": median_rep["run_s"] - end_to_end(untraced)[0]["run_s"],
    })
    samples = {"setups": len(traced["setup"]["setup_s"]), "runs": len(reps)}
    samples.update({k: len(v) for k, v in pooled.items()})
    return layers, samples


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink the workload (self-test only)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "fassl" / "__init__.py").is_file():
        print(f"perfbench: no fassl sources under {SRC}", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    args.tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        if args.trace:
            results = [run_worker(args, args.seconds / 2, 0, deadline)]
            results.append(run_worker(args, args.seconds / 2, 1, deadline))
        else:
            results = [run_worker(args, args.seconds, 0, deadline)]
    finally:
        shutil.rmtree(args.tmp)
        try:
            TMP_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    problems = gate(results)
    if args.trace:
        values, samples = per_layer(results[0], results[-1])
    else:
        values, samples = end_to_end(results[0])
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(results[0]["env"], commit=git_commit(), workload=args.workload, seed=args.seed,
               master_seeds=results[0]["master_seeds"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    digests = {rep["subseed"]: rep["digests"] for rep in results[0]["reps"] if not rep["failed"]}
    for j, seed in enumerate(results[0]["master_seeds"]):
        d = digests.get(j, {"final.ckpt": "none", "results.csv": "none"})
        print(f"digest master_seed={seed} final.ckpt={d['final.ckpt']} results.csv={d['results.csv']}")
    print("samples " + " ".join(f"{k}={n}" for k, n in samples.items()))
    for m in declared:
        print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']}")
    for p in problems:
        print(f"FAIL {p}")

    attempted = sum(rep["attempted"] for r in results for rep in r["reps"])
    failed = sum(rep["failed"] for r in results for rep in r["reps"])
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
