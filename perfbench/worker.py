"""One measured process of one workload; started by run.py with BLAS pinned.

Builds the workload's inputs, then runs the whole federated run again and
again until its time is used, cycling over the workload's master seeds with
every one run at least twice, and builds the inputs again between runs to
time the set-up several times. Each run writes to a fresh directory; its
bytes are hashed and its files checked before the directory is removed. Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from fassl import kernels
from fassl.checkpoint import load_params
from fassl.errors import ContractError
from fassl.evaluator import OptimaTracker
from fassl.orchestrator import CSV_HEADER, RunSink, initial_state, run_round

import tracing
import workloads

# Set up at least this many times per master seed and for at least this
# share of the measuring time, spread between the runs; setup_s is the median.
SETUPS_PER_SUBSEED = 3
SETUP_SHARE = 0.1


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "using_numba": kernels.USING_NUMBA,
    }


def fingerprint(pretext, tasks, partition) -> str:
    h = hashlib.sha256(pretext.feature_matrix().tobytes())
    for name, train, test in tasks:
        h.update(name.encode())
        h.update(train.feature_matrix().tobytes())
        h.update(test.feature_matrix().tobytes())
    h.update(json.dumps(partition.shards).encode())
    return h.hexdigest()


def set_up(cfg, suite_spec, times: dict):
    """Pretext + downstream synthesis, partition, initial state; each part timed."""
    t0 = time.perf_counter()
    pretext = workloads.make_pretext(cfg)
    tasks = workloads.make_suite(suite_spec, cfg.frames, cfg.bands)
    t1 = time.perf_counter()
    partition = workloads.make_partition(cfg, pretext)
    t2 = time.perf_counter()
    state = initial_state(cfg)
    t3 = time.perf_counter()
    times["setup_s"].append(t3 - t0)
    times["data.synth_s"].append(t1 - t0)
    times["data.partition_s"].append(t2 - t1)
    return pretext, tasks, partition, state


def check_outputs(out_dir, cfg, tasks, tracker, final_params) -> list[str]:
    """Problems with one run's files; empty when they are consistent."""
    problems = []
    with open(out_dir / "results.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != CSV_HEADER:
        return ["results.csv: bad header"]
    rows = rows[1:]
    expected = (cfg.rounds // cfg.eval_every) * len(tasks)
    if len(rows) != expected:
        problems.append(f"results.csv: {len(rows)} rows, expected {expected}")
    best: dict[str, tuple[float, int]] = {}
    for row in rows:
        rnd, task, acc = int(row[0]), row[5], float(row[7])
        if not 0.0 <= acc <= 1.0:
            problems.append(f"results.csv: accuracy {acc} outside [0, 1]")
        if task not in best or acc > best[task][0]:  # strict: ties keep the earlier round
            best[task] = (acc, rnd)
    with open(out_dir / "optima.csv", encoding="utf-8", newline="") as fh:
        optima = {r[0]: (float(r[2]), int(r[1])) for r in list(csv.reader(fh))[1:]}
    if optima != best:
        problems.append(f"optima.csv {optima} disagrees with results.csv {best}")
    if {t: (round(b.accuracy, 6), b.round) for t, b in tracker.best.items()} != best:
        problems.append("tracker disagrees with results.csv")
    if not load_params(out_dir / "final.ckpt").equal_bytes(final_params):
        problems.append("final.ckpt does not round-trip to the final global model")
    return problems


def run_once(cfg, inputs, tmp_root, round_fn, close_fn) -> dict:
    pretext, tasks, partition, state = inputs
    out = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        tracker = OptimaTracker()
        sink = RunSink(out)
        latencies = []
        failed = 0
        start = time.perf_counter()
        for _ in range(cfg.rounds):
            t0 = time.perf_counter()
            try:
                state, _ = round_fn(state, cfg, partition, pretext, tasks, tracker, sink)
            except ContractError as exc:
                print(f"round {state.round_idx + 1} failed: {exc}", file=sys.stderr)
                failed = 1
                break
            latencies.append((time.perf_counter() - t0) * 1e3)
        close_fn(sink, cfg, state.global_params, tracker)
        run_s = time.perf_counter() - start
        rep = {"run_s": run_s, "round_ms": latencies, "attempted": len(latencies) + failed, "failed": failed}
        if not failed:
            rep["digests"] = {"final.ckpt": sha256(out / "final.ckpt"), "results.csv": sha256(out / "results.csv")}
            rep["retrieval_acc"] = statistics.fmean(b.accuracy for b in tracker.best.values())
            rep["problems"] = check_outputs(out, cfg, tasks, tracker, state.global_params)
        return rep
    finally:
        shutil.rmtree(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    cfgs = wl.configs(args.seed, args.tiny)
    suite_spec = wl.suite_spec(args.tiny)
    tracer = None
    round_fn = run_round
    close_fn = RunSink.close
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        round_fn = tracer.wrap("round", run_round)
        close_fn = tracer.wrap("close", RunSink.close)

    problems: list[str] = []
    setup_times = {"setup_s": [], "data.synth_s": [], "data.partition_s": []}
    inputs = [None] * len(cfgs)
    prints = [set() for _ in cfgs]
    setups = 0

    def set_up_next() -> None:
        nonlocal setups
        j = setups % len(cfgs)
        gc.collect()
        inputs[j] = set_up(cfgs[j], suite_spec, setup_times)
        prints[j].add(fingerprint(*inputs[j][:3]))
        setups += 1

    start = time.perf_counter()
    while setups < len(cfgs):
        set_up_next()
    clips = [workloads.training_clips(cfg, built[2]) for cfg, built in zip(cfgs, inputs)]

    reps = []
    deadline = start + args.seconds
    i = 0
    while i < 2 * len(cfgs) or time.perf_counter() < deadline:
        # Set-ups are interleaved with the runs, so that setup_s samples the
        # same stretch of time as the runs do rather than only its start.
        while sum(setup_times["setup_s"]) < SETUP_SHARE * (time.perf_counter() - start):
            set_up_next()
        j = i % len(cfgs)
        if tracer is not None:
            tracer.spans = []
        gc.collect()  # start every timed run from the same collector state
        rep = run_once(cfgs[j], inputs[j], args.tmp, round_fn, close_fn)
        rep["subseed"] = j
        rep["clips"] = clips[j]
        if tracer is not None and not rep["failed"]:
            rep["layers"] = tracing.breakdown(tracer.spans, rep["run_s"])
            rep["client_ms"] = tracing.durations_ms(tracer.spans, tracing.LOCAL_TRAIN)
            rep["aggregate_ms"] = tracing.durations_ms(tracer.spans, "aggregation.aggregate")
            rep["eval_ms"] = tracing.durations_ms(tracer.spans, "evaluator.evaluate")
            if rep["layers"]["ssl_tasks.view_clips"] != clips[j]:
                problems.append(
                    f"traced batches hold {rep['layers']['ssl_tasks.view_clips']} clips, expected {clips[j]}"
                )
            if rep["layers"]["round.other_s"] < 0:
                problems.append(f"layer self times exceed run_s by {-rep['layers']['round.other_s']:.6f} s")
        reps.append(rep)
        i += 1
    while setups < SETUPS_PER_SUBSEED * len(cfgs):
        set_up_next()
    for cfg, fps in zip(cfgs, prints):
        if len(fps) != 1:
            problems.append(f"master_seed {cfg.master_seed}: set-up is not deterministic")

    print(json.dumps({
        "env": environment(),
        "master_seeds": [cfg.master_seed for cfg in cfgs],
        "setup": setup_times,
        "reps": reps,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
