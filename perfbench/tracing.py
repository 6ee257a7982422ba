"""Out-of-package tracing of the layers a federated round passes through.

``install`` replaces each layer's public functions with timing wrappers at
the place they are looked up: ``orchestrator`` binds most of them by name at
import, ``evaluator`` reaches ``kernels`` through the module, ``ssl_tasks``
reaches ``model`` through the module. Nothing under ``src/`` changes.

Each span records its own time (duration minus its direct children on the
same thread). Client jobs on the thread pool overlap in wall time, so within
such a round the pool threads' self times are scaled by client-phase wall
time over summed client busy time: the layers then add up to wall time, and
``orchestrator.parallel_eff`` reports the factor. Time no span claims (the
round loop itself, thread pool start-up, CSV writes) is ``round.other_s``.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_right
from collections import Counter, defaultdict
from typing import NamedTuple

ROOTS = ("round", "close")  # spans the benchmark opens around run_round and RunSink.close
LOCAL_TRAIN = "orchestrator.local_train"

# span name -> per-layer self-time metric
SELF_METRIC = {
    "ssl_tasks.views": "ssl_tasks.views_s",
    "ssl_tasks.loss": "ssl_tasks.loss_s",
    "model.encode": "model.encode_s",
    "model.sgd": "model.sgd_s",
    "model.tree": "model.tree_s",
    "autodiff.backward": "autodiff.backward_s",
    LOCAL_TRAIN: "orchestrator.local_train_s",
    "aggregation.aggregate": "aggregation.aggregate_s",
    "aggregation.scope_apply": "aggregation.aggregate_s",
    "evaluator.evaluate": "evaluator.eval_s",
    "evaluator.encode": "evaluator.encode_s",
    "kernels.cosine": "kernels.cosine_s",
    "kernels.topk": "kernels.topk_s",
    "checkpoint.save": "checkpoint.save_s",
}


class Span(NamedTuple):
    name: str
    t0: float
    t1: float
    self_s: float
    on_main: bool
    note: object  # what the span's count function extracted from its call


class Tracer:
    """Collects spans in memory; wrappers append from any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)  # time of direct children
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
            self.spans.append(Span(
                name, t0, t1, t1 - t0 - child, threading.get_ident() == self._main,
                note(args, result) if note else None,
            ))
            return result

        return traced


def _tree_bytes(tree) -> int:
    return sum(t.data.nbytes for _, t in tree.items())


def _note_local_train(args, result):
    # (downlink: transceived global sent to the client, uplink: its update)
    return _tree_bytes(args[1]), _tree_bytes(result[0].params)


def install(tracer: Tracer) -> None:
    """Wrap every traced function where the round path looks it up."""
    from fassl import aggregation, evaluator, kernels, model, orchestrator, ssl_tasks

    patches = [
        (orchestrator, "local_train", LOCAL_TRAIN, _note_local_train),
        (ssl_tasks, "two_view_batch", "ssl_tasks.views", lambda a, r: len(a[0])),
        (orchestrator, "acop_make_batch", "ssl_tasks.views", lambda a, r: len(a[0])),
        (orchestrator, "nt_xent_loss", "ssl_tasks.loss", None),
        (orchestrator, "barlow_twins_loss", "ssl_tasks.loss", None),
        (orchestrator, "acop_loss", "ssl_tasks.loss", None),
        (orchestrator, "encode", "model.encode", None),
        (orchestrator, "project", "model.encode", None),
        (model, "encode", "model.encode", None),  # acop_loss -> model.encode
        (model, "acop_logits", "model.encode", None),
        (orchestrator, "sgd_step", "model.sgd", None),
        (orchestrator, "split", "model.tree", None),
        (orchestrator, "merge", "model.tree", None),
        (aggregation, "merge", "model.tree", None),
        (model.ParamTree, "clone", "model.tree", None),
        (orchestrator, "backward", "autodiff.backward", lambda a, r: len(a[0].nodes)),
        (orchestrator, "aggregate", "aggregation.aggregate", lambda a, r: len(a[2])),
        (orchestrator, "scope_apply", "aggregation.scope_apply", None),
        (orchestrator, "evaluate_global", "evaluator.evaluate", None),
        (evaluator, "encode", "evaluator.encode", None),
        (evaluator, "project", "evaluator.encode", None),
        (kernels, "pairwise_cosine", "kernels.cosine", lambda a, r: 2 * a[0].shape[0] * a[1].shape[0] * a[0].shape[1]),
        (kernels, "topk_hits", "kernels.topk", lambda a, r: a[0].shape[0]),
        (orchestrator, "save_params", "checkpoint.save", lambda a, r: os.path.getsize(a[1])),
    ]
    for owner, attr, name, note in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))


def breakdown(spans: list[Span], run_s: float) -> dict:
    """Per-layer figures of one run from its spans; the `_s` entries add up to run_s."""
    roots = [s for s in spans if s.name in ROOTS and s.on_main]
    roots.sort(key=lambda s: s.t0)
    starts = [s.t0 for s in roots]
    by_root: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_root[bisect_right(starts, s.t0) - 1].append(s)

    self_s = Counter({m: 0.0 for m in SELF_METRIC.values()})
    phase_s = busy_s = 0.0
    for group in by_root.values():
        clients = [s for s in group if s.name == LOCAL_TRAIN]
        scale = 1.0
        if clients:
            wall = max(s.t1 for s in clients) - min(s.t0 for s in clients)
            busy = sum(s.t1 - s.t0 for s in clients)
            phase_s += wall
            busy_s += busy
            if any(not s.on_main for s in clients):
                scale = wall / busy
        for s in group:
            if s.name in SELF_METRIC:
                self_s[SELF_METRIC[s.name]] += s.self_s * (1.0 if s.on_main else scale)

    def notes(name):
        return [s.note for s in spans if s.name == name]

    backward_nodes = notes("autodiff.backward")
    links = notes(LOCAL_TRAIN)
    out = dict(self_s)
    out["round.other_s"] = run_s - sum(self_s.values())
    out.update({
        "ssl_tasks.views_calls": len(notes("ssl_tasks.views")),
        "ssl_tasks.view_clips": sum(notes("ssl_tasks.views")),
        "autodiff.tape_nodes": sum(backward_nodes) / max(len(backward_nodes), 1),
        "orchestrator.client_phase_s": phase_s,
        "orchestrator.parallel_eff": busy_s / phase_s if phase_s else 0.0,
        "orchestrator.sgd_steps": len(notes("model.sgd")),
        "orchestrator.downlink_bytes": sum(d for d, _ in links),
        "orchestrator.uplink_bytes": sum(u for _, u in links),
        "aggregation.clients_folded": sum(notes("aggregation.aggregate")),
        "evaluator.queries": sum(notes("kernels.topk")),
        "kernels.cosine_flops": sum(notes("kernels.cosine")),
        "checkpoint.saves": len(notes("checkpoint.save")),
        "checkpoint.bytes_written": sum(notes("checkpoint.save")),
    })
    return out


def durations_ms(spans: list[Span], name: str) -> list[float]:
    return [(s.t1 - s.t0) * 1e3 for s in spans if s.name == name]
