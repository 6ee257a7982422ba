"""The federated round loop: sample, train locally, aggregate, advance.

Determinism contract: every stream is keyed by (master_seed, purpose tag,
round, client id), clients train one after another in ascending id order
and share no mutable state, and updates are sorted by client_id before
aggregation so the floating-point reduction order is fixed. Two runs with
the same config produce byte-identical CSVs and checkpoints, whether they
run alone or next to other cells in parallel processes (``workers`` is read
only by ``fassl run``, which spreads matrix cells over that many processes).

In backbone-only scope the server transmits and receives just the backbone;
each client's head lives in the server-side state purely as simulation
bookkeeping (``retained_heads``) and evolves only in rounds where that
client is sampled. The server's own head copy is never updated: every
round's ``scope_apply`` carries the previous global heads over unchanged,
so the global heads are bit for bit the initial heads and stand in for them
as the starting head of a client not sampled before. In full scope nothing
is retained, so ``retained_heads`` stays empty.

Memory: a client trains on the global tree's own immutable tensors and
gets gradients only for the parameters its loss reaches, so the head its
task never reads is never copied; every retained head shares that head's
arrays with the global tree. A round releases its client results and
updates as soon as ``aggregate`` returns, so the checkpoint and the
evaluation do not run on top of every sampled client's tree.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import ssl_tasks
from .aggregation import ClientUpdate, Strategy, aggregate, scope_apply
from .autodiff import Graph, backward
from .checkpoint import save_params
from .data import Clip, Partition, SynthDataset, dirichlet_partition
from .errors import ContractError
from .evaluator import (
    FEATURE_LAYERS,
    METRICS,
    OptimaTracker,
    TaskAccuracy,
    evaluate_global,
    optima_csv,
    update_optima,
)
from .model import SCOPES, EncoderConfig, ParamTree, encode, init_encoder, merge, project, sgd_step, split
from .seeding import derive_seed, rng_for
from .ssl_tasks import AugmentPolicy, acop_loss, acop_make_batch, barlow_twins_loss, nt_xent_loss

SSL_TASKS = ("acop", "simclr", "barlow_twins")
CSV_HEADER = "round,strategy,scope,ssl_task,local_epochs,task,k,accuracy"


def csv_row(cfg: "RunConfig", acc: TaskAccuracy) -> str:
    return (
        f"{acc.round},{cfg.strategy.kind},{cfg.scope},{cfg.ssl_task},"
        f"{cfg.local_epochs},{acc.task},{acc.k},{acc.top1_retrieval:.6f}"
    )


@dataclass(frozen=True)
class RunConfig:
    rounds: int = 100
    n_clients: int = 100
    clients_per_round: int = 10
    local_epochs: int = 1
    batch_size: int = 64
    lr: float = 0.05
    ssl_task: str = "simclr"
    strategy: Strategy = Strategy("fedavg")
    scope: str = "full"
    alpha: float = 0.1
    master_seed: int = 7
    eval_every: int = 10
    k: int = 1
    workers: int = 1  # processes `fassl run` spreads matrix cells over; a single run ignores it
    tau: float = 0.5
    bt_lambda: float = 5e-3
    bt_eps: float = 1e-9
    augment: AugmentPolicy = AugmentPolicy()
    frames: int = 32
    bands: int = 16
    hidden_dim: int = 32
    embed_dim: int = 16
    projection_dim: int = 16
    pretext_classes: int = 8
    pretext_per_class: int = 100
    feature_layer: str = "backbone"
    metric: str = "cosine"

    def __post_init__(self):
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise ContractError(
                f"need 1 <= clients_per_round <= n_clients, got {self.clients_per_round}/{self.n_clients}"
            )
        if self.rounds < 1 or self.local_epochs < 1 or self.batch_size < 1:
            raise ContractError("rounds, local_epochs and batch_size must all be >= 1")
        for name in ("lr", "alpha", "tau", "bt_lambda", "bt_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ContractError(f"lr must be positive, got {self.lr}")
        if self.tau <= 0 or self.bt_eps <= 0:
            raise ContractError(f"tau and bt_eps must be positive, got {self.tau} and {self.bt_eps}")
        if self.bt_lambda < 0:
            raise ContractError(f"bt_lambda must be >= 0, got {self.bt_lambda}")
        for name, choices in (
            ("ssl_task", SSL_TASKS), ("scope", SCOPES), ("feature_layer", FEATURE_LAYERS), ("metric", METRICS)
        ):
            if getattr(self, name) not in choices:
                raise ContractError(f"unknown {name} {getattr(self, name)!r}, expected one of {choices}")
        min_frames = ssl_tasks.MIN_FRAMES * (ssl_tasks.ACOP_SEGMENTS if self.ssl_task == "acop" else 1)
        if self.frames < min_frames:
            raise ContractError(f"{self.ssl_task} needs frames >= {min_frames}, got {self.frames}")
        pretext_clips = self.pretext_classes * self.pretext_per_class
        if self.n_clients > pretext_clips:
            raise ContractError(f"{pretext_clips} pretext clips cannot cover n_clients={self.n_clients}")
        if self.alpha <= 0 or self.eval_every < 1 or self.k < 1 or self.workers < 1:
            raise ContractError("alpha, eval_every, k and workers must be positive")

    @property
    def input_dim(self) -> int:
        return self.frames * self.bands

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            embed_dim=self.embed_dim,
            projection_dim=self.projection_dim,
            acop_classes=len(ssl_tasks.canonical_permutations(ssl_tasks.ACOP_SEGMENTS)),
            acop_segments=ssl_tasks.ACOP_SEGMENTS,
        )


@dataclass
class RoundState:
    round_idx: int  # completed rounds so far
    global_params: ParamTree
    retained_heads: dict[int, ParamTree]


@dataclass
class RunResult:
    rows: list[TaskAccuracy]
    final_params: ParamTree
    tracker: OptimaTracker
    total_steps: int
    state: RoundState


def sample_clients(n_clients: int, s: int, round_idx: int, master_seed: int) -> list[int]:
    """s distinct client ids for this round, sorted ascending."""
    if not 1 <= s <= n_clients:
        raise ContractError(f"need 1 <= s <= N, got s={s}, N={n_clients}")
    rng = rng_for(master_seed, "sample", round_idx)
    return sorted(int(c) for c in rng.choice(n_clients, size=s, replace=False))


def _batch_loss(params: ParamTree, clips: list[Clip], cfg: RunConfig, rng):
    if cfg.ssl_task == "acop":
        batch = acop_make_batch(
            clips, ssl_tasks.ACOP_SEGMENTS, ssl_tasks.canonical_permutations(ssl_tasks.ACOP_SEGMENTS), rng
        )
        return acop_loss(params, batch)
    views = ssl_tasks.two_view_batch(clips, cfg.augment, rng)
    z = project(params, encode(params, views))
    if cfg.ssl_task == "simclr":
        return nt_xent_loss(z, cfg.tau)
    even = np.arange(0, z.shape[0], 2)
    odd = np.arange(1, z.shape[0], 2)
    return barlow_twins_loss(
        ad.gather_rows(z, even), ad.gather_rows(z, odd), cfg.bt_lambda, cfg.bt_eps
    )


def local_train(
    shard: list[Clip],
    w_g: ParamTree,
    retained_head: ParamTree | None,
    cfg: RunConfig,
    client_id: int,
    round_idx: int,
) -> tuple[ClientUpdate, ParamTree, int]:
    """Train a local copy for E epochs; returns (update, retained part, sgd steps).

    The local model starts from the transceived global merged with the
    client's retained head (empty in full scope). Batches too small for the
    task (fewer than 2 clips for the pair losses) are dropped. Training
    starts on the input trees' own immutable tensors and every step makes
    new ones, so neither input tree is written to and the trained trees are
    handed out as they are.

    Each step's graph has every local parameter as a leaf. The head the task
    never reads (``head.proj`` under acop, ``head.acop`` under the pair
    losses) gets no gradient and no SGD copy, so the returned trees share
    its arrays with the input trees; its values are what a zero gradient
    step would have left, bit for bit.
    """
    if not shard:
        raise ContractError(f"client {client_id} has an empty shard")
    params = w_g if retained_head is None or len(retained_head) == 0 else merge(w_g, retained_head)
    rng = rng_for(cfg.master_seed, "train", round_idx, client_id)
    min_clips = 1 if cfg.ssl_task == "acop" else 2
    steps = 0
    final_epoch_losses: list[tuple[float, int]] = []
    for epoch in range(cfg.local_epochs):
        order = rng.permutation(len(shard))
        losses: list[tuple[float, int]] = []
        for start in range(0, len(shard), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < min_clips:
                continue
            clips = [shard[i] for i in idx]
            with Graph(params.as_dict()) as g:
                loss = _batch_loss(params, clips, cfg, rng)
            grads = backward(g, loss)
            params = sgd_step(params, grads, cfg.lr)
            steps += 1
            losses.append((loss.item(), len(clips)))
        if epoch == cfg.local_epochs - 1:
            final_epoch_losses = losses
    total_clips = sum(n for _, n in final_epoch_losses)
    mean_loss = (
        sum(l * n for l, n in final_epoch_losses) / total_clips if total_clips else 0.0
    )
    transceived, retained = split(params, cfg.scope)
    update = ClientUpdate(client_id=client_id, params=transceived, n_samples=len(shard), mean_loss=mean_loss)
    return update, retained, steps


class RunSink:
    """Collects evaluation rows and optionally persists CSV + checkpoints.

    CSV writes are line-buffered appends so an interrupted run leaves a
    valid prefix of the final file.
    """

    def __init__(self, out_dir: str | os.PathLike | None = None):
        self.rows: list[TaskAccuracy] = []
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._csv = None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._csv = open(self.out_dir / "results.csv", "w", encoding="utf-8", newline="\n")
            self._csv.write(CSV_HEADER + "\n")
            self._csv.flush()

    def checkpoint_ref(self, round_idx: int, params: ParamTree) -> str:
        if self.out_dir is None:
            return f"round:{round_idx}"
        path = self.out_dir / f"round_{round_idx:04d}.ckpt"
        save_params(params, path)
        return str(path)

    def on_eval(self, cfg: RunConfig, accs: list[TaskAccuracy]) -> None:
        self.rows.extend(accs)
        if self._csv is not None:
            for acc in accs:
                self._csv.write(csv_row(cfg, acc) + "\n")
                self._csv.flush()

    def close_csv(self) -> None:
        """Close the results file; safe to call more than once."""
        if self._csv is not None:
            self._csv.close()
            self._csv = None

    def close(self, cfg: RunConfig, final_params: ParamTree, tracker: OptimaTracker) -> None:
        self.close_csv()
        if self.out_dir is not None:
            save_params(final_params, self.out_dir / "final.ckpt")
            (self.out_dir / "optima.csv").write_text(optima_csv(tracker), encoding="utf-8")


def run_round(
    state: RoundState,
    cfg: RunConfig,
    partition: Partition,
    pretext: SynthDataset,
    tasks: list[tuple[str, SynthDataset, SynthDataset]],
    tracker: OptimaTracker,
    sink: RunSink,
) -> tuple[RoundState, int]:
    """One federated round; returns the advanced state and the sgd steps taken."""
    round_idx = state.round_idx + 1
    sampled = sample_clients(cfg.n_clients, cfg.clients_per_round, round_idx, cfg.master_seed)
    transceived_global, global_heads = split(state.global_params, cfg.scope)

    results = [
        local_train(
            [pretext.by_id(cid) for cid in partition.shards[client_id]],
            transceived_global, state.retained_heads.get(client_id, global_heads),
            cfg, client_id, round_idx,
        )
        for client_id in sampled
    ]

    updates = [r[0] for r in results]
    retained_heads = dict(state.retained_heads)
    for client_id, (_, retained, _) in zip(sampled, results):
        if len(retained):
            retained_heads[client_id] = retained
    steps = sum(r[2] for r in results)

    aggregated = aggregate(cfg.strategy, state.global_params, updates)
    del results, updates  # the checkpoint and eval temporaries reuse the client trees' memory
    new_global = scope_apply(cfg.scope, state.global_params, aggregated)
    new_state = replace(
        state, round_idx=round_idx, global_params=new_global, retained_heads=retained_heads
    )

    if round_idx % cfg.eval_every == 0:
        ckpt = sink.checkpoint_ref(round_idx, new_global)
        accs = evaluate_global(
            new_global, tasks, cfg.k, round_idx=round_idx,
            feature_layer=cfg.feature_layer, metric=cfg.metric,
        )
        update_optima(tracker, round_idx, accs, ckpt)
        sink.on_eval(cfg, accs)
    return new_state, steps


def initial_state(cfg: RunConfig) -> RoundState:
    params = init_encoder(cfg.encoder_config(), derive_seed(cfg.master_seed, "init"))
    return RoundState(round_idx=0, global_params=params, retained_heads={})


def run(
    cfg: RunConfig,
    pretext: SynthDataset,
    tasks: list[tuple[str, SynthDataset, SynthDataset]],
    out_dir: str | os.PathLike | None = None,
) -> RunResult:
    """Execute R federated rounds from a seeded init; returns the full log."""
    partition = dirichlet_partition(
        pretext, cfg.n_clients, cfg.alpha, derive_seed(cfg.master_seed, "partition")
    )
    state = initial_state(cfg)
    tracker = OptimaTracker()
    sink = RunSink(out_dir)
    total_steps = 0
    try:
        for _ in range(cfg.rounds):
            state, steps = run_round(state, cfg, partition, pretext, tasks, tracker, sink)
            total_steps += steps
    finally:
        # a failed run keeps its results.csv prefix but writes no final.ckpt / optima.csv
        sink.close_csv()
    sink.close(cfg, state.global_params, tracker)
    return RunResult(
        rows=sink.rows,
        final_params=state.global_params,
        tracker=tracker,
        total_steps=total_steps,
        state=state,
    )
