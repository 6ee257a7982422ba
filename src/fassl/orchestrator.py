"""The federated round loop: sample, train locally, aggregate, advance.

Determinism contract: every stream is keyed by (master_seed, purpose tag,
round, client id), clients train one after another in ascending id order
and share no mutable state, and updates are sorted by client_id before
aggregation so the floating-point reduction order is fixed. Two runs with
the same config produce byte-identical CSVs and checkpoints at any model
size, alone or next to other cells in processes (only ``fassl run`` reads
``workers``: how many processes its cells spread over), and at any BLAS
thread count the environment asks for, since ``fassl`` pins BLAS to one.
``RunConfig`` names each field's rule in its ``RULES`` table (see
``errors``) and checks the rules across fields after it, so a bad setting
fails where the config is built and never inside a round.

A run is its config: ``run`` derives its pretext set and downstream suite
from the config's seed and sizes, so ``k``'s bound is one of ``RULES``.
``pretext_and_partition`` is the one derivation of the pretext set and its
partition, which ``fassl partition-stats`` prints too. A caller with inputs
of its own drives ``initial_state`` and ``run_round``.

Clients train on rows: a partition's shard names rows of the pretext, and
each round views the pretext as one (n, frames, bands) clip array and hands
every sampled client the rows of its shard, taken as one array.

A run's one record is the directory ``RunSink`` writes; ``RunResult`` keeps
only the tracker, the step count and the final state. This module alone
writes and reads the record's CSVs: ``read_results_csv`` checks each column
by its ``COLUMN_RULES`` entry, the ``RULES`` rule its writer's value obeys,
and takes a field only as the text the writer prints for its value.

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

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ssl_tasks
from .aggregation import STRATEGY, ClientUpdate, Strategy, aggregate, scope_apply
from .autodiff import Graph, backward
from .checkpoint import TMP_SUFFIX, _write_replacing, save_params
from .data import SUITE_TRAIN_CLIPS, Partition, SynthDataset, dirichlet_partition, downstream_suite, synth_dataset
from .errors import COUNT, NON_NEGATIVE, POSITIVE, ContractError, check, check_fields, instance_of, one_of
from .evaluator import FEATURE_LAYER, OptimaTracker, TaskAccuracy, evaluate_global, retrieval_k, update_optima
from .model import SCOPE, ParamTree, encode, init_encoder, merge, project, sgd_step, split
from .seeding import SEED, derive_seed, rng_for
from .ssl_tasks import TASKS, TEMPERATURE, AugmentPolicy, acop_loss, acop_make_batch, barlow_twins_loss, nt_xent_loss


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
    augment: AugmentPolicy = AugmentPolicy()
    frames: int = 32
    bands: int = 16
    hidden_dim: int = 32
    embed_dim: int = 16
    projection_dim: int = 16
    pretext_classes: int = 8
    pretext_per_class: int = 100
    feature_layer: str = "backbone"

    RULES = {
        "rounds": COUNT, "n_clients": COUNT, "clients_per_round": COUNT, "local_epochs": COUNT, "batch_size": COUNT,
        "lr": POSITIVE, "ssl_task": one_of(*TASKS), "strategy": STRATEGY, "scope": SCOPE, "alpha": POSITIVE,
        "master_seed": SEED, "eval_every": COUNT, "k": retrieval_k(SUITE_TRAIN_CLIPS), "workers": COUNT,
        "tau": TEMPERATURE, "bt_lambda": NON_NEGATIVE, "augment": instance_of(AugmentPolicy),
        "frames": COUNT, "bands": COUNT, "hidden_dim": COUNT, "embed_dim": COUNT, "projection_dim": COUNT,
        "pretext_classes": COUNT, "pretext_per_class": COUNT, "feature_layer": FEATURE_LAYER,
    }

    def __post_init__(self):
        check_fields(self)
        if self.clients_per_round > self.n_clients:
            raise ContractError(f"need clients_per_round <= n_clients, got {self.clients_per_round}/{self.n_clients}")
        needs = TASKS[self.ssl_task]
        if self.frames < needs.min_frames:
            raise ContractError(f"{self.ssl_task} needs frames >= {needs.min_frames}, got {self.frames}")
        if self.batch_size < needs.min_clips:
            # local_train drops a batch too small for the loss, so such a run would never step
            raise ContractError(f"{self.ssl_task} needs batch_size >= {needs.min_clips}, got {self.batch_size}")
        if self.feature_layer == "projection" and (self.scope, needs.head) != ("full", "head.proj"):
            # retrieval would score the global head.proj's random initial weights
            conflict = f"scope {self.scope}" if self.scope != "full" else f"ssl_task {self.ssl_task}"
            raise ContractError(f"feature_layer projection scores the global head.proj, which {conflict} never trains")
        if (self.strategy.kind, self.scope) == ("fedu", "backbone"):  # else fedavg under fedu's name
            raise ContractError("strategy fedu gates only the heads, which scope backbone never transceives")
        pretext_clips = self.pretext_classes * self.pretext_per_class
        if self.n_clients > pretext_clips:
            raise ContractError(f"{pretext_clips} pretext clips cannot cover n_clients={self.n_clients}")


RESULTS_CSV = "results.csv"
# Each results.csv column, in order, and the rule its writer's value obeys.
COLUMN_RULES = {
    "round": TaskAccuracy.RULES["round"], "strategy": Strategy.RULES["kind"], "scope": RunConfig.RULES["scope"],
    "ssl_task": RunConfig.RULES["ssl_task"], "local_epochs": RunConfig.RULES["local_epochs"],
    "task": TaskAccuracy.RULES["task"], "k": RunConfig.RULES["k"], "accuracy": TaskAccuracy.RULES["accuracy"],
}
CSV_HEADER = ",".join(COLUMN_RULES)


def _accuracy_text(accuracy: float) -> str:  # as results.csv and optima.csv write it
    return f"{accuracy:.6f}"


def _field_text(value, kind: type) -> str:
    """The one text results.csv writes for a column's value, and the only text its reader takes for that value."""
    return _accuracy_text(value) if kind is float else str(value)


def csv_row(cfg: RunConfig, acc: TaskAccuracy) -> str:
    values = (acc.round, cfg.strategy.kind, cfg.scope, cfg.ssl_task, cfg.local_epochs, acc.task, acc.k, acc.accuracy)
    return ",".join(_field_text(value, rule[0]) for value, rule in zip(values, COLUMN_RULES.values()))


def _field_value(text: str, kind: type):
    """A field's text as its column's kind; text no such value has stays text, which the kind's check refuses."""
    try:
        return text if kind is str else kind(text)
    except ValueError:  # not a number, or more digits than int() converts
        return text


def read_results_csv(path: Path) -> list[dict]:
    """Rows of one results.csv, each field converted to its column's kind and checked by its ``COLUMN_RULES`` rule.

    A field must then be the text ``run`` writes for its value (``7``, not
    ``007``; ``0.500000``, not ``0.5``). A row ``run`` cannot write is a
    ContractError naming the file and its line.
    """
    blob = path.read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob[:exc.start].count(b"\n") + 1
        raise ContractError(f"{path}:{line}: not valid UTF-8") from None
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln]
    if not lines:
        raise ContractError(f"empty results file: {path}")
    if lines[0][1] != CSV_HEADER:
        raise ContractError(f"{path}:{lines[0][0]}: unexpected CSV header {lines[0][1]!r}")
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(COLUMN_RULES):
            raise ContractError(f"{path}:{lineno}: malformed row {ln!r}")
        row = {}
        for (col, rule), raw in zip(COLUMN_RULES.items(), parts):
            row[col] = value = _field_value(raw, rule[0])
            try:
                check(col, value, rule)
                if (written := _field_text(value, rule[0])) != raw:
                    raise ContractError(f"{col} must be written {written!r}, got {raw!r}")
            except ContractError as exc:
                raise ContractError(f"{path}:{lineno}: {exc}") from None
        rows.append(row)
    return rows


@dataclass
class RoundState:
    round_idx: int  # completed rounds so far
    global_params: ParamTree
    retained_heads: dict[int, ParamTree]


@dataclass
class RunResult:
    tracker: OptimaTracker
    total_steps: int
    state: RoundState


def sample_clients(n_clients: int, s: int, round_idx: int, master_seed: int) -> list[int]:
    """s distinct client ids for this round, sorted ascending."""
    check("n_clients", n_clients, COUNT)
    check("s", s, COUNT)
    if s > n_clients:
        raise ContractError(f"need s <= n_clients, got s={s}, n_clients={n_clients}")
    rng = rng_for(master_seed, "sample", round_idx)
    return sorted(int(c) for c in rng.choice(n_clients, size=s, replace=False))


def _batch_loss(params: ParamTree, clips: np.ndarray, cfg: RunConfig, rng):
    if cfg.ssl_task == "acop":
        return acop_loss(params, acop_make_batch(clips, rng))
    views = ssl_tasks.two_view_batch(clips, cfg.augment, rng)
    z = project(params, encode(params, views))
    if cfg.ssl_task == "simclr":
        return nt_xent_loss(z, cfg.tau)
    return barlow_twins_loss(z, cfg.bt_lambda)


def local_train(
    shard: np.ndarray,
    w_g: ParamTree,
    retained_head: ParamTree,
    cfg: RunConfig,
    client_id: int,
    round_idx: int,
) -> tuple[ClientUpdate, ParamTree, int]:
    """Train a local copy for E epochs; returns (update, retained part, sgd steps).

    The shard is the client's clips as one non-empty (n, frames, bands)
    float64 array, and each batch is one ``take`` of its rows. The local
    model starts from the transceived global merged with the client's
    retained head (empty in full scope). Batches with fewer clips than the
    task's ``TASKS`` entry names (2 for the pair losses) are dropped. Training
    starts on the input trees' own immutable tensors and every step makes
    new ones, so neither input tree is written to and the trained trees are
    handed out as they are.

    Each step's graph has every local parameter as a leaf. The head the task
    never reads (``head.proj`` under acop, ``head.acop`` under the pair
    losses) gets no gradient and no SGD copy, so the returned trees share
    its arrays with the input trees; its values are what a zero gradient
    step would have left, bit for bit.
    """
    n_clips = ssl_tasks.clips_shape(shard, f"client {client_id}'s shard")[0]
    params = merge(w_g, retained_head) if len(retained_head) else w_g
    rng = rng_for(cfg.master_seed, "train", round_idx, client_id)
    min_clips = TASKS[cfg.ssl_task].min_clips
    steps = 0
    for _ in range(cfg.local_epochs):  # RULES make local_epochs >= 1, so losses ends as the last epoch's
        order = rng.permutation(n_clips)
        losses: list[tuple[float, int]] = []
        for start in range(0, n_clips, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < min_clips:
                continue
            with Graph(params.as_dict()) as g:
                loss = _batch_loss(params, shard.take(idx, axis=0), cfg, rng)
            grads = backward(g, loss)
            params = sgd_step(params, grads, cfg.lr)
            steps += 1
            losses.append((loss.item(), len(idx)))
    total_clips = sum(n for _, n in losses)
    mean_loss = sum(l * n for l, n in losses) / total_clips if total_clips else 0.0
    transceived, retained = split(params, cfg.scope)
    update = ClientUpdate(client_id=client_id, params=transceived, n_samples=n_clips, mean_loss=mean_loss)
    return update, retained, steps


# What a run writes besides results.csv, and the temporary siblings those files are written to.
_RUN_FILES = (
    "round_*.ckpt", f"round_*.ckpt{TMP_SUFFIX}", "final.ckpt", f"final.ckpt{TMP_SUFFIX}",
    "optima.csv", f"optima.csv{TMP_SUFFIX}",
)


class RunSink:
    """Writes a run's cell directory: results.csv, round_*.ckpt, final.ckpt and optima.csv.

    Opening the sink truncates results.csv and removes what an earlier run
    left of the other files, so the directory never mixes two runs; any
    other file (the CLI's config.txt) stays. CSV writes are line-buffered
    appends so an interrupted run leaves a valid prefix of the final file.
    """

    def __init__(self, out_dir: str | os.PathLike):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for pattern in _RUN_FILES:
            for stale in self.out_dir.glob(pattern):
                stale.unlink()
        self._csv = open(self.out_dir / RESULTS_CSV, "w", encoding="utf-8", newline="\n")
        self._csv.write(CSV_HEADER + "\n")
        self._csv.flush()

    def save_round(self, round_idx: int, params: ParamTree) -> None:
        """Write an eval round's global model as ``round_<r:04d>.ckpt``."""
        save_params(params, self.out_dir / f"round_{round_idx:04d}.ckpt")

    def on_eval(self, cfg: RunConfig, accs: list[TaskAccuracy]) -> None:
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
        save_params(final_params, self.out_dir / "final.ckpt")
        rows = "".join(f"{task},{rnd},{_accuracy_text(acc)}\n" for task, rnd, acc in tracker.summary_rows())
        _write_replacing(self.out_dir / "optima.csv", ("task,best_round,best_accuracy\n" + rows).encode("utf-8"))


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
    clips = pretext.clip_array()
    if clips.shape[1:] != (cfg.frames, cfg.bands):
        raise ContractError(f"pretext clips are {clips.shape[1:]}, not the config's ({cfg.frames}, {cfg.bands})")
    round_idx = state.round_idx + 1
    sampled = sample_clients(cfg.n_clients, cfg.clients_per_round, round_idx, cfg.master_seed)
    transceived_global, global_heads = split(state.global_params, cfg.scope)

    results = [
        local_train(
            clips.take(partition.shards[client_id], axis=0),
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
        accs = evaluate_global(new_global, tasks, cfg.k, round_idx=round_idx, feature_layer=cfg.feature_layer)
        update_optima(tracker, round_idx, accs)
        sink.on_eval(cfg, accs)
        sink.save_round(round_idx, new_global)  # after its rows, so a round's checkpoint never stands alone
    return new_state, steps


def initial_state(cfg: RunConfig) -> RoundState:
    params = init_encoder(
        cfg.frames * cfg.bands, cfg.hidden_dim, cfg.embed_dim, cfg.projection_dim, derive_seed(cfg.master_seed, "init")
    )
    return RoundState(round_idx=0, global_params=params, retained_heads={})


def pretext_and_partition(
    master_seed: int, pretext_classes: int, pretext_per_class: int, frames: int, bands: int, n_clients: int,
    alpha: float,
) -> tuple[SynthDataset, Partition]:
    """A cell's pretext set and its clients' shards of it, from the seed's pretext-data and partition streams.

    It takes plain values, not a ``RunConfig``, so ``fassl partition-stats``
    prints the partition ``run`` trains on without enforcing the rules
    across keys.
    """
    pretext = synth_dataset(
        pretext_classes, pretext_per_class, frames, bands, seed=derive_seed(master_seed, "pretext-data")
    )
    return pretext, dirichlet_partition(pretext, n_clients, alpha, derive_seed(master_seed, "partition"))


def run(cfg: RunConfig, out_dir: str | os.PathLike) -> RunResult:
    """Execute R federated rounds from a seeded init into out_dir (see ``RunSink``); a round's error names it.

    The pretext set and the downstream suite are the ones the config's seed and sizes derive, as in a CLI cell.
    """
    pretext, partition = pretext_and_partition(
        cfg.master_seed, cfg.pretext_classes, cfg.pretext_per_class, cfg.frames, cfg.bands, cfg.n_clients, cfg.alpha
    )
    tasks = downstream_suite(derive_seed(cfg.master_seed, "downstream-data"), cfg.frames, cfg.bands)
    state = initial_state(cfg)
    tracker = OptimaTracker()
    sink = RunSink(out_dir)
    total_steps = 0
    try:
        for round_idx in range(1, cfg.rounds + 1):
            try:
                state, steps = run_round(state, cfg, partition, pretext, tasks, tracker, sink)
            except ContractError as exc:
                raise ContractError(f"round {round_idx}: {exc}") from exc
            total_steps += steps
    finally:
        # a failed run keeps its results.csv prefix but writes no final.ckpt / optima.csv
        sink.close_csv()
    sink.close(cfg, state.global_params, tracker)
    return RunResult(tracker=tracker, total_steps=total_steps, state=state)
