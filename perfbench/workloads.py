"""The benchmark's workloads: one run configuration and its inputs each.

Every input is generated here from the workload seed through the library's
public generators; the program under test only receives the results. The
downstream suite is the yardstick the tracker is scored on, so it is built
from a fixed seed: a different workload seed changes the pretext data, the
partition, the initial model and every training stream, but not the tasks
the quality figure is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from fassl import RunConfig, Strategy, SynthDataset, dirichlet_partition, downstream_suite, synth_dataset
from fassl.orchestrator import sample_clients
from fassl.seeding import derive_seed

SUITE_SEED = 20240205

# Enlarged suite for `server`: three pretext-family tasks whose classes are
# harder to tell apart as the noise grows, so retrieval does not saturate.
ENLARGED_NOISE = (0.6, 0.9, 1.2)

# Each run trains from this many master seeds derived from the workload
# seed; the quality figure is their mean, which narrows its seed-to-seed
# spread.
SUBSEEDS = 3


@dataclass(frozen=True)
class SuiteSpec:
    """Downstream suite: the stock ``downstream_suite`` or an enlarged one."""

    kind: str  # "stock" | "enlarged"
    classes: int = 8
    n_train: int = 250
    n_test: int = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cfg: RunConfig
    suite: SuiteSpec
    tiny: dict = field(default_factory=dict)
    tiny_suite: SuiteSpec | None = None

    def configs(self, seed: int, tiny: bool = False) -> list[RunConfig]:
        base = replace(self.cfg, **self.tiny) if tiny else self.cfg
        return [
            replace(base, master_seed=derive_seed(seed, f"perfbench-{self.name}", j))
            for j in range(SUBSEEDS)
        ]

    def suite_spec(self, tiny: bool = False) -> SuiteSpec:
        return self.tiny_suite if tiny and self.tiny_suite is not None else self.suite


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="protocol",
            why="the paper's default cell: 100 clients, 10 per round, tiny shards where per-op Python overhead dominates",
            # Serial clients: on a two-core shared host the thread pool's
            # round times followed the host's load, not the code (see README).
            cfg=RunConfig(workers=1),
            suite=SuiteSpec("stock"),
            tiny=dict(rounds=4, n_clients=10, clients_per_round=3, eval_every=2, pretext_per_class=10),
        ),
        Workload(
            name="dense",
            why="near-iid 400-clip shards in full 64-clip batches on 4 serial clients: views, forward and backward dominate",
            cfg=RunConfig(
                rounds=5, n_clients=8, clients_per_round=4, local_epochs=2, ssl_task="barlow_twins",
                pretext_per_class=400, alpha=100.0, eval_every=1, workers=1,
            ),
            suite=SuiteSpec("stock"),
            tiny=dict(rounds=2, n_clients=4, clients_per_round=2, pretext_per_class=20),
        ),
        Workload(
            name="server",
            why="100 clients per round, wide encoder, ldawa and a large suite evaluated and checkpointed every round",
            cfg=RunConfig(
                rounds=4, n_clients=100, clients_per_round=100, pretext_per_class=25, ssl_task="acop",
                strategy=Strategy("ldawa"), scope="backbone", hidden_dim=128, embed_dim=64,
                projection_dim=64, eval_every=1, workers=1,
            ),
            suite=SuiteSpec("enlarged"),
            tiny=dict(rounds=2, n_clients=10, clients_per_round=10, pretext_per_class=5),
            tiny_suite=SuiteSpec("enlarged", classes=4, n_train=10, n_test=4),
        ),
    )
}


def make_pretext(cfg: RunConfig) -> SynthDataset:
    return synth_dataset(
        cfg.pretext_classes, cfg.pretext_per_class, cfg.frames, cfg.bands,
        seed=derive_seed(cfg.master_seed, "pretext-data"),
    )


def make_suite(spec: SuiteSpec, frames: int, bands: int) -> list[tuple[str, SynthDataset, SynthDataset]]:
    if spec.kind == "stock":
        return downstream_suite(derive_seed(SUITE_SEED, "downstream-data"), frames, bands)
    tasks = []
    per_class = spec.n_train + spec.n_test
    for i, noise in enumerate(ENLARGED_NOISE):
        full = synth_dataset(
            spec.classes, per_class, frames, bands,
            seed=derive_seed(SUITE_SEED, "enlarged-task", i), noise_std=noise,
        )
        # synth_dataset emits each class's clips contiguously; split every
        # class into its first n_train (train) and last n_test (test) clips.
        train = [c for j, c in enumerate(full.clips) if j % per_class < spec.n_train]
        test = [c for j, c in enumerate(full.clips) if j % per_class >= spec.n_train]
        tasks.append((
            f"noise{noise}",
            SynthDataset(clips=train, n_classes=spec.classes, generator=full.generator, split="train"),
            SynthDataset(clips=test, n_classes=spec.classes, generator=full.generator, split="test"),
        ))
    return tasks


def make_partition(cfg: RunConfig, pretext: SynthDataset):
    return dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, derive_seed(cfg.master_seed, "partition"))


def training_clips(cfg: RunConfig, partition) -> int:
    """Clips consumed by local SGD steps over a whole run (sum of batch sizes).

    Mirrors local_train's batching: shards are cut into batch_size chunks
    and a final chunk smaller than the task's minimum batch is dropped.
    """
    min_clips = 1 if cfg.ssl_task == "acop" else 2
    total = 0
    for r in range(1, cfg.rounds + 1):
        for client in sample_clients(cfg.n_clients, cfg.clients_per_round, r, cfg.master_seed):
            full, rest = divmod(len(partition.shards[client]), cfg.batch_size)
            total += cfg.local_epochs * (full * cfg.batch_size + (rest if rest >= min_clips else 0))
    return total
