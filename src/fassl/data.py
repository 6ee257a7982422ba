"""Synthetic audio-like datasets and the non-iid client partitioner.

Clips are frame x band matrices of log-energy-like values. Each generator
family builds class identity from a different ingredient (band profile,
temporal envelope, or noise texture), which gives the downstream suite
heterogeneous tasks whose generators are disjoint from the pretext set's.

A generated dataset owns one read-only (n, frames*bands) matrix, and each
clip's features are the (frames, bands) view of its row: a plain float64
array, not a tensor, since nothing differentiates a clip. The generators
draw a split's noise in one ``normal`` call straight into that matrix (the
same stream and bytes as one call per clip), check the whole matrix for
finiteness once, and wrap its rows without copying, so evaluation reads the
matrix as it is instead of re-concatenating the clips. Clip values reach a
computation only through a ``Tensor`` that checks them again: a training
batch in ``ssl_tasks``, an encoded dataset in ``evaluator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .seeding import rng_for

PRETEXT_NOISE_STD = 0.1


@dataclass
class Clip:
    """One synthetic clip: a (frames, bands) float64 feature array, a class label, and an id.

    A generated clip's features are the read-only view of its row in its
    dataset's matrix. Construction checks the type only: anything but a 2-d
    float64 ndarray is a ContractError, and nothing is converted, so a
    float32 clip cannot silently change the view arithmetic. Finiteness is
    checked where values are used: once per generated matrix, and through
    the ``Tensor`` of every batch and every encoded dataset.
    """

    features: np.ndarray
    label: int
    clip_id: int

    def __post_init__(self):
        f = self.features
        if not isinstance(f, np.ndarray) or f.ndim != 2 or f.dtype != np.float64:
            what = f"{f.ndim}-d {f.dtype} array" if isinstance(f, np.ndarray) else type(f).__name__
            raise ContractError(f"clip {self.clip_id} features must be a 2-d float64 ndarray, got a {what}")


@dataclass
class SynthDataset:
    """Clips plus, for a generated dataset, the one matrix that holds their features.

    The generators fill one C-contiguous, read-only (n, frames*bands) matrix
    and pass it as ``_features``: row i is clip i's features flattened
    row-major, and the clip's feature array is a view of that row, so
    ``feature_matrix`` returns the matrix without copying. A dataset built
    from any other clip list keeps the clips as given, so a selection from a
    generated dataset goes on viewing that dataset's rows and copies nothing;
    its ``feature_matrix`` stacks them into a new matrix on each call. Clips
    of mixed shapes are a ContractError at construction.
    """

    clips: list[Clip]
    n_classes: int
    generator: dict[str, np.ndarray]
    split: str = "train"
    _by_id: dict[int, Clip] = field(default_factory=dict, repr=False)
    _features: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._features is None and self.clips:
            shape = self.clips[0].features.shape
            for c in self.clips:
                if c.features.shape != shape:
                    raise ContractError(
                        f"a dataset needs clips of one shape, got {shape} and {c.features.shape} (clip {c.clip_id})"
                    )
        self._by_id = {c.clip_id: c for c in self.clips}
        if len(self._by_id) != len(self.clips):
            raise ContractError("duplicate clip_ids in dataset")

    def __len__(self) -> int:
        return len(self.clips)

    def by_id(self, clip_id: int) -> Clip:
        return self._by_id[clip_id]

    def labels(self) -> np.ndarray:
        return np.array([c.label for c in self.clips], dtype=np.int64)

    def feature_matrix(self) -> np.ndarray:
        """All clips flattened row-major into an (n, frames*bands) matrix; a generated dataset's own, read-only."""
        if not self.clips:
            raise ContractError("feature_matrix needs at least one clip")
        if self._features is not None:
            return self._features
        return np.concatenate([c.features for c in self.clips]).reshape(len(self.clips), -1)


def _class_block_dataset(matrix, frames, bands, n_classes, id_offset, generator, split) -> SynthDataset:
    """A generated dataset over matrix: equal runs of classes 0, 1, ... with consecutive clip ids.

    The matrix is checked for finiteness once and becomes read-only, and
    every clip's features are the (frames, bands) view of its row.
    """
    if not np.isfinite(matrix).all():
        raise ContractError("generated clip features must be finite (got NaN or Inf)")
    matrix.flags.writeable = False
    per_class = len(matrix) // n_classes
    clips = [
        Clip(features=row, label=i // per_class, clip_id=id_offset + i)
        for i, row in enumerate(matrix.reshape(len(matrix), frames, bands))
    ]
    return SynthDataset(clips=clips, n_classes=n_classes, generator=generator, split=split, _features=matrix)


def resample_frames(features: np.ndarray, target_frames: int) -> np.ndarray:
    """Nearest-frame resampling along the time axis to a fixed frame count.

    Identity when the frame count already matches, so unaugmented clips pass
    through bit-exactly.
    """
    frames = features.shape[0]
    if frames == target_frames:
        return features
    idx = (np.arange(target_frames) * frames) // target_frames
    return features[idx]


def _band_profile(rng: np.random.Generator, bands: int) -> np.ndarray:
    """Smooth band-energy profile: mixture of two Gaussian bumps."""
    centers = rng.uniform(0, bands, size=2)
    widths = rng.uniform(bands / 12.0, bands / 5.0, size=2)
    amps = rng.uniform(0.7, 1.3, size=2)
    b = np.arange(bands, dtype=np.float64)
    prof = np.zeros(bands)
    for c, w, a in zip(centers, widths, amps):
        prof += a * np.exp(-0.5 * ((b - c) / w) ** 2)
    return prof


def _envelope(rng: np.random.Generator, frames: int) -> np.ndarray:
    """Periodic temporal envelope 1 + depth*sin(2*pi*freq*t/frames + phase)."""
    freq = rng.integers(1, 5)
    phase = rng.uniform(0, 2 * np.pi)
    depth = rng.uniform(0.3, 0.7)
    t = np.arange(frames, dtype=np.float64)
    return 1.0 + depth * np.sin(2 * np.pi * freq * t / frames + phase)


def synth_dataset(
    n_classes: int,
    n_per_class: int,
    frames: int,
    bands: int,
    seed: int,
    split: str = "train",
    id_offset: int = 0,
    noise_std: float = PRETEXT_NOISE_STD,
) -> SynthDataset:
    """Pretext-style generator: per-class band profile x temporal envelope + noise."""
    if min(n_classes, n_per_class, frames, bands) < 1:
        raise ContractError("n_classes, n_per_class, frames, bands must all be >= 1")
    gen_rng = rng_for(seed, "synth-generator")
    profiles = np.stack([_band_profile(gen_rng, bands) for _ in range(n_classes)])
    envelopes = np.stack([_envelope(gen_rng, frames) for _ in range(n_classes)])
    # every clip's noise in one draw, in clip order, then its class's base added in place
    matrix = rng_for(seed, "synth-clips").normal(0.0, noise_std, size=(n_classes * n_per_class, frames * bands))
    blocks = matrix.reshape(n_classes, n_per_class, frames, bands)
    for c in range(n_classes):
        blocks[c] += np.outer(envelopes[c], profiles[c])
    generator = {
        "kind": np.array([0.0]),  # 0 = profile-x-envelope mixture family
        "profiles": profiles,
        "envelopes": envelopes,
        "noise_std": np.array([noise_std]),
    }
    return _class_block_dataset(matrix, frames, bands, n_classes, id_offset, generator, split)


def _make_task(
    kind: str,
    seed: int,
    n_classes: int,
    n_train: int,
    n_test: int,
    frames: int,
    bands: int,
) -> tuple[SynthDataset, SynthDataset]:
    """A train/test pair of one task family; ``fill`` turns a class's block of raw noise into its clips in place."""
    gen_rng = rng_for(seed, f"task-{kind}-generator")
    if kind == "bandprofile":
        profiles = np.stack([_band_profile(gen_rng, bands) for _ in range(n_classes)])
        shared_env = _envelope(gen_rng, frames)
        generator = {"kind": np.array([1.0]), "profiles": profiles, "envelope": shared_env}
        noise_std = 0.35

        def fill(block, c):
            block += np.outer(shared_env, profiles[c])

    elif kind == "temporal":
        shared_profile = _band_profile(gen_rng, bands)
        envelopes = np.stack([_envelope(gen_rng, frames) for _ in range(n_classes)])
        generator = {"kind": np.array([2.0]), "profile": shared_profile, "envelopes": envelopes}
        noise_std = 0.25

        def fill(block, c):
            block += np.outer(envelopes[c], shared_profile)

    elif kind == "texture":
        smooths = gen_rng.permutation(np.arange(1, n_classes + 1)) * 2
        scales = gen_rng.uniform(0.5, 1.0, size=n_classes)
        base = 0.3 * np.outer(_envelope(gen_rng, frames), _band_profile(gen_rng, bands))
        generator = {"kind": np.array([3.0]), "smooths": smooths.astype(float), "scales": scales}
        noise_std = 1.0

        def fill(block, c):
            width = min(max(int(smooths[c]), 1), bands)  # convolve("same") needs kernel <= signal
            kernel = np.ones(width) / width
            for row in block.reshape(-1, bands):  # every frame of every clip, smoothed along its bands
                row[:] = np.convolve(row, kernel, mode="same")
            block *= scales[c]
            block += base

    else:
        raise ContractError(f"unknown task kind {kind!r}")

    def build(split: str, n_each: int, id_offset: int) -> SynthDataset:
        rng = rng_for(seed, f"task-{kind}-{split}")
        matrix = rng.normal(0.0, noise_std, size=(n_classes * n_each, frames * bands))
        blocks = matrix.reshape(n_classes, n_each, frames, bands)
        for c in range(n_classes):
            fill(blocks[c], c)
        return _class_block_dataset(matrix, frames, bands, n_classes, id_offset, generator, split)

    train = build("train", n_train, 0)
    test = build("test", n_test, n_classes * n_train)
    return train, test


# Each downstream task's classes and clips per class; retrieval's k is at most
# SUITE_CLASSES * SUITE_TRAIN_PER_CLASS, the train clips of a task.
SUITE_CLASSES = 4
SUITE_TRAIN_PER_CLASS = 30


def downstream_suite(
    seed: int, frames: int = 32, bands: int = 16
) -> list[tuple[str, SynthDataset, SynthDataset]]:
    """Three retrieval tasks whose class identity lives in different ingredients."""
    tasks = []
    for kind in ("bandprofile", "temporal", "texture"):
        train, test = _make_task(
            kind, seed, n_classes=SUITE_CLASSES, n_train=SUITE_TRAIN_PER_CLASS, n_test=10, frames=frames, bands=bands
        )
        tasks.append((kind, train, test))
    return tasks


@dataclass
class Partition:
    """Disjoint clip-id shards, one per client; union covers the dataset."""

    shards: list[list[int]]

    def sizes(self) -> list[int]:
        return [len(s) for s in self.shards]


def dirichlet_partition(dataset: SynthDataset, n_clients: int, alpha: float, seed: int) -> Partition:
    """Class-wise Dirichlet split: per class, client proportions ~ Dir(alpha).

    Lower alpha concentrates each class on few clients (more heterogeneity).
    Empty shards are repaired by stealing one clip from the largest shard so
    every client holds data.
    """
    if n_clients < 1:
        raise ContractError(f"n_clients must be >= 1, got {n_clients}")
    if alpha <= 0:
        raise ContractError(f"alpha must be positive, got {alpha}")
    if len(dataset) < n_clients:
        raise ContractError(f"dataset of {len(dataset)} clips cannot cover {n_clients} clients")
    rng = rng_for(seed, "dirichlet-partition")
    shards: list[list[int]] = [[] for _ in range(n_clients)]
    labels = dataset.labels()
    ids = np.array([c.clip_id for c in dataset.clips], dtype=np.int64)
    for c in range(dataset.n_classes):
        class_ids = ids[labels == c]
        if class_ids.size == 0:
            continue
        p = rng.dirichlet(np.full(n_clients, alpha))
        assign = rng.choice(n_clients, size=class_ids.size, p=p)
        for cid, client in zip(class_ids, assign):
            shards[int(client)].append(int(cid))
    # Repair: every shard must be non-empty. Empty shards are filled in index
    # order, each from the largest shard (lowest index on ties). A donor never
    # empties: while a shard is empty the others hold >= n_clients clips, so
    # the largest holds at least two.
    sizes = np.array([len(s) for s in shards])
    for empty in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        shards[empty].append(shards[donor].pop())
        sizes[donor] -= 1
        sizes[empty] = 1
    return Partition(shards=shards)


def label_entropy(labels: np.ndarray) -> float:
    """Shannon entropy (nats) of the label distribution; 0 for a single class."""
    if len(labels) == 0:
        return 0.0
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    q = counts / counts.sum()
    return float(-(q * np.log(q)).sum() + 0.0)  # +0.0 normalizes -0.0


def partition_label_entropies(dataset: SynthDataset, partition: Partition) -> list[float]:
    return [
        label_entropy(np.array([dataset.by_id(cid).label for cid in shard]))
        for shard in partition.shards
    ]
