"""Synthetic audio-like datasets and the non-iid client partitioner.

Clips are frame x band matrices of log-energy-like values. Four generator
families share one path: ``_family`` draws a family's parameters from its
generator stream, and ``_generate`` draws a split's noise and fills each
class's block in place. The pretext family and the ``bandprofile`` and
``temporal`` tasks are a band profile x temporal envelope product; the
pretext's classes each draw both, ``bandprofile``'s classes their own
profile under one shared envelope, and ``temporal``'s their own envelope
over one shared profile. ``texture``'s classes differ in how their noise
is smoothed and scaled: a class's box smoothing is one zero-padded sum of
shifted slices in kernel order over its whole block, with no BLAS call, so
no generated byte depends on the BLAS kernel. So the downstream suite holds
heterogeneous tasks whose generators are disjoint from the pretext set's.

A generated dataset owns one read-only (n, frames*bands) matrix: row i is
clip i, and its label is ``labels()[i]``. A split's noise is one ``normal``
call straight into that matrix (the same stream and bytes as one call per
clip), and the whole matrix is checked for finiteness once.
Training and evaluation read the rows: a partition's shards are row
indices, a client trains on ``clip_array()`` rows taken by its shard, and
evaluation encodes the matrix as it is. Each ``Clip`` is a plain float64
view of its row, not a tensor, since nothing differentiates a clip. Clip
values reach a computation only through a ``Tensor`` that checks them
again: a training batch in ``ssl_tasks``, an encoded dataset in
``evaluator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import COUNT, NON_NEGATIVE, POSITIVE, ContractError, check
from .seeding import rng_for

PRETEXT_NOISE_STD = 0.1


@dataclass
class Clip:
    """One synthetic clip: a (frames, bands) float64 feature array and a class label.

    A generated clip's features are the read-only view of its row in its
    dataset's matrix. Construction checks the type only: anything but a 2-d
    float64 ndarray is a ContractError, and nothing is converted, so a
    float32 clip cannot silently change the view arithmetic. Finiteness is
    checked where values are used: once per generated matrix, and through
    the ``Tensor`` of every batch and every encoded dataset.
    """

    features: np.ndarray
    label: int

    def __post_init__(self):
        f = self.features
        if not isinstance(f, np.ndarray) or f.ndim != 2 or f.dtype != np.float64:
            what = f"{f.ndim}-d {f.dtype} array" if isinstance(f, np.ndarray) else type(f).__name__
            raise ContractError(f"clip features must be a 2-d float64 ndarray, got a {what}")


@dataclass
class SynthDataset:
    """Clips plus, for a generated dataset, the one matrix that holds their features.

    The generators fill one C-contiguous, read-only (n, frames*bands) matrix
    and pass it as ``_features``: row i is clip i's features flattened
    row-major, and the clip's feature array is a view of that row, so
    ``feature_matrix`` and ``clip_array`` return the matrix without copying.
    A dataset built from any other clip list keeps the clips as given, so a
    selection from a generated dataset goes on viewing that dataset's rows
    and copies nothing; its ``feature_matrix`` stacks them into a new matrix
    on each call. Clips of mixed shapes are a ContractError at construction.
    """

    clips: list[Clip]
    n_classes: int
    generator: dict[str, np.ndarray]
    split: str = "train"
    _features: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._features is None and self.clips:
            shape = self.clips[0].features.shape
            for row, c in enumerate(self.clips):
                if c.features.shape != shape:
                    raise ContractError(
                        f"a dataset needs clips of one shape, got {shape} and {c.features.shape} (row {row})"
                    )

    def __len__(self) -> int:
        return len(self.clips)

    def labels(self) -> np.ndarray:
        return np.array([c.label for c in self.clips], dtype=np.int64)

    def feature_matrix(self) -> np.ndarray:
        """All clips flattened row-major into an (n, frames*bands) matrix; a generated dataset's own, read-only."""
        if not self.clips:
            raise ContractError("feature_matrix needs at least one clip")
        if self._features is not None:
            return self._features
        return np.concatenate([c.features for c in self.clips]).reshape(len(self.clips), -1)

    def clip_array(self) -> np.ndarray:
        """The (n, frames, bands) view of ``feature_matrix``: row i is clip i's features."""
        return self.feature_matrix().reshape(len(self.clips), *self.clips[0].features.shape)


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


# kind: (generator code, noise std, the ingredients each class draws for itself); the pretext's noise std is
# synth_dataset's. A profile x envelope family draws one shared copy of an ingredient its classes do not own;
# texture's classes differ in how their noise is smoothed and scaled instead.
_FAMILIES = {
    "pretext": (0, None, ("profile", "envelope")),
    "bandprofile": (1, 0.35, ("profile",)),
    "temporal": (2, 0.25, ("envelope",)),
    "texture": (3, 1.0, ()),
}


def _family(kind: str, rng: np.random.Generator, n_classes: int, frames: int, bands: int, noise_std: float | None):
    """A family's noise std, its class fill and its generator record, drawn from rng.

    Every generated set passes here, so its clip shape and noise std are
    checked here. ``fill(block, c)`` turns class c's (n_each, frames, bands)
    block of raw noise into its clips in place. A profile x envelope family
    draws its profiles before its envelopes.
    """
    if kind not in _FAMILIES:
        raise ContractError(f"unknown task kind {kind!r}")
    code, family_std, own = _FAMILIES[kind]
    noise_std = family_std if noise_std is None else noise_std
    for name, count in (("frames", frames), ("bands", bands)):
        check(name, count, COUNT)
    check("noise_std", noise_std, NON_NEGATIVE)
    if kind == "texture":
        smooths = rng.permutation(np.arange(1, n_classes + 1)) * 2
        scales = rng.uniform(0.5, 1.0, size=n_classes)
        base = 0.3 * np.outer(_envelope(rng, frames), _band_profile(rng, bands))
        generator = {"smooths": smooths.astype(float), "scales": scales}

        def fill(block, c):
            # The box is at most a clip's bands wide: a wider one would only add padded zeros to each band's sum
            # and shrink it by its larger width, and the cap keeps the bytes of tasks with fewer bands than smooths.
            width = min(max(int(smooths[c]), 1), bands)
            tap = 1.0 / width
            # A zero-padded box sum in kernel order: band j is sum(padded[j + k] * tap for k in 0..width-1), the band
            # axis padded as np.correlate(..., "same") aligns a box. Every frame of every clip at once, in shifted
            # slices and elementwise adds with no BLAS call, so no kernel changes a byte.
            padded = np.zeros((*block.shape[:-1], bands + width - 1))
            padded[..., width // 2 : width // 2 + bands] = block
            np.multiply(padded[..., :bands], tap, out=block)
            for k in range(1, width):
                block += padded[..., k : k + bands] * tap
            block *= scales[c]
            block += base

    else:
        profiles = np.stack([_band_profile(rng, bands) for _ in range(n_classes if "profile" in own else 1)])
        envelopes = np.stack([_envelope(rng, frames) for _ in range(n_classes if "envelope" in own else 1)])
        bases = envelopes[:, :, None] * profiles[:, None, :]  # each class's np.outer; a shared ingredient broadcasts
        generator = {"profiles": profiles, "envelopes": envelopes}

        def fill(block, c):
            block += bases[c]

    generator.update(kind=np.array([float(code)]), noise_std=np.array([noise_std]))
    return noise_std, fill, generator


def _generate(rng, family, n_classes, n_each, frames, bands, split) -> SynthDataset:
    """A split of n_each clips per class: rows of classes 0, 1, ... in equal runs.

    Every clip's noise is one ``normal`` draw in clip order, filled in place
    class by class. The matrix is checked for finiteness once and becomes
    read-only, and every clip's features are the (frames, bands) view of its row.
    """
    noise_std, fill, generator = family
    matrix = rng.normal(0.0, noise_std, size=(n_classes * n_each, frames * bands))
    blocks = matrix.reshape(n_classes, n_each, frames, bands)
    for c in range(n_classes):
        fill(blocks[c], c)
    if not np.isfinite(matrix).all():
        raise ContractError("generated clip features must be finite (got NaN or Inf)")
    matrix.flags.writeable = False
    clips = [Clip(features=row, label=i // n_each) for i, row in enumerate(matrix.reshape(-1, frames, bands))]
    return SynthDataset(clips=clips, n_classes=n_classes, generator=generator, split=split, _features=matrix)


def synth_dataset(
    n_classes: int, n_per_class: int, frames: int, bands: int, seed: int, noise_std: float = PRETEXT_NOISE_STD
) -> SynthDataset:
    """Pretext-style generator: per-class band profile x temporal envelope + noise."""
    for name, count in (("n_classes", n_classes), ("n_per_class", n_per_class)):
        check(name, count, COUNT)
    family = _family("pretext", rng_for(seed, "synth-generator"), n_classes, frames, bands, noise_std)
    return _generate(rng_for(seed, "synth-clips"), family, n_classes, n_per_class, frames, bands, "train")


def _make_task(
    kind: str, seed: int, n_classes: int, n_train: int, n_test: int, frames: int, bands: int
) -> tuple[SynthDataset, SynthDataset]:
    """A train/test pair of one task family, each split from its own stream."""
    family = _family(kind, rng_for(seed, f"task-{kind}-generator"), n_classes, frames, bands, None)
    return tuple(
        _generate(rng_for(seed, f"task-{kind}-{split}"), family, n_classes, n_each, frames, bands, split)
        for split, n_each in (("train", n_train), ("test", n_test))
    )


# Each downstream task's classes and train clips per class; retrieval's k is at most a task's train clips.
SUITE_CLASSES = 4
SUITE_TRAIN_PER_CLASS = 30
SUITE_TRAIN_CLIPS = SUITE_CLASSES * SUITE_TRAIN_PER_CLASS


def downstream_suite(seed: int, frames: int, bands: int) -> list[tuple[str, SynthDataset, SynthDataset]]:
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
    """Disjoint shards of dataset row indices (plain ints), one per client; their union covers the dataset."""

    shards: list[list[int]]

    def sizes(self) -> list[int]:
        return [len(s) for s in self.shards]


def dirichlet_partition(dataset: SynthDataset, n_clients: int, alpha: float, seed: int) -> Partition:
    """Class-wise Dirichlet split: per class, client proportions ~ Dir(alpha).

    Lower alpha concentrates each class on few clients (more heterogeneity).
    Each class's rows are read from ``labels()``. Empty shards are repaired
    by stealing one row from the largest shard so every client holds data.
    An alpha so large that the draw overflows (1e307 over 100 clients) gives
    proportions that do not sum to 1, which is a ContractError.
    """
    check("n_clients", n_clients, COUNT)
    check("alpha", alpha, POSITIVE)
    if len(dataset) < n_clients:
        raise ContractError(f"dataset of {len(dataset)} clips cannot cover {n_clients} clients")
    rng = rng_for(seed, "dirichlet-partition")
    shards: list[list[int]] = [[] for _ in range(n_clients)]
    labels = dataset.labels()
    for c in range(dataset.n_classes):
        rows = np.flatnonzero(labels == c)
        if rows.size == 0:
            continue
        p = rng.dirichlet(np.full(n_clients, alpha))
        if not np.isfinite(p).all() or abs(p.sum() - 1.0) > 1e-8:  # choice() allows sqrt(eps), 1.5e-8
            raise ContractError(f"alpha={alpha} is too large for {n_clients} clients: its proportions do not sum to 1")
        assign = rng.choice(n_clients, size=rows.size, p=p)
        for row, client in zip(rows.tolist(), assign.tolist()):
            shards[client].append(row)
    # Repair: every shard must be non-empty. Empty shards are filled in index
    # order, each from the largest shard (lowest index on ties). A donor never
    # empties: while a shard is empty the others hold >= n_clients rows, so
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
    labels = dataset.labels()
    return [label_entropy(labels[shard]) for shard in partition.shards]
