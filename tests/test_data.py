"""Dataset generators and Dirichlet partition tests."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fassl.data import (
    PRETEXT_NOISE_STD,
    Clip,
    SynthDataset,
    _band_profile,
    _envelope,
    _make_task,
    dirichlet_partition,
    downstream_suite,
    label_entropy,
    partition_label_entropies,
    synth_dataset,
)
from fassl.errors import ContractError
from fassl.seeding import rng_for


def dataset_bytes(ds) -> bytes:
    return b"".join(c.features.tobytes() for c in ds.clips)


class TestSynthDataset:
    def test_same_seed_byte_identical(self):
        a = synth_dataset(3, 5, 8, 4, seed=42)
        b = synth_dataset(3, 5, 8, 4, seed=42)
        assert dataset_bytes(a) == dataset_bytes(b)
        assert [c.label for c in a.clips] == [c.label for c in b.clips]

    def test_counts_per_label(self):
        ds = synth_dataset(2, 50, 8, 4, seed=1)
        labels = ds.labels()
        assert len(ds) == 100
        assert (labels == 0).sum() == 50 and (labels == 1).sum() == 50

    def test_one_nn_on_raw_features_beats_90_percent(self):
        """Separability oracle: brute-force 1-NN on a held-out split."""
        ds = synth_dataset(8, 50, 32, 16, seed=7)
        x, y = ds.feature_matrix(), ds.labels()
        held_out = np.arange(len(y)) % 5 == 0
        x_train, y_train = x[~held_out], y[~held_out]
        x_test, y_test = x[held_out], y[held_out]
        correct = 0
        for i in range(len(y_test)):
            d = ((x_train - x_test[i]) ** 2).sum(axis=1)
            correct += int(y_train[int(np.argmin(d))] == y_test[i])
        assert correct / len(y_test) > 0.9

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ContractError):
            synth_dataset(0, 5, 8, 4, seed=0)

    def test_non_finite_noise_rejected_at_generation(self):
        with pytest.raises(ContractError, match="finite"):
            synth_dataset(2, 3, 8, 4, seed=0, noise_std=float("inf"))


class TestClip:
    def test_keeps_a_float64_matrix_as_given(self, rng):
        x = rng.normal(size=(8, 4))
        assert Clip(x, 0).features is x

    @pytest.mark.parametrize(
        "features",
        [
            [[0.0, 1.0], [2.0, 3.0]],
            np.zeros((8, 4), dtype=np.float32),
            np.zeros(8),
            np.zeros((2, 8, 4)),
        ],
        ids=["list", "float32", "1-d", "3-d"],
    )
    def test_rejects_anything_but_a_2d_float64_ndarray(self, features):
        with pytest.raises(ContractError, match="2-d float64"):
            Clip(features, 0)


class TestFeatureMatrix:
    @pytest.mark.parametrize("shape", [(32, 16), (7, 3), (1, 5)])
    def test_equals_stack_of_flattened_clips(self, shape):
        ds = synth_dataset(3, 7, *shape, seed=11)
        reference = np.stack([c.features.reshape(-1) for c in ds.clips])
        x = ds.feature_matrix()
        assert x.shape == reference.shape == (21, shape[0] * shape[1])
        assert x.dtype == reference.dtype and x.flags["C_CONTIGUOUS"]
        assert x.tobytes() == reference.tobytes()
        assert all(np.shares_memory(x, c.features) for c in ds.clips)

    def test_downstream_suite_matrices_equal_stack(self):
        for _, train, test in downstream_suite(3, 16, 8):
            for ds in (train, test):
                reference = np.stack([c.features.reshape(-1) for c in ds.clips])
                assert ds.feature_matrix().tobytes() == reference.tobytes()

    def test_mixed_shapes_rejected(self, rng):
        clips = [Clip(rng.normal(size=s), 0) for s in [(32, 16), (16, 16), (48, 16)]]
        with pytest.raises(ContractError, match="one shape"):
            SynthDataset(clips, 1, {}).feature_matrix()

    def test_mixed_shapes_rejected_at_construction(self, rng):
        clips = [Clip(rng.normal(size=s), 0) for s in [(8, 4), (8, 4), (4, 8)]]
        with pytest.raises(ContractError, match=r"one shape, got \(8, 4\) and \(4, 8\) \(row 2\)"):
            SynthDataset(clips, 1, {})

    @pytest.mark.parametrize("label, message", [
        (5, r"must lie in \[0, 2\), got 5"), (-1, r"must lie in \[0, 2\), got -1"),
        (1.0, "must be an integer, got 1.0"), (True, "must be an integer, got True"),
    ])
    def test_label_outside_the_classes_rejected_at_construction(self, rng, label, message):
        # dirichlet_partition gives such a label's rows no shard, and its repair then has no row to take
        clips = [Clip(rng.normal(size=(4, 2)), 0)] + [Clip(rng.normal(size=(4, 2)), label) for _ in range(7)]
        with pytest.raises(ContractError, match=rf"^label of row 1 {message}$"):
            SynthDataset(clips, 2, {})

    def test_labels_of_any_integer_type_in_range_accepted(self, rng):
        clips = [Clip(rng.normal(size=(4, 2)), label) for label in (0, np.int64(1), np.uint8(2))]
        assert SynthDataset(clips, 3, {}).labels().tolist() == [0, 1, 2]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            SynthDataset([], 1, {}).feature_matrix()

    @pytest.mark.parametrize("kind", ["synth", "bandprofile", "temporal", "texture"])
    def test_generated_clips_view_rows_of_the_matrix(self, kind):
        datasets = [synth_dataset(3, 4, 8, 4, seed=2)] if kind == "synth" else _make_task(kind, 2, 3, 4, 2, 8, 4)
        for ds in datasets:
            x = ds.feature_matrix()
            assert x is ds.feature_matrix() and not x.flags.writeable
            for i, clip in enumerate(ds.clips):
                assert type(clip.features) is np.ndarray
                assert np.shares_memory(x[i], clip.features)
                assert not clip.features.flags.writeable

    def test_clip_list_keeps_its_clips_and_copies_nothing(self):
        source = synth_dataset(2, 5, 8, 4, seed=3)
        picked = [c for j, c in enumerate(source.clips) if j % 5 < 3]
        ds = SynthDataset(picked, 2, source.generator)
        assert all(a is b for a, b in zip(ds.clips, picked)) and len(ds.clips) == len(picked)
        x = ds.feature_matrix()
        assert x.tobytes() == b"".join(c.features.tobytes() for c in picked)
        assert x.shape == (6, 32) and x.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(x, source.feature_matrix())
        assert ds.clip_array().tobytes() == x.tobytes() and ds.clip_array().shape == (6, 8, 4)

    @pytest.mark.parametrize("kind", ["synth", "bandprofile", "temporal", "texture"])
    def test_clip_array_views_the_matrix_as_clips(self, kind):
        datasets = [synth_dataset(3, 4, 8, 5, seed=2)] if kind == "synth" else _make_task(kind, 2, 3, 4, 2, 8, 5)
        for ds in datasets:
            clips = ds.clip_array()
            assert clips.shape == (len(ds), 8, 5) and clips.base is ds.feature_matrix()
            assert not clips.flags.writeable
            assert all(np.array_equal(clips[i], clip.features) for i, clip in enumerate(ds.clips))


def oracle_synth_dataset(n_classes, n_per_class, frames, bands, seed, noise_std=PRETEXT_NOISE_STD):
    """The per-clip loop synth_dataset replaced: one normal draw per clip, in clip order."""
    gen_rng = rng_for(seed, "synth-generator")
    profiles = np.stack([_band_profile(gen_rng, bands) for _ in range(n_classes)])
    envelopes = np.stack([_envelope(gen_rng, frames) for _ in range(n_classes)])
    clip_rng = rng_for(seed, "synth-clips")
    return [
        np.outer(envelopes[c], profiles[c]) + clip_rng.normal(0.0, noise_std, size=(frames, bands))
        for c in range(n_classes) for _ in range(n_per_class)
    ]


def oracle_make_task(kind, seed, n_classes, n_train, n_test, frames, bands):
    """The per-clip loop _make_task replaced, as (train, test) lists of feature arrays; texture's box by definition."""
    gen_rng = rng_for(seed, f"task-{kind}-generator")
    if kind == "bandprofile":
        profiles = np.stack([_band_profile(gen_rng, bands) for _ in range(n_classes)])
        env = _envelope(gen_rng, frames)

        def make(rng, c):
            return np.outer(env, profiles[c]) + rng.normal(0.0, 0.35, size=(frames, bands))

    elif kind == "temporal":
        profile = _band_profile(gen_rng, bands)
        envelopes = np.stack([_envelope(gen_rng, frames) for _ in range(n_classes)])

        def make(rng, c):
            return np.outer(envelopes[c], profile) + rng.normal(0.0, 0.25, size=(frames, bands))

    else:
        smooths = gen_rng.permutation(np.arange(1, n_classes + 1)) * 2
        scales = gen_rng.uniform(0.5, 1.0, size=n_classes)
        base = 0.3 * np.outer(_envelope(gen_rng, frames), _band_profile(gen_rng, bands))

        def smooth(row, width):
            """The box by definition in Python floats: band j sums padded[j + k] * (1 / width) for k = 0, 1, ..."""
            tap = 1 / width
            padded = [0.0] * (width // 2) + row + [0.0] * (width - width // 2 - 1)
            out = []
            for j in range(len(row)):
                acc = padded[j] * tap
                for k in range(1, width):
                    acc += padded[j + k] * tap
                out.append(acc)
            return out

        def make(rng, c):
            noise = rng.normal(0.0, 1.0, size=(frames, bands))
            width = min(max(int(smooths[c]), 1), bands)
            noise = np.array([smooth(row, width) for row in noise.tolist()])
            return base + scales[c] * noise

    def build(split, n_each):
        rng = rng_for(seed, f"task-{kind}-{split}")
        return [make(rng, c) for c in range(n_classes) for _ in range(n_each)]

    return build("train", n_train), build("test", n_test)


class TestGeneratorOracles:
    """The batched generators give the per-clip loops' bytes and labels."""

    @pytest.mark.parametrize("args", [
        (3, 5, 8, 4, 42, 0.1), (8, 25, 32, 16, 7, 0.9), (1, 1, 1, 1, 0, 0.1), (3, 5, 8, 4, 42, 0.0),
    ])
    def test_synth_dataset_matches_per_clip_loop(self, args):
        n_classes, n_per_class, frames, bands, seed, noise = args
        ds = synth_dataset(n_classes, n_per_class, frames, bands, seed=seed, noise_std=noise)
        expected = oracle_synth_dataset(n_classes, n_per_class, frames, bands, seed, noise)
        assert dataset_bytes(ds) == b"".join(f.tobytes() for f in expected)
        assert [c.label for c in ds.clips] == [i // n_per_class for i in range(len(expected))]

    @pytest.mark.parametrize("kind", ["bandprofile", "temporal", "texture"])
    @pytest.mark.parametrize("frames,bands", [(32, 16), (7, 3), (4, 40)])
    def test_make_task_matches_per_clip_loop(self, kind, frames, bands):
        train, test = _make_task(kind, 5, 4, 6, 3, frames, bands)
        expected_train, expected_test = oracle_make_task(kind, 5, 4, 6, 3, frames, bands)
        assert dataset_bytes(train) == b"".join(f.tobytes() for f in expected_train)
        assert dataset_bytes(test) == b"".join(f.tobytes() for f in expected_test)
        assert [c.label for c in train.clips] == [i // 6 for i in range(24)]
        assert [c.label for c in test.clips] == [i // 3 for i in range(12)]


# Every noise std the package, the tests and perfbench draw Gaussian noise with
NOISE_STDS = [0.0, 0.02, 0.05, 0.1, 0.25, 0.35, 0.6, 0.9, 1.0, 1.2]


@pytest.mark.parametrize("std", NOISE_STDS)
def test_scaled_standard_normal_gives_normals_bytes_and_stream(std):
    """data and ssl_tasks draw noise as standard_normal scaled in place, for normal(0.0, std)'s bytes.

    normal computes 0.0 + std * z, so the forms differ only at std 0, where a
    negative z leaves the scaled form a -0.0: data's fill adds a base >= +0.0
    to every element, which clears it, and two_view_batch draws no noise at 0.
    """
    size = (64, 1024)
    old, new = np.random.default_rng(11), np.random.default_rng(11)
    expected = old.normal(0.0, std, size=size)
    scaled = new.standard_normal(size)
    scaled *= std
    assert (scaled + 0.0 if std == 0.0 else scaled).tobytes() == expected.tobytes()
    assert new.bit_generator.state == old.bit_generator.state


class TestDownstreamSuite:
    def test_task_names_unique(self):
        tasks = downstream_suite(seed=0, frames=32, bands=16)
        names = [name for name, _, _ in tasks]
        assert len(names) == len(set(names)) and len(names) >= 3

    def test_generators_differ_from_pretext_and_each_other(self):
        pretext = synth_dataset(4, 5, 32, 16, seed=3)
        kinds = {pretext.generator["kind"][0]}
        for _, train, test in downstream_suite(seed=3, frames=32, bands=16):
            assert train.generator["kind"][0] == test.generator["kind"][0]
            kinds.add(train.generator["kind"][0])
        assert len(kinds) == 4  # pretext family plus three distinct task families

    def test_deterministic(self):
        a = downstream_suite(seed=5, frames=32, bands=16)
        b = downstream_suite(seed=5, frames=32, bands=16)
        for (_, tr_a, te_a), (_, tr_b, te_b) in zip(a, b):
            assert dataset_bytes(tr_a) == dataset_bytes(tr_b)
            assert dataset_bytes(te_a) == dataset_bytes(te_b)


# Digests of the pretext set's and every downstream split's matrix at a default run's sizes.
MATRIX_DIGESTS = """
import hashlib, json
from fassl.data import downstream_suite, synth_dataset
from fassl.orchestrator import RunConfig
cfg = RunConfig()
sets = {"pretext": synth_dataset(cfg.pretext_classes, cfg.pretext_per_class, cfg.frames, cfg.bands, cfg.master_seed)}
for name, train, test in downstream_suite(cfg.master_seed, cfg.frames, cfg.bands):
    sets[name + "-train"], sets[name + "-test"] = train, test
print(json.dumps({name: hashlib.sha256(ds.feature_matrix().tobytes()).hexdigest() for name, ds in sets.items()}))
"""


def test_generated_data_does_not_depend_on_the_blas_kernel():
    """Two fresh processes, one on the kernels OpenBLAS picks for this CPU and one on its Haswell kernels, generate
    the same bytes: no generator calls BLAS. On a Haswell host both run the same kernels."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"} | {"PYTHONPATH": path}
    procs = [
        subprocess.Popen([sys.executable, "-c", MATRIX_DIGESTS], stdout=subprocess.PIPE, text=True, env=env | extra)
        for extra in ({}, {"OPENBLAS_CORETYPE": "Haswell"})
    ]
    outputs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    host, haswell = (json.loads(out) for out in outputs)
    assert len(host) == 7
    assert [name for name in host if host[name] != haswell[name]] == []


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        ds = synth_dataset(3, 4, 8, 4, seed=2)
        part = dirichlet_partition(ds, n_clients=1, alpha=0.5, seed=0)
        assert sorted(part.shards[0]) == list(range(len(ds)))

    def test_disjoint_cover(self):
        ds = synth_dataset(4, 25, 8, 4, seed=2)
        part = dirichlet_partition(ds, n_clients=10, alpha=0.1, seed=1)
        seen = [cid for shard in part.shards for cid in shard]
        assert len(seen) == len(ds)
        assert set(seen) == set(range(len(ds)))

    def test_entropy_ordering_oracle(self):
        """Lower alpha -> more heterogeneity -> lower mean per-client entropy."""
        ds = synth_dataset(8, 25, 8, 4, seed=3)
        means = {}
        for alpha in (0.1, 100.0):
            vals = []
            for seed in range(20):
                part = dirichlet_partition(ds, n_clients=20, alpha=alpha, seed=seed)
                vals.append(np.mean(partition_label_entropies(ds, part)))
            means[alpha] = np.mean(vals)
        assert means[0.1] < means[100.0]

    def test_too_small_dataset_rejected(self):
        ds = synth_dataset(2, 2, 8, 4, seed=0)
        with pytest.raises(ContractError):
            dirichlet_partition(ds, n_clients=5, alpha=1.0, seed=0)

    def test_deterministic_in_seed(self):
        ds = synth_dataset(4, 25, 8, 4, seed=2)
        a = dirichlet_partition(ds, 10, 0.1, seed=9)
        b = dirichlet_partition(ds, 10, 0.1, seed=9)
        assert a.shards == b.shards

    @pytest.mark.parametrize("n_clients,alpha", [(3, 1e308), (3, 1.7e308), (100, 1e307)])
    def test_alpha_whose_draw_overflows_rejected(self, n_clients, alpha):
        ds = synth_dataset(2, 50, 4, 2, seed=0)
        with pytest.raises(ContractError, match="^" + re.escape(f"alpha={alpha} is too large for {n_clients} clients:")):
            dirichlet_partition(ds, n_clients, alpha, seed=0)

    def test_largest_alpha_that_normalizes_still_partitions(self):
        ds = synth_dataset(2, 50, 4, 2, seed=0)
        assert sum(dirichlet_partition(ds, 3, 1e307, seed=0).sizes()) == 100

    def test_clip_list_dataset_is_partitioned_by_rows(self):
        source = synth_dataset(3, 10, 4, 2, seed=1)
        ds = SynthDataset([c for j, c in enumerate(source.clips) if j % 10 < 4], 3, source.generator)
        part = dirichlet_partition(ds, 4, 0.5, seed=2)
        assert sorted(row for shard in part.shards for row in shard) == list(range(12))
        assert partition_label_entropies(ds, part) == [label_entropy(ds.labels()[s]) for s in part.shards]


def oracle_dirichlet_partition(dataset, n_clients, alpha, seed):
    """The per-repair max over all shards dirichlet_partition replaced, as (shards, repairs) of row indices."""
    rng = rng_for(seed, "dirichlet-partition")
    shards = [[] for _ in range(n_clients)]
    labels = dataset.labels()
    ids = np.arange(len(dataset))
    for c in range(dataset.n_classes):
        class_ids = ids[labels == c]
        if class_ids.size == 0:
            continue
        p = rng.dirichlet(np.full(n_clients, alpha))
        assign = rng.choice(n_clients, size=class_ids.size, p=p)
        for cid, client in zip(class_ids, assign):
            shards[int(client)].append(int(cid))
    repairs = 0
    while True:
        empties = [i for i, s in enumerate(shards) if not s]
        if not empties:
            break
        donor = max(range(n_clients), key=lambda i: (len(shards[i]), -i))
        shards[empties[0]].append(shards[donor].pop())
        repairs += 1
    return shards, repairs


@pytest.mark.parametrize("n_clients,alpha", [(100, 0.1), (100, 0.02), (60, 0.05), (200, 0.01)])
def test_partition_repair_matches_max_over_shards_oracle(n_clients, alpha):
    ds = synth_dataset(10, 20, 4, 2, seed=4)
    repairs = 0
    for seed in range(12):
        expected, n = oracle_dirichlet_partition(ds, n_clients, alpha, seed)
        assert dirichlet_partition(ds, n_clients, alpha, seed).shards == expected
        repairs += n
    assert repairs >= 100  # every setting leaves many shards empty, so the repair runs often


@settings(max_examples=40, deadline=None)
@given(
    n_clients=st.integers(min_value=1, max_value=30),
    alpha=st.floats(min_value=0.05, max_value=200.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_partition_invariants_hold_for_all_inputs(n_clients, alpha, seed):
    ds = synth_dataset(5, 12, 8, 4, seed=11)
    part = dirichlet_partition(ds, n_clients, alpha, seed)
    assert len(part.shards) == n_clients
    assert all(len(s) >= 1 for s in part.shards)
    seen = [cid for shard in part.shards for cid in shard]
    assert len(seen) == len(set(seen)) == len(ds)


class TestLabelEntropy:
    def test_single_class_zero(self):
        assert label_entropy(np.array([3, 3, 3])) == 0.0

    def test_uniform_two_classes(self):
        np.testing.assert_allclose(label_entropy(np.array([0, 1, 0, 1])), np.log(2))
