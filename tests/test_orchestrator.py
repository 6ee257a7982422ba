"""Round loop tests: sampling, local training, state advance, determinism."""

import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fassl.aggregation import STRATEGY_KINDS, ClientUpdate, Strategy, aggregate, beta_loss, scope_apply
from fassl.autodiff import Tensor, l2_normalize_rows
from fassl.config import apply_overrides, default_spec
from fassl.data import SUITE_TRAIN_CLIPS, SynthDataset, dirichlet_partition, downstream_suite, synth_dataset
from fassl.errors import ConfigError, ContractError
from fassl.evaluator import OptimaTracker, TaskAccuracy, evaluate_global, knn_retrieval_accuracy
from fassl.model import ParamTree, init_encoder, sgd_step, split
from fassl.orchestrator import (
    CSV_HEADER,
    RunConfig,
    RunSink,
    initial_state,
    local_train,
    read_results_csv,
    run,
    run_round,
    sample_clients,
)
from fassl.seeding import derive_seed
from fassl.ssl_tasks import TASKS, AugmentPolicy, barlow_twins_loss, nt_xent_loss

from conftest import BAD_BATCH_MESSAGE, BAD_BATCHES, SCOPES, params_bytes

SMALL = RunConfig(
    rounds=6,
    n_clients=8,
    clients_per_round=3,
    eval_every=2,
    batch_size=16,
    pretext_classes=4,
    pretext_per_class=12,
    frames=16,
    bands=8,
    hidden_dim=12,
    embed_dim=8,
    projection_dim=8,
    master_seed=21,
)


def small_world(cfg=SMALL):
    """The pretext set and downstream suite ``run`` derives from the config."""
    pretext = synth_dataset(
        cfg.pretext_classes, cfg.pretext_per_class, cfg.frames, cfg.bands,
        seed=derive_seed(cfg.master_seed, "pretext-data"),
    )
    tasks = downstream_suite(derive_seed(cfg.master_seed, "downstream-data"), cfg.frames, cfg.bands)
    return pretext, tasks


@pytest.fixture
def sink(tmp_path):
    """A sink writing into the test's directory, its results file closed at teardown."""
    opened = RunSink(tmp_path)
    yield opened
    opened.close_csv()


# The fewest frames a clip and clips a batch of each task may have, worked
# out from the losses (acop cuts a clip into 3 segments of >= 2 frames; a
# pair loss needs two clips), not read from ssl_tasks.TASKS.
LEAST_FRAMES = {"acop": 6, "simclr": 2, "barlow_twins": 2}
LEAST_CLIPS = {"acop": 1, "simclr": 2, "barlow_twins": 2}

# the head each pretext task's loss never reads
UNREAD_HEAD = {"simclr": "head.acop.", "barlow_twins": "head.acop.", "acop": "head.proj."}


class TestSampleClients:
    def test_full_pool_when_s_equals_n(self):
        assert sample_clients(5, 5, round_idx=1, master_seed=0) == [0, 1, 2, 3, 4]

    def test_deterministic_per_round_and_seed(self):
        a = sample_clients(100, 10, round_idx=3, master_seed=9)
        b = sample_clients(100, 10, round_idx=3, master_seed=9)
        assert a == b
        assert a != sample_clients(100, 10, round_idx=4, master_seed=9)

    def test_sorted_distinct(self):
        ids = sample_clients(50, 20, round_idx=2, master_seed=1)
        assert ids == sorted(set(ids))

    def test_selection_frequency_binomial_bounds(self):
        """Over 1000 rounds with N=100, s=10, each client lands in [50, 150]."""
        counts = np.zeros(100, dtype=int)
        for rnd in range(1, 1001):
            for cid in sample_clients(100, 10, rnd, master_seed=123):
                counts[cid] += 1
        assert counts.min() >= 50 and counts.max() <= 150

    def test_invalid_s_rejected(self):
        with pytest.raises(ContractError):
            sample_clients(5, 6, 1, 0)


class TestLocalTrain:
    def _shard(self, n=10):
        pretext, _ = small_world()
        return pretext.clip_array()[:n]

    def test_lr_semantics_zero_step_equivalent(self):
        """With an empty schedule (batch too small for pairs), params are untouched."""
        cfg = replace(SMALL, ssl_task="simclr")
        state = initial_state(cfg)
        upd, _, steps = local_train(self._shard(1), state.global_params, ParamTree.empty(), cfg, 0, 1)
        assert steps == 0
        assert upd.params.equal_bytes(state.global_params)
        assert upd.mean_loss == 0.0

    def test_tiny_lr_params_near_initialization(self):
        cfg = replace(SMALL, lr=1e-12)
        state = initial_state(cfg)
        upd, _, steps = local_train(self._shard(), state.global_params, ParamTree.empty(), cfg, 0, 1)
        assert steps > 0
        for name, t in upd.params.items():
            np.testing.assert_allclose(t.data, state.global_params.get(name).data, atol=1e-9)

    def test_bit_identical_given_same_inputs(self):
        cfg = SMALL
        state = initial_state(cfg)
        a = local_train(self._shard(), state.global_params, ParamTree.empty(), cfg, 4, 2)
        b = local_train(self._shard(), state.global_params, ParamTree.empty(), cfg, 4, 2)
        assert params_bytes(a[0].params) == params_bytes(b[0].params)
        assert a[0].mean_loss == b[0].mean_loss

    def test_more_epochs_lower_loss_on_separable_shard(self):
        """Training oracle: mean loss after E=5 is below mean loss after E=1."""
        pretext, _ = small_world()
        shard = pretext.clip_array()[:24]
        cfg1 = replace(SMALL, local_epochs=1, lr=0.1)
        cfg5 = replace(SMALL, local_epochs=5, lr=0.1)
        state = initial_state(cfg1)
        loss1 = local_train(shard, state.global_params, ParamTree.empty(), cfg1, 0, 1)[0].mean_loss
        loss5 = local_train(shard, state.global_params, ParamTree.empty(), cfg5, 0, 1)[0].mean_loss
        assert loss5 < loss1

    @pytest.mark.parametrize("shard", BAD_BATCHES.values(), ids=BAD_BATCHES.keys())
    def test_bad_shard_rejected(self, shard):
        state = initial_state(SMALL)
        with pytest.raises(ContractError, match="^client 3's shard " + BAD_BATCH_MESSAGE):
            local_train(shard, state.global_params, ParamTree.empty(), SMALL, 3, 1)

    def test_backbone_scope_returns_backbone_update_and_head(self):
        cfg = replace(SMALL, scope="backbone")
        state = initial_state(cfg)
        trans, heads = split(state.global_params, "backbone")
        upd, retained, _ = local_train(self._shard(), trans, heads, cfg, 0, 1)
        assert all(n.startswith("backbone.") for n in upd.params.names())
        assert all(not n.startswith("backbone.") for n in retained.names())


    @pytest.mark.parametrize("ssl_task", ["simclr", "barlow_twins", "acop"])
    @pytest.mark.parametrize("scope", ["full", "backbone"])
    def test_inputs_keep_their_bytes(self, ssl_task, scope):
        cfg = replace(SMALL, ssl_task=ssl_task, scope=scope)
        state = initial_state(cfg)
        trans, head = split(state.global_params, scope)  # head is the empty tree in full scope
        initial_heads = split(state.global_params, "backbone")[1]
        before = (params_bytes(state.global_params), params_bytes(initial_heads))
        upd, retained, steps = local_train(self._shard(), trans, head, cfg, 0, 1)
        assert steps > 0
        assert (params_bytes(state.global_params), params_bytes(initial_heads)) == before
        assert not upd.params.equal_bytes(trans)

    @pytest.mark.parametrize("ssl_task", ["simclr", "barlow_twins", "acop"])
    @pytest.mark.parametrize("scope", ["full", "backbone"])
    def test_unread_head_shares_the_input_arrays(self, ssl_task, scope):
        """The head the loss never reads is handed back as it came in; everything else is trained."""
        cfg = replace(SMALL, ssl_task=ssl_task, scope=scope)
        state = initial_state(cfg)
        trans, heads = split(state.global_params, scope)
        upd, retained, steps = local_train(self._shard(), trans, heads, cfg, 0, 1)  # heads is the empty tree in full scope
        assert steps > 0
        returned = list(upd.params.items()) + list(retained.items())
        assert sorted(name for name, _ in returned) == state.global_params.names()
        for name, t in returned:
            shared = np.shares_memory(t.data, state.global_params.get(name).data)
            assert shared == name.startswith(UNREAD_HEAD[ssl_task]), name

    def test_run_round_leaves_previous_global_bytes(self, sink):
        pretext, tasks = small_world()
        cfg = replace(SMALL, scope="backbone")
        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, derive_seed(cfg.master_seed, "partition"))
        state = initial_state(cfg)
        for _ in range(2):
            before = params_bytes(state.global_params)
            heads = {cid: params_bytes(h) for cid, h in state.retained_heads.items()}
            new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), sink)
            assert params_bytes(state.global_params) == before
            assert {cid: params_bytes(h) for cid, h in state.retained_heads.items()} == heads
            state = new_state


class TestRunConfigValidation:
    @pytest.mark.parametrize("field", ["lr", "alpha", "tau", "bt_lambda", "bt_eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_values_rejected(self, field, value):
        with pytest.raises(ContractError, match="finite"):
            replace(SMALL, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("tau", 0.0), ("tau", -0.5), ("tau", float(np.nextafter(1e-6, 0.0))), ("tau", 1e-300), ("bt_eps", 0.0),
         ("bt_eps", -1e-9), ("bt_lambda", -1e-3)],
    )
    def test_loss_parameters_range_checked(self, field, value):
        with pytest.raises(ContractError, match=field):
            replace(SMALL, **{field: value})

    @pytest.mark.parametrize("field, value", [("feature_layer", "fc1"), ("metric", "l1")])
    def test_unknown_choice_rejected_at_construction(self, field, value):
        with pytest.raises(ContractError, match=f"unknown {field}"):
            replace(SMALL, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("alpha", 0.0), ("eval_every", 0), ("workers", -1), ("hidden_dim", 0), ("bands", 0), ("embed_dim", -3),
    ])
    def test_positive_field_error_names_the_field_and_value(self, field, value):
        with pytest.raises(ContractError, match=rf"^{field} must be positive, got {value}$"):
            replace(SMALL, **{field: value})

    def test_k_bound_is_the_train_clips_of_every_task_a_run_scores_on(self):
        assert replace(SMALL, k=120).k == 120
        _, tasks = small_world()
        assert [len(train) for _, train, _ in tasks] == [120] * 3

    @pytest.mark.parametrize("k", [0, 121])
    def test_k_outside_the_bound_is_refused_naming_it(self, k):
        message = rf"^k must lie in \[1, 120\] \(train clips of a downstream task\), got {k}$"
        with pytest.raises(ContractError, match=message):
            replace(SMALL, k=k)

    def test_boundary_values_accepted(self):
        cfg = replace(SMALL, bt_lambda=0.0, tau=1e-6, bt_eps=1e-12)
        assert cfg.bt_lambda == 0.0

    @pytest.mark.parametrize("field, value, kind", [
        ("rounds", 2.5, "an integer"), ("batch_size", True, "an integer"), ("k", 1.0, "an integer"),
        ("n_clients", "8", "an integer"), ("lr", "0.1", "a number"), ("tau", True, "a number"),
        ("metric", 1, "a string"), ("strategy", "fedavg", "of type Strategy"),
    ])
    def test_value_of_another_type_is_refused_naming_the_type(self, field, value, kind):
        with pytest.raises(ContractError, match=rf"^{field} must be {kind}, got {value!r}$"):
            replace(SMALL, **{field: value})

    def test_integer_fields_take_any_integral_value(self):
        assert replace(SMALL, rounds=np.int64(3)).rounds == 3

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_master_seed_range_ends_accepted(self, seed):
        assert replace(SMALL, master_seed=seed).master_seed == seed

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ContractError, match=rf"^master_seed must lie in \[0, 2\*\*64\), got {seed}$"):
            replace(SMALL, master_seed=seed)

    @pytest.mark.parametrize("owner", [RunConfig, Strategy, AugmentPolicy])
    def test_rules_table_covers_every_field_in_order(self, owner):
        assert list(owner.RULES) == [f.name for f in fields(owner)]

    def test_tasks_are_the_three_pretext_tasks_in_order(self):
        assert list(TASKS) == list(LEAST_FRAMES) == list(LEAST_CLIPS) == ["acop", "simclr", "barlow_twins"]

    @pytest.mark.parametrize("ssl_task", TASKS)
    def test_frames_bound_is_the_fewest_a_step_takes(self, ssl_task):
        least = LEAST_FRAMES[ssl_task]
        with pytest.raises(ContractError, match=f"^{ssl_task} needs frames >= {least}, got {least - 1}$"):
            replace(SMALL, ssl_task=ssl_task, frames=least - 1)
        cfg = replace(SMALL, ssl_task=ssl_task, frames=least)
        shard = synth_dataset(2, 4, cfg.frames, cfg.bands, seed=5).clip_array()
        _, _, steps = local_train(shard, initial_state(cfg).global_params, ParamTree.empty(), cfg, 0, 1)
        assert steps == 1

    @pytest.mark.parametrize("ssl_task", TASKS)
    def test_batch_size_bound_is_the_fewest_clips_a_step_takes(self, ssl_task):
        least = LEAST_CLIPS[ssl_task]
        if least > 1:
            with pytest.raises(ContractError, match=f"^{ssl_task} needs batch_size >= {least}, got {least - 1}$"):
                replace(SMALL, ssl_task=ssl_task, batch_size=least - 1)
        assert replace(SMALL, ssl_task=ssl_task, batch_size=least).batch_size == least
        # a pair loss drops a one-clip batch, so below its bound no client would ever step; five clips in
        # batches of 2: local_train drops the one-clip tail exactly when the task needs two
        cfg = replace(SMALL, ssl_task=ssl_task, batch_size=2)
        shard = synth_dataset(1, 5, cfg.frames, cfg.bands, seed=5).clip_array()
        _, _, steps = local_train(shard, initial_state(cfg).global_params, ParamTree.empty(), cfg, 0, 1)
        assert steps == 2 + (least == 1)

    @pytest.mark.parametrize("ssl_task, scope, conflict", [
        ("simclr", "backbone", "scope backbone"), ("acop", "backbone", "scope backbone"), ("acop", "full", "ssl_task acop"),
    ])
    def test_projection_features_refused_where_no_step_trains_the_head(self, ssl_task, scope, conflict):
        message = f"^feature_layer projection scores the global head.proj, which {conflict} never trains$"
        with pytest.raises(ContractError, match=message):
            replace(SMALL, ssl_task=ssl_task, scope=scope, feature_layer="projection")

    @pytest.mark.parametrize("scope", ["full", "backbone"])
    @pytest.mark.parametrize("ssl_task", TASKS)
    def test_projection_features_accepted_exactly_where_a_round_moves_the_global_head(self, sink, ssl_task, scope):
        cfg = replace(SMALL, ssl_task=ssl_task, scope=scope)
        pretext, tasks = small_world(cfg)
        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, 0)
        state = initial_state(cfg)
        new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), sink)
        before, after = state.global_params.as_dict(), new_state.global_params.as_dict()
        head = [n for n in before if n.startswith("head.proj.")]
        moved = any(after[n].data.tobytes() != before[n].data.tobytes() for n in head)
        try:
            replace(cfg, feature_layer="projection")
        except ContractError:
            accepted = False
        else:
            accepted = True
        assert accepted == moved

    def test_acop_trains_on_one_clip_batches(self):
        cfg = replace(SMALL, ssl_task="acop", batch_size=1)
        shard = synth_dataset(2, 3, cfg.frames, cfg.bands, seed=5).clip_array()
        upd, _, steps = local_train(shard, initial_state(cfg).global_params, ParamTree.empty(), cfg, 0, 1)
        assert steps == 6
        assert not upd.params.equal_bytes(initial_state(cfg).global_params)

    def test_clients_bound_is_the_pretext_clip_count(self):
        clips = SMALL.pretext_classes * SMALL.pretext_per_class
        assert replace(SMALL, n_clients=clips).n_clients == clips
        with pytest.raises(ContractError, match="cannot cover"):
            replace(SMALL, n_clients=clips + 1)


VIEWS = Tensor(np.random.default_rng(0).normal(size=(8, 4)))
TINY = synth_dataset(2, 4, 4, 2, seed=3)
TREE = init_encoder(8, 3, 2, 2, seed=0)  # over TINY's 4 frames x 2 bands
# a train set of as many rows as a downstream task's, so retrieval's k bound is RunConfig's
FEATS = np.random.default_rng(1).normal(size=(SUITE_TRAIN_CLIPS, 3))
LABELS = np.arange(SUITE_TRAIN_CLIPS) % 4
UPDATES = [ClientUpdate(client_id=0, params=TREE, n_samples=1, mean_loss=0.5)]
# Each setting a library function reads (a RunConfig field, or "owner.field" of a settings dataclass it nests), the
# argument that function reads it as, and the function called with a value there
SETTING_CALLS = [
    ("tau", "tau", lambda v: nt_xent_loss(VIEWS, v)),
    ("bt_lambda", "lam", lambda v: barlow_twins_loss(VIEWS, v, 1e-9)),
    ("bt_eps", "eps", lambda v: barlow_twins_loss(VIEWS, 5e-3, v)),
    ("bt_eps", "eps", lambda v: l2_normalize_rows(VIEWS, v)),
    ("lr", "lr", lambda v: sgd_step(ParamTree.empty(), {}, v)),
    ("n_clients", "n_clients", lambda v: dirichlet_partition(TINY, v, 0.1, 0)),
    ("n_clients", "n_clients", lambda v: sample_clients(v, 1, 1, 0)),
    ("clients_per_round", "s", lambda v: sample_clients(8, v, 1, 0)),
    ("alpha", "alpha", lambda v: dirichlet_partition(TINY, 2, v, 0)),
    ("pretext_classes", "n_classes", lambda v: synth_dataset(v, 2, 4, 2, seed=0)),
    ("pretext_per_class", "n_per_class", lambda v: synth_dataset(2, v, 4, 2, seed=0)),
    ("frames", "frames", lambda v: synth_dataset(2, 2, v, 2, seed=0)),
    ("frames", "frames", lambda v: downstream_suite(1, v, 4)),
    ("bands", "bands", lambda v: synth_dataset(2, 2, 4, v, seed=0)),
    ("bands", "bands", lambda v: downstream_suite(1, 4, v)),
    ("augment.noise_std", "noise_std", lambda v: synth_dataset(2, 2, 4, 2, seed=0, noise_std=v)),
    ("master_seed", "master_seed", lambda v: synth_dataset(2, 2, 4, 2, seed=v)),
    ("hidden_dim", "hidden_dim", lambda v: init_encoder(4, v, 2, 2, seed=0)),
    ("embed_dim", "embed_dim", lambda v: init_encoder(4, 3, v, 2, seed=0)),
    ("projection_dim", "projection_dim", lambda v: init_encoder(4, 3, 2, v, seed=0)),
    ("scope", "scope", lambda v: split(TREE, v)),
    ("scope", "scope", lambda v: scope_apply(v, TREE, TREE)),
    ("strategy", "strategy", lambda v: aggregate(v, TREE, UPDATES)),
    ("strategy.loss_direction", "loss_direction", lambda v: beta_loss(UPDATES, v)),
    ("k", "k", lambda v: knn_retrieval_accuracy(FEATS, LABELS, FEATS[:5], LABELS[:5], v, "cosine")),
    ("metric", "metric", lambda v: knn_retrieval_accuracy(FEATS, LABELS, FEATS[:5], LABELS[:5], 1, v)),
    ("feature_layer", "feature_layer", lambda v: evaluate_global(TREE, [("t", TINY, TINY)], 1, 0, v, "cosine")),
]
NAN, INF = float("nan"), float("inf")
# values each field's rule rejects: out of range, not finite, or of another type
REJECTED_SETTINGS = {
    "tau": [0.0, -0.5, float(np.nextafter(1e-6, 0.0)), 1e-30, NAN, INF, True, "0.5"],
    "bt_lambda": [-1e-3, NAN, -INF, "0"], "bt_eps": [0.0, -1e-9, NAN, INF], "lr": [0.0, -0.1, NAN, "0.1", True],
    "n_clients": [0, -1, 2.0, True], "clients_per_round": [0, 1.0, True], "alpha": [0.0, -0.5, NAN, INF],
    "pretext_classes": [0, -1, 1.5], "pretext_per_class": [0, 2.0], "frames": [0, -3], "bands": [0, "2"],
    "augment.noise_std": [-1.0, NAN, INF], "master_seed": [-1, 2**64, 1.5], "hidden_dim": [0, 2.0],
    "embed_dim": [0, True], "projection_dim": [0, -1], "scope": ["Full", "", None], "strategy": ["fedavg"],
    "strategy.loss_direction": ["sideways", "HIGH", 1], "k": [0, SUITE_TRAIN_CLIPS + 1, True, 1.0],
    "metric": ["l1", "Cosine"], "feature_layer": ["fc1", "Backbone"],
}


def config_error(field: str, value) -> str:
    """RunConfig's message for value in field; "owner.field" puts it in the settings dataclass RunConfig nests."""
    owner, _, nested = field.partition(".")
    with pytest.raises(ContractError) as error:
        replace(SMALL, **{owner: replace(getattr(SMALL, owner), **{nested: value}) if nested else value})
    return str(error.value)


class TestLibraryChecksBySettingRule:
    """A library function that reads a setting rejects what RunConfig rejects for it, with the same message."""

    @pytest.mark.parametrize("field, argument, call, value", [
        # the id names the field, the function (the first global its call loads) and the value
        pytest.param(field, argument, call, value, id=f"{field}-{call.__code__.co_names[0]}-{value!r}")
        for field, argument, call in SETTING_CALLS for value in REJECTED_SETTINGS[field]
    ])
    def test_library_rejects_what_run_config_rejects(self, field, argument, call, value):
        expected = config_error(field, value).replace(field.rpartition(".")[2], argument, 1)
        with pytest.raises(ContractError) as library_error:
            call(value)
        assert str(library_error.value) == expected

    def test_every_rejected_setting_has_a_reader(self):
        assert sorted(REJECTED_SETTINGS) == sorted({field for field, _, _ in SETTING_CALLS})

    def test_library_accepts_the_range_ends(self):
        assert np.isfinite(nt_xent_loss(VIEWS, 1e-6).item())
        assert barlow_twins_loss(VIEWS, 0.0, 1e-9).item() >= 0.0
        assert len(synth_dataset(2, 2, 4, 2, seed=2**64 - 1, noise_std=0.0)) == 4
        assert replace(SMALL, tau=1e-6, master_seed=2**64 - 1).tau == 1e-6
        assert sample_clients(3, 3, 1, 0) == [0, 1, 2]
        assert 0.0 <= knn_retrieval_accuracy(FEATS, LABELS, FEATS[:5], LABELS[:5], SUITE_TRAIN_CLIPS, "euclidean") <= 1
        assert beta_loss(UPDATES, "low").tolist() == [1.0]
        assert len(evaluate_global(TREE, [("t", TINY, TINY)], 1, 0, "backbone", "cosine")) == 1

    def test_input_dim_is_checked_as_a_count(self):
        with pytest.raises(ContractError, match=r"^input_dim must be positive, got 0$"):
            init_encoder(0, 3, 2, 2, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_derive_seed_refuses_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ContractError, match=rf"^master_seed must lie in \[0, 2\*\*64\), got {seed}$"):
            derive_seed(seed, "train", 1, 2)

    @pytest.mark.parametrize("indices", [(-1,), (1, -1), (2**64,), (1.0,)])
    def test_derive_seed_refuses_a_stream_index_outside_64_bits(self, indices):
        with pytest.raises(ContractError, match="^stream index must "):
            derive_seed(7, "train", *indices)

    def test_in_range_seeds_keep_their_streams(self):
        assert derive_seed(7, "train", 3, 5) == 3595002963511682147
        assert derive_seed(2**64 - 1, "pretext-data") == 12761029413510814367


class TestRunRound:
    def test_single_client_full_scope_adopts_client_params(self, sink):
        cfg = replace(SMALL, clients_per_round=1, rounds=1)
        pretext, tasks = small_world(cfg)
        state = initial_state(cfg)
        partition_seed = derive_seed(cfg.master_seed, "partition")
        from fassl.data import dirichlet_partition

        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, partition_seed)
        sampled = sample_clients(cfg.n_clients, 1, 1, cfg.master_seed)
        shard = pretext.clip_array()[partition.shards[sampled[0]]]
        expected, _, _ = local_train(shard, state.global_params, ParamTree.empty(), cfg, sampled[0], 1)
        new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), sink)
        assert new_state.global_params.equal_bytes(expected.params)

    def test_round_index_advances_by_one(self, sink):
        cfg = SMALL
        pretext, tasks = small_world(cfg)
        from fassl.data import dirichlet_partition

        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, 0)
        state = initial_state(cfg)
        new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), sink)
        assert new_state.round_idx == state.round_idx + 1

    def test_pretext_of_another_clip_shape_rejected_before_any_client_trains(self, monkeypatch, sink):
        import fassl.orchestrator as orchestrator

        cfg = SMALL  # 16 frames x 8 bands; the pretext below has 8 x 16, the same input width
        pretext = synth_dataset(cfg.pretext_classes, cfg.pretext_per_class, cfg.bands, cfg.frames, seed=5)
        _, tasks = small_world(cfg)
        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, 0)
        monkeypatch.setattr(orchestrator, "local_train", lambda *args: pytest.fail("a client trained"))
        with pytest.raises(ContractError, match=r"^pretext clips are \(8, 16\), not the config's \(16, 8\)$"):
            run_round(initial_state(cfg), cfg, partition, pretext, tasks, OptimaTracker(), sink)

    def test_clip_list_pretext_trains_the_same_rows(self, sink):
        cfg = SMALL
        pretext, tasks = small_world(cfg)
        listed = SynthDataset(list(pretext.clips), pretext.n_classes, pretext.generator)
        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, 0)
        state = initial_state(cfg)
        a, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), sink)
        b, _ = run_round(state, cfg, partition, listed, tasks, OptimaTracker(), sink)
        assert a.global_params.equal_bytes(b.global_params)

    def test_congruence_preserved(self, sink):
        cfg = SMALL
        pretext, tasks = small_world(cfg)
        from fassl.data import dirichlet_partition

        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, 0)
        state = initial_state(cfg)
        new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), sink)
        assert new_state.global_params.congruent_with(state.global_params)


def failing_evaluation(*args, **kwargs):
    """An ``evaluate_global`` stand-in: the round that evaluates fails before it writes a row or saves its model."""
    raise ContractError("evaluation failed")


class TestRun:
    def test_row_bookkeeping(self, tmp_path):
        cfg = SMALL  # 6 rounds, eval every 2 -> 3 evals x 3 tasks
        run(cfg, tmp_path)
        assert len(read_results_csv(tmp_path / "results.csv")) == (cfg.rounds // cfg.eval_every) * 3

    def test_single_round_reproduces_run_round(self, sink, tmp_path):
        cfg = replace(SMALL, rounds=1, eval_every=1)
        pretext, tasks = small_world(cfg)
        from fassl.data import dirichlet_partition

        partition = dirichlet_partition(
            pretext, cfg.n_clients, cfg.alpha, derive_seed(cfg.master_seed, "partition")
        )
        state = initial_state(cfg)
        manual, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), sink)
        result = run(cfg, tmp_path / "run")
        assert result.state.global_params.equal_bytes(manual.global_params)

    def test_end_to_end_determinism(self, tmp_path):
        """Same config twice -> byte-identical results."""
        r1 = run(SMALL, tmp_path / "1")
        r2 = run(SMALL, tmp_path / "2")
        assert params_bytes(r1.state.global_params) == params_bytes(r2.state.global_params)
        assert (tmp_path / "1" / "results.csv").read_bytes() == (tmp_path / "2" / "results.csv").read_bytes()

    def test_backbone_scope_heads(self, tmp_path):
        """Server heads never move; a sampled client's retained head does."""
        cfg = replace(SMALL, scope="backbone", ssl_task="barlow_twins", rounds=4)
        result = run(cfg, tmp_path)
        init_heads = split(initial_state(cfg).global_params, "backbone")[1]
        _, final_heads = split(result.state.global_params, "backbone")
        assert final_heads.equal_bytes(init_heads)
        assert len(result.state.retained_heads) >= 2
        trained = [h for h in result.state.retained_heads.values() if not h.equal_bytes(init_heads)]
        assert trained, "sampled clients should have locally evolved heads"

    @pytest.mark.parametrize("scope", ["full", "backbone"])
    def test_retained_heads_hold_exactly_the_sampled_clients(self, scope, tmp_path):
        cfg = replace(SMALL, scope=scope, rounds=2)
        result = run(cfg, tmp_path)
        sampled = set().union(*(
            sample_clients(cfg.n_clients, cfg.clients_per_round, r, cfg.master_seed) for r in range(1, cfg.rounds + 1)
        ))
        assert len(sampled) < cfg.n_clients
        assert set(result.state.retained_heads) == (sampled if scope == "backbone" else set())

    @pytest.mark.parametrize("ssl_task", ["simclr", "acop"])
    def test_retained_heads_share_the_global_unread_head(self, ssl_task, tmp_path):
        cfg = replace(SMALL, scope="backbone", ssl_task=ssl_task, rounds=3)
        pretext, _ = small_world(cfg)
        result = run(cfg, tmp_path)
        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, derive_seed(cfg.master_seed, "partition"))
        trained = [cid for cid in result.state.retained_heads if len(partition.shards[cid]) >= 2]
        assert trained
        for cid in trained:
            for name, t in result.state.retained_heads[cid].items():
                shared = np.shares_memory(t.data, result.state.global_params.get(name).data)
                assert shared == name.startswith(UNREAD_HEAD[ssl_task]), name

    @pytest.mark.parametrize("scope", ["full", "backbone"])
    def test_updates_released_before_eval(self, scope, monkeypatch, tmp_path):
        import fassl.orchestrator as orchestrator

        cfg = replace(SMALL, scope=scope, rounds=2, eval_every=1)
        refs = []
        evals = []
        real_aggregate, real_eval = orchestrator.aggregate, orchestrator.evaluate_global

        def recording_aggregate(strategy, global_prev, updates):
            for u in updates:
                for name, t in u.params.items():
                    if t.data is not global_prev.get(name).data:  # the unread head is the global's own
                        refs.append(weakref.ref(t.data))
            return real_aggregate(strategy, global_prev, updates)

        def checking_eval(*args, **kwargs):
            evals.append([r() is None for r in refs])
            return real_eval(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "aggregate", recording_aggregate)
        monkeypatch.setattr(orchestrator, "evaluate_global", checking_eval)
        run(cfg, tmp_path)
        assert len(evals) == cfg.rounds
        assert all(dead and all(dead) for dead in evals)

    def test_acop_task_runs(self, tmp_path):
        cfg = replace(SMALL, ssl_task="acop", rounds=2)
        result = run(cfg, tmp_path)
        assert result.total_steps > 0

    def test_a_new_run_removes_the_previous_runs_files_and_no_other(self, tmp_path, monkeypatch):
        import fassl.orchestrator as orchestrator

        cfg = replace(SMALL, rounds=4, eval_every=1)
        run(cfg, tmp_path)
        (tmp_path / "config.txt").write_text("# not a run's file\n")
        (tmp_path / "round_0009.ckpt.tmp").write_bytes(b"torn")
        run(replace(cfg, eval_every=2), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.txt", "final.ckpt", "optima.csv", "results.csv", "round_0002.ckpt", "round_0004.ckpt",
        ]
        monkeypatch.setattr(orchestrator, "evaluate_global", failing_evaluation)
        with pytest.raises(ContractError, match="evaluation failed"):  # round 1 fails before it saves its model
            run(cfg, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt", "results.csv"]
        assert (tmp_path / "results.csv").read_text() == CSV_HEADER + "\n"

    def test_csv_and_checkpoints_written(self, tmp_path):
        cfg = replace(SMALL, rounds=2, eval_every=1)
        run(cfg, out_dir=tmp_path)
        csv = (tmp_path / "results.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "round_0001.ckpt").exists()
        assert (tmp_path / "optima.csv").read_text().startswith("task,best_round,best_accuracy")

    def test_failed_run_closes_csv_and_keeps_prefix(self, tmp_path, monkeypatch):
        import fassl.orchestrator as orchestrator

        cfg = replace(SMALL, rounds=3, eval_every=1)
        real_eval = orchestrator.evaluate_global

        def eval_failing_at_round_2(w_g, tasks, k, round_idx, **kwargs):
            if round_idx == 2:
                raise ContractError("evaluation failed")
            return real_eval(w_g, tasks, k, round_idx=round_idx, **kwargs)

        handles = []
        real_init = RunSink.__init__

        def recording_init(self, out_dir):
            real_init(self, out_dir)
            handles.append(self._csv)

        monkeypatch.setattr(orchestrator, "evaluate_global", eval_failing_at_round_2)
        monkeypatch.setattr(RunSink, "__init__", recording_init)
        with pytest.raises(ContractError, match="evaluation failed"):
            run(cfg, out_dir=tmp_path)
        assert len(handles) == 1 and handles[0].closed
        lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["1"] * 3
        assert not (tmp_path / "final.ckpt").exists()
        assert not (tmp_path / "optima.csv").exists()

    def test_a_failed_rounds_error_names_the_round(self, tmp_path, monkeypatch):
        import fassl.orchestrator as orchestrator

        monkeypatch.setattr(orchestrator, "evaluate_global", failing_evaluation)
        with pytest.raises(ContractError, match=r"^round 1: evaluation failed$"):
            run(replace(SMALL, rounds=2, eval_every=1), tmp_path)


# printable task names a results.csv field holds: no ',', '/' or '\\'
TASK_NAMES = st.text(st.characters(codec="utf-8", exclude_characters=",/\\"), min_size=1, max_size=12).filter(
    str.isprintable
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(STRATEGY_KINDS), scope=st.sampled_from(SCOPES), ssl_task=st.sampled_from(list(TASKS)),
    local_epochs=st.integers(1, 3), k=st.integers(1, SUITE_TRAIN_CLIPS),
    accs=st.lists(
        st.tuples(TASK_NAMES, st.integers(min_value=0), st.integers(1, 10**6).flatmap(
            lambda n: st.tuples(st.integers(0, n), st.just(n))
        )),
        min_size=1, max_size=4,
    ),
)
def test_rows_the_sink_writes_read_back_as_written(tmp_path, kind, scope, ssl_task, local_epochs, k, accs):
    assume((kind, scope) != ("fedu", "backbone"))  # a config error: fedu gates only heads, which backbone never sends
    cfg = RunConfig(strategy=Strategy(kind), scope=scope, ssl_task=ssl_task, local_epochs=local_epochs, k=k)
    rows = [TaskAccuracy(task=task, round=rnd, accuracy=m / n, k=k) for task, rnd, (m, n) in accs]
    sink = RunSink(tmp_path)
    sink.on_eval(cfg, rows)
    sink.close_csv()
    assert read_results_csv(tmp_path / "results.csv") == [
        {
            "round": acc.round, "strategy": kind, "scope": scope, "ssl_task": ssl_task, "local_epochs": local_epochs,
            "task": acc.task, "k": k, "accuracy": float(f"{acc.accuracy:.6f}"),
        }
        for acc in rows
    ]


GOOD_FIELDS = {
    "round": "1", "strategy": "fedavg", "scope": "full", "ssl_task": "simclr", "local_epochs": "1",
    "task": "bandprofile", "k": "1", "accuracy": "0.500000",
}


@pytest.mark.parametrize("column, text, make", [
    ("k", "121", lambda: RunConfig(k=121)),
    # Strategy's rule names its field kind; a config's strategy key is checked by that rule under the column's name
    ("strategy", "fedsgd", lambda: apply_overrides(default_spec(), {"strategy": "fedsgd"})),
    ("scope", "heads", lambda: RunConfig(scope="heads")),
    ("ssl_task", "byol", lambda: RunConfig(ssl_task="byol")),
    ("task", "x/y", lambda: TaskAccuracy(task="x/y", round=1, accuracy=0.5, k=1)),
    ("accuracy", "1.5", lambda: TaskAccuracy(task="t", round=1, accuracy=1.5, k=1)),
])
def test_a_refused_column_value_reads_as_its_writer_refuses_it(tmp_path, column, text, make):
    with pytest.raises((ContractError, ConfigError)) as owner:
        make()
    message = str(owner.value).removeprefix("bad value for flag --strategy: ")
    assert column in message and text in message
    path = tmp_path / "results.csv"
    path.write_text(f"{CSV_HEADER}\n{','.join(dict(GOOD_FIELDS, **{column: text}).values())}\n")
    with pytest.raises(ContractError) as reader:
        read_results_csv(path)
    assert str(reader.value) == f"{path}:2: {message}"
