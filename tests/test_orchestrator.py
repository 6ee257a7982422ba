"""Round loop tests: sampling, local training, state advance, determinism."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from fassl.data import dirichlet_partition, downstream_suite, synth_dataset
from fassl.errors import ContractError
from fassl.evaluator import OptimaTracker
from fassl.model import split
from fassl import ssl_tasks
from fassl.orchestrator import (
    CSV_HEADER,
    SSL_TASKS,
    RunConfig,
    RunSink,
    initial_state,
    local_train,
    run,
    run_round,
    sample_clients,
)
from fassl.seeding import derive_seed

from conftest import params_bytes

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
    pretext = synth_dataset(cfg.pretext_classes, cfg.pretext_per_class, cfg.frames, cfg.bands, seed=5)
    tasks = downstream_suite(6, cfg.frames, cfg.bands)
    return pretext, tasks


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
        return pretext.clips[:n]

    def test_lr_semantics_zero_step_equivalent(self):
        """With an empty schedule (batch too small for pairs), params are untouched."""
        cfg = replace(SMALL, ssl_task="simclr")
        state = initial_state(cfg)
        upd, _, steps = local_train(self._shard(1), state.global_params, None, cfg, 0, 1)
        assert steps == 0
        assert upd.params.equal_bytes(state.global_params)
        assert upd.mean_loss == 0.0

    def test_tiny_lr_params_near_initialization(self):
        cfg = replace(SMALL, lr=1e-12)
        state = initial_state(cfg)
        upd, _, steps = local_train(self._shard(), state.global_params, None, cfg, 0, 1)
        assert steps > 0
        for name, t in upd.params.items():
            np.testing.assert_allclose(t.data, state.global_params.get(name).data, atol=1e-9)

    def test_bit_identical_given_same_inputs(self):
        cfg = SMALL
        state = initial_state(cfg)
        a = local_train(self._shard(), state.global_params, None, cfg, 4, 2)
        b = local_train(self._shard(), state.global_params, None, cfg, 4, 2)
        assert params_bytes(a[0].params) == params_bytes(b[0].params)
        assert a[0].mean_loss == b[0].mean_loss

    def test_more_epochs_lower_loss_on_separable_shard(self):
        """Training oracle: mean loss after E=5 is below mean loss after E=1."""
        pretext, _ = small_world()
        shard = pretext.clips[:24]
        cfg1 = replace(SMALL, local_epochs=1, lr=0.1)
        cfg5 = replace(SMALL, local_epochs=5, lr=0.1)
        state = initial_state(cfg1)
        loss1 = local_train(shard, state.global_params, None, cfg1, 0, 1)[0].mean_loss
        loss5 = local_train(shard, state.global_params, None, cfg5, 0, 1)[0].mean_loss
        assert loss5 < loss1

    def test_empty_shard_rejected(self):
        cfg = SMALL
        state = initial_state(cfg)
        with pytest.raises(ContractError):
            local_train([], state.global_params, None, cfg, 0, 1)

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
        trans, _ = split(state.global_params, scope)
        initial_heads = split(state.global_params, "backbone")[1]
        head = initial_heads if scope == "backbone" else None
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
        upd, retained, steps = local_train(self._shard(), trans, heads if scope == "backbone" else None, cfg, 0, 1)
        assert steps > 0
        returned = list(upd.params.items()) + list(retained.items())
        assert sorted(name for name, _ in returned) == state.global_params.names()
        for name, t in returned:
            shared = np.shares_memory(t.data, state.global_params.get(name).data)
            assert shared == name.startswith(UNREAD_HEAD[ssl_task]), name

    def test_run_round_leaves_previous_global_bytes(self):
        pretext, tasks = small_world()
        cfg = replace(SMALL, scope="backbone")
        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, derive_seed(cfg.master_seed, "partition"))
        state = initial_state(cfg)
        for _ in range(2):
            before = params_bytes(state.global_params)
            heads = {cid: params_bytes(h) for cid, h in state.retained_heads.items()}
            new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), RunSink())
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
        [("tau", 0.0), ("tau", -0.5), ("bt_eps", 0.0), ("bt_eps", -1e-9), ("bt_lambda", -1e-3)],
    )
    def test_loss_parameters_range_checked(self, field, value):
        with pytest.raises(ContractError, match=field):
            replace(SMALL, **{field: value})

    @pytest.mark.parametrize("field, value", [("feature_layer", "fc1"), ("metric", "l1")])
    def test_unknown_choice_rejected_at_construction(self, field, value):
        with pytest.raises(ContractError, match=f"unknown {field}"):
            replace(SMALL, **{field: value})

    def test_boundary_values_accepted(self):
        cfg = replace(SMALL, bt_lambda=0.0, tau=1e-3, bt_eps=1e-12)
        assert cfg.bt_lambda == 0.0

    @pytest.mark.parametrize("ssl_task", SSL_TASKS)
    def test_frames_bound_is_the_fewest_a_step_takes(self, ssl_task):
        least = ssl_tasks.MIN_FRAMES * (ssl_tasks.ACOP_SEGMENTS if ssl_task == "acop" else 1)
        with pytest.raises(ContractError, match=f"frames >= {least}"):
            replace(SMALL, ssl_task=ssl_task, frames=least - 1)
        cfg = replace(SMALL, ssl_task=ssl_task, frames=least)
        shard = synth_dataset(2, 4, cfg.frames, cfg.bands, seed=5).clips
        _, _, steps = local_train(shard, initial_state(cfg).global_params, None, cfg, 0, 1)
        assert steps == 1

    def test_clients_bound_is_the_pretext_clip_count(self):
        clips = SMALL.pretext_classes * SMALL.pretext_per_class
        assert replace(SMALL, n_clients=clips).n_clients == clips
        with pytest.raises(ContractError, match="cannot cover"):
            replace(SMALL, n_clients=clips + 1)


class TestRunRound:
    def test_single_client_full_scope_adopts_client_params(self):
        cfg = replace(SMALL, clients_per_round=1, rounds=1)
        pretext, tasks = small_world(cfg)
        state = initial_state(cfg)
        partition_seed = derive_seed(cfg.master_seed, "partition")
        from fassl.data import dirichlet_partition

        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, partition_seed)
        sampled = sample_clients(cfg.n_clients, 1, 1, cfg.master_seed)
        shard = [pretext.by_id(c) for c in partition.shards[sampled[0]]]
        expected, _, _ = local_train(shard, state.global_params, None, cfg, sampled[0], 1)
        new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), RunSink())
        assert new_state.global_params.equal_bytes(expected.params)

    def test_round_index_advances_by_one(self):
        cfg = SMALL
        pretext, tasks = small_world(cfg)
        from fassl.data import dirichlet_partition

        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, 0)
        state = initial_state(cfg)
        new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), RunSink())
        assert new_state.round_idx == state.round_idx + 1

    def test_congruence_preserved(self):
        cfg = SMALL
        pretext, tasks = small_world(cfg)
        from fassl.data import dirichlet_partition

        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, 0)
        state = initial_state(cfg)
        new_state, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), RunSink())
        assert new_state.global_params.congruent_with(state.global_params)


class TestRun:
    def test_row_bookkeeping(self):
        cfg = SMALL  # 6 rounds, eval every 2 -> 3 evals x 3 tasks
        pretext, tasks = small_world(cfg)
        result = run(cfg, pretext, tasks)
        assert len(result.rows) == (cfg.rounds // cfg.eval_every) * len(tasks)

    def test_single_round_reproduces_run_round(self):
        cfg = replace(SMALL, rounds=1, eval_every=1)
        pretext, tasks = small_world(cfg)
        from fassl.data import dirichlet_partition

        partition = dirichlet_partition(
            pretext, cfg.n_clients, cfg.alpha, derive_seed(cfg.master_seed, "partition")
        )
        state = initial_state(cfg)
        manual, _ = run_round(state, cfg, partition, pretext, tasks, OptimaTracker(), RunSink())
        result = run(cfg, pretext, tasks)
        assert result.final_params.equal_bytes(manual.global_params)

    def test_end_to_end_determinism(self):
        """Same config twice -> byte-identical results."""
        pretext, tasks = small_world()
        r1 = run(SMALL, pretext, tasks)
        r2 = run(SMALL, pretext, tasks)
        assert params_bytes(r1.final_params) == params_bytes(r2.final_params)
        assert [a.top1_retrieval for a in r1.rows] == [a.top1_retrieval for a in r2.rows]

    def test_backbone_scope_heads(self):
        """Server heads never move; a sampled client's retained head does."""
        cfg = replace(SMALL, scope="backbone", ssl_task="barlow_twins", rounds=4)
        pretext, tasks = small_world(cfg)
        result = run(cfg, pretext, tasks)
        init_heads = split(initial_state(cfg).global_params, "backbone")[1]
        _, final_heads = split(result.final_params, "backbone")
        assert final_heads.equal_bytes(init_heads)
        assert len(result.state.retained_heads) >= 2
        trained = [h for h in result.state.retained_heads.values() if not h.equal_bytes(init_heads)]
        assert trained, "sampled clients should have locally evolved heads"

    @pytest.mark.parametrize("scope", ["full", "backbone"])
    def test_retained_heads_hold_exactly_the_sampled_clients(self, scope):
        cfg = replace(SMALL, scope=scope, rounds=2)
        pretext, tasks = small_world(cfg)
        result = run(cfg, pretext, tasks)
        sampled = set().union(*(
            sample_clients(cfg.n_clients, cfg.clients_per_round, r, cfg.master_seed) for r in range(1, cfg.rounds + 1)
        ))
        assert len(sampled) < cfg.n_clients
        assert set(result.state.retained_heads) == (sampled if scope == "backbone" else set())

    @pytest.mark.parametrize("ssl_task", ["simclr", "acop"])
    def test_retained_heads_share_the_global_unread_head(self, ssl_task):
        cfg = replace(SMALL, scope="backbone", ssl_task=ssl_task, rounds=3)
        pretext, tasks = small_world(cfg)
        result = run(cfg, pretext, tasks)
        partition = dirichlet_partition(pretext, cfg.n_clients, cfg.alpha, derive_seed(cfg.master_seed, "partition"))
        trained = [cid for cid in result.state.retained_heads if len(partition.shards[cid]) >= 2]
        assert trained
        for cid in trained:
            for name, t in result.state.retained_heads[cid].items():
                shared = np.shares_memory(t.data, result.final_params.get(name).data)
                assert shared == name.startswith(UNREAD_HEAD[ssl_task]), name

    @pytest.mark.parametrize("scope", ["full", "backbone"])
    def test_updates_released_before_eval(self, scope, monkeypatch):
        import fassl.orchestrator as orchestrator

        cfg = replace(SMALL, scope=scope, rounds=2, eval_every=1)
        pretext, tasks = small_world(cfg)
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
        run(cfg, pretext, tasks)
        assert len(evals) == cfg.rounds
        assert all(dead and all(dead) for dead in evals)

    def test_acop_task_runs(self):
        cfg = replace(SMALL, ssl_task="acop", rounds=2)
        pretext, tasks = small_world(cfg)
        result = run(cfg, pretext, tasks)
        assert result.total_steps > 0

    def test_csv_and_checkpoints_written(self, tmp_path):
        cfg = replace(SMALL, rounds=2, eval_every=1)
        pretext, tasks = small_world(cfg)
        run(cfg, pretext, tasks, out_dir=tmp_path)
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
        pretext, tasks = small_world(cfg)
        real_eval = orchestrator.evaluate_global

        def eval_failing_at_round_2(w_g, tasks, k, round_idx=0, **kwargs):
            if round_idx == 2:
                raise ContractError("evaluation failed")
            return real_eval(w_g, tasks, k, round_idx=round_idx, **kwargs)

        handles = []
        real_init = RunSink.__init__

        def recording_init(self, out_dir=None):
            real_init(self, out_dir)
            handles.append(self._csv)

        monkeypatch.setattr(orchestrator, "evaluate_global", eval_failing_at_round_2)
        monkeypatch.setattr(RunSink, "__init__", recording_init)
        with pytest.raises(ContractError, match="evaluation failed"):
            run(cfg, pretext, tasks, out_dir=tmp_path)
        assert len(handles) == 1 and handles[0].closed
        lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["1"] * len(tasks)
        assert not (tmp_path / "final.ckpt").exists()
        assert not (tmp_path / "optima.csv").exists()
