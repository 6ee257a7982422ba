"""Retrieval evaluation, retrieval kernels, and optimum-tracker tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fassl import kernels
from fassl.autodiff import Tensor
from fassl.data import Clip, SynthDataset, downstream_suite
from fassl.errors import ContractError
from fassl.evaluator import OptimaTracker, TaskAccuracy, evaluate_global, knn_retrieval_accuracy, update_optima
from fassl.model import init_encoder
from fassl.orchestrator import RunConfig, RunSink

from conftest import map_values, params_bytes


def brute_force_accuracy(train, train_labels, test, test_labels, k, metric="cosine"):
    """Exhaustive O(nq) scan with an explicit per-pair distance and tie sort."""
    correct = 0
    for i in range(len(test)):
        dists = []
        for j in range(len(train)):
            if metric == "cosine":
                a, b = test[i], train[j]
                na = max(np.sqrt(float(a @ a)), 1e-12)
                nb = max(np.sqrt(float(b @ b)), 1e-12)
                d = 1.0 - float(a @ b) / (na * nb)
            else:
                d = float(np.sqrt(((test[i] - train[j]) ** 2).sum()))
            dists.append((d, j))
        dists.sort(key=lambda t: (t[0], t[1]))
        classes = {train_labels[j] for _, j in dists[:k]}
        correct += int(test_labels[i] in classes)
    return correct / len(test)


class TestKnnRetrieval:
    def test_exact_match_is_correct_at_k1(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = knn_retrieval_accuracy(train, [0, 1], train[:1], [0], k=1, metric="cosine")
        assert out == 1.0

    def test_k_equals_n_degenerates_to_label_presence(self, rng):
        train = rng.normal(size=(6, 3))
        train_labels = np.array([0, 0, 1, 1, 2, 2])
        test = rng.normal(size=(5, 3))
        test_labels = np.array([0, 2, 1, 3, 3])
        out = knn_retrieval_accuracy(train, train_labels, test, test_labels, k=6, metric="cosine")
        assert out == 3 / 5  # classes 0,1,2 present; 3 absent

    def test_matches_brute_force_oracle_exactly(self, rng):
        for _ in range(30):
            n, q, d = int(rng.integers(5, 25)), int(rng.integers(1, 12)), int(rng.integers(2, 6))
            train = rng.normal(size=(n, d))
            test = rng.normal(size=(q, d))
            train_labels = rng.integers(0, 4, size=n)
            test_labels = rng.integers(0, 4, size=q)
            k = int(rng.integers(1, n + 1))
            ours = knn_retrieval_accuracy(train, train_labels, test, test_labels, k, metric="cosine")
            oracle = brute_force_accuracy(train, train_labels, test, test_labels, k)
            assert ours == oracle

    def test_tie_breaks_to_lower_training_index(self):
        # duplicated training rows with different labels: index 0 wins
        train = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        test = np.array([[1.0, 0.0]])
        assert knn_retrieval_accuracy(train, [5, 6, 7], test, [5], k=1, metric="cosine") == 1.0
        assert knn_retrieval_accuracy(train, [5, 6, 7], test, [6], k=1, metric="cosine") == 0.0

    def test_scale_invariance_of_cosine(self, rng):
        train = rng.normal(size=(10, 4))
        test = rng.normal(size=(4, 4))
        tl, ql = rng.integers(0, 3, 10), rng.integers(0, 3, 4)
        a = knn_retrieval_accuracy(train, tl, test, ql, k=3, metric="cosine")
        b = knn_retrieval_accuracy(train * 100.0, tl, test * 100.0, ql, k=3, metric="cosine")
        assert a == b

    def test_empty_sets_rejected(self, rng):
        x = rng.normal(size=(3, 2))
        with pytest.raises(ContractError):
            knn_retrieval_accuracy(np.zeros((0, 2)), [], x, [0, 1, 2], k=1, metric="cosine")
        with pytest.raises(ContractError):
            knn_retrieval_accuracy(x, [0, 1, 2], np.zeros((0, 2)), [], k=1, metric="cosine")

    @pytest.mark.parametrize(
        "train_labels, test_labels",
        [([0, 1, 0], [0]), ([0, 1], [0, 1]), ([0, 1, 0, 1, 0], [0, 1])],
        ids=["short-test", "short-train", "long-train"],
    )
    def test_label_count_must_match_feature_rows(self, rng, train_labels, test_labels):
        with pytest.raises(ContractError, match="one label per feature row"):
            knn_retrieval_accuracy(
                rng.normal(size=(3, 2)), train_labels, rng.normal(size=(2, 2)), test_labels, k=1, metric="cosine"
            )

    def test_k_out_of_range_rejected(self, rng):
        x = rng.normal(size=(3, 2))
        with pytest.raises(ContractError):
            knn_retrieval_accuracy(x, [0, 1, 2], x, [0, 1, 2], k=4, metric="cosine")

    @pytest.mark.parametrize("side", ["train", "test"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_features_rejected(self, rng, bad, side):
        feats = {"train": rng.normal(size=(5, 3)), "test": rng.normal(size=(2, 3))}
        feats[side][1, 2] = bad
        with pytest.raises(ContractError, match="finite"):
            knn_retrieval_accuracy(feats["train"], [0, 1, 2, 0, 1], feats["test"], [0, 1], k=1, metric="cosine")

    def test_euclidean_matches_oracle(self, rng):
        train = rng.normal(size=(12, 3))
        test = rng.normal(size=(5, 3))
        tl, ql = rng.integers(0, 3, 12), rng.integers(0, 3, 5)
        ours = knn_retrieval_accuracy(train, tl, test, ql, k=2, metric="euclidean")
        oracle = brute_force_accuracy(train, tl, test, ql, 2, metric="euclidean")
        assert ours == oracle


class TestKernelPaths:
    @staticmethod
    def oracle_hits(dist, train_labels, test_labels, k):
        """Per query: sort (distance, index) pairs and look for the class in the first k."""
        hits = []
        for q, row in enumerate(dist):
            order = sorted((float(d), j) for j, d in enumerate(row))
            hits.append(int(any(train_labels[j] == test_labels[q] for _, j in order[:k])))
        return np.array(hits, dtype=np.int64)

    def test_topk_matches_sorted_pairs_oracle_on_exact_ties(self, rng):
        for trial in range(40):
            n, q = int(rng.integers(2, 40)), int(rng.integers(1, 8))
            dist = rng.normal(size=(q, n))
            if trial % 2:
                dist = np.round(dist, 1)  # many exact ties across columns
            else:
                dist[:, -1] = dist[:, 0]  # a duplicated column
            tl = rng.integers(0, 3, n)
            ql = rng.integers(0, 3, q)
            for k in range(1, n + 3):
                out = kernels.topk_hits(dist, tl, ql, k)
                assert out.dtype == np.int64
                np.testing.assert_array_equal(out, self.oracle_hits(dist, tl, ql, k))

    def test_pairwise_cosine_unit_rows(self, rng):
        x = rng.normal(size=(4, 3))
        sims = kernels.pairwise_cosine(x, x)
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-12)
        assert np.all(sims <= 1.0 + 1e-12)


class TestPairwiseEuclidean:
    @staticmethod
    def broadcast_reference(x, y):
        return np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))

    @pytest.mark.parametrize("dim", [1, 3, 8, 17, 64, 129])
    def test_bytes_match_broadcast_on_random_inputs(self, rng, dim):
        x, y = rng.normal(size=(23, dim)), rng.normal(size=(41, dim))
        ours = kernels.pairwise_euclidean(x, y)
        assert ours.shape == (23, 41)
        assert ours.tobytes() == self.broadcast_reference(x, y).tobytes()

    def test_bytes_match_broadcast_with_duplicated_rows(self, rng):
        base = np.round(rng.normal(size=(6, 16)), 1)
        y = base[rng.integers(0, 6, size=40)]  # every train row repeated, exact ties
        x = np.concatenate([base, base[::-1], rng.normal(size=(4, 16))])
        ours = kernels.pairwise_euclidean(x, y)
        assert ours.tobytes() == self.broadcast_reference(x, y).tobytes()
        assert (ours == 0.0).sum() >= 40
        labels = np.arange(40) % 3
        hits = kernels.topk_hits(ours, labels, np.zeros(len(x), dtype=np.int64), 3)
        ref_hits = kernels.topk_hits(self.broadcast_reference(x, y), labels, np.zeros(len(x), dtype=np.int64), 3)
        np.testing.assert_array_equal(hits, ref_hits)

    def test_peak_memory_has_no_three_d_temporary(self, rng):
        x, y = rng.normal(size=(300, 64)), rng.normal(size=(600, 64))
        tracemalloc.start()
        try:
            kernels.pairwise_euclidean(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20  # the broadcast held 300 * 600 * 64 * 8 B = 92 MB


class TestEvaluateGlobal:
    CFG = RunConfig(rounds=1, n_clients=4, clients_per_round=1, frames=16, bands=8,
                    pretext_classes=3, pretext_per_class=10)
    SIZES = (CFG.frames * CFG.bands, CFG.hidden_dim, CFG.embed_dim, CFG.projection_dim)

    def _tasks(self):
        return downstream_suite(seed=3, frames=16, bands=8)

    def test_zero_weight_backbone_is_deterministic(self):
        params = map_values(
            init_encoder(*self.SIZES, seed=0),
            lambda _, t: Tensor(np.zeros_like(t.data))
        )
        a = evaluate_global(params, self._tasks(), k=1, round_idx=0, feature_layer="backbone", metric="cosine")
        b = evaluate_global(params, self._tasks(), k=1, round_idx=0, feature_layer="backbone", metric="cosine")
        assert [x.accuracy for x in a] == [x.accuracy for x in b]

    def test_accuracies_in_unit_interval(self):
        params = init_encoder(*self.SIZES, seed=1)
        for acc in evaluate_global(params, self._tasks(), k=1, round_idx=0, feature_layer="backbone", metric="cosine"):
            assert 0.0 <= acc.accuracy <= 1.0

    def test_random_encoder_beats_chance_on_separable_task(self):
        """Random-feature baseline oracle: band-profile task has 4 classes."""
        params = init_encoder(*self.SIZES, seed=2)
        accs = evaluate_global(params, self._tasks(), k=1, round_idx=0, feature_layer="backbone", metric="cosine")
        accs = {a.task: a.accuracy for a in accs}
        assert accs["bandprofile"] > 1.0 / 4.0

    def test_evaluation_does_not_mutate_model(self):
        params = init_encoder(*self.SIZES, seed=3)
        before = params_bytes(params)
        evaluate_global(params, self._tasks(), k=1, round_idx=0, feature_layer="backbone", metric="cosine")
        assert params_bytes(params) == before

    def test_projection_feature_layer_runs(self):
        params = init_encoder(*self.SIZES, seed=4)
        accs = evaluate_global(params, self._tasks(), k=1, round_idx=0, feature_layer="projection", metric="cosine")
        assert len(accs) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_clip_in_clip_list_dataset_rejected(self, bad):
        params = init_encoder(*self.SIZES, seed=0)
        name, train, test = self._tasks()[0]
        features = test.clips[2].features.copy()
        features[3, 1] = bad
        clips = list(test.clips)
        clips[2] = Clip(features=features, label=clips[2].label)
        bad_test = SynthDataset(clips=clips, n_classes=test.n_classes, generator=test.generator, split="test")
        with pytest.raises(ContractError, match="finite"):
            evaluate_global(
                params, [(name, train, bad_test)], k=1, round_idx=0, feature_layer="backbone", metric="cosine"
            )

    def test_empty_tasks_rejected(self):
        params = init_encoder(*self.SIZES, seed=0)
        with pytest.raises(ContractError):
            evaluate_global(params, [], k=1, round_idx=0, feature_layer="backbone", metric="cosine")

    def test_a_task_name_results_csv_cannot_hold_is_refused_where_its_row_is_made(self):
        params = init_encoder(*self.SIZES, seed=0)
        _, train, test = self._tasks()[0]
        with pytest.raises(ContractError, match=r"^task must be a non-empty printable name .*, got 'a,b'$"):
            evaluate_global(params, [("a,b", train, test)], k=1, round_idx=0, feature_layer="backbone", metric="cosine")


def acc(task, rnd, value, k=1):
    return TaskAccuracy(task=task, round=rnd, accuracy=value, k=k)


@pytest.mark.parametrize("field, value", [
    ("task", "a,b"), ("task", "x/y"), ("task", "x\\y"), ("task", ""), ("task", "a\0b"), ("task", "a\nb"),
    ("task", 7), ("round", -1), ("round", 1.0), ("accuracy", 1.5), ("accuracy", -0.1), ("accuracy", float("nan")),
    ("k", 0),
])
def test_task_accuracy_refuses_a_row_results_csv_cannot_hold(field, value):
    with pytest.raises(ContractError, match=f"^{field} "):
        TaskAccuracy(**{"task": "t", "round": 0, "accuracy": 0.5, "k": 1, field: value})


def test_task_accuracy_takes_round_0_and_the_ends_of_the_unit_interval():
    for value in (0, 0.0, 1.0):
        assert TaskAccuracy(task="band profile", round=0, accuracy=value, k=1).accuracy == value


class TestOptimaTracker:
    def test_keeps_previous_on_decline(self):
        tracker = OptimaTracker()
        for rnd, value in [(1, 0.10), (2, 0.12), (3, 0.11)]:
            update_optima(tracker, rnd, [acc("t", rnd, value)])
        best = tracker.best["t"]
        assert (best.accuracy, best.round) == (0.12, 2)

    def test_first_evaluation_installs_itself(self):
        tracker = OptimaTracker()
        update_optima(tracker, 5, [acc("t", 5, 0.0)])
        assert tracker.best["t"].round == 5

    def test_tie_keeps_earlier_round(self):
        tracker = OptimaTracker()
        update_optima(tracker, 1, [acc("t", 1, 0.5)])
        update_optima(tracker, 2, [acc("t", 2, 0.5)])
        assert tracker.best["t"].round == 1

    def test_out_of_order_round_rejected(self):
        tracker = OptimaTracker()
        update_optima(tracker, 3, [acc("t", 3, 0.5)])
        with pytest.raises(ContractError):
            update_optima(tracker, 3, [acc("t", 3, 0.6)])

    def test_row_of_another_round_rejected(self):
        tracker = OptimaTracker()
        with pytest.raises(ContractError, match=r"round 2 was given rows of rounds \[1\]"):
            update_optima(tracker, 2, [acc("x", 2, 0.3), acc("y", 1, 0.6)])
        assert tracker.best == {} and tracker.last_round == -1

    def test_keeps_the_row_it_was_given(self):
        tracker = OptimaTracker()
        row = acc("t", 4, 0.25, k=3)
        update_optima(tracker, 4, [row])
        assert tracker.best["t"] is row

    def test_independent_of_task_order_within_round(self):
        a, b = OptimaTracker(), OptimaTracker()
        accs = [acc("x", 1, 0.3), acc("y", 1, 0.6)]
        update_optima(a, 1, accs)
        update_optima(b, 1, list(reversed(accs)))
        assert a.summary_rows() == b.summary_rows()

    def test_summary_csv_format(self, tmp_path):
        tracker = OptimaTracker()
        update_optima(tracker, 10, [acc("b", 10, 0.125), acc("a", 10, 0.5)])
        cfg = TestEvaluateGlobal.CFG
        RunSink(tmp_path).close(cfg, init_encoder(*TestEvaluateGlobal.SIZES, seed=0), tracker)
        assert (tmp_path / "optima.csv").read_text() == "task,best_round,best_accuracy\na,10,0.500000\nb,10,0.125000\n"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=30)
)
def test_tracker_matches_max_with_earliest_argmax_oracle(trajectory):
    tracker = OptimaTracker()
    for i, value in enumerate(trajectory, start=1):
        update_optima(tracker, i, [acc("t", i, value)])
    best = tracker.best["t"]
    expected_best = max(trajectory)
    expected_round = trajectory.index(expected_best) + 1
    assert best.accuracy == expected_best
    assert best.round == expected_round
