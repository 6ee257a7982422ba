"""Downstream retrieval evaluation and per-task best-model tracking.

Evaluation is training-free: test-set features query the training-set
features, and a query counts as correct when its true class appears among
the classes of its k nearest training samples. The tracker keeps, per task,
the best ``TaskAccuracy`` row seen so far, which names the round that
produced it, replacing it only on strict improvement (ties keep the earlier
model). ``TaskAccuracy`` states its fields' rules in its ``RULES`` table,
which the results reader in ``orchestrator`` checks the columns by; this
module writes and reads no file.

A generated dataset is encoded straight from the one feature matrix it
owns, so evaluating it copies no clip. The orchestrator evaluates after a
round's client updates are released, so the evaluation's temporaries reuse
their memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .autodiff import Tensor
from .data import SynthDataset
from .errors import COUNT, ContractError, check, check_fields, one_of
from .model import ParamTree, encode, project

# Which embedding a query is retrieved by: the backbone's, or the projection head's on top of it
FEATURE_LAYER = one_of("backbone", "projection")
# How far apart two embeddings are: 1 - cosine similarity, or Euclidean distance
METRIC = one_of("cosine", "euclidean")


def retrieval_k(train_rows: int) -> tuple:
    """k's rule for a train set of train_rows rows: a query's k nearest rows must exist."""
    return (int, lambda v: 1 <= v <= train_rows,
            f"{{name}} must lie in [1, {train_rows}] (train clips of a downstream task), got {{value}}")


@dataclass(frozen=True)
class TaskAccuracy:
    """A task's retrieval accuracy at one round: the rate of queries with a hit among the k nearest."""

    task: str
    round: int
    accuracy: float
    k: int

    RULES = {
        # a task name is a results.csv field and part of a plot's file name
        "task": (str, lambda v: v != "" and v.isprintable() and not set(v) & set(",/\\"),
                 "{name} must be a non-empty printable name without ',', '/' or '\\', got {value!r}"),
        "round": (int, lambda v: v >= 0, "{name} must be non-negative, got {value}"),  # round 0: the initial model
        "accuracy": (float, lambda v: 0 <= v <= 1, "{name} must lie in [0, 1], got {value}"), "k": COUNT,
    }

    def __post_init__(self):
        check_fields(self)


def knn_retrieval_accuracy(train_feats, train_labels, test_feats, test_labels, k: int, metric: str) -> float:
    """Fraction of test queries whose class appears among the k nearest train rows.

    Cosine distance is 1 - cosine similarity on eps-normalized rows
    (invariant to any common positive feature scaling); "euclidean" is the
    flag-switchable alternative. Distance ties resolve to the lower
    training index. Features must be finite.
    """
    train = np.asarray(train_feats, dtype=np.float64)
    test = np.asarray(test_feats, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    if train.ndim != 2 or test.ndim != 2 or train.shape[1] != test.shape[1]:
        raise ContractError(f"feature shapes disagree: train {train.shape}, test {test.shape}")
    if train_labels.shape != (train.shape[0],) or test_labels.shape != (test.shape[0],):
        raise ContractError(
            f"need one label per feature row: train {train_labels.shape} for {train.shape[0]} rows,"
            f" test {test_labels.shape} for {test.shape[0]} rows"
        )
    if train.shape[0] == 0 or test.shape[0] == 0:
        raise ContractError("knn retrieval needs non-empty train and test sets")
    if not (np.isfinite(train).all() and np.isfinite(test).all()):
        raise ContractError("knn retrieval needs finite features")
    check("k", k, retrieval_k(train.shape[0]))
    check("metric", metric, METRIC)
    if metric == "cosine":
        dist = 1.0 - kernels.pairwise_cosine(test, train)
    else:
        dist = kernels.pairwise_euclidean(test, train)
    hits = kernels.topk_hits(dist, train_labels, test_labels, k)
    return float(hits.sum()) / test.shape[0]


def _dataset_features(w_g: ParamTree, dataset: SynthDataset, feature_layer: str) -> np.ndarray:
    """The dataset's encodings; its Tensor rejects non-finite clip values."""
    emb = encode(w_g, Tensor(dataset.feature_matrix()))
    if feature_layer == "projection":
        emb = project(w_g, emb)
    return emb.data


def evaluate_global(
    w_g: ParamTree,
    tasks: list[tuple[str, SynthDataset, SynthDataset]],
    k: int,
    round_idx: int,
    feature_layer: str,
    metric: str,
) -> list[TaskAccuracy]:
    """Retrieval accuracy of the global model on every downstream task.

    Runs outside any autodiff graph; the model is never modified.
    """
    if not tasks:
        raise ContractError("evaluate_global needs at least one task")
    check("feature_layer", feature_layer, FEATURE_LAYER)
    out = []
    for name, train, test in tasks:
        acc = knn_retrieval_accuracy(
            _dataset_features(w_g, train, feature_layer),
            train.labels(),
            _dataset_features(w_g, test, feature_layer),
            test.labels(),
            k,
            metric=metric,
        )
        out.append(TaskAccuracy(task=name, round=round_idx, accuracy=acc, k=k))
    return out


@dataclass
class OptimaTracker:
    """Per-task record of the best global model seen so far (strict improvement)."""

    best: dict[str, TaskAccuracy] = field(default_factory=dict)
    last_round: int = -1

    def summary_rows(self) -> list[tuple[str, int, float]]:
        return [(task, b.round, b.accuracy) for task, b in sorted(self.best.items())]


def update_optima(tracker: OptimaTracker, round_idx: int, accs: list[TaskAccuracy]) -> None:
    """Install strictly better rows; on ties the earlier round stays. Every row must be of round_idx."""
    if round_idx <= tracker.last_round:
        raise ContractError(
            f"rounds must be presented in increasing order ({round_idx} after {tracker.last_round})"
        )
    other = sorted({acc.round for acc in accs} - {round_idx})
    if other:
        raise ContractError(f"round {round_idx} was given rows of rounds {other}")
    tracker.last_round = round_idx
    for acc in accs:
        cur = tracker.best.get(acc.task)
        if cur is None or acc.accuracy > cur.accuracy:
            tracker.best[acc.task] = acc
