"""Numeric kernels for retrieval evaluation.

Pairwise cosine similarity runs through one BLAS matrix product, and
retrieval's distance is 1 minus it. The k-nearest scan is one vectorized
pass over the whole distance matrix and resolves distance ties toward the
lower training index. The kernels convert and check nothing:
``evaluator.knn_retrieval_accuracy`` hands them finite float64 features and
int64 labels of agreeing shapes, and a k in [1, train rows].
"""

from __future__ import annotations

import numpy as np

# Always False: the scan has a single numpy implementation. Kept because the
# benchmark (perfbench/worker.py) records it in its environment record.
USING_NUMBA = False


_NORM_FLOOR = 1e-12  # the least row norm divided by, so an all-zero row normalizes to zeros


def pairwise_cosine(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cosine similarity matrix between row sets; each row norm is floored at ``_NORM_FLOOR``."""
    xn = x / np.maximum(np.sqrt((x * x).sum(axis=1, keepdims=True)), _NORM_FLOOR)
    yn = y / np.maximum(np.sqrt((y * y).sum(axis=1, keepdims=True)), _NORM_FLOOR)
    return xn @ yn.T


def topk_hits(dist: np.ndarray, train_labels: np.ndarray, test_labels: np.ndarray, k: int) -> np.ndarray:
    """Per query (row of ``dist``): 1 if its class is among the k nearest columns.

    Equal distances resolve to the lower training index: ``argmin`` returns
    the first minimum, and a stable argsort keeps index order among ties.
    """
    if k == 1:
        nearest = np.argmin(dist, axis=1)[:, None]
    else:
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return (train_labels[nearest] == test_labels[:, None]).any(axis=1).astype(np.int64)
