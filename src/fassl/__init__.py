"""Deterministic federated self-supervised learning simulator.

Pretrains small audio-like encoders with contrastive, feature-matching, or
clip-order pretext tasks across non-iid simulated clients, aggregates with a
pluggable strategy family (full-model or backbone-only transceiving), and
tracks the per-downstream-task optimal global model via kNN retrieval.
"""

import ctypes
from pathlib import Path

import numpy as np


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread, so no byte depends on how many threads BLAS would run.

    Called once, as ``fassl`` loads. The pin is process-wide (every numpy call
    in the process runs one BLAS thread) and overrides ``OPENBLAS_NUM_THREADS``.
    On a numpy without ``numpy.libs/libscipy_openblas64_*.so`` or its
    ``scipy_openblas_set_num_threads64_`` (another BLAS build) it does nothing.
    """
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", lambda threads: None)(1)


_pin_blas_threads()

from .aggregation import ClientUpdate, Strategy, aggregate, scope_apply
from .autodiff import Graph, Tensor, backward
from .data import Clip, Partition, SynthDataset, dirichlet_partition, downstream_suite, synth_dataset
from .evaluator import OptimaTracker, TaskAccuracy, evaluate_global, knn_retrieval_accuracy, update_optima
from .model import ParamTree, encode, init_encoder, merge, sgd_step, split
from .orchestrator import RunConfig, RunResult, local_train, run, run_round, sample_clients

__version__ = "0.1.0"

__all__ = [
    "ClientUpdate",
    "Strategy",
    "aggregate",
    "scope_apply",
    "Graph",
    "Tensor",
    "backward",
    "Clip",
    "Partition",
    "SynthDataset",
    "dirichlet_partition",
    "downstream_suite",
    "synth_dataset",
    "OptimaTracker",
    "TaskAccuracy",
    "evaluate_global",
    "knn_retrieval_accuracy",
    "update_optima",
    "ParamTree",
    "encode",
    "init_encoder",
    "merge",
    "sgd_step",
    "split",
    "RunConfig",
    "RunResult",
    "local_train",
    "run",
    "run_round",
    "sample_clients",
    "__version__",
]
