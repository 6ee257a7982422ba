"""Deterministic federated self-supervised learning simulator.

Pretrains small audio-like encoders with contrastive, feature-matching, or
clip-order pretext tasks across non-iid simulated clients, aggregates with a
pluggable strategy family (full-model or backbone-only transceiving), and
tracks the per-downstream-task optimal global model via kNN retrieval.

The package root re-exports only the names its callers import from it:
``run`` and its ``RunConfig``, and the ``Strategy`` and data builders the
benchmark drives. Every other name is imported from its own module
(``fassl.orchestrator``'s ``initial_state``, ``run_round`` and ``RunSink``,
say).
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

from .aggregation import Strategy
from .data import SynthDataset, dirichlet_partition, downstream_suite, synth_dataset
from .orchestrator import RunConfig, run

__all__ = ["RunConfig", "run", "Strategy", "SynthDataset", "dirichlet_partition", "downstream_suite", "synth_dataset"]
