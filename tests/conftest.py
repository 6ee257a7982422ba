"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import ctypes
import itertools
import os
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from fassl.autodiff import Tensor
from fassl.checkpoint import save_params
from fassl.errors import ContractError
from fassl.model import ParamTree, init_encoder


# Inputs that are not a batch of clips; the batch builders and local_train reject each.
BAD_BATCHES = {
    "empty": np.zeros((0, 12, 4)),
    "2-d": np.zeros((12, 4)),
    "4-d": np.zeros((2, 1, 12, 4)),
    "float32": np.zeros((3, 12, 4), dtype=np.float32),
    "int64": np.zeros((3, 12, 4), dtype=np.int64),
    "list": [np.zeros((12, 4))] * 3,
}
BAD_BATCH_MESSAGE = r"needs a non-empty \(n, frames, bands\) float64 array, got a "
# The choices of model.SCOPE, which states them only inside its rule
SCOPES = ("full", "backbone")


def gradclose(analytic: dict, numeric: dict, rtol: float = 1e-4, atol: float = 1e-8) -> bool:
    """Gradient-map comparison at the finite-difference tolerance.

    ``numeric`` covers every parameter. A name ``backward`` left out of
    ``analytic`` (a leaf the loss does not reach) is compared as exact zeros,
    so every parameter is still checked. The atol floor only absorbs
    central-difference roundoff (|f|*eps/step, ~1e-10 here), far below any
    real gradient signal.
    """
    assert set(analytic) <= set(numeric)
    return all(
        np.allclose(g.data, analytic[name].data if name in analytic else 0.0, rtol=rtol, atol=atol)
        for name, g in numeric.items()
    )


def finite_diff_grad(f: Callable[[ParamTree], float], params: ParamTree, step: float) -> dict[str, Tensor]:
    """Central-difference gradient of a scalar function of the tree.

    Test oracle: O(2 * n_scalars) evaluations of f, so keep fixtures small.
    """
    if step <= 0:
        raise ContractError(f"step must be positive, got {step}")
    grads: dict[str, Tensor] = {}
    for name, t in params.items():
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            for sign in (+1.0, -1.0):
                bumped = flat.copy()
                bumped[i] += sign * step
                probe = map_values(
                    params,
                    lambda n, old, name=name, bumped=bumped: Tensor(bumped.reshape(old.shape))
                    if n == name
                    else old
                )
                if sign > 0:
                    f_plus = f(probe)
                else:
                    f_minus = f(probe)
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads[name] = Tensor(g)
    return grads


def map_values(tree: ParamTree, fn: Callable[[str, Tensor], Tensor]) -> ParamTree:
    """The tree with each entry replaced by fn(name, tensor); fn returns a Tensor."""
    return ParamTree([(name, fn(name, t)) for name, t in tree.items()])


def resample_frames(features: np.ndarray, target_frames: int) -> np.ndarray:
    """Nearest-frame resampling along the time axis: output frame f reads (f * frames) // target_frames.

    Oracle for the crop and segment index tables of ``ssl_tasks``.
    """
    return features[(np.arange(target_frames) * features.shape[0]) // target_frames]


def params_bytes(tree: ParamTree) -> bytes:
    """The checkpoint container of tree: the bytes save_params writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.ckpt"
        save_params(tree, path)
        return path.read_bytes()


def flatten_layer(params: ParamTree, layer: str) -> list[np.ndarray]:
    """A layer's entries, each flattened row-major, in canonical name order (the ldawa byte reference)."""
    parts = [t.data.reshape(-1) for name, t in params.items() if name.rsplit(".", 1)[0] == layer]
    if not parts:
        raise ContractError(f"unknown layer {layer!r}")
    return parts


def bundled_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy's wheel bundles, as ``fassl`` pins it, or None on a numpy built otherwise."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    return lib


def tiny_sizes(input_dim: int = 10) -> tuple[int, int, int, int]:
    """A small encoder's (input_dim, hidden_dim, embed_dim, projection_dim), as ``init_encoder`` takes them."""
    return input_dim, 7, 6, 5


def perturbed_params(sizes: tuple[int, int, int, int], seed: int):
    """An encoder tree nudged off the zero-bias init, emulating mid-training state."""
    rng = np.random.default_rng(seed)
    base = init_encoder(*sizes, seed=seed + 1000)
    return map_values(
        base, lambda _, t: Tensor(t.data + rng.normal(0.0, 0.3, size=t.shape))
    )


def fd_fixture_ok(params, batch: np.ndarray, step: float = 1e-5) -> bool:
    """Screen a (params, batch) fixture for central-difference validity.

    Rejects fixtures whose forward pass sits too close to a non-smooth
    region at the fd step scale: a ReLU preactivation within 10*step of its
    kink, a near-zero embedding row (normalization guard region), or a
    near-constant projection column (standardization guard region).
    """
    x = np.asarray(batch)
    pre1 = x @ params.get("backbone.fc1.weight").data + params.get("backbone.fc1.bias").data
    h1 = np.maximum(pre1, 0.0)
    pre2 = h1 @ params.get("backbone.fc2.weight").data + params.get("backbone.fc2.bias").data
    emb = np.maximum(pre2, 0.0)
    pre3 = emb @ params.get("head.proj.fc1.weight").data + params.get("head.proj.fc1.bias").data
    h3 = np.maximum(pre3, 0.0)
    z = h3 @ params.get("head.proj.fc2.weight").data + params.get("head.proj.fc2.bias").data
    kink_margin = min(np.abs(p).min() for p in (pre1, pre2, pre3))
    if kink_margin < 10.0 * step:
        return False
    if np.linalg.norm(z, axis=1).min() < 1e-3:
        return False
    half = len(z) // 2
    for rows in (z[0::2][:half], z[1::2][:half]):
        if rows.std(axis=0).min() < 1e-3:
            return False
    return True


# Uncached oracles of the per-shape constants ssl_tasks builds once and keeps
# read-only, each written out from its definition.
def oracle_pair_layout(two_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pair losses at 2n rows: the even rows, the odd rows, each anchor's pair, nt_xent's -1e30 self-mask."""
    mask = np.zeros((two_n, two_n))
    np.fill_diagonal(mask, -1e30)
    anchors = np.arange(two_n)
    return anchors[anchors % 2 == 0], anchors[anchors % 2 == 1], anchors // 2, mask


def interleave(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """The view matrix of n pairs whose rows 2i and 2i + 1 are za[i] and zb[i], as two_view_batch lays them out."""
    return np.array([row for pair in zip(za, zb) for row in pair])


def oracle_eye_constants(d: int) -> tuple[np.ndarray, np.ndarray]:
    """barlow_twins at d columns: the identity and the off-diagonal mask."""
    eye = np.array([[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)])
    return eye, 1.0 - eye


def oracle_crop_rows(frames: int, crop_fraction: float) -> np.ndarray | None:
    """Row s: the source frame of each output frame when cropping at s and resampling back; None when uncropped."""
    crop_len = max(1, int(round(crop_fraction * frames)))
    if crop_len >= frames:
        return None
    return np.array([[s + f * crop_len // frames for f in range(frames)] for s in range(frames - crop_len + 1)])


def oracle_order_rows(frames: int, segments: int = 3) -> np.ndarray:
    """[p, k]: the source frames of the k-th segment shown under the p-th lexicographic order."""
    seg_len = frames // segments
    return np.array([
        [[j * seg_len + f * seg_len // frames for f in range(frames)] for j in order]
        for order in itertools.permutations(range(segments))
    ])


# Where a file written through a temporary sibling can fail: the sibling's write, or its rename over the target
FILE_WRITE_FAILURES = ("write", "replace")


def fail_file_writes(monkeypatch: pytest.MonkeyPatch, failure: str, name: str) -> None:
    """Make every later write of the file ``name`` fail: a torn write of half its bytes, or a failed rename."""
    if failure == "write":
        real_write_bytes = Path.write_bytes

        def torn_write(self, data):
            if not self.name.startswith(name):
                return real_write_bytes(self, data)
            real_write_bytes(self, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
    else:
        real_replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name != name:
                return real_replace(src, dst)
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
