"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from fassl.autodiff import Tensor
from fassl.checkpoint import save_params
from fassl.errors import ContractError
from fassl.model import EncoderConfig, ParamTree, init_encoder


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
                probe = params.map_values(
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


def params_bytes(tree: ParamTree) -> bytes:
    """The checkpoint container of tree: the bytes save_params writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.ckpt"
        save_params(tree, path)
        return path.read_bytes()


def flatten_layer(params: ParamTree, layer: str) -> np.ndarray:
    """Row-major concatenation of a layer's entries in canonical name order (ldawa oracle)."""
    parts = [t.data.reshape(-1) for name, t in params.items() if name.rsplit(".", 1)[0] == layer]
    if not parts:
        raise ContractError(f"unknown layer {layer!r}")
    return np.concatenate(parts)


def tiny_encoder_config(input_dim: int = 10) -> EncoderConfig:
    return EncoderConfig(
        input_dim=input_dim, hidden_dim=7, embed_dim=6, projection_dim=5, acop_classes=6
    )


def perturbed_params(cfg: EncoderConfig, seed: int):
    """An encoder tree nudged off the zero-bias init, emulating mid-training state."""
    rng = np.random.default_rng(seed)
    base = init_encoder(cfg, seed=seed + 1000)
    return base.map_values(
        lambda _, t: Tensor(t.data + rng.normal(0.0, 0.3, size=t.shape))
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
