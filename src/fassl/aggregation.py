"""Server-side aggregation: the weighted-combination family over client trees.

Every strategy produces a new global tree as a weighted combination of the
client trees; they differ only in how the weights are formed (sample counts,
uniform, loss magnitude, per-layer angular similarity, or divergence-gated).

Arithmetic discipline: updates are sorted by client_id before any math, and
combinations are computed as  ref + sum_i beta_i * (w_i - ref)  with the
first client as reference. That form makes unanimity and single-client
identity bit-exact while remaining the same convex combination. Each entry
is accumulated through one scratch array per entry, in the same client
order and with the same bits as ``acc += beta_i * (w_i - ref)``. The
updates are sorted and checked once per ``aggregate`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError
from .model import BACKBONE_PREFIX, ParamTree, flatten_layer, layer_names, merge

STRATEGY_KINDS = ("fedavg", "fairavg", "loss", "fedu", "ldawa")


@dataclass(frozen=True)
class Strategy:
    """Aggregation strategy selector plus its parameters."""

    kind: str
    fedu_mu: float = 0.5
    loss_direction: str = "high"  # "high": underfit clients weigh more; "low": inverse

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ContractError(f"unknown strategy {self.kind!r}, expected one of {STRATEGY_KINDS}")
        if not math.isfinite(self.fedu_mu):
            raise ContractError(f"fedu_mu must be finite, got {self.fedu_mu}")
        if self.kind == "fedu" and self.fedu_mu <= 0:
            raise ContractError(f"fedu divergence threshold must be positive, got {self.fedu_mu}")
        if self.loss_direction not in ("high", "low"):
            raise ContractError(f"loss_direction must be 'high' or 'low', got {self.loss_direction!r}")


@dataclass(frozen=True)
class ClientUpdate:
    """One client's post-training parameters (transceived scope only)."""

    client_id: int
    params: ParamTree
    n_samples: int
    mean_loss: float

    def __post_init__(self):
        if self.n_samples < 1:
            raise ContractError(f"n_samples must be >= 1, got {self.n_samples}")
        if not np.isfinite(self.mean_loss):
            raise ContractError(f"mean_loss must be finite, got {self.mean_loss}")


def _sorted_updates(updates: list[ClientUpdate]) -> list[ClientUpdate]:
    if not updates:
        raise ContractError("aggregate needs at least one client update")
    ups = sorted(updates, key=lambda u: u.client_id)
    first = ups[0].params
    for u in ups[1:]:
        if not u.params.congruent_with(first):
            raise ContractError(
             f"client {u.client_id} update is not congruent with client {ups[0].client_id}'s"
            )
    return ups


def _restrict(global_prev: ParamTree, names: list[str]) -> ParamTree:
    missing = [n for n in names if n not in global_prev]
    if missing:
        raise ContractError(f"updates carry parameters unknown to the global model: {missing}")
    return ParamTree([(n, global_prev.get(n)) for n in names])


def _combine(trees: list[ParamTree], weights: np.ndarray) -> ParamTree:
    """ref + sum_i w_i * (tree_i - ref); weights are expected to sum to 1."""
    ref = trees[0]

    def combine_entry(name, ref_t):
        r = ref_t.data
        acc = r.copy()
        tmp = np.empty_like(r)
        for tree, w in zip(trees, weights):
            np.subtract(tree.get(name).data, r, out=tmp)
            tmp *= w
            acc += tmp
        return Tensor(acc)

    return ref.map_values(combine_entry)


def beta_fedavg(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count proportional: beta_i = n_i / sum_j n_j."""
    counts = [u.n_samples for u in updates]
    total = sum(counts)  # exact integer sum
    return np.array([c / total for c in counts])


def beta_fairavg(updates: list[ClientUpdate]) -> np.ndarray:
    """Uniform: beta_i = 1/s."""
    s = len(updates)
    return np.full(s, 1.0 / s)


def beta_loss(updates: list[ClientUpdate], direction: str = "high") -> np.ndarray:
    """Loss-proportional; zero total falls back to uniform."""
    losses = np.array([u.mean_loss for u in updates])
    if np.any(losses < 0):
        raise ContractError("loss weighting requires non-negative mean losses")
    if direction == "low":
        losses = 1.0 / (losses + 1e-12)
    total = losses.sum()
    if total <= 0:
        return beta_fairavg(updates)
    return losses / total


def _subtree(tree: ParamTree, names: list[str]) -> ParamTree:
    return ParamTree._from_canonical([(n, tree.get(n)) for n in names])


def _ldawa(scope: ParamTree, ups: list[ClientUpdate]) -> ParamTree:
    """Layer-wise angular weighting against the previous global model.

    Per layer, beta_i = clamp(cos angle(client layer, global layer), 0, 1),
    renormalized; a layer whose betas all vanish falls back to uniform.
    """
    entries: list[tuple[str, Tensor]] = []
    for layer in layer_names(scope):
        names = [n for n in scope.names() if n.rsplit(".", 1)[0] == layer]
        g_flat = flatten_layer(scope, layer)
        g_norm = float(np.linalg.norm(g_flat))
        betas = []
        for u in ups:
            u_flat = flatten_layer(u.params, layer)
            denom = float(np.linalg.norm(u_flat)) * g_norm
            cos = 0.0 if denom == 0.0 else float(np.dot(u_flat, g_flat)) / denom
            betas.append(min(max(cos, 0.0), 1.0))
        betas = np.array(betas)
        total = betas.sum()
        if total < 1e-12:
            weights = np.full(len(ups), 1.0 / len(ups))
        else:
            weights = betas / total
        entries.extend(_combine([_subtree(u.params, names) for u in ups], weights).items())
    return ParamTree(entries)


def _fedu(scope: ParamTree, ups: list[ClientUpdate], mu: float) -> ParamTree:
    """Sample-weighted backbone; heads only from clients within the divergence gate.

    A client passes the gate when its relative backbone L2 divergence from
    the previous global is below mu. With no passing client the heads keep
    the previous global values.
    """
    bb_names = [n for n in scope.names() if n.startswith(BACKBONE_PREFIX)]
    head_names = [n for n in scope.names() if not n.startswith(BACKBONE_PREFIX)]

    out = list(_combine([_subtree(u.params, bb_names) for u in ups], beta_fedavg(ups)).items())

    if head_names:
        bb_g = np.concatenate([scope.get(n).data.reshape(-1) for n in bb_names])
        g_norm = float(np.linalg.norm(bb_g))

        def divergence(u: ClientUpdate) -> float:
            bb_u = np.concatenate([u.params.get(n).data.reshape(-1) for n in bb_names])
            diff = float(np.linalg.norm(bb_u - bb_g))
            if g_norm == 0.0:
                return 0.0 if diff == 0.0 else float("inf")
            return diff / g_norm

        passing = [u for u in ups if divergence(u) < mu]
        if not passing:
            out.extend((n, scope.get(n)) for n in head_names)
        else:
            head_trees = [_subtree(u.params, head_names) for u in passing]
            out.extend(_combine(head_trees, beta_fedavg(passing)).items())
    return ParamTree(out)


def aggregate(strategy: Strategy, global_prev: ParamTree, updates: list[ClientUpdate]) -> ParamTree:
    """New global tree over the transceived scope, per the strategy's weighting."""
    ups = _sorted_updates(updates)
    scope = _restrict(global_prev, ups[0].params.names())  # congruence with the global scope
    if strategy.kind == "ldawa":
        return _ldawa(scope, ups)
    if strategy.kind == "fedu":
        return _fedu(scope, ups, strategy.fedu_mu)
    if strategy.kind == "fedavg":
        weights = beta_fedavg(ups)
    elif strategy.kind == "fairavg":
        weights = beta_fairavg(ups)
    else:
        weights = beta_loss(ups, strategy.loss_direction)
    return _combine([u.params for u in ups], weights)


def scope_apply(scope: str, global_prev: ParamTree, aggregated: ParamTree) -> ParamTree:
    """Fold an aggregated transceived scope back into a full global tree."""
    if scope == "full":
        if aggregated.names() != global_prev.names():
            raise ContractError("full-scope aggregate does not cover the global tree")
        return aggregated
    if scope == "backbone":
        expected = [n for n in global_prev.names() if n.startswith(BACKBONE_PREFIX)]
        if aggregated.names() != expected:
            raise ContractError("backbone-scope aggregate does not match the global backbone")
        heads = ParamTree([(n, t) for n, t in global_prev.items() if not n.startswith(BACKBONE_PREFIX)])
        return merge(aggregated, heads)
    raise ContractError(f"unknown scope {scope!r} (expected 'full' or 'backbone')")
