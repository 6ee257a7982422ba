"""Server-side aggregation: the weighted-combination family over client trees.

Every strategy produces a new global tree as a weighted combination of the
client trees; they differ only in how the weights are formed (sample counts,
uniform, loss magnitude, per-layer angular similarity, or divergence-gated).
So each strategy only forms its weight groups, ``(entry names, member
updates, weights)``: one group over every entry for fedavg, fairavg and
loss, one per layer for ldawa, and for fedu the backbone over all updates
then the heads over the clients its gate lets through. Every entry of every
group then goes through one fold.

Arithmetic discipline: updates are sorted by client_id before any math, and
each entry is folded as  ref + sum_i beta_i * (w_i - ref)  with the group's
first member as reference. That form makes unanimity and single-client
identity bit-exact while remaining the same convex combination. The fold
accumulates through one scratch array per entry, in the same client order
and with the same bits as ``acc += beta_i * (w_i - ref)``. The updates are
sorted and checked once per ``aggregate`` call. Weights and gates are
inner products read in place: a norm or inner product over a group adds one
``np.dot`` per entry in name order, with no concatenated copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import COUNT, POSITIVE, ContractError, check, check_fields, instance_of, one_of
from .model import ParamTree, merge, split

STRATEGY_KINDS = ("fedavg", "fairavg", "loss", "fedu", "ldawa")
# Which clients the loss strategy weighs more: "high", the underfit ones; "low", the inverse (``beta_loss``)
LOSS_DIRECTION = one_of("high", "low")


@dataclass(frozen=True)
class Strategy:
    """Aggregation strategy selector plus its parameters; only fedu reads fedu_mu, but every kind checks it."""

    kind: str
    fedu_mu: float = 0.5
    loss_direction: str = "high"

    RULES = {"kind": one_of(*STRATEGY_KINDS), "fedu_mu": POSITIVE, "loss_direction": LOSS_DIRECTION}

    def __post_init__(self):
        check_fields(self)


STRATEGY = instance_of(Strategy)


@dataclass(frozen=True)
class ClientUpdate:
    """One client's post-training parameters (transceived scope only)."""

    client_id: int
    params: ParamTree
    n_samples: int
    mean_loss: float

    def __post_init__(self):
        check("n_samples", self.n_samples, COUNT)
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


def _fold(name: str, members: list[ClientUpdate], weights: np.ndarray) -> Tensor:
    """ref + sum_i w_i * (member_i - ref) for one entry; weights are expected to sum to 1."""
    r = members[0].params.get(name).data
    acc = r.copy()
    tmp = np.empty_like(r)
    for u, w in zip(members, weights):
        np.subtract(u.params.get(name).data, r, out=tmp)
        tmp *= w
        acc += tmp
    return Tensor(acc)


def _dot(xs: list[np.ndarray], ys: list[np.ndarray]) -> float:
    """sum_k <xs[k], ys[k]>: one ``np.dot`` per entry pair, read in place."""
    return sum(float(np.dot(x.reshape(-1), y.reshape(-1))) for x, y in zip(xs, ys))


def beta_fedavg(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count proportional: beta_i = n_i / sum_j n_j."""
    counts = [u.n_samples for u in updates]
    total = sum(counts)  # exact integer sum
    return np.array([c / total for c in counts])


def beta_fairavg(updates: list[ClientUpdate]) -> np.ndarray:
    """Uniform: beta_i = 1/s."""
    s = len(updates)
    return np.full(s, 1.0 / s)


def beta_loss(updates: list[ClientUpdate], loss_direction: str) -> np.ndarray:
    """Loss-proportional; zero total falls back to uniform."""
    check("loss_direction", loss_direction, LOSS_DIRECTION)
    losses = np.array([u.mean_loss for u in updates])
    if np.any(losses < 0):
        raise ContractError("loss weighting requires non-negative mean losses")
    if loss_direction == "low":
        losses = 1.0 / (losses + 1e-12)
    total = losses.sum()
    if total <= 0:
        return beta_fairavg(updates)
    return losses / total


def _ldawa(global_prev: ParamTree, ups: list[ClientUpdate]) -> list[tuple]:
    """Layer-wise angular weighting against the previous global model.

    Per layer, beta_i = clamp(cos angle(client layer, global layer), 0, 1),
    renormalized; a layer whose betas all vanish falls back to uniform.
    """
    layers: dict[str, list[str]] = {}  # layer = entry name minus its last dotted component
    for name in ups[0].params.names():
        layers.setdefault(name.rsplit(".", 1)[0], []).append(name)
    groups = []
    for names in layers.values():
        g = [global_prev.get(n).data for n in names]
        g_norm = math.sqrt(_dot(g, g))
        betas = []
        for u in ups:
            w = [u.params.get(n).data for n in names]
            denom = math.sqrt(_dot(w, w)) * g_norm
            cos = 0.0 if denom == 0.0 else _dot(w, g) / denom
            betas.append(min(max(cos, 0.0), 1.0))
        betas = np.array(betas)
        total = betas.sum()
        weights = beta_fairavg(ups) if total < 1e-12 else betas / total
        groups.append((names, ups, weights))
    return groups


def _fedu(global_prev: ParamTree, ups: list[ClientUpdate], mu: float) -> list[tuple]:
    """Sample-weighted backbone; heads only from clients within the divergence gate.

    A client passes the gate when its relative backbone L2 divergence from
    the previous global is below mu. With no passing client the heads group
    has no members, so the heads keep the previous global values.
    """
    backbone, heads = (t.names() for t in split(ups[0].params, "backbone"))
    groups = [(backbone, ups, beta_fedavg(ups))]
    if heads:
        g = [global_prev.get(n).data for n in backbone]
        g_norm = math.sqrt(_dot(g, g))

        def divergence(u: ClientUpdate) -> float:
            d = [u.params.get(n).data - x for n, x in zip(backbone, g)]
            diff = math.sqrt(_dot(d, d))
            if g_norm == 0.0:
                return 0.0 if diff == 0.0 else float("inf")
            return diff / g_norm

        passing = [u for u in ups if divergence(u) < mu]
        groups.append((heads, passing, beta_fedavg(passing)))
    return groups


def aggregate(strategy: Strategy, global_prev: ParamTree, updates: list[ClientUpdate]) -> ParamTree:
    """New global tree over the transceived scope, per the strategy's weighting.

    Every entry of every weight group is folded over the group's members;
    a group with no members keeps the previous global values.
    """
    check("strategy", strategy, STRATEGY)
    ups = _sorted_updates(updates)
    names = ups[0].params.names()
    missing = [n for n in names if n not in global_prev]
    if missing:
        raise ContractError(f"updates carry parameters unknown to the global model: {missing}")
    if strategy.kind == "ldawa":
        groups = _ldawa(global_prev, ups)
    elif strategy.kind == "fedu":
        groups = _fedu(global_prev, ups, strategy.fedu_mu)
    elif strategy.kind == "fedavg":
        groups = [(names, ups, beta_fedavg(ups))]
    elif strategy.kind == "fairavg":
        groups = [(names, ups, beta_fairavg(ups))]
    else:
        groups = [(names, ups, beta_loss(ups, strategy.loss_direction))]
    folded: dict[str, Tensor] = {}
    for group_names, members, weights in groups:
        for name in group_names:
            folded[name] = _fold(name, members, weights) if members else global_prev.get(name)
    return ParamTree._from_canonical([(n, folded[n]) for n in names])


def scope_apply(scope: str, global_prev: ParamTree, aggregated: ParamTree) -> ParamTree:
    """Fold an aggregated transceived scope back into a full global tree."""
    transceived, kept = split(global_prev, scope)
    if aggregated.names() != transceived.names():
        raise ContractError(f"{scope}-scope aggregate does not match the global tree's {scope} part")
    return merge(aggregated, kept) if len(kept) else aggregated
