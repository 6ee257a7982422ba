"""Named parameter trees and the small MLP encoder.

The encoder is a two-layer MLP backbone plus two task heads living in one
tree: a projection head for the feature-matching pretext tasks and a linear
classifier for the clip-order task. Names are dotted paths with a
"backbone." or "head.<task>." prefix; that split is what backbone-only
transceiving operates on.

ParamTree is an immutable value: entries are kept in canonical
(lexicographic) name order so aggregation arithmetic and serialization are
deterministic and identical trees serialize to identical bytes. Because
tensors never change their arrays, a client trains on the global tree's own
tensors with no copy: a step names them as its graph's leaves, and
``sgd_step`` writes each new parameter into one array of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError

BACKBONE_PREFIX = "backbone."
SCOPES = ("full", "backbone")


class ParamTree:
    """Ordered, named map of parameter tensors.

    Two trees are congruent iff they have the same names with the same
    shapes; every aggregation/splitting operation preserves congruence.
    """

    __slots__ = ("_entries", "_index")

    def __init__(self, entries):
        items = [(str(name), t if isinstance(t, Tensor) else Tensor(t)) for name, t in entries]
        items.sort(key=lambda kv: kv[0])
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ContractError(f"duplicate parameter names: {dupes}")
        self._entries = tuple(items)
        self._index = {name: t for name, t in items}

    @classmethod
    def _from_canonical(cls, items: list) -> "ParamTree":
        """A tree from (name, Tensor) pairs already in canonical order with unique names."""
        tree = cls.__new__(cls)
        tree._entries = tuple(items)
        tree._index = dict(items)
        return tree

    @classmethod
    def empty(cls) -> "ParamTree":
        return cls([])

    def names(self) -> list[str]:
        return [name for name, _ in self._entries]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries)

    def as_dict(self) -> dict[str, Tensor]:
        return dict(self._entries)

    def get(self, name: str) -> Tensor:
        try:
            return self._index[name]
        except KeyError:
            raise ContractError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._entries)

    def congruent_with(self, other: "ParamTree") -> bool:
        return self.names() == other.names() and all(
            a.shape == b.shape for (_, a), (_, b) in zip(self._entries, other._entries)
        )

    def map_values(self, fn: Callable[[str, Tensor], Tensor]) -> "ParamTree":
        items = []
        for name, t in self._entries:
            v = fn(name, t)
            items.append((name, v if isinstance(v, Tensor) else Tensor(v)))
        return ParamTree._from_canonical(items)

    def clone(self) -> "ParamTree":
        """New tensors over the same (immutable) arrays.

        No library code calls it. Kept, like ``kernels.USING_NUMBA``, because
        the benchmark (perfbench/tracing.py) wraps it.
        """
        return self.map_values(lambda _, t: Tensor(t.data))

    def equal_bytes(self, other: "ParamTree") -> bool:
        if not self.congruent_with(other):
            return False
        return all(
            a.data.tobytes() == b.data.tobytes()
            for (_, a), (_, b) in zip(self._entries, other._entries)
        )


@dataclass(frozen=True)
class EncoderConfig:
    """Dimensions of the encoder; input_dim is the flattened frames*bands view."""

    input_dim: int
    hidden_dim: int
    embed_dim: int
    projection_dim: int
    acop_classes: int
    acop_segments: int = 3

    def __post_init__(self):
        for field in ("input_dim", "hidden_dim", "embed_dim", "projection_dim", "acop_classes", "acop_segments"):
            if getattr(self, field) < 1:
                raise ContractError(f"{field} must be >= 1")


def _linear_layers(cfg: EncoderConfig) -> list[tuple[str, int, int]]:
    return [
        ("backbone.fc1", cfg.input_dim, cfg.hidden_dim),
        ("backbone.fc2", cfg.hidden_dim, cfg.embed_dim),
        ("head.proj.fc1", cfg.embed_dim, cfg.hidden_dim),
        ("head.proj.fc2", cfg.hidden_dim, cfg.projection_dim),
        ("head.acop.fc", cfg.acop_segments * cfg.embed_dim, cfg.acop_classes),
    ]


def init_encoder(cfg: EncoderConfig, seed: int) -> ParamTree:
    """Seeded init: weights uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero.

    Pure in (cfg, seed): the same pair always yields a bit-identical tree.
    Weight matrices are stored (in, out) so the forward pass is x @ W + b.
    """
    rng = np.random.default_rng(seed)
    entries = []
    for layer, fan_in, fan_out in _linear_layers(cfg):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        entries.append((f"{layer}.weight", Tensor(w)))
        entries.append((f"{layer}.bias", Tensor(np.zeros(fan_out))))
    return ParamTree(entries)


def _linear(params: ParamTree, layer: str, x: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, params.get(f"{layer}.weight")), params.get(f"{layer}.bias"))


def encode(params: ParamTree, batch: Tensor) -> Tensor:
    """Backbone forward: the per-sample embedding used as the retrieval feature."""
    batch = batch if isinstance(batch, Tensor) else Tensor(batch)
    expected = params.get("backbone.fc1.weight").shape[0]
    if batch.data.ndim != 2 or batch.shape[1] != expected:
        raise ContractError(
            f"encode expects batch of shape (n, {expected}), got {batch.shape}"
        )
    h = ad.relu(_linear(params, "backbone.fc1", batch))
    return ad.relu(_linear(params, "backbone.fc2", h))


def project(params: ParamTree, embeddings: Tensor) -> Tensor:
    """Projection head on top of the backbone embedding (feature-matching losses)."""
    h = ad.relu(_linear(params, "head.proj.fc1", embeddings))
    return _linear(params, "head.proj.fc2", h)


def acop_logits(params: ParamTree, concat_embeddings: Tensor) -> Tensor:
    """Order-classification head over concatenated segment embeddings."""
    return _linear(params, "head.acop.fc", concat_embeddings)


def split(params: ParamTree, scope: str) -> tuple[ParamTree, ParamTree]:
    """Partition a tree into (transceived, retained) per the transfer scope."""
    if scope == "full":
        return params, ParamTree.empty()
    if scope == "backbone":
        trans = [(n, t) for n, t in params.items() if n.startswith(BACKBONE_PREFIX)]
        kept = [(n, t) for n, t in params.items() if not n.startswith(BACKBONE_PREFIX)]
        return ParamTree._from_canonical(trans), ParamTree._from_canonical(kept)
    raise ContractError(f"unknown scope {scope!r}, expected one of {SCOPES}")


def merge(a: ParamTree, b: ParamTree) -> ParamTree:
    """Disjoint union, re-sorted into canonical order."""
    overlap = set(a.names()) & set(b.names())
    if overlap:
        raise ContractError(f"merge with overlapping names: {sorted(overlap)}")
    return ParamTree(list(a.items()) + list(b.items()))


def layer_names(params: ParamTree) -> list[str]:
    """Layer = name minus its last dotted component, in canonical order."""
    seen: list[str] = []
    for name, _ in params.items():
        layer = name.rsplit(".", 1)[0]
        if layer not in seen:
            seen.append(layer)
    return seen


def sgd_step(params: ParamTree, grads: Mapping[str, Tensor], lr: float) -> ParamTree:
    """p <- p - lr*g for every named parameter with a gradient; others unchanged.

    Each new parameter is computed in one fresh array: lr*g first, then p
    minus it written over that same array, which gives the bits of
    ``p - lr * g``. Neither ``params`` nor ``grads`` is written to.
    """
    if lr <= 0:
        raise ContractError(f"lr must be positive, got {lr}")
    unknown = [name for name in grads if name not in params]
    if unknown:
        raise ContractError(f"gradients for unknown parameters: {sorted(unknown)}")

    def step(name: str, t: Tensor) -> Tensor:
        g = grads.get(name)
        if g is None:
            return t
        if g.shape != t.shape:
            raise ContractError(f"gradient shape {g.shape} != parameter shape {t.shape} for {name!r}")
        upd = g.data * lr
        np.subtract(t.data, upd, out=upd)
        return Tensor(upd)

    return params.map_values(step)
