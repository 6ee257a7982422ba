"""Named parameter trees and the small MLP encoder.

The encoder is a two-layer MLP backbone plus two task heads living in one
tree: a projection head for the feature-matching pretext tasks and a linear
classifier for the clip-order task. Names are dotted paths with a
"backbone." or "head.<task>." prefix; that split is what backbone-only
transceiving operates on.

ParamTree is an immutable value whose entries are ``Tensor``s, kept in
canonical (lexicographic) name order so aggregation arithmetic and
serialization are deterministic and identical trees serialize to identical
bytes. Because tensors never change their arrays, a client trains on the
global tree's own tensors with no copy: a step names them as its graph's
leaves, and ``sgd_step`` writes each new parameter into one array of its own.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import COUNT, POSITIVE, ContractError, check, one_of

BACKBONE_PREFIX = "backbone."
# What a round transceives: the whole tree, or only its backbone (``split``)
SCOPE = one_of("full", "backbone")

# The clip-order task cuts a clip into ACOP_SEGMENTS segments and presents
# them in one of ACOP_ORDERS (lexicographic); an order's index is its class.
ACOP_SEGMENTS = 3
ACOP_ORDERS = tuple(itertools.permutations(range(ACOP_SEGMENTS)))


class ParamTree:
    """Ordered, named map of parameter tensors.

    Two trees are congruent iff they have the same names with the same
    shapes; every aggregation/splitting operation preserves congruence.
    """

    __slots__ = ("_params",)

    def __init__(self, entries):
        items = list(entries)
        for name, t in items:
            if not isinstance(name, str):
                raise ContractError(f"parameter name {name!r} must be a str, got {type(name).__name__}")
            if not isinstance(t, Tensor):
                raise ContractError(f"parameter {name!r} must be a Tensor, got {type(t).__name__}")
        items.sort(key=lambda kv: kv[0])
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ContractError(f"duplicate parameter names: {dupes}")
        self._params = dict(items)  # insertion order is the canonical order

    @classmethod
    def _from_canonical(cls, items: list) -> "ParamTree":
        """A tree from (name, Tensor) pairs already in canonical order with unique names."""
        tree = cls.__new__(cls)
        tree._params = dict(items)
        return tree

    @classmethod
    def empty(cls) -> "ParamTree":
        return cls([])

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def as_dict(self) -> dict[str, Tensor]:
        return dict(self._params)

    def get(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ContractError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def congruent_with(self, other: "ParamTree") -> bool:
        return self.names() == other.names() and all(
            a.shape == b.shape for a, b in zip(self._params.values(), other._params.values())
        )

    def clone(self) -> "ParamTree":
        """New tensors over the same (immutable) arrays.

        No library code calls it. Kept, like ``kernels.USING_NUMBA``, because
        the benchmark (perfbench/tracing.py) wraps it.
        """
        return ParamTree._from_canonical([(name, Tensor(t.data)) for name, t in self._params.items()])

    def equal_bytes(self, other: "ParamTree") -> bool:
        if not self.congruent_with(other):
            return False
        return all(
            a.data.tobytes() == b.data.tobytes()
            for a, b in zip(self._params.values(), other._params.values())
        )


def init_encoder(input_dim: int, hidden_dim: int, embed_dim: int, projection_dim: int, seed: int) -> ParamTree:
    """Seeded init: weights uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero.

    input_dim is a clip's flattened frames*bands. Pure in (sizes, seed): the
    same values always yield a bit-identical tree. Weight matrices are
    stored (in, out) so the forward pass is x @ W + b.
    """
    sizes = (("input_dim", input_dim), ("hidden_dim", hidden_dim), ("embed_dim", embed_dim),
             ("projection_dim", projection_dim))
    for name, size in sizes:
        check(name, size, COUNT)
    layers = [
        ("backbone.fc1", input_dim, hidden_dim),
        ("backbone.fc2", hidden_dim, embed_dim),
        ("head.proj.fc1", embed_dim, hidden_dim),
        ("head.proj.fc2", hidden_dim, projection_dim),
        ("head.acop.fc", ACOP_SEGMENTS * embed_dim, len(ACOP_ORDERS)),
    ]
    rng = np.random.default_rng(seed)
    entries = []
    for layer, fan_in, fan_out in layers:
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        entries.append((f"{layer}.weight", Tensor(w)))
        entries.append((f"{layer}.bias", Tensor(np.zeros(fan_out))))
    return ParamTree(entries)


def _linear(params: ParamTree, layer: str, x: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, params.get(f"{layer}.weight")), params.get(f"{layer}.bias"))


def encode(params: ParamTree, batch: Tensor) -> Tensor:
    """Backbone forward: the per-sample embedding used as the retrieval feature."""
    if type(batch) is not Tensor:
        raise ContractError(f"encode needs a Tensor batch, got {type(batch).__name__}")
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
    check("scope", scope, SCOPE)
    if scope == "full":
        return params, ParamTree.empty()
    trans = [(n, t) for n, t in params.items() if n.startswith(BACKBONE_PREFIX)]
    kept = [(n, t) for n, t in params.items() if not n.startswith(BACKBONE_PREFIX)]
    return ParamTree._from_canonical(trans), ParamTree._from_canonical(kept)


def merge(a: ParamTree, b: ParamTree) -> ParamTree:
    """Disjoint union, re-sorted into canonical order; a shared name is a ContractError."""
    return ParamTree(list(a.items()) + list(b.items()))


def sgd_step(params: ParamTree, grads: Mapping[str, Tensor], lr: float) -> ParamTree:
    """p <- p - lr*g for every named parameter with a gradient; others unchanged.

    Each new parameter is computed in one fresh array: lr*g first, then p
    minus it written over that same array, which gives the bits of
    ``p - lr * g``. Neither ``params`` nor ``grads`` is written to.
    """
    check("lr", lr, POSITIVE)
    unknown = [name for name in grads if name not in params]
    if unknown:
        raise ContractError(f"gradients for unknown parameters: {sorted(unknown)}")

    items = []
    for name, t in params.items():
        g = grads.get(name)
        if g is not None:
            if g.shape != t.shape:
                raise ContractError(f"gradient shape {g.shape} != parameter shape {t.shape} for {name!r}")
            upd = g.data * lr
            np.subtract(t.data, upd, out=upd)
            t = Tensor(upd)
        items.append((name, t))
    return ParamTree._from_canonical(items)
