"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is define-by-run: while a ``Graph`` context is active, every op
with at least one tracked input appends a record to the tape, and
``backward`` replays the tape in exact reverse construction order. Each
record keeps one vjp per input and ``None`` in the slot of an untracked
input, so backward never forms a gradient nobody uses (the first layer's
gradient with respect to the input batch, for one). With no active graph the
same ops run as plain numpy forward computations, which is what
evaluation-only code paths use.

Every ``Tensor`` construction checks its values are finite, intermediates
included; an input that already is a C-contiguous float64 ndarray is stored
as is, without a conversion pass. A plain Python ``float``/``int`` operand
(a temperature, a count, a loss weight) is lifted to a shape-(1,) float64
array directly, so it takes that fast path too.

Tensors are immutable values; ``data`` must never be mutated after
construction. Graphs and the tensors recorded on them are confined to one
worker thread (the active-graph stack is thread-local, so concurrent workers
each get their own tape).
"""

from __future__ import annotations

import threading
from typing import Mapping

import numpy as np

from .errors import ContractError

__all__ = [
    "Tensor",
    "Graph",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "relu",
    "exp",
    "log",
    "sqrt",
    "sum_all",
    "sum_axis",
    "mean_all",
    "maximum_const",
    "transpose",
    "reshape",
    "gather_rows",
    "l2_normalize_rows",
    "detached_rowmax",
]


_FLOAT64 = np.dtype(np.float64)
_all_finite = np.logical_and.reduce  # np.all without its Python-level wrapper


class Tensor:
    """A dense float64 array plus a requires_grad flag.

    Values are validated to be finite at construction; NaN/Inf anywhere is a
    contract violation, which keeps numerical blow-ups loud instead of
    silently propagating.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is np.ndarray and data.dtype is _FLOAT64 and data.ndim and data.flags.c_contiguous:
            arr = data
        else:  # ascontiguousarray also lifts a 0-d input to shape (1,)
            arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not _all_finite(np.isfinite(arr), axis=None):
            raise ContractError("tensor values must be finite (got NaN or Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One tape record: output tensor, input tensors, and one vjp per input.

    ``vjps[i]`` maps the output gradient to input i's gradient; it is None
    when input i was untracked at record time, so backward skips it.
    """

    __slots__ = ("out", "inputs", "vjps")

    def __init__(self, out: Tensor, inputs: tuple, vjps: tuple):
        self.out = out
        self.inputs = inputs
        self.vjps = vjps


_STACK = threading.local()


def _graph_stack() -> list:
    stack = getattr(_STACK, "graphs", None)
    if stack is None:
        stack = []
        _STACK.graphs = stack
    return stack


class Graph:
    """Records ops in construction order; acyclic by construction.

    Use as a context manager around a forward pass, then call
    ``backward(graph, loss, leaves)``. A graph is single-use per forward
    pass; rebuild it for the next one.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._tracked: set[int] = set()

    def __enter__(self) -> "Graph":
        _graph_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _graph_stack().pop()
        assert popped is self

    def read(self, leaves: Mapping[str, Tensor]) -> dict[str, Tensor]:
        """The entries of ``leaves`` that some recorded op took as a tracked input.

        A leaf no op read cannot reach the loss; a caller that hands
        ``backward`` only these leaves gets no zero gradient for the rest.
        """
        read = {id(t) for node in self.nodes for t, vjp in zip(node.inputs, node.vjps) if vjp is not None}
        return {name: t for name, t in leaves.items() if id(t) in read}

    def _tracks(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._tracked

    def _record(self, out: Tensor, inputs: tuple, vjps: tuple) -> None:
        self.nodes.append(_Node(out, inputs, vjps))
        self._tracked.add(id(out))


def backward(graph: Graph, loss: Tensor, leaves: Mapping[str, Tensor]) -> dict[str, Tensor]:
    """Gradients of a scalar loss w.r.t. every requires_grad leaf.

    Walks the tape in exact reverse construction order, so results are
    bit-identical for identical graphs. Leaves that do not reach the loss
    get an explicit zero gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(graph.nodes):
        g_out = grads.pop(id(node.out), None)
        if g_out is None:
            continue
        for t, vjp in zip(node.inputs, node.vjps):
            if vjp is None:
                continue
            g_in = vjp(g_out)
            acc = grads.get(id(t))
            grads[id(t)] = g_in if acc is None else acc + g_in
    out: dict[str, Tensor] = {}
    for name, leaf in leaves.items():
        if not leaf.requires_grad:
            continue
        g = grads.get(id(leaf))
        out[name] = Tensor(np.zeros_like(leaf.data) if g is None else g)
    return out


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if type(x) is float or type(x) is int:
        return Tensor(np.full(1, x, dtype=np.float64))
    return Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _make(out_data, inputs: tuple, vjps: tuple) -> Tensor:
    """Wrap an op's output and, under an active graph, record its tracked inputs' vjps."""
    out = Tensor(out_data)
    stack = getattr(_STACK, "graphs", None)
    if not stack:
        return out
    g = stack[-1]
    tracks = g._tracks
    if len(inputs) == 1:
        if tracks(inputs[0]):
            g._record(out, inputs, vjps)
        return out
    a, b = inputs
    ta, tb = tracks(a), tracks(b)
    if ta or tb:
        g._record(out, inputs, vjps if ta and tb else (vjps[0] if ta else None, vjps[1] if tb else None))
    return out


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data + b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data - b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data * b.data,
        (a, b),
        (lambda g: _unbroadcast(g * b.data, a.shape), lambda g: _unbroadcast(g * a.data, b.shape)),
    )


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data / b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.shape),
            lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return _make(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ContractError(f"transpose needs a 2-d tensor, got shape {a.shape}")
    return _make(a.data.T, (a,), (lambda g: g.T,))


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    # Subgradient at 0 is fixed to 0 for determinism.
    return _make(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0.0),))


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)
    return _make(out_data, (a,), (lambda g: g * out_data,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _make(np.log(a.data), (a,), (lambda g: g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.sqrt(a.data)
    return _make(out_data, (a,), (lambda g: g * 0.5 / out_data,))


def maximum_const(a: Tensor, c: float) -> Tensor:
    """Elementwise max(a, c) with constant c; gradient passes only where a > c."""
    a = _as_tensor(a)
    return _make(np.maximum(a.data, c), (a,), (lambda g: g * (a.data > c),))


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _make(np.sum(a.data), (a,), (lambda g: np.broadcast_to(g, a.shape).copy(),))


def sum_axis(a: Tensor, axis: int) -> Tensor:
    a = _as_tensor(a)
    return _make(
        np.sum(a.data, axis=axis, keepdims=True),
        (a,),
        (lambda g: np.broadcast_to(g, a.shape).copy(),),
    )


def mean_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    return _make(
        np.sum(a.data) / n,
        (a,),
        (lambda g: np.broadcast_to(g / n, a.shape).copy(),),
    )


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a = _as_tensor(a)
    return _make(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.shape),))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows by an integer index array; backward scatter-adds."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return out

    return _make(a.data[idx], (a,), (vjp,))


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Divide each row by max(||row||_2, eps); zero rows stay zero."""
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    x = _as_tensor(x)
    ss = sum_axis(mul(x, x), axis=1)
    denom = sqrt(maximum_const(ss, eps * eps))
    return div(x, denom)


def detached_rowmax(a: Tensor) -> Tensor:
    """Per-row max as a constant (no gradient); used to stabilize log-sum-exp."""
    return Tensor(np.max(a.data, axis=1, keepdims=True))
