"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is define-by-run: a ``Graph`` names the leaf tensors a step
differentiates, and while it is active every op with a tracked input (a
leaf or a recorded op's output) appends a record to the tape. ``backward``
replays the tape in exact reverse construction order and returns the
gradient of every leaf the loss reaches. Each record keeps one vjp per input
and ``None`` in the slot of an untracked input, so backward never forms a
gradient nobody uses (the first layer's gradient with respect to the input
batch, for one). With no active graph the same ops run as plain numpy
forward computations, which is what evaluation-only code paths use.

Every ``Tensor`` construction checks its values are finite, intermediates
included; an input that already is a C-contiguous float64 ndarray is stored
as is, without a conversion pass. Every operand of an op is a ``Tensor``,
with one exception: the right-hand operand of ``mul`` or ``div`` may be a
plain Python ``float``/``int`` (a temperature, a count, a loss weight). Such
a constant is checked finite, never becomes a ``Tensor`` and is no tape
input, and it gives the bits of the same value wrapped in a ``Tensor``. Any
other operand is a ``ContractError``.

Tensors are immutable values (``data`` must never be mutated after
construction), so one tensor can be a leaf of any number of graphs. The
active graphs form one module-level stack: graphs are recorded from one
thread only, and parallel work runs in processes, each with its own stack.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import POSITIVE, ContractError, check

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
    """A dense float64 array.

    Values are validated to be finite at construction; NaN/Inf anywhere is a
    contract violation, which keeps numerical blow-ups loud instead of
    silently propagating.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        if type(data) is np.ndarray and data.dtype is _FLOAT64 and data.ndim and data.flags.c_contiguous:
            arr = data
        else:  # ascontiguousarray also lifts a 0-d input to shape (1,)
            arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not _all_finite(np.isfinite(arr), axis=None):
            raise ContractError("tensor values must be finite (got NaN or Inf)")
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


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


_GRAPHS: list["Graph"] = []  # active graphs, innermost last


class Graph:
    """Records the ops computed from its named leaves; acyclic by construction.

    Use as a context manager around a forward pass, then call
    ``backward(graph, loss)``. Only the leaves and the outputs of recorded
    ops are tracked; every other tensor is a constant. A graph is single-use
    per forward pass; rebuild it for the next one.
    """

    def __init__(self, leaves: Mapping[str, Tensor]):
        self.leaves = dict(leaves)
        self.nodes: list[_Node] = []
        self._tracked: set[int] = {id(t) for t in self.leaves.values()}

    def __enter__(self) -> "Graph":
        _GRAPHS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _GRAPHS or _GRAPHS[-1] is not self:
            raise ContractError("graphs must exit innermost first")
        _GRAPHS.pop()


def backward(graph: Graph, loss: Tensor) -> dict[str, Tensor]:
    """Gradients of a scalar loss w.r.t. every leaf of ``graph`` it reaches, by name.

    Walks the tape in exact reverse construction order, so results are
    bit-identical for identical graphs. A leaf the loss does not reach gets
    no entry.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    pop, get = grads.pop, grads.get
    for node in reversed(graph.nodes):
        g_out = pop(id(node.out), None)
        if g_out is None:
            continue
        for t, vjp in zip(node.inputs, node.vjps):
            if vjp is None:
                continue
            g_in = vjp(g_out)
            key = id(t)
            acc = get(key)
            grads[key] = g_in if acc is None else acc + g_in
    return {name: Tensor(grads[id(leaf)]) for name, leaf in graph.leaves.items() if id(leaf) in grads}


def _tensor(x) -> Tensor:
    """An op's operand, which must be a ``Tensor``."""
    if type(x) is Tensor:
        return x
    raise ContractError(f"op operands must be Tensors, got {type(x).__name__}")


def _constant(x) -> float:
    """A Python float/int operand as a finite float constant of its op."""
    c = float(x)
    if not math.isfinite(c):
        raise ContractError("tensor values must be finite (got NaN or Inf)")
    return c


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g.reshape(shape)


def _filled(g: np.ndarray, shape: tuple) -> np.ndarray:
    """A new array of ``shape`` holding ``g`` broadcast (a reduction's vjp)."""
    out = np.empty(shape)
    out[...] = g
    return out


def _make(out_data, inputs: tuple, vjps: tuple) -> Tensor:
    """Wrap an op's output and, under an active graph, record its tracked inputs' vjps."""
    out = Tensor(out_data)
    if not _GRAPHS:
        return out
    g = _GRAPHS[-1]
    tracked = g._tracked
    if len(inputs) == 1:
        if id(inputs[0]) not in tracked:
            return out
    else:
        a, b = inputs
        ta, tb = id(a) in tracked, id(b) in tracked
        if not (ta or tb):
            return out
        if not (ta and tb):
            vjps = (vjps[0] if ta else None, vjps[1] if tb else None)
    g.nodes.append(_Node(out, inputs, vjps))
    tracked.add(id(out))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return _make(
        a.data + b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return _make(
        a.data - b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    a = _tensor(a)
    if type(b) is float or type(b) is int:
        c = _constant(b)
        return _make(a.data * c, (a,), (lambda g: g * c,))
    b = _tensor(b)
    return _make(
        a.data * b.data,
        (a, b),
        (lambda g: _unbroadcast(g * b.data, a.shape), lambda g: _unbroadcast(g * a.data, b.shape)),
    )


def div(a: Tensor, b: Tensor | float) -> Tensor:
    a = _tensor(a)
    if type(b) is float or type(b) is int:
        c = _constant(b)
        return _make(a.data / c, (a,), (lambda g: g / c,))
    b = _tensor(b)
    return _make(
        a.data / b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.shape),
            lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return _make(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    a = _tensor(a)
    if a.data.ndim != 2:
        raise ContractError(f"transpose needs a 2-d tensor, got shape {a.shape}")
    return _make(a.data.T, (a,), (lambda g: g.T,))


def relu(a: Tensor) -> Tensor:
    a = _tensor(a)
    # Subgradient at 0 is fixed to 0 for determinism.
    return _make(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0.0),))


def exp(a: Tensor) -> Tensor:
    a = _tensor(a)
    out_data = np.exp(a.data)
    return _make(out_data, (a,), (lambda g: g * out_data,))


def log(a: Tensor) -> Tensor:
    a = _tensor(a)
    return _make(np.log(a.data), (a,), (lambda g: g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    a = _tensor(a)
    out_data = np.sqrt(a.data)
    return _make(out_data, (a,), (lambda g: g * 0.5 / out_data,))


def maximum_const(a: Tensor, c: float) -> Tensor:
    """Elementwise max(a, c) with constant c; gradient passes only where a > c."""
    a = _tensor(a)
    return _make(np.maximum(a.data, c), (a,), (lambda g: g * (a.data > c),))


def sum_all(a: Tensor) -> Tensor:
    a = _tensor(a)
    return _make(np.add.reduce(a.data, axis=None), (a,), (lambda g: _filled(g, a.shape),))


def sum_axis(a: Tensor, axis: int) -> Tensor:
    a = _tensor(a)
    return _make(
        np.add.reduce(a.data, axis=axis, keepdims=True),
        (a,),
        (lambda g: _filled(g, a.shape),),
    )


def mean_all(a: Tensor) -> Tensor:
    a = _tensor(a)
    n = a.data.size
    return _make(
        np.add.reduce(a.data, axis=None) / n,
        (a,),
        (lambda g: _filled(g / n, a.shape),),
    )


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a = _tensor(a)
    return _make(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.shape),))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows by an integer index array; backward scatter-adds."""
    a = _tensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        out = np.zeros(a.shape)
        np.add.at(out, idx, g)
        return out

    return _make(a.data[idx], (a,), (vjp,))


def l2_normalize_rows(x: Tensor, eps: float) -> Tensor:
    """Divide each row by max(||row||_2, eps); zero rows stay zero."""
    check("eps", eps, POSITIVE)
    ss = sum_axis(mul(x, x), axis=1)
    denom = sqrt(maximum_const(ss, eps * eps))
    return div(x, denom)


def detached_rowmax(a: Tensor) -> Tensor:
    """Per-row max as a constant (no gradient); used to stabilize log-sum-exp."""
    return Tensor(np.maximum.reduce(_tensor(a).data, axis=1, keepdims=True))
