"""Reverse-mode automatic differentiation over dense numpy arrays.

Design: a micrograd-style tape. Every op produces a new Tensor holding its
value, its parents and a closure that routes the upstream gradient to the
parents. A closure captures arrays and parents but never its own output
node, so a graph holds no reference cycle and is freed as soon as the loss
is dropped, without waiting for the cyclic garbage collector.

The in-place rule: no graph may be alive across an optimizer step. Ops save
their inputs' arrays for the backward pass, and the trainable leaves are
views of one buffer that the optimizer updates in place (params.flatten,
training.Adam), so a graph that outlived a step would differentiate at the
new values. Between steps, several graphs may evaluate over the same leaves.

The gradient rule: a backward writes only into arrays it allocated in that
call, and a stored gradient is never written: a node's first gradient is
stored as given, and each later one replaces it with a new sum. So nodes
may share one gradient array (add gives both parents its g) or hold a view
of another's (reshape, transpose, sum_'s broadcast).

Fused primitives: token_shift, sigmoid_mul and relu_square each run a chain
of the RWKV block's elementwise ops as one node with a hand-written backward,
because at the model's sizes a node costs more in dispatch and temporaries
than in arithmetic. They keep the chains' operation order and bitwise output.

Precision: a leaf keeps a float32 or float64 array as given and converts
anything else to float32; intermediate results and gradients follow numpy
promotion, so casting the leaves to float64 is enough to run a whole graph
in double precision.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when two operands have incompatible shapes."""


class NonFiniteError(FloatingPointError):
    """Raised where a non-finite value would otherwise go on silently: a WKV
    step's input, a perplexity's NLL sum, a gradient check's perturbed loss,
    a gradient's global norm."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Skip tape recording inside the block (inference/eval)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus its position in the computation graph.

    An op only ever takes existing tensors as parents, so the graph is
    acyclic by construction and the DFS post-order of _toposort lists every
    node after all of its parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _op: str = "leaf"):
        if isinstance(data, np.ndarray) and (_op != "leaf" or data.dtype in (np.float32, np.float64)):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        # backward never visits the inputs of a node that needs no gradient;
        # dropping them lets no_grad (and frozen) intermediates be freed early
        self._parents = _parents if self.requires_grad else ()
        self._backward = None
        self.op = _op

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        """Add g to this node's gradient as a new sum, never in place (the gradient rule)."""
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Reverse-accumulate d(self)/d(leaf) for every requires_grad leaf."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _needs_grad(*tensors) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum the upstream gradient back down to a broadcast operand's shape."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data, _needs_grad(a, b), (a, b), "add")
    if out.requires_grad:
        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        out._backward = bwd
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data, _needs_grad(a, b), (a, b), "mul")
    if out.requires_grad:
        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        out._backward = bwd
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c, _needs_grad(a), (a,), "scale")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(g * c)
    return out


def sigmoid_mul(a: Tensor, b: Tensor) -> Tensor:
    """sigmoid(a) * b, the receptance gate, as one node."""
    s = 1.0 / (1.0 + np.exp(-a.data))
    try:
        data = s * b.data
    except ValueError:
        raise ShapeError(f"sigmoid_mul: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data, _needs_grad(a, b), (a, b), "sigmoid_mul")
    if out.requires_grad:
        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data * s * (1.0 - s), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * s, b.shape))
        out._backward = bwd
    return out


def relu_square(a: Tensor) -> Tensor:
    """max(a, 0) ** 2, the channel-mix key activation, as one node."""
    r = np.maximum(a.data, 0.0)
    out = Tensor(r * r, _needs_grad(a), (a,), "relu_square")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(g * 2.0 * r)
    return out


def token_shift(a: Tensor, first_row: np.ndarray, mu: Tensor) -> Tensor:
    """mu * a + (1 - mu) * prev for a (T, ..., 1 or n, d), mu (n, d) broadcast over rows.

    prev is a shifted one step down the time axis (0) behind first_row (..., n, d),
    the previous chunk's last rows; no gradient crosses the chunk boundary. An
    input all n perspectives share (1 on axis -2) splits here into n rows.
    """
    x, m = a.data, mu.data
    shape = x.shape
    if (x.ndim < 3 or m.ndim != 2 or shape[-1] != m.shape[1] or shape[-2] not in (1, m.shape[0])
            or np.shape(first_row) != shape[1:-2] + m.shape):
        raise ShapeError(f"token_shift: input {shape}, first_row {np.shape(first_row)}, "
                         f"mu {m.shape}")
    prev = np.empty(shape[:-2] + m.shape, x.dtype)
    prev[0] = first_row
    prev[1:] = x[:-1]
    out = Tensor(x * m + prev * (1.0 - m), _needs_grad(a, mu), (a, mu), "token_shift")
    if out.requires_grad:
        def bwd(g):
            if a.requires_grad:
                ga = g * m
                ga[:-1] += g[1:] * (1.0 - m)
                a._accumulate(_unbroadcast(ga, shape))
            if mu.requires_grad:
                mu._accumulate((g * (x - prev)).reshape((-1,) + m.shape).sum(axis=0))
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# linear algebra / shape primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., d) @ (d, k), as one GEMM over the flattened rows."""
    if a.data.ndim == 0 or b.data.ndim != 2:
        raise ShapeError(f"matmul: need (..., d) @ (d, k), got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    rows = a.data.reshape(-1, b.shape[0])
    out = Tensor((rows @ b.data).reshape(a.shape[:-1] + b.shape[1:]),
                 _needs_grad(a, b), (a, b), "matmul")
    if out.requires_grad:
        def bwd(g):
            g2 = g.reshape(-1, b.shape[1])
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b._accumulate(rows.T @ g2)
        out._backward = bwd
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, _needs_grad(a), (a,), "transpose")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(g.T)
    return out


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of all entries, or over one axis."""
    out = Tensor(np.asarray(a.data.sum(axis=axis)), _needs_grad(a), (a,), "sum")
    if out.requires_grad:
        def bwd(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape))
        out._backward = bwd
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), _needs_grad(a), (a,), "reshape")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(g.reshape(a.shape))
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, _needs_grad(a), (a,), "softmax")
    if out.requires_grad:
        def bwd(g):
            dot = (g * p).sum(axis=-1, keepdims=True)
            a._accumulate(p * (g - dot))
        out._backward = bwd
    return out


LAYER_NORM_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis; constant rows map to the bias."""
    if a.shape[-1] != gain.shape[0] or gain.shape != bias.shape:
        raise ShapeError(f"layer_norm: shapes {a.shape}, {gain.shape}, {bias.shape}")
    # row means as add.reduce / d: what ndarray.mean computes, bitwise,
    # without its Python-level wrapper
    d = a.shape[-1]
    mu = np.add.reduce(a.data, axis=-1, keepdims=True) / d
    xm = a.data - mu
    var = np.add.reduce(xm * xm, axis=-1, keepdims=True) / d
    invstd = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xm * invstd
    out = Tensor(xhat * gain.data + bias.data, _needs_grad(a, gain, bias),
                 (a, gain, bias), "layer_norm")
    if out.requires_grad:
        def bwd(g):
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(g, bias.shape))
            if gain.requires_grad:
                gain._accumulate(_unbroadcast(g * xhat, gain.shape))
            if a.requires_grad:
                dxhat = g * gain.data
                m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
                m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
                a._accumulate(invstd * (dxhat - m1 - xhat * m2))
        out._backward = bwd
    return out


def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[t] = table[ids[t]]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range [0, {table.shape[0]})")
    out = Tensor(table.data[ids], _needs_grad(table), (table,), "embed")
    if out.requires_grad:
        def bwd(g):
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            table._accumulate(gt)
        out._backward = bwd
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, shifted by the row max."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token negative log-likelihood (natural log) over all rows."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    logp = _log_softmax(logits.data)
    rows = np.arange(targets.shape[0])
    out = Tensor(np.asarray(-logp[rows, targets].mean()), _needs_grad(logits),
                 (logits,), "cross_entropy")
    if out.requires_grad:
        def bwd(g):
            p = np.exp(logp)
            p[rows, targets] -= 1.0
            logits._accumulate(p * (g / targets.shape[0]))
        out._backward = bwd
    return out
