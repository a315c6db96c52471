"""Reverse-mode automatic differentiation over dense numpy arrays.

Design: a micrograd-style tape whose graph holds no forward values. An op's
result is a Tensor holding its array; if it needs a gradient it also points
to a small graph node (_Node) holding the parents' nodes, a closure that
routes the upstream gradient to them, and the gradient received so far. A
leaf is its own node. Each closure saves only the arrays it reads (matmul
keeps its input rows only when the weight needs a gradient, add and reshape
keep shapes only) and its parents' nodes, never a parent Tensor, so an op
output the caller drops is freed at once even while the graph lives. No
closure captures its own node, so a graph holds no reference cycle and is
freed by reference counting alone.

backward() consumes the graph: each interior node drops its gradient, its
closure and its parent links as soon as its closure has run, so memory falls
during the walk. Only leaves keep .grad; an interior one is not kept, and a
second backward() through a consumed node raises. Frozen leaves (no
gradient) are not in the graph at all.

The in-place rule: no graph may be alive across an optimizer step. Closures
save arrays for the backward pass, and the trainable leaves are views of
one buffer that the optimizer updates in place (params.flatten,
training.Adam), so a graph that outlived a step would differentiate at the
new values. Between steps, several graphs may evaluate over the same leaves.

The gradient rule: a backward writes only into arrays it allocated in that
call, and a stored gradient is never written: every gradient is stored by
_accumulate, which keeps a node's first gradient as given and replaces each
later one with a new sum. So nodes may share one gradient array (add gives
both parents its g) or hold a view of another's (reshape, transpose, sum_'s
broadcast).

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


class _Node:
    """An op result's place in the graph: the nodes of the parents that need
    a gradient, the closure that routes a gradient to them, and the
    gradient received so far. It holds no forward value.

    An op only ever takes existing nodes as parents, so the graph is acyclic
    by construction and the DFS post-order of _toposort lists every node
    after all of its parents.
    """

    __slots__ = ("grad", "_parents", "_backward", "__weakref__")

    def __init__(self, backward, *parents):
        self.grad = None
        self._parents = tuple(filter(None, parents))   # None: a parent with no gradient
        self._backward = backward


def _accumulate(node, g: np.ndarray) -> None:
    """Add g to node's gradient as a new sum, never in place (the gradient
    rule). Every gradient the tape stores, a leaf's or an interior node's,
    is stored here."""
    node.grad = g if node.grad is None else node.grad + g


def _consumed(g):
    raise RuntimeError("backward: the graph was already consumed by an earlier backward(); "
                       "run the forward pass again to build a new one")


class Tensor:
    """A dense array, and for a leaf its gradient.

    A leaf that requires a gradient is its own graph node: it has no parents
    and no closure. An op result that requires one points to its _Node.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_node", "__weakref__")
    _parents = ()                                # as a node, a leaf has none

    def __init__(self, data, requires_grad: bool = False, _op: str = "leaf"):
        if isinstance(data, np.ndarray) and (_op != "leaf" or data.dtype in (np.float32, np.float64)):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = _op
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def _backward(self):
        """The closure of this tensor's node, None for a leaf or a result
        that needs no gradient. Settable, so a caller can wrap it (the
        benchmark's tracer times each closure this way)."""
        node = self._node
        return None if node is None else node._backward

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse-accumulate d(self)/d(leaf) into every requires_grad leaf's
        .grad, consuming the graph as it goes (see the module docstring)."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        root = _node_of(self)
        if root is None:
            return
        order = _toposort(root)
        root.grad = np.ones_like(self.data)
        for node in reversed(order):
            fn = node._backward
            if fn is None:                       # a leaf
                continue
            g = node.grad
            node.grad, node._backward, node._parents = None, _consumed, ()
            if g is not None:
                fn(g)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _node_of(t: Tensor):
    """t's graph node, or None where t needs no gradient."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _toposort(root):
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
    out = Tensor(data, _needs_grad(a, b), "add")
    if out.requires_grad:
        na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.shape, b.shape

        def bwd(g):
            if na is not None:
                _accumulate(na, _unbroadcast(g, a_shape))
            if nb is not None:
                _accumulate(nb, _unbroadcast(g, b_shape))
        out._node = _Node(bwd, na, nb)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data, _needs_grad(a, b), "mul")
    if out.requires_grad:
        na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.shape, b.shape
        # each operand is read only for the other's gradient
        ad = a.data if nb is not None else None
        bd = b.data if na is not None else None

        def bwd(g):
            if na is not None:
                _accumulate(na, _unbroadcast(g * bd, a_shape))
            if nb is not None:
                _accumulate(nb, _unbroadcast(g * ad, b_shape))
        out._node = _Node(bwd, na, nb)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c, _needs_grad(a), "scale")
    if out.requires_grad:
        na = _node_of(a)
        out._node = _Node(lambda g: _accumulate(na, g * c), na)
    return out


def sigmoid_mul(a: Tensor, b: Tensor) -> Tensor:
    """sigmoid(a) * b, the receptance gate, as one node."""
    s = 1.0 / (1.0 + np.exp(-a.data))
    try:
        data = s * b.data
    except ValueError:
        raise ShapeError(f"sigmoid_mul: incompatible shapes {a.shape} and {b.shape}") from None
    out = Tensor(data, _needs_grad(a, b), "sigmoid_mul")
    if out.requires_grad:
        na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.shape, b.shape
        bd = b.data if na is not None else None

        def bwd(g):
            if na is not None:
                _accumulate(na, _unbroadcast(g * bd * s * (1.0 - s), a_shape))
            if nb is not None:
                _accumulate(nb, _unbroadcast(g * s, b_shape))
        out._node = _Node(bwd, na, nb)
    return out


def relu_square(a: Tensor) -> Tensor:
    """max(a, 0) ** 2, the channel-mix key activation, as one node."""
    r = np.maximum(a.data, 0.0)
    out = Tensor(r * r, _needs_grad(a), "relu_square")
    if out.requires_grad:
        na = _node_of(a)
        out._node = _Node(lambda g: _accumulate(na, g * 2.0 * r), na)
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
    out = Tensor(x * m + prev * (1.0 - m), _needs_grad(a, mu), "token_shift")
    if out.requires_grad:
        na, nmu = _node_of(a), _node_of(mu)
        if nmu is None:
            x = prev = None                       # read only for mu's gradient

        def bwd(g):
            if na is not None:
                ga = g * m
                ga[:-1] += g[1:] * (1.0 - m)
                _accumulate(na, _unbroadcast(ga, shape))
            if nmu is not None:
                _accumulate(nmu, (g * (x - prev)).reshape((-1,) + m.shape).sum(axis=0))
        out._node = _Node(bwd, na, nmu)
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
    out = Tensor((rows @ b.data).reshape(a.shape[:-1] + b.shape[1:]), _needs_grad(a, b), "matmul")
    if out.requires_grad:
        na, nb, a_shape, k = _node_of(a), _node_of(b), a.shape, b.shape[1]
        # the input rows are read only for the weight's gradient, the weight
        # only for the input's
        bd = b.data if na is not None else None
        if nb is None:
            rows = None

        def bwd(g):
            g2 = g.reshape(-1, k)
            if na is not None:
                _accumulate(na, (g2 @ bd.T).reshape(a_shape))
            if nb is not None:
                _accumulate(nb, rows.T @ g2)
        out._node = _Node(bwd, na, nb)
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, _needs_grad(a), "transpose")
    if out.requires_grad:
        na = _node_of(a)
        out._node = _Node(lambda g: _accumulate(na, g.T), na)
    return out


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of all entries, or over one axis."""
    out = Tensor(np.asarray(a.data.sum(axis=axis)), _needs_grad(a), "sum")
    if out.requires_grad:
        na, a_shape = _node_of(a), a.shape

        def bwd(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accumulate(na, np.broadcast_to(g, a_shape))
        out._node = _Node(bwd, na)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), _needs_grad(a), "reshape")
    if out.requires_grad:
        na, a_shape = _node_of(a), a.shape
        out._node = _Node(lambda g: _accumulate(na, g.reshape(a_shape)), na)
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, _needs_grad(a), "softmax")
    if out.requires_grad:
        na = _node_of(a)

        def bwd(g):
            dot = (g * p).sum(axis=-1, keepdims=True)
            _accumulate(na, p * (g - dot))
        out._node = _Node(bwd, na)
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
    out = Tensor(xhat * gain.data + bias.data, _needs_grad(a, gain, bias), "layer_norm")
    if out.requires_grad:
        na, ngain, nbias, p_shape = _node_of(a), _node_of(gain), _node_of(bias), gain.shape
        gd = gain.data if na is not None else None

        def bwd(g):
            if nbias is not None:
                _accumulate(nbias, _unbroadcast(g, p_shape))
            if ngain is not None:
                _accumulate(ngain, _unbroadcast(g * xhat, p_shape))
            if na is not None:
                dxhat = g * gd
                m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
                m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
                _accumulate(na, invstd * (dxhat - m1 - xhat * m2))
        out._node = _Node(bwd, na, ngain, nbias)
    return out


def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[t] = table[ids[t]]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range [0, {table.shape[0]})")
    out = Tensor(table.data[ids], _needs_grad(table), "embed")
    if out.requires_grad:
        nt, td = _node_of(table), table.data

        def bwd(g):
            gt = np.zeros_like(td)
            np.add.at(gt, ids, g)
            _accumulate(nt, gt)
        out._node = _Node(bwd, nt)
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
    out = Tensor(np.asarray(-logp[rows, targets].mean()), _needs_grad(logits), "cross_entropy")
    if out.requires_grad:
        nl = _node_of(logits)

        def bwd(g):
            p = np.exp(logp)
            p[rows, targets] -= 1.0
            _accumulate(nl, p * (g / targets.shape[0]))
        out._node = _Node(bwd, nl)
    return out
