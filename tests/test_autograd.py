import gc
import inspect
import math
import sys
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from conftest import batch_loss, tiny_config
from rwkvp import autograd as ag
from rwkvp import training
from rwkvp.autograd import Tensor
from rwkvp.params import FreezeMask, ParamStore


def _fd_scalar(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar over a flat array.

    fn returns the scalar or the array of terms it is the sum of. Terms are
    subtracted side by side and the differences summed exactly (math.fsum):
    rounding the two sums first costs about 1e-10 absolute, which is 1e-4
    relative on a gradient of 1e-6.
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        g.reshape(-1)[i] = math.fsum(np.ravel(fp - fm)) / (2 * eps)
    return g


_W_KEY = np.random.default_rng(3).uniform(-1, 1, size=(4, 4))

UNARY_OPS = {
    "relu_square": ag.relu_square,
    # the relu's zero branch masking the gradient into a matmul, as in the channel-mix key
    "relu": lambda t: ag.relu_square(ag.matmul(t, Tensor(_W_KEY))),
    "square": lambda t: ag.mul(t, t),
    "softmax": ag.softmax,
    "sum": ag.sum_,
    "neg": lambda t: ag.scale(t, -1.0),
    "transpose": ag.transpose,
    "sum_axis": lambda t: (lambda s: ag.mul(s, s))(ag.sum_(t, axis=0)),
    "reshape": lambda t: ag.reshape(t, (4, 3)),
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_unary_gradients_match_finite_differences(name):
    op = UNARY_OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        x = rng.uniform(-2, 2, size=(3, 4))
        weight = rng.uniform(-1, 1, size=(3, 4))

        def fn(arr):
            with ag.no_grad():
                out = op(Tensor(arr.copy()))
            w = weight if out.data.shape == (3, 4) else weight.T if out.data.shape == (4, 3) else np.ones_like(out.data)
            return out.data * w

        t = Tensor(x.copy(), requires_grad=True)
        assert t.data.dtype == np.float64
        out = op(t)
        w = weight if out.data.shape == (3, 4) else weight.T if out.data.shape == (4, 3) else np.ones_like(out.data)
        ag.sum_(ag.mul(out, Tensor(w))).backward()
        fd = _fd_scalar(fn, x.copy())
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(fd)), 1e-8)
        assert (np.abs(t.grad - fd) / denom).max() < 1e-4


BINARY_OPS = {
    "add": ag.add,
    "mul": ag.mul,
    "matmul": ag.matmul,
    "sigmoid_mul": ag.sigmoid_mul,
}


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
def test_binary_gradients_match_finite_differences(name):
    op = BINARY_OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        a = rng.uniform(-2, 2, size=(3, 4))
        b = rng.uniform(-2, 2, size=(3, 4) if name != "matmul" else (4, 3))
        weight = rng.uniform(-1, 1, size=(3, 4) if name != "matmul" else (3, 3))

        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        assert ta.data.dtype == tb.data.dtype == np.float64
        ag.sum_(ag.mul(op(ta, tb), Tensor(weight))).backward()

        for arr, t in ((a, ta), (b, tb)):
            def fn(x, arr=arr):
                aa = x if arr is a else a
                bb = x if arr is b else b
                with ag.no_grad():
                    out = op(Tensor(aa.copy()), Tensor(bb.copy()))
                return out.data * weight

            fd = _fd_scalar(fn, arr.copy())
            denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(fd)), 1e-8)
            assert (np.abs(t.grad - fd) / denom).max() < 1e-4, name


# the ids name the axes present; the shapes are time-major, (T, [B,] n, d); an
# input shared by the n perspectives has 1 on axis -2, where mu has n rows
@pytest.mark.parametrize("shape,n", [((3, 2, 2, 4), 2), ((1, 2, 2, 4), 2), ((5, 3, 2), 3),
                                     ((3, 2, 1, 4), 3)],
                         ids=["n-B-T-d", "T1", "n-T-d", "shared-input"])
def test_token_shift_gradients_match_finite_differences(shape, n):
    rng = np.random.default_rng(11)
    d = shape[-1]
    out_shape = shape[:-2] + (n, d)
    for _ in range(20):
        x = rng.uniform(-2, 2, shape)
        first = rng.uniform(-2, 2, out_shape[1:])
        mus = rng.uniform(0, 1, (n, d))
        weight = rng.uniform(-1, 1, out_shape)
        tx = Tensor(x.copy(), requires_grad=True)
        tmu = Tensor(mus.copy(), requires_grad=True)
        assert tx.data.dtype == tmu.data.dtype == np.float64
        ag.sum_(ag.mul(ag.token_shift(tx, first, tmu), Tensor(weight))).backward()

        def loss(xx, mm):
            with ag.no_grad():
                out = ag.token_shift(Tensor(xx.copy()), first, Tensor(mm.copy()))
            return float((out.data * weight).sum())

        fd_x = _fd_scalar(lambda arr: loss(arr, mus), x.copy())
        fd_mu = _fd_scalar(lambda arr: loss(x, arr), mus.copy())
        for got, fd in ((tx.grad, fd_x), (tmu.grad, fd_mu)):
            denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), 1e-8)
            assert (np.abs(got - fd) / denom).max() < 1e-5


def test_stacked_token_shift_gradients_match_finite_differences():
    """A (3, n, d) mu over a shared (T, B, 1, d) input: x's and mu's gradients."""
    rng = np.random.default_rng(17)
    x = rng.uniform(-2, 2, (3, 2, 1, 4))
    first = rng.uniform(-2, 2, (2, 2, 4))
    mus = rng.uniform(0, 1, (3, 2, 4))
    weight = rng.uniform(-1, 1, (3, 3, 2, 2, 4))
    tx, tmu = Tensor(x.copy(), requires_grad=True), Tensor(mus.copy(), requires_grad=True)
    ag.sum_(ag.mul(ag.token_shift(tx, first, tmu), Tensor(weight))).backward()

    def loss(xx, mm):
        with ag.no_grad():
            return ag.token_shift(Tensor(xx.copy()), first, Tensor(mm.copy())).data * weight

    fd_x = _fd_scalar(lambda arr: loss(arr, mus), x.copy())
    fd_mu = _fd_scalar(lambda arr: loss(x, arr), mus.copy())
    for got, fd in ((tx.grad, fd_x), (tmu.grad, fd_mu)):
        denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), 1e-8)
        assert (np.abs(got - fd) / denom).max() < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 2, 3, 4), (5, 2, 1, 4), (1, 3, 4)],
                         ids=["T-B-n-d", "shared-input", "T1"])
def test_stacked_token_shift_is_its_slots_bitwise(dtype, shape):
    """One shift with a (3, n, d) mu is three shifts with its slots, bit for
    bit: each slot's output and mu gradient, and the input's gradient as the
    three shifts' gradients summed in slot order."""
    rng = np.random.default_rng(19)
    n, d = 3, shape[-1]
    x = rng.uniform(-3, 3, shape).astype(dtype)
    first = rng.uniform(-3, 3, shape[1:-2] + (n, d)).astype(dtype)
    mus = rng.uniform(0, 1, (3, n, d)).astype(dtype)
    weight = rng.uniform(-1, 1, (3,) + shape[:-2] + (n, d)).astype(dtype)
    tx, tmu = Tensor(x.copy(), requires_grad=True), Tensor(mus.copy(), requires_grad=True)
    out = ag.token_shift(tx, first, tmu)
    ag.sum_(ag.mul(out, Tensor(weight))).backward()
    gx = None
    for s in range(3):
        sx, smu = Tensor(x.copy(), requires_grad=True), Tensor(mus[s].copy(), requires_grad=True)
        slot = ag.token_shift(sx, first, smu)
        ag.sum_(ag.mul(slot, Tensor(weight[s]))).backward()
        assert out.data[s].tobytes() == slot.data.tobytes()
        assert tmu.grad[s].tobytes() == smu.grad.tobytes()
        gx = sx.grad if gx is None else gx + sx.grad
    assert out.data.dtype == tx.grad.dtype == dtype and tx.grad.tobytes() == gx.tobytes()


@pytest.mark.parametrize("rows", [1, 4, 64, 512])
def test_batched_matmul_is_its_slots_bitwise(rows):
    """(3, R, d) @ (3, d, k) is three 2-D GEMMs, bit for bit: the output, the
    input's gradient and the weight's, at decode (R = 4) to training row counts."""
    rng = np.random.default_rng(rows)
    x = rng.uniform(-1, 1, (3, rows, 48)).astype(np.float32)
    w = rng.uniform(-1, 1, (3, 48, 48)).astype(np.float32)
    g = rng.uniform(-1, 1, (3, rows, 48)).astype(np.float32)
    tx, tw = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
    out = ag.matmul(tx, tw)
    ag.sum_(ag.mul(out, Tensor(g))).backward()
    for s in range(3):
        sx, sw = Tensor(x[s].copy(), requires_grad=True), Tensor(w[s].copy(), requires_grad=True)
        slot = ag.matmul(sx, sw)
        ag.sum_(ag.mul(slot, Tensor(g[s]))).backward()
        for got, want in ((out.data[s], slot.data), (tx.grad[s], sx.grad), (tw.grad[s], sw.grad)):
            assert got.tobytes() == want.tobytes()


def test_batched_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    a = rng.uniform(-2, 2, (3, 2, 2, 4))
    b = rng.uniform(-2, 2, (3, 4, 3))
    weight = rng.uniform(-1, 1, (3, 2, 2, 3))
    ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    ag.sum_(ag.mul(ag.matmul(ta, tb), Tensor(weight))).backward()

    def loss(aa, bb):
        with ag.no_grad():
            return ag.matmul(Tensor(aa.copy()), Tensor(bb.copy())).data * weight

    fd_a = _fd_scalar(lambda arr: loss(arr, b), a.copy())
    fd_b = _fd_scalar(lambda arr: loss(a, arr), b.copy())
    for got, fd in ((ta.grad, fd_a), (tb.grad, fd_b)):
        denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), 1e-8)
        assert (np.abs(got - fd) / denom).max() < 1e-4


@pytest.mark.parametrize("a_shape,b_shape", [((2, 5, 4), (3, 4, 2)), ((5, 4), (3, 4, 2)),
                                             ((3, 5, 4), (1, 3, 4, 2))],
                         ids=["two-slots-for-three", "no-slot-axis", "4d-weight"])
def test_matmul_rejects_mismatched_stacks(a_shape, b_shape):
    with pytest.raises(ag.ShapeError, match="matmul"):
        ag.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_input_shift_equals_shift_of_n_copies(dtype):
    """A (T, B, 1, d) input shifts, bit for bit, as its n copies do; its gradient
    is their gradients summed, and mu's is the same."""
    rng = np.random.default_rng(13)
    n = 3
    x = rng.uniform(-3, 3, (4, 2, 1, 5)).astype(dtype)
    first = rng.uniform(-3, 3, (2, n, 5)).astype(dtype)
    mus = rng.uniform(0, 1, (n, 5)).astype(dtype)
    weight = rng.uniform(-1, 1, (4, 2, n, 5)).astype(dtype)
    grads = []
    for arr in (x, np.repeat(x, n, axis=-2)):
        tx, tmu = Tensor(arr, requires_grad=True), Tensor(mus.copy(), requires_grad=True)
        out = ag.token_shift(tx, first, tmu)
        ag.sum_(ag.mul(out, Tensor(weight))).backward()
        grads.append((out.data, tx.grad, tmu.grad))
    (shared, gx, gmu), (copies, gx_n, gmu_n) = grads
    assert shared.dtype == dtype and np.array_equal(shared, copies)
    assert np.array_equal(gx, gx_n.sum(axis=-2, keepdims=True))
    assert np.array_equal(gmu, gmu_n)


def _shifted(x, first):
    """Reference shift: in each slice, time row 0 is first and row t is x row t-1."""
    prev = np.empty_like(x)
    for idx in np.ndindex(x.shape[1:-1]):
        prev[(0,) + idx] = first[idx]
        for t in range(1, x.shape[0]):
            prev[(t,) + idx] = x[(t - 1,) + idx]
    return prev


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_forwards_bitwise_equal_unfused_composition(dtype):
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, (5, 2, 4, 6)).astype(dtype)
    y = rng.uniform(-3, 3, (5, 2, 4, 6)).astype(dtype)
    first = rng.uniform(-3, 3, (2, 4, 6)).astype(dtype)
    mus = rng.uniform(0, 1, (4, 6)).astype(dtype)

    sig = (1.0 / (1.0 + np.exp(-x))) * y
    assert np.array_equal(ag.sigmoid_mul(Tensor(x), Tensor(y)).data, sig)
    r = np.maximum(x, 0.0)
    assert np.array_equal(ag.relu_square(Tensor(x)).data, r * r)
    mix = x * mus + _shifted(x, first) * (1.0 - mus)
    out = ag.token_shift(Tensor(x), first, Tensor(mus))
    assert out.data.dtype == dtype and np.array_equal(out.data, mix)


@pytest.mark.parametrize("mu_shape", [(1, 4), (3, 4), (2, 3), (4,), (2, 4, 1), (8,),
                                      (1, 3, 2, 4)],
                         ids=["one-row-for-two-slices", "three-rows", "short-rows", "one-vector",
                              "3d", "flat", "4d"])
def test_token_shift_rejects_mu_not_n_by_d(mu_shape):
    x = Tensor(np.ones((3, 2, 4)))
    with pytest.raises(ag.ShapeError, match="mu"):
        ag.token_shift(x, np.zeros((2, 4)), Tensor(np.full(mu_shape, 0.5)))


def test_token_shift_rejects_bad_shapes():
    x = Tensor(np.ones((3, 2, 4)))
    mu = Tensor(np.full((2, 4), 0.5))
    ag.token_shift(x, np.zeros((2, 4)), mu)
    with pytest.raises(ag.ShapeError, match="first_row"):
        ag.token_shift(x, np.zeros(4), mu)               # one row for two slices
    with pytest.raises(ag.ShapeError):
        ag.token_shift(Tensor(np.ones((3, 4))), np.zeros((4,)), Tensor(np.ones((3, 4))))


def test_layer_norm_gradients():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-2, 2, (3, 5))
        g = rng.uniform(0.5, 1.5, 5)
        b = rng.uniform(-0.5, 0.5, 5)
        weight = rng.uniform(-1, 1, (3, 5))
        tx, tg, tb = (Tensor(v.copy(), requires_grad=True) for v in (x, g, b))
        assert tx.data.dtype == tg.data.dtype == tb.data.dtype == np.float64
        ag.sum_(ag.mul(ag.layer_norm(tx, tg, tb), Tensor(weight))).backward()

        def fn_for(which):
            def fn(arr):
                parts = {"x": x, "g": g, "b": b}
                parts[which] = arr
                with ag.no_grad():
                    out = ag.layer_norm(Tensor(parts["x"].copy()), Tensor(parts["g"].copy()),
                                        Tensor(parts["b"].copy()))
                return float((out.data * weight).sum())
            return fn

        for which, t, arr in (("x", tx, x), ("g", tg, g), ("b", tb, b)):
            fd = _fd_scalar(fn_for(which), arr.copy())
            denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(fd)), 1e-8)
            assert (np.abs(t.grad - fd) / denom).max() < 1e-4


def _layer_norm_by_mean(x, gain, bias, g, eps=1e-5):
    """Reference layer norm with ndarray.mean: output and input gradient."""
    xm = x - x.mean(axis=-1, keepdims=True)
    invstd = 1.0 / np.sqrt((xm * xm).mean(axis=-1, keepdims=True) + eps)
    xhat = xm * invstd
    dxhat = g * gain
    dx = invstd * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                   - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gain + bias, dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 2, 64, 48), (2, 64, 48), (4, 2, 1, 48), (4, 1, 48), (3, 5, 7)])
def test_layer_norm_row_means_are_bitwise_ndarray_mean(shape, dtype):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, g = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        gain, bias = (rng.uniform(0.5, 1.5, shape[-1]).astype(dtype) for _ in range(2))
        tx = Tensor(x, requires_grad=True)
        out = ag.layer_norm(tx, Tensor(gain), Tensor(bias))
        out._backward(g)
        want_out, want_dx = _layer_norm_by_mean(x, gain, bias, g)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(tx.grad, want_dx)


def test_cross_entropy_gradient():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-2, 2, (4, 6))
    targets = rng.integers(0, 6, 4)
    t = Tensor(logits.copy(), requires_grad=True)
    assert t.data.dtype == np.float64
    ag.cross_entropy(t, targets).backward()

    def fn(arr):
        with ag.no_grad():
            return ag.cross_entropy(Tensor(arr.copy()), targets).item()

    fd = _fd_scalar(fn, logits.copy())
    assert np.abs(t.grad - fd).max() < 1e-6


def test_softmax_symmetry():
    out = ag.softmax(Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3))


def test_layer_norm_constant_vector_is_zero():
    x = Tensor(np.full((1, 8), 3.7))
    out = ag.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_quadratic_gradient():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ag.sum_(ag.mul(w, w)).backward()
    np.testing.assert_allclose(w.grad, [2.0, 4.0])


def test_sigmoid_gradient_at_zero():
    x = Tensor(np.array([0.0]), requires_grad=True)
    ag.sum_(ag.sigmoid_mul(x, Tensor(np.array([1.0])))).backward()
    np.testing.assert_allclose(x.grad, [0.25])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ag.mul(x, x).backward()


@pytest.mark.parametrize("op,a_shape,b_shape", [
    (ag.add, (2, 3), (3,)), (ag.mul, (2, 1, 3), (4, 3)), (ag.sigmoid_mul, (1, 3), (2, 3))],
    ids=["add", "mul", "sigmoid_mul"])
def test_shape_mismatch_names_both_shapes(op, a_shape, b_shape):
    with pytest.raises(ag.ShapeError, match=rf"{op.__name__}: .*\(2, 3\).*\(3, 2\)"):
        op(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    # a broadcastable pair is still accepted, with numpy's broadcast shape
    a, b = (Tensor(np.random.default_rng(0).uniform(-1, 1, s)) for s in (a_shape, b_shape))
    assert op(a, b).shape == np.broadcast_shapes(a_shape, b_shape)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ag.ShapeError, match="matmul"):
        ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ag.ShapeError, match=r"\(d, k\)"):
        ag.matmul(Tensor(np.eye(3)), Tensor(np.ones(3)))      # a vector b


def test_embed_out_of_range():
    table = Tensor(np.ones((4, 2)))
    with pytest.raises(IndexError):
        ag.embed(table, np.array([5]))


def test_frozen_parameters_get_no_gradient():
    store = ParamStore()
    store.add("a", np.array([1.0, 2.0]))
    store.add("b", np.array([3.0, 4.0]), requires_grad=False)
    mask = FreezeMask({"a": True, "b": False})
    loss = ag.sum_(ag.mul(ag.add(store["a"], store["b"]), store["a"]))
    loss.backward()
    grad = store.collect_grads(mask)
    # the flat gradient holds the trainable leaf's segment only
    np.testing.assert_array_equal(grad, store["a"].grad)
    assert store["b"].grad is None
    store["b"].grad = np.ones(2)
    with pytest.raises(AssertionError, match="'b'"):
        store.collect_grads(mask)


def test_graph_evaluation_deterministic():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (5, 5)).astype(np.float32)

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        out = ag.sum_(ag.softmax(ag.matmul(t, ag.sigmoid_mul(t, t))))
        out.backward()
        return out.data.copy(), t.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_shift_rows_semantics_and_gradient():
    """token_shift with mu = 0 is the input shifted one row down."""
    x = Tensor(np.array([[[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]]]), requires_grad=True)
    first = np.array([[9.0, 9.0]])
    mu = Tensor(np.zeros((1, 2)), requires_grad=True)
    out = ag.token_shift(x, first, mu)
    np.testing.assert_array_equal(out.data, [[[9, 9]], [[1, 2]], [[3, 4]]])
    ag.sum_(ag.mul(out, out)).backward()
    np.testing.assert_array_equal(x.grad, [[[2, 4]], [[6, 8]], [[0, 0]]])
    # d/dmu of sum(out^2) at mu = 0 is sum_t 2 * prev * (x - prev)
    np.testing.assert_array_equal(mu.grad, [[2 * (9 * -8 + 1 * 2 + 3 * 2),
                                             2 * (9 * -7 + 2 * 2 + 4 * 2)]])


def test_shift_rows_leading_axes_use_their_own_first_row():
    """token_shift's shift uses each (context, perspective) slice's own first
    row (mu = 0)."""
    x = np.arange(4 * 3 * 2 * 2, dtype=np.float64).reshape(4, 3, 2, 2)
    first = -np.arange(3 * 2 * 2, dtype=np.float64).reshape(3, 2, 2) - 1.0
    zeros = Tensor(np.zeros((2, 2)))
    t = Tensor(x, requires_grad=True)
    out = ag.token_shift(t, first, zeros)
    np.testing.assert_array_equal(out.data[0], first)
    np.testing.assert_array_equal(out.data[1:], x[:-1])
    for b in range(3):
        for i in range(2):
            np.testing.assert_array_equal(
                out.data[:, b, i], ag.token_shift(Tensor(x[:, b, i, None]), first[b, i, None],
                                                  Tensor(np.zeros((1, 2)))).data[:, 0])
    weight = np.random.default_rng(0).uniform(-1, 1, x.shape)
    ag.sum_(ag.mul(out, Tensor(weight))).backward()
    np.testing.assert_array_equal(t.grad[:-1], weight[1:])
    np.testing.assert_array_equal(t.grad[-1], 0.0)
    with pytest.raises(ag.ShapeError, match="token_shift"):
        ag.token_shift(t, first[0, 0], zeros)      # one row for six slices


def test_token_shift_mu_one_is_identity():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (4, 2, 3, 5))
    t = Tensor(x, requires_grad=True)
    out = ag.token_shift(t, rng.uniform(-1, 1, (2, 3, 5)), Tensor(np.ones((3, 5))))
    np.testing.assert_array_equal(out.data, x)
    weight = rng.uniform(-1, 1, x.shape)
    ag.sum_(ag.mul(out, Tensor(weight))).backward()
    np.testing.assert_array_equal(t.grad, weight)


def test_gradients_through_a_shared_add_and_a_reused_mul_add_up():
    """add gives both of its parents one gradient array, and a node reached
    along several paths sums every path's gradient."""
    x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    s = ag.add(x, x)                          # x reached twice through one add
    p = ag.mul(s, x)                          # and again through a mul
    c = Tensor(np.full(3, 0.5, dtype=np.float32))
    loss = ag.add(ag.sum_(ag.add(p, p)), ag.sum_(ag.mul(x, c)))
    loss.backward()
    # loss = 4 * sum(x^2) + 0.5 * sum(x)
    np.testing.assert_array_equal(x.grad, 8 * x.data + 0.5)


def _model_loss(n, aggregation):
    """A training-shaped loss graph (a batch of 2) and its store: the n=1
    base with every leaf trainable, or a head over a frozen base."""
    from rwkvp import model as m
    from rwkvp import perspectives
    cfg = tiny_config()
    store, mask = m.init_base_params(cfg, seed=0)
    if aggregation is not None:
        cfg, store, mask = perspectives.extend_to_perspectives(store, cfg, n, aggregation)
    return batch_loss(cfg, store, mask), store


_HEADS = ("average", "transformer_like", "weighted_softmax")
_MODEL_LOSSES = [(1, None)] + [(n, head) for head in _HEADS for n in (1, 4)]


@pytest.mark.parametrize("n,aggregation", _MODEL_LOSSES,
                         ids=[f"{head or 'pretrain'}-n{n}" for n, head in _MODEL_LOSSES])
def test_no_backward_writes_into_a_stored_gradient(monkeypatch, n, aggregation):
    """Every stored gradient, a leaf's or an interior node's, is made
    read-only as it is stored, so a backward that wrote into one (an
    in-place add, an op writing into an array after passing it on) would
    raise; the leaves' gradients equal an unguarded run's bitwise."""
    loss, store = _model_loss(n, aggregation)
    loss.backward()
    expected = {name: t.grad for name, t in store.items()}

    accumulate, stored = ag._accumulate, []

    def read_only(node, g):
        accumulate(node, g)
        node.grad.flags.writeable = False
        stored.append(isinstance(node, Tensor))

    monkeypatch.setattr(ag, "_accumulate", read_only)
    loss, store = _model_loss(n, aggregation)
    loss.backward()
    assert any(g is not None for g in expected.values())
    # interior gradients went through the guard too, not only the leaves'
    assert True in stored and False in stored
    for name, t in store.items():
        want = expected[name]
        if want is None:
            assert t.grad is None, name
        else:
            assert t.grad.dtype == want.dtype and t.grad.shape == want.shape, name
            assert t.grad.tobytes() == want.tobytes(), name


def test_matmul_leading_axes_match_2d_on_flattened_rows():
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, (3, 2, 5, 4))
    b = rng.uniform(-1, 1, (4, 6))
    g = rng.uniform(-1, 1, (3, 2, 5, 6))
    ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    out = ag.matmul(ta, tb)
    ag.sum_(ag.mul(out, Tensor(g))).backward()
    fa, fb = Tensor(a.reshape(-1, 4), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    flat = ag.matmul(fa, fb)
    ag.sum_(ag.mul(flat, Tensor(g.reshape(-1, 6)))).backward()
    np.testing.assert_array_equal(out.data, flat.data.reshape(3, 2, 5, 6))
    np.testing.assert_array_equal(ta.grad, fa.grad.reshape(a.shape))
    np.testing.assert_array_equal(tb.grad, fb.grad)


def test_no_grad_outputs_do_not_keep_their_inputs_alive():
    x = Tensor(np.ones(3))
    with ag.no_grad():
        mid = ag.add(Tensor(np.ones(3), requires_grad=True), x)
        ref = weakref.ref(mid)
        y = ag.mul(mid, x)
    del mid
    assert ref() is None and y._node is None and not y.requires_grad


def test_model_graph_freed_without_cycle_collector():
    """Reference counting alone frees every node of a model loss's graph once
    the loss is dropped after backward(), so memory does not wait for gc."""
    from rwkvp import model as m
    from rwkvp import perspectives
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=11, context_length=8)
    base, _ = m.init_base_params(cfg, seed=0)
    ft_cfg, store, mask = perspectives.extend_to_perspectives(base, cfg, 2)
    tokens = np.arange(12).reshape(6, 2) % cfg.vocab_size      # (T+1, B)
    gc.collect()
    gc.disable()
    try:
        logits, _, _ = m.Model(ft_cfg, store, mask).forward(tokens[:-1])
        loss = ag.cross_entropy(ag.reshape(logits, (-1, cfg.vocab_size)),
                                tokens[1:].reshape(-1))
        refs = [weakref.ref(node) for node in ag._toposort(loss._node)
                if isinstance(node, ag._Node)]
        del logits
        loss.backward()
        del loss
        alive = [r() for r in refs if r() is not None]
    finally:
        gc.enable()
    assert refs and not alive, alive


def test_second_backward_raises_instead_of_reusing_stale_gradients():
    """backward() consumes the graph, so a second call through it raises
    rather than adding gradients left on interior nodes (which once gave
    x.grad = 6 where d(loss)/dx is 2), and leaves .grad as it was."""
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    h = ag.scale(x, 2.0)
    loss = ag.sum_(h)
    loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    with pytest.raises(RuntimeError, match="already consumed"):
        loss.backward()
    # a new loss over a consumed node raises too
    with pytest.raises(RuntimeError, match="already consumed"):
        ag.sum_(ag.mul(h, h)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def _readme_finetune_model(base_config):
    """The README's n=4 weighted_softmax fine-tuning model, and a (T+1, 2) batch."""
    from rwkvp import model as m
    from rwkvp import perspectives
    base, _ = m.init_base_params(base_config, seed=0)
    model = m.Model(*perspectives.extend_to_perspectives(base, base_config, 4, "weighted_softmax"))
    tokens = np.random.default_rng(0).integers(
        0, base_config.vocab_size, (base_config.context_length + 1, 2))
    return model, tokens


# One step's array peak (numpy reports its buffers to tracemalloc) at the
# README config: 4.69 MB with nodes that keep only what backward reads, v
# and f2 as compact copies (5.09 MB while the WKV node kept v as a view that
# pinned the stacked r/k/v projection, 5.6 MB while token_shift kept both x
# and prev and the WKV node the whole inc buffer around f2), 14.9 MB when
# every node held its forward value and every interior gradient lived until
# the loss was dropped. The bound is 71 % over the first and 46 % under the
# last.
FINETUNE_STEP_PEAK_MB = 8.0


def test_finetune_step_peak_memory(base_config):
    model, tokens = _readme_finetune_model(base_config)
    training._batch_loss(model, tokens).backward()    # first-call allocations
    model.store.zero_grad()
    tracemalloc.start()
    try:
        training._batch_loss(model, tokens).backward()
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < FINETUNE_STEP_PEAK_MB, f"{peak:.2f} MB"


def test_dropped_op_outputs_are_freed_before_backward(base_config, monkeypatch):
    """The graph keeps no op output alive: the channel-mix key's (T, B, n, 4d)
    projection, which the model drops after relu_square, is gone while the
    loss (and with it the graph) still waits for backward()."""
    model, tokens = _readme_finetune_model(base_config)
    relu_square, refs, shapes = ag.relu_square, [], set()

    def recording(a):
        refs.append(weakref.ref(a))
        shapes.add(a.shape)
        return relu_square(a)

    monkeypatch.setattr(ag, "relu_square", recording)
    loss = training._batch_loss(model, tokens)
    assert len(refs) == base_config.n_layers
    assert shapes == {(base_config.context_length, 2, 4, 4 * base_config.d_model)}
    assert not [r() for r in refs if r() is not None]
    assert loss.requires_grad
    loss.backward()
    assert model.store["layer0.ffn.mu_k"].grad is not None


def test_wkv_graph_pins_no_projection_buffer(base_config, monkeypatch):
    """The WKV node keeps v as its own array, not a view into the stacked
    (3, T, B, n, d) r/k/v projection, so the projection's buffer, r and k
    slots included, is gone while the loss still waits for backward()."""
    from rwkvp import wkv
    model, tokens = _readme_finetune_model(base_config)
    wkv_sequence, refs = wkv.wkv_sequence, []

    def recording(rkv, *args):
        owner = rkv.data
        while owner.base is not None:
            owner = owner.base
        refs.append(weakref.ref(owner))
        return wkv_sequence(rkv, *args)

    monkeypatch.setattr(wkv, "wkv_sequence", recording)
    loss = training._batch_loss(model, tokens)
    assert len(refs) == base_config.n_layers
    assert not [r() for r in refs if r() is not None]
    loss.backward()
    assert model.store["layer0.att.mu_rkv"].grad is not None


def test_byte_tokens_train_bitwise(base_config):
    """A pretraining step on uint8 ids (what tokenize returns) gives the int64
    step's loss and every leaf's gradient bitwise, the embedding's included."""
    from rwkvp import model as m
    tokens = np.random.default_rng(0).integers(
        0, 256, (base_config.context_length + 1, 2))
    results = []
    for ids in (tokens, tokens.astype(np.uint8)):
        store, mask = m.init_base_params(base_config, seed=0)
        loss = training._batch_loss(m.Model(base_config, store, mask), ids)
        value = loss.item()
        loss.backward()
        results.append((value, {name: t.grad for name, t in store.items()}))
    (want_loss, want), (got_loss, got) = results
    assert got_loss == want_loss
    assert want.keys() == got.keys() and want["emb.weight"] is not None
    for name, g in want.items():
        assert g is not None, name
        assert got[name].dtype == g.dtype and got[name].tobytes() == g.tobytes(), name


# autograd functions that build no graph node
_HELPERS = {"no_grad"}


def test_every_public_op_runs_on_a_model_training_path(monkeypatch):
    """Each public op is called by some model's training loss (every head at
    n=1 and n=2), so the tape carries no op that only tests call."""
    from rwkvp import model as m
    from rwkvp import perspectives, training
    ops = {name: fn for name, fn in vars(ag).items()
           if inspect.isfunction(fn) and fn.__module__ == ag.__name__
           and not name.startswith("_") and name not in _HELPERS}
    called = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    modules = [mod for mod_name, mod in sys.modules.items()
               if mod_name == "rwkvp" or mod_name.startswith("rwkvp.")]
    for name, fn in ops.items():
        wrapper = counting(name, fn)
        for mod in modules:
            # "from rwkvp.autograd import f" aliases as well as ag.f
            for alias, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, alias, wrapper)

    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=11, context_length=8)
    base, _ = m.init_base_params(cfg, seed=0)
    batch = np.arange(18).reshape(9, 2) % cfg.vocab_size      # (T+1, B)
    for aggregation in ("average", "transformer_like", "weighted_softmax"):
        for n in (1, 2):
            ft_cfg, store, mask = perspectives.extend_to_perspectives(base, cfg, n, aggregation)
            training._batch_loss(m.Model(ft_cfg, store, mask), batch).backward()
    assert called == set(ops), f"never called: {sorted(set(ops) - called)}"
