import contextlib

import numpy as np
import pytest

from rwkvp import autograd as ag
from rwkvp import wkv
from rwkvp.autograd import Tensor


def _random_case(rng, T, d, scale=1.0):
    """(r, k, v, w, u); r is drawn last, so k, v, w and u are the draws they
    were before the receptance gate moved into wkv_sequence."""
    k = rng.uniform(-scale, scale, (T, d))
    v = rng.uniform(-scale, scale, (T, d))
    w = rng.uniform(0.05, 2.0, d)       # decay exponents are positive
    u = rng.uniform(-scale, scale, d)
    r = rng.uniform(-scale, scale, (T, d))
    return r, k, v, w, u


def _gate(r):
    """sigmoid(r), in the operation order of wkv_sequence and ag.sigmoid_mul."""
    return 1.0 / (1.0 + np.exp(-r))


def _empty(shape, dtype=np.float64):
    """The (a, b, p) rows with no history, (3, *shape): zeros, zeros, -inf."""
    state = np.zeros((3,) + shape, dtype=dtype)
    state[2] = -np.inf
    return state


def _step(state, k_t, v_t, w, u):
    """wkv_step into fresh rows: (wkv_t, the next (a, b, p) rows)."""
    nxt = np.empty_like(state)
    return wkv.wkv_step(state, k_t, v_t, w, u, nxt), nxt


def _seq(r, k, v, w, u, state=None, grad=False):
    """wkv_sequence on the stacked (r, k, v) chunk from state (default: no
    history): (out, the final state rows it wrote, the leaves rkv, w and u)."""
    leaves = [Tensor(x, requires_grad=grad) for x in (np.stack([r, k, v]), w, u)]
    if state is None:
        state = _empty(k.shape[1:], k.dtype)
    final = np.empty_like(state)
    out = wkv.wkv_sequence(*leaves, state, final)
    return out, final, leaves


def wkv_sequence_reference(k, v, w, u, dtype=np.float64):
    """Unstabilized direct recurrence in extended precision (test oracle).

    Only valid where exp(k) and exp(u + k) stay finite in `dtype`.
    """
    k = np.asarray(k, dtype=dtype)
    v = np.asarray(v, dtype=dtype)
    w = np.asarray(w, dtype=dtype)
    u = np.asarray(u, dtype=dtype)
    T, d = k.shape
    A = np.zeros(d, dtype=dtype)
    B = np.zeros(d, dtype=dtype)
    y = np.empty_like(k)
    for t in range(T):
        euk = np.exp(u + k[t])
        y[t] = (A + euk * v[t]) / (B + euk)
        ek = np.exp(k[t])
        A = np.exp(-w) * A + ek * v[t]
        B = np.exp(-w) * B + ek
    return y


def test_first_token_output_equals_value():
    # with an empty state the numerator/denominator reduce to v and 1
    rng = np.random.default_rng(0)
    _, k, v, w, u = _random_case(rng, 1, 6)
    y, _ = _step(_empty((6,)), k[0], v[0], w, u)
    np.testing.assert_allclose(y, v[0], rtol=1e-12)


def test_sequence_matches_stepwise_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(20):
        r, k, v, w, u = _random_case(rng, 12, 5)
        with ag.no_grad():
            y, final, _ = _seq(r, k, v, w, u)
        state = _empty((5,))
        for t in range(12):
            yt, state = _step(state, k[t], v[t], w, u)
            assert np.array_equal(y.data[t], _gate(r[t]) * yt)
        assert np.array_equal(final, state)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gate_is_sigmoid_mul_of_the_stepwise_recurrence_bitwise(dtype):
    """The gated output and r's gradient are bitwise what ag.sigmoid_mul gives
    on the ungated wkv_step outputs, as when the gate was a node of its own."""
    rng = np.random.default_rng(14)
    T, lead, d = 6, (2, 3), 4
    r, k, v, weight = (rng.uniform(-2, 2, (T,) + lead + (d,)).astype(dtype) for _ in range(4))
    w = rng.uniform(0.05, 2.0, d).astype(dtype)
    u = rng.uniform(-1, 1, d).astype(dtype)
    y, _, (rkv, _, _) = _seq(r, k, v, w, u, grad=True)
    ag.sum_(ag.mul(y, Tensor(weight))).backward()
    state, ys = _empty(lead + (d,), dtype), []
    for t in range(T):
        yt, state = _step(state, k[t], v[t], w, u)
        ys.append(yt)
    tr = Tensor(r, requires_grad=True)
    gated = ag.sigmoid_mul(tr, Tensor(np.stack(ys)))
    ag.sum_(ag.mul(gated, Tensor(weight))).backward()
    assert y.data.tobytes() == gated.data.tobytes()
    assert rkv.grad[0].tobytes() == tr.grad.tobytes()


def test_sequence_matches_unstabilized_reference():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r, k, v, w, u = _random_case(rng, 16, 4)
        with ag.no_grad():
            y, _, _ = _seq(r, k, v, w, u)
        ref = _gate(r) * wkv_sequence_reference(k, v, w, u)
        np.testing.assert_allclose(y.data, ref, rtol=1e-10, atol=1e-12)


def test_chunked_equals_sequential():
    rng = np.random.default_rng(3)
    for trial in range(100):
        T, d = 16, 4
        r, k, v, w, u = _random_case(rng, T, d)
        with ag.no_grad():
            y_full, _, _ = _seq(r, k, v, w, u)
            cut = int(rng.integers(1, T))
            y1, mid, _ = _seq(r[:cut], k[:cut], v[:cut], w, u)
            y2, _, _ = _seq(r[cut:], k[cut:], v[cut:], w, u, state=mid)
        y_chunked = np.vstack([y1.data, y2.data])
        assert np.abs(y_full.data - y_chunked).max() < 1e-5


@pytest.mark.parametrize("extreme", [-200.0, 200.0])
def test_extreme_keys_stay_finite(extreme):
    rng = np.random.default_rng(4)
    r, k, v, w, u = _random_case(rng, 8, 3)
    k[3] = extreme
    with ag.no_grad():
        y, final, _ = _seq(r, k, v, w, u)
    assert np.all(np.isfinite(y.data))
    assert np.all(np.isfinite(final[0])) and np.all(np.isfinite(final[1]))


def _assert_gradients_match_fd(parts, weight, state=None):
    """Analytic dr, dk, dv, dw, du of sum(out * weight) vs central differences."""
    assert all(a.dtype == np.float64 for a in parts.values())
    rkv = Tensor(np.stack([parts["r"], parts["k"], parts["v"]]), requires_grad=True)
    w, u = (Tensor(parts[n].copy(), requires_grad=True) for n in "wu")
    if state is None:
        state = _empty(parts["k"].shape[1:])
    y = wkv.wkv_sequence(rkv, w, u, state, np.empty_like(state))
    ag.sum_(ag.mul(y, Tensor(weight))).backward()
    grads = dict(zip("rkv", rkv.grad), w=w.grad, u=u.grad)

    def value(override):
        args = {n: override.get(n, parts[n]) for n in parts}
        with ag.no_grad():
            out, _, _ = _seq(*(args[n] for n in "rkvwu"), state=state)
        return float((out.data * weight).sum())

    eps = 1e-6
    for name, arr in parts.items():
        fd = np.zeros_like(arr)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            pert = arr.copy()
            pert.reshape(-1)[i] = orig + eps
            fp = value({name: pert})
            pert.reshape(-1)[i] = orig - eps
            fm = value({name: pert})
            fd.reshape(-1)[i] = (fp - fm) / (2 * eps)
        an = grads[name]
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-8)
        assert (np.abs(an - fd) / denom).max() < 1e-5, name


def test_sequence_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    T, d = 6, 3
    r, k, v, w, u = _random_case(rng, T, d)
    weight = rng.uniform(-1, 1, (T, d))
    _assert_gradients_match_fd({"r": r, "k": k, "v": v, "w": w, "u": u}, weight)
    # exact ties of both maxes: with w = u = 0.5 and k[t] = -0.5 t, the log-scale
    # entering step t >= 1 is p = k[t - 1], so u + k[t] == p and p - w == k[t]
    k = np.repeat(-0.5 * np.arange(T)[:, None], d, axis=1)
    w = u = np.full(d, 0.5)
    _assert_gradients_match_fd({"r": r, "k": k, "v": v, "w": w, "u": u}, weight)


def _unstabilized_gradients(r, k, v, w, u, weight, state):
    """dr, dk, dv, dw, du of sum(sigmoid(r) * y * weight) by a long-double
    backward of the plain recurrence A' = e^-w A + e^k v, B' = e^-w B + e^k,
    with y = (A + e^(u+k) v) / (B + e^(u+k)). No log-scale anywhere."""
    ld = np.longdouble
    r, k, v, w, u, weight = (np.asarray(x, dtype=ld) for x in (r, k, v, w, u, weight))
    gate = 1 / (1 + np.exp(-r))
    gy = weight * gate                                  # the gradient reaching y
    a0, b0, p0 = (np.asarray(s, dtype=ld) for s in state)
    decay, ek, euk = np.exp(-w), np.exp(k), np.exp(u + k)
    T = len(k)
    A, B = np.empty((T + 1,) + k.shape[1:], ld), np.empty((T + 1,) + k.shape[1:], ld)
    A[0], B[0] = a0 * np.exp(p0), b0 * np.exp(p0)
    for t in range(T):
        A[t + 1] = decay * A[t] + ek[t] * v[t]
        B[t + 1] = decay * B[t] + ek[t]
    den = B[:-1] + euk
    dr = weight * (A[:-1] + euk * v) / den * gate * (1 - gate)
    dN = gy / den
    dD = -gy * (A[:-1] + euk * v) / den ** 2
    dk, dv = np.empty_like(k), np.empty_like(v)
    dw, du = np.zeros_like(k[0]), np.zeros_like(k[0])
    dA, dB = np.zeros_like(k[0]), np.zeros_like(k[0])   # of the state after step t
    for t in reversed(range(T)):
        out = (dN[t] * v[t] + dD[t]) * euk[t]
        dv[t] = dN[t] * euk[t] + dA * ek[t]
        dk[t] = out + (dA * v[t] + dB) * ek[t]
        du += out
        dw -= decay * (dA * A[t] + dB * B[t])
        dA, dB = dN[t] + decay * dA, dD[t] + decay * dB
    lead = tuple(range(k.ndim - 2))
    return dr, dk, dv, dw.sum(axis=lead), du.sum(axis=lead)


@pytest.mark.parametrize("dtype, limit", [(np.float32, 2e-5), (np.float64, 1e-12)])
def test_sequence_gradients_match_unstabilized_long_double_backward(dtype, limit):
    """At T=64 over (2, 4) leading axes, from a carried state: the error of each
    gradient is at most `limit` of its largest entry."""
    rng = np.random.default_rng(13)
    T, lead, d = 64, (2, 4), 48
    k = rng.uniform(-6, 6, (T,) + lead + (d,)).astype(dtype)   # keeps e^k, A and B finite
    v, weight = (rng.uniform(-1, 1, (T,) + lead + (d,)).astype(dtype) for _ in range(2))
    w = rng.uniform(0.01, 1.0, d).astype(dtype)
    u = rng.uniform(-2, 2, d).astype(dtype)
    state = _carried_state(rng, lead, d, dtype)
    r = rng.uniform(-2, 2, (T,) + lead + (d,)).astype(dtype)
    y, _, (rkv, wt, ut) = _seq(r, k, v, w, u, state=state, grad=True)
    ag.sum_(ag.mul(y, Tensor(weight))).backward()
    refs = _unstabilized_gradients(r, k, v, w, u, weight, state)
    for name, grad, ref in zip("rkvwu", (*rkv.grad, wt.grad, ut.grad), refs):
        assert grad.dtype == dtype and grad.shape == ref.shape, name
        err = float(np.abs(grad - ref).max() / np.abs(ref).max())
        assert np.isfinite(err) and err <= limit, (name, err)


def test_gradient_flows_through_chunk_output_not_state():
    # the boundary state is detached numpy: feeding it onward must not
    # extend the autograd graph of the first chunk
    rng = np.random.default_rng(6)
    rkv = np.stack(_random_case(rng, 4, 2)[:3])
    w, u = Tensor(np.full(2, 0.5)), Tensor(np.zeros(2))
    rkv1 = Tensor(rkv[:, :2], requires_grad=True)
    mid, final = np.empty((2, 3, 2))
    wkv.wkv_sequence(rkv1, w, u, _empty((2,)), mid)
    rkv2 = Tensor(rkv[:, 2:], requires_grad=True)
    y2 = wkv.wkv_sequence(rkv2, w, u, mid, final)
    ag.sum_(y2).backward()
    assert rkv2.grad is not None
    assert rkv1.grad is None


def test_shape_validation():
    # numpy refuses both: rkv's 3-way unpack, and scan 1's broadcast of w
    state = _empty((2,))
    with pytest.raises(ValueError, match="unpack"):
        wkv.wkv_sequence(Tensor(np.ones((2, 3, 2))), Tensor(np.ones(2)), Tensor(np.ones(2)),
                         state, np.empty_like(state))
    with pytest.raises(ValueError, match="broadcast"):
        wkv.wkv_sequence(Tensor(np.ones((3, 3, 2))), Tensor(np.ones(3)), Tensor(np.ones(2)),
                         state, np.empty_like(state))


def test_step_rejects_non_finite_inputs():
    # wkv_sequence checks r, k and v once per call, on a one-token chunk too
    rkv = np.zeros((3, 1, 2))
    rkv[1, 0, 0] = np.nan
    with ag.no_grad(), pytest.raises(ag.NonFiniteError):
        wkv.wkv_sequence(Tensor(rkv), Tensor(np.ones(2)), Tensor(np.zeros(2)), _empty((2,)),
                         np.empty((3, 2)))


@pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
@pytest.mark.parametrize("bad", ["k", "v", "r"])
def test_scans_reject_non_finite_inputs(grad, bad):
    """A chunk raises, with or without the tape, rather than carrying NaN
    into y and the state."""
    rkv = np.zeros((3, 2, 2, 3))
    rkv["rkv".index(bad), 0, 1, 2] = np.inf
    with (contextlib.nullcontext() if grad else ag.no_grad()), \
            pytest.raises(ag.NonFiniteError, match="non-finite"):
        wkv.wkv_sequence(Tensor(rkv, requires_grad=grad), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)), _empty((2, 3)), np.empty((3, 2, 3)))


def test_strong_decay_and_bonus():
    d = 3
    k = np.zeros((10, d))
    v = np.arange(30, dtype=np.float64).reshape(10, d)
    w = np.full(d, 50.0)
    r = np.full((10, d), 50.0)          # an open gate: sigmoid(50) is 1 in float64
    with ag.no_grad():
        # large decay, no bonus: history reduces to the undecayed previous
        # token, so each output is the mean of the last two values
        y, _, _ = _seq(r, k, v, w, np.zeros(d))
        np.testing.assert_allclose(y.data[-1], (v[-1] + v[-2]) / 2, atol=1e-8)
        # a large current-token bonus makes the output the current value
        y, _, _ = _seq(r, k, v, w, np.full(d, 50.0))
        np.testing.assert_allclose(y.data[-1], v[-1], atol=1e-8)


def test_stacked_sequences_match_per_slice_calls():
    """One call on (T, B, n, d) equals one call per (b, i) slice: bitwise for
    y, dr, dk, dv and the final state; dw and du sum the slices in another order."""
    rng = np.random.default_rng(7)
    n, B, T, d = 3, 2, 9, 4
    k, v, k0, v0, weight = (rng.uniform(-1, 1, (T, B, n, d)).astype(np.float32)
                            for _ in range(5))
    w = rng.uniform(0.05, 2.0, d).astype(np.float32)
    u = rng.uniform(-1, 1, d).astype(np.float32)
    r = rng.uniform(-1, 1, (T, B, n, d)).astype(np.float32)
    with ag.no_grad():
        _, state, _ = _seq(np.zeros_like(k0), k0, v0, w, u)

    def run(rr, kk, vv, st, wt):
        y, final, leaves = _seq(rr, kk, vv, w.copy(), u.copy(), state=st, grad=True)
        ag.sum_(ag.mul(y, Tensor(wt))).backward()
        return y.data, final, [*leaves[0].grad] + [t.grad for t in leaves[1:]]

    y, final, (dr, dk, dv, dw, du) = run(r, k, v, state, weight)
    assert y.shape == (T, B, n, d) and final.shape == (3, B, n, d)
    dw_sum, du_sum = np.zeros_like(w), np.zeros_like(u)
    for i in range(n):
        for b in range(B):
            ys, fs, (drs, dks, dvs, dws, dus) = run(r[:, b, i], k[:, b, i], v[:, b, i],
                                                    state[:, b, i], weight[:, b, i])
            assert np.array_equal(y[:, b, i], ys)
            assert np.array_equal(dr[:, b, i], drs)
            assert np.array_equal(dk[:, b, i], dks)
            assert np.array_equal(dv[:, b, i], dvs)
            assert np.array_equal(final[:, b, i], fs)
            dw_sum += dws
            du_sum += dus
    np.testing.assert_allclose(dw, dw_sum, rtol=0, atol=1e-6)
    np.testing.assert_allclose(du, du_sum, rtol=0, atol=1e-6)


def _carried_state(rng, lead, d, dtype):
    """A non-empty (a, b, p) state: the end of a random 5-token chunk."""
    k0, v0 = (rng.uniform(-1, 1, (5,) + lead + (d,)).astype(dtype) for _ in range(2))
    w = rng.uniform(0.05, 2.0, d).astype(dtype)
    u = rng.uniform(-1, 1, d).astype(dtype)
    with ag.no_grad():
        _, state, _ = _seq(np.zeros_like(k0), k0, v0, w, u)
    return state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T", [1, 7])
def test_leading_axes_from_carried_state_match_stepwise_bitwise(dtype, T):
    rng = np.random.default_rng(8)
    lead, d = (2, 3), 4
    k, v = (rng.uniform(-2, 2, (T,) + lead + (d,)).astype(dtype) for _ in range(2))
    w = rng.uniform(0.05, 2.0, d).astype(dtype)
    u = rng.uniform(-1, 1, d).astype(dtype)
    state = _carried_state(rng, lead, d, dtype)
    r = rng.uniform(-2, 2, (T,) + lead + (d,)).astype(dtype)
    with ag.no_grad():
        y, final, _ = _seq(r, k, v, w, u, state=state)
    assert y.data.dtype == dtype and y.shape == (T,) + lead + (d,)
    for i in range(lead[0]):
        for j in range(lead[1]):
            st = state[:, i, j]
            for t in range(T):
                yt, st = _step(st, k[t, i, j], v[t, i, j], w, u)
                assert np.array_equal(y.data[t, i, j], _gate(r[t, i, j]) * yt)
            assert np.array_equal(final[:, i, j], st)


@pytest.mark.parametrize("T", [1, 5])
def test_gradients_with_leading_axes_and_carried_state(T):
    rng = np.random.default_rng(9)
    lead, d = (2, 2), 3
    k, v = (rng.uniform(-1, 1, (T,) + lead + (d,)) for _ in range(2))
    w = rng.uniform(0.05, 2.0, d)
    u = rng.uniform(-1, 1, d)
    state = _carried_state(rng, lead, d, np.float64)
    weight = rng.uniform(-1, 1, (T,) + lead + (d,))
    r = rng.uniform(-1, 1, (T,) + lead + (d,))
    _assert_gradients_match_fd({"r": r, "k": k, "v": v, "w": w, "u": u}, weight, state)


def test_no_grad_output_keeps_no_backward():
    rng = np.random.default_rng(10)
    r, k, v, w, u = _random_case(rng, 6, 3)
    leaves = [Tensor(x, requires_grad=True) for x in (np.stack([r, k, v]), w, u)]
    state = _empty((3,))
    with ag.no_grad():
        y = wkv.wkv_sequence(*leaves, state, np.empty_like(state))
    assert not y.requires_grad and y._backward is None
    y = wkv.wkv_sequence(*leaves, state, np.empty_like(state))
    assert y.requires_grad and y._backward is not None


@pytest.mark.parametrize("T", [1, 16])
def test_written_rows_hold_the_stepwise_state_and_share_no_memory(T):
    """The rows each entry writes hold the stepwise final state bitwise; the
    output and the state read share no memory with them, so carrying the
    rows keeps no chunk buffer alive and no later write reaches the output."""
    rng = np.random.default_rng(11)
    r, k, v = (rng.uniform(-1, 1, (T, 2, 3, 4)) for _ in range(3))
    w, u = rng.uniform(0.05, 2.0, 4), rng.uniform(-1, 1, 4)
    state = _carried_state(rng, (2, 3), 4, np.float64)
    want = state
    for t in range(T):
        _, want = _step(want, k[t], v[t], w, u)
    rkv, rows = np.stack([r, k, v]), np.empty_like(state)
    written = [(wkv.wkv_forward(rkv, w, u, state, rows), rows, rkv)]
    for grad in (False, True):
        y, final, (leaf, _, _) = _seq(r, k, v, w, u, state=state, grad=grad)
        written.append((y.data, final, leaf.data))
    for out, rows, inputs in written:
        assert rows.tobytes() == want.tobytes()
        assert not any(np.shares_memory(rows, x) for x in (out, state, inputs))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("carried", [False, True])
def test_one_token_no_grad_route_changes_no_number(dtype, carried):
    """wkv_forward, the plain entry, runs wkv_step for one token; wkv_sequence
    on leaves that need a gradient runs the scans. y and the three state
    arrays are bitwise equal."""
    rng = np.random.default_rng(12)
    lead, d = (2, 3), 4
    k, v = (rng.uniform(-2, 2, (1,) + lead + (d,)).astype(dtype) for _ in range(2))
    w = rng.uniform(0.05, 2.0, d).astype(dtype)
    u = rng.uniform(-1, 1, d).astype(dtype)
    state = _carried_state(rng, lead, d, dtype) if carried else _empty(lead + (d,), dtype)
    r = rng.uniform(-2, 2, (1,) + lead + (d,)).astype(dtype)
    final = np.empty_like(state)
    y = wkv.wkv_forward(np.stack([r, k, v]), w, u, state, final)
    scan_y, scan_final, _ = _seq(r, k, v, w, u, state=state, grad=True)
    assert scan_y._backward is not None
    assert type(y) is np.ndarray and y.dtype == dtype and y.shape == k.shape
    assert y.tobytes() == scan_y.data.tobytes()
    assert final.tobytes() == scan_final.tobytes()


def test_one_token_no_grad_rejects_non_finite_key():
    rkv = np.zeros((3, 1, 2, 3))
    rkv[1, 0, 1, 2] = np.inf
    with pytest.raises(ag.NonFiniteError):
        wkv.wkv_forward(rkv, np.ones(3), np.zeros(3), _empty((2, 3)), np.empty((3, 2, 3)))
