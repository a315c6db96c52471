import contextlib

import numpy as np
import pytest

from rwkvp import autograd as ag
from rwkvp import wkv
from rwkvp.autograd import Tensor


def _random_case(rng, T, d, scale=1.0):
    k = rng.uniform(-scale, scale, (T, d))
    v = rng.uniform(-scale, scale, (T, d))
    w = rng.uniform(0.05, 2.0, d)       # decay exponents are positive
    u = rng.uniform(-scale, scale, d)
    return k, v, w, u


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


def test_empty_state_shape_and_values():
    a, b, p = wkv.empty_state(4)
    np.testing.assert_array_equal(a, 0.0)
    np.testing.assert_array_equal(b, 0.0)
    assert np.all(np.isneginf(p))


def test_first_token_output_equals_value():
    # with an empty state the numerator/denominator reduce to v and 1
    rng = np.random.default_rng(0)
    k, v, w, u = _random_case(rng, 1, 6)
    y, _ = wkv.wkv_step(wkv.empty_state(6, np.float64), k[0], v[0], w, u)
    np.testing.assert_allclose(y, v[0], rtol=1e-12)


def test_sequence_matches_stepwise_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k, v, w, u = _random_case(rng, 12, 5)
        with ag.no_grad():
            y, final = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w), Tensor(u))
        state = wkv.empty_state(5, np.float64)
        for t in range(12):
            yt, state = wkv.wkv_step(state, k[t], v[t], w, u)
            assert np.array_equal(y.data[t], yt)
        for got, want in zip(final, state):
            assert np.array_equal(got, want)


def test_sequence_matches_unstabilized_reference():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k, v, w, u = _random_case(rng, 16, 4)
        with ag.no_grad():
            y, _ = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w), Tensor(u))
        ref = wkv_sequence_reference(k, v, w, u)
        np.testing.assert_allclose(y.data, ref, rtol=1e-10, atol=1e-12)


def test_chunked_equals_sequential():
    rng = np.random.default_rng(3)
    for trial in range(100):
        T, d = 16, 4
        k, v, w, u = _random_case(rng, T, d)
        with ag.no_grad():
            y_full, _ = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w), Tensor(u))
            cut = int(rng.integers(1, T))
            y1, mid = wkv.wkv_sequence(Tensor(k[:cut]), Tensor(v[:cut]), Tensor(w), Tensor(u))
            y2, _ = wkv.wkv_sequence(Tensor(k[cut:]), Tensor(v[cut:]), Tensor(w), Tensor(u),
                                     state=mid)
        y_chunked = np.vstack([y1.data, y2.data])
        assert np.abs(y_full.data - y_chunked).max() < 1e-5


@pytest.mark.parametrize("extreme", [-200.0, 200.0])
def test_extreme_keys_stay_finite(extreme):
    rng = np.random.default_rng(4)
    k, v, w, u = _random_case(rng, 8, 3)
    k[3] = extreme
    with ag.no_grad():
        y, final = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w), Tensor(u))
    assert np.all(np.isfinite(y.data))
    assert np.all(np.isfinite(final[0])) and np.all(np.isfinite(final[1]))


def _assert_gradients_match_fd(parts, weight, state=None):
    """Analytic dk, dv, dw, du of sum(y * weight) vs central differences."""
    tensors = {n: Tensor(a.copy(), requires_grad=True) for n, a in parts.items()}
    assert all(t.data.dtype == np.float64 for t in tensors.values())
    y, _ = wkv.wkv_sequence(tensors["k"], tensors["v"], tensors["w"], tensors["u"],
                            state=state)
    ag.sum_(ag.mul(y, Tensor(weight))).backward()

    def value(override):
        args = {n: override.get(n, parts[n]) for n in parts}
        with ag.no_grad():
            out, _ = wkv.wkv_sequence(Tensor(args["k"]), Tensor(args["v"]),
                                      Tensor(args["w"]), Tensor(args["u"]), state=state)
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
        an = tensors[name].grad
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-8)
        assert (np.abs(an - fd) / denom).max() < 1e-5, name


def test_sequence_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    T, d = 6, 3
    k, v, w, u = _random_case(rng, T, d)
    weight = rng.uniform(-1, 1, (T, d))
    _assert_gradients_match_fd({"k": k, "v": v, "w": w, "u": u}, weight)
    # exact ties of both maxes: with w = u = 0.5 and k[t] = -0.5 t, the log-scale
    # entering step t >= 1 is p = k[t - 1], so u + k[t] == p and p - w == k[t]
    k = np.repeat(-0.5 * np.arange(T)[:, None], d, axis=1)
    w = u = np.full(d, 0.5)
    _assert_gradients_match_fd({"k": k, "v": v, "w": w, "u": u}, weight)


def _unstabilized_gradients(k, v, w, u, weight, state):
    """dk, dv, dw, du of sum(y * weight) by a long-double backward of the
    plain recurrence A' = e^-w A + e^k v, B' = e^-w B + e^k, with the
    output y = (A + e^(u+k) v) / (B + e^(u+k)). No log-scale anywhere."""
    ld = np.longdouble
    k, v, w, u, weight = (np.asarray(x, dtype=ld) for x in (k, v, w, u, weight))
    a0, b0, p0 = (np.asarray(s, dtype=ld) for s in state)
    decay, ek, euk = np.exp(-w), np.exp(k), np.exp(u + k)
    T = len(k)
    A, B = np.empty((T + 1,) + k.shape[1:], ld), np.empty((T + 1,) + k.shape[1:], ld)
    A[0], B[0] = a0 * np.exp(p0), b0 * np.exp(p0)
    for t in range(T):
        A[t + 1] = decay * A[t] + ek[t] * v[t]
        B[t + 1] = decay * B[t] + ek[t]
    den = B[:-1] + euk
    dN = weight / den
    dD = -weight * (A[:-1] + euk * v) / den ** 2
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
    return dk, dv, dw.sum(axis=lead), du.sum(axis=lead)


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
    ts = [Tensor(x, requires_grad=True) for x in (k, v, w, u)]
    y, _ = wkv.wkv_sequence(*ts, state=state)
    ag.sum_(ag.mul(y, Tensor(weight))).backward()
    refs = _unstabilized_gradients(k, v, w, u, weight, state)
    for name, t, ref in zip("kvwu", ts, refs):
        assert t.grad.dtype == dtype and t.grad.shape == ref.shape, name
        err = float(np.abs(t.grad - ref).max() / np.abs(ref).max())
        assert np.isfinite(err) and err <= limit, (name, err)


def test_gradient_flows_through_chunk_output_not_state():
    # the boundary state is detached numpy: feeding it onward must not
    # extend the autograd graph of the first chunk
    rng = np.random.default_rng(6)
    k, v, w, u = _random_case(rng, 4, 2)
    k1 = Tensor(k[:2], requires_grad=True)
    y1, mid = wkv.wkv_sequence(k1, Tensor(v[:2]), Tensor(w), Tensor(u))
    assert all(isinstance(s, np.ndarray) for s in mid)
    k2 = Tensor(k[2:], requires_grad=True)
    y2, _ = wkv.wkv_sequence(k2, Tensor(v[2:]), Tensor(w), Tensor(u), state=mid)
    ag.sum_(y2).backward()
    assert k2.grad is not None
    assert k1.grad is None


def test_shape_validation():
    with pytest.raises(ag.ShapeError):
        wkv.wkv_sequence(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 3))),
                         Tensor(np.ones(2)), Tensor(np.ones(2)))
    with pytest.raises(ag.ShapeError):
        wkv.wkv_sequence(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))),
                         Tensor(np.ones(3)), Tensor(np.ones(2)))


def test_step_rejects_non_finite_inputs():
    # wkv_sequence checks k and v once per call, on the step route too
    with ag.no_grad(), pytest.raises(ag.NonFiniteError):
        wkv.wkv_sequence(Tensor(np.array([[np.nan, 0.0]])), Tensor(np.zeros((1, 2))),
                         Tensor(np.ones(2)), Tensor(np.zeros(2)))


@pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
@pytest.mark.parametrize("bad", ["k", "v"])
def test_scans_reject_non_finite_inputs(grad, bad):
    """A chunk of T >= 2, or any chunk in grad mode, raises rather than
    carrying NaN into y and the state."""
    kv = {"k": np.zeros((2, 2, 3)), "v": np.zeros((2, 2, 3))}
    kv[bad][0, 1, 2] = np.inf
    k, v = (Tensor(kv[name], requires_grad=grad) for name in ("k", "v"))
    with (contextlib.nullcontext() if grad else ag.no_grad()), \
            pytest.raises(ag.NonFiniteError, match="non-finite"):
        wkv.wkv_sequence(k, v, Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_strong_decay_and_bonus():
    d = 3
    k = np.zeros((10, d))
    v = np.arange(30, dtype=np.float64).reshape(10, d)
    w = np.full(d, 50.0)
    with ag.no_grad():
        # large decay, no bonus: history reduces to the undecayed previous
        # token, so each output is the mean of the last two values
        y, _ = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w),
                                Tensor(np.zeros(d)))
        np.testing.assert_allclose(y.data[-1], (v[-1] + v[-2]) / 2, atol=1e-8)
        # a large current-token bonus makes the output the current value
        y, _ = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w),
                                Tensor(np.full(d, 50.0)))
        np.testing.assert_allclose(y.data[-1], v[-1], atol=1e-8)


def test_stacked_sequences_match_per_slice_calls():
    """One call on (T, B, n, d) equals one call per (b, i) slice: bitwise for
    y, dk, dv and the final state; dw and du sum the slices in another order."""
    rng = np.random.default_rng(7)
    n, B, T, d = 3, 2, 9, 4
    k, v, k0, v0, weight = (rng.uniform(-1, 1, (T, B, n, d)).astype(np.float32)
                            for _ in range(5))
    w = rng.uniform(0.05, 2.0, d).astype(np.float32)
    u = rng.uniform(-1, 1, d).astype(np.float32)
    with ag.no_grad():
        _, state = wkv.wkv_sequence(Tensor(k0), Tensor(v0), Tensor(w), Tensor(u))

    def run(kk, vv, st, wt):
        ts = [Tensor(x.copy(), requires_grad=True) for x in (kk, vv, w, u)]
        y, final = wkv.wkv_sequence(*ts, state=st)
        ag.sum_(ag.mul(y, Tensor(wt))).backward()
        return y.data, final, [t.grad for t in ts]

    y, final, (dk, dv, dw, du) = run(k, v, state, weight)
    assert y.shape == (T, B, n, d) and all(s.shape == (B, n, d) for s in final)
    dw_sum, du_sum = np.zeros_like(w), np.zeros_like(u)
    for i in range(n):
        for b in range(B):
            ys, fs, (dks, dvs, dws, dus) = run(k[:, b, i], v[:, b, i],
                                               tuple(s[b, i] for s in state), weight[:, b, i])
            assert np.array_equal(y[:, b, i], ys)
            assert np.array_equal(dk[:, b, i], dks)
            assert np.array_equal(dv[:, b, i], dvs)
            for got, want in zip(final, fs):
                assert np.array_equal(got[b, i], want)
            dw_sum += dws
            du_sum += dus
    np.testing.assert_allclose(dw, dw_sum, rtol=0, atol=1e-6)
    np.testing.assert_allclose(du, du_sum, rtol=0, atol=1e-6)


def test_state_shape_must_match_leading_axes():
    k = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ag.ShapeError, match="state"):
        wkv.wkv_sequence(k, k, Tensor(np.ones(4)), Tensor(np.ones(4)),
                         state=wkv.empty_state(4, np.float64))


def _carried_state(rng, lead, d, dtype):
    """A non-empty (a, b, p) state: the end of a random 5-token chunk."""
    k0, v0 = (rng.uniform(-1, 1, (5,) + lead + (d,)).astype(dtype) for _ in range(2))
    w = rng.uniform(0.05, 2.0, d).astype(dtype)
    u = rng.uniform(-1, 1, d).astype(dtype)
    with ag.no_grad():
        _, state = wkv.wkv_sequence(Tensor(k0), Tensor(v0), Tensor(w), Tensor(u))
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
    with ag.no_grad():
        y, final = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w), Tensor(u), state=state)
    assert y.data.dtype == dtype and y.shape == (T,) + lead + (d,)
    for i in range(lead[0]):
        for j in range(lead[1]):
            st = tuple(s[i, j] for s in state)
            for t in range(T):
                yt, st = wkv.wkv_step(st, k[t, i, j], v[t, i, j], w, u)
                assert np.array_equal(y.data[t, i, j], yt)
            for got, want in zip(final, st):
                assert np.array_equal(got[i, j], want)


@pytest.mark.parametrize("T", [1, 5])
def test_gradients_with_leading_axes_and_carried_state(T):
    rng = np.random.default_rng(9)
    lead, d = (2, 2), 3
    k, v = (rng.uniform(-1, 1, (T,) + lead + (d,)) for _ in range(2))
    w = rng.uniform(0.05, 2.0, d)
    u = rng.uniform(-1, 1, d)
    state = _carried_state(rng, lead, d, np.float64)
    weight = rng.uniform(-1, 1, (T,) + lead + (d,))
    _assert_gradients_match_fd({"k": k, "v": v, "w": w, "u": u}, weight, state)


def test_no_grad_output_keeps_no_backward():
    rng = np.random.default_rng(10)
    k, v, w, u = (Tensor(x, requires_grad=True) for x in _random_case(rng, 6, 3))
    with ag.no_grad():
        y, _ = wkv.wkv_sequence(k, v, w, u)
    assert not y.requires_grad and y._backward is None
    y, _ = wkv.wkv_sequence(k, v, w, u)
    assert y.requires_grad and y._backward is not None


def test_final_state_owns_its_memory():
    # a view into the chunk's scan buffers would keep them alive for as long
    # as the state is carried from chunk to chunk
    rng = np.random.default_rng(11)
    k, v = (rng.uniform(-1, 1, (16, 2, 3, 4)) for _ in range(2))
    w, u = rng.uniform(0.05, 2.0, 4), rng.uniform(-1, 1, 4)
    for grad in (False, True):
        ts = [Tensor(x, requires_grad=grad) for x in (k, v, w, u)]
        y, final = wkv.wkv_sequence(*ts, state=_carried_state(rng, (2, 3), 4, np.float64))
        for s in final:
            assert s.shape == (2, 3, 4) and s.base is None
            assert not np.shares_memory(s, y.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("carried", [False, True])
def test_one_token_no_grad_route_changes_no_number(dtype, carried):
    """T=1 under no_grad runs wkv_step; the same call on leaves that need a
    gradient runs the scans. y and the three state arrays are bitwise equal."""
    rng = np.random.default_rng(12)
    lead, d = (2, 3), 4
    k, v = (rng.uniform(-2, 2, (1,) + lead + (d,)).astype(dtype) for _ in range(2))
    w = rng.uniform(0.05, 2.0, d).astype(dtype)
    u = rng.uniform(-1, 1, d).astype(dtype)
    state = _carried_state(rng, lead, d, dtype) if carried else None
    with ag.no_grad():
        y, final = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w), Tensor(u), state=state)
    scan_y, scan_final = wkv.wkv_sequence(
        *(Tensor(x, requires_grad=True) for x in (k, v, w, u)), state=state)
    assert scan_y._backward is not None and y._backward is None
    assert y.data.dtype == dtype and y.shape == k.shape
    assert y.data.tobytes() == scan_y.data.tobytes()
    for got, want in zip(final, scan_final):
        assert got.dtype == dtype and got.shape == lead + (d,)
        assert got.tobytes() == want.tobytes()
        assert got.base is None and not np.shares_memory(got, y.data)
        assert state is None or not any(np.shares_memory(got, s) for s in state)


def test_one_token_no_grad_rejects_non_finite_key():
    k = np.zeros((1, 2, 3))
    k[0, 1, 2] = np.inf
    with ag.no_grad(), pytest.raises(ag.NonFiniteError):
        wkv.wkv_sequence(Tensor(k), Tensor(np.zeros((1, 2, 3))), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))
