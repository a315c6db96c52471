"""The WKV recurrence in max-shifted (log-stabilized) form.

State per channel is (a, b, p): the true accumulators are A = a*e^p and
B = b*e^p, with p a running log-scale maximum that keeps every exp argument
<= 0. The empty state is a = b = 0, p = -inf.

`wkv_step` is the plain one-token update, kept as the reference the tests
compare against; no model path calls it. `wkv_sequence` runs a whole
(..., T, d) chunk inside a single autograd node with a hand-written backward
over k, v, w, u. Its leading axes (perspectives, batch contexts) are
independent sequences that share w and u; they run side by side as one
(T, G*d) channel-stacked loop, so the Python loop over time is paid once per
chunk, not once per sequence. The chunk-boundary state is a detached numpy
triple (gradients never cross it).
"""

from __future__ import annotations

import math

import numpy as np

from rwkvp import autograd as ag
from rwkvp.autograd import Tensor


def empty_state(shape, dtype=np.float32):
    """The (a, b, p) triple with no history; shape is d or (..., d)."""
    return (np.zeros(shape, dtype=dtype),
            np.zeros(shape, dtype=dtype),
            np.full(shape, -np.inf, dtype=dtype))


def wkv_step(state, k_t: np.ndarray, v_t: np.ndarray, w: np.ndarray, u: np.ndarray):
    """One token of the recurrence. Returns (wkv_t, next_state)."""
    if not (np.all(np.isfinite(k_t)) and np.all(np.isfinite(v_t))):
        raise ag.NonFiniteError("wkv_step: non-finite k or v")
    a, b, p = state
    uk = u + k_t
    q = np.maximum(p, uk)
    e1 = np.exp(p - q)
    e2 = np.exp(uk - q)
    y = (e1 * a + e2 * v_t) / (e1 * b + e2)
    q2 = np.maximum(p - w, k_t)
    f1 = np.exp(p - w - q2)
    f2 = np.exp(k_t - q2)
    return y, (f1 * a + f2 * v_t, f1 * b + f2, q2)


def _to_channels(x: np.ndarray) -> np.ndarray:
    """(..., T, d) -> (T, G*d): time leading, the G sequences side by side."""
    return np.moveaxis(x, -2, 0).reshape(x.shape[-2], math.prod(x.shape[:-2]) * x.shape[-1])


def wkv_sequence(k: Tensor, v: Tensor, w: Tensor, u: Tensor, state=None):
    """Run the recurrence over a (..., T, d) chunk.

    Returns (y: Tensor (..., T, d), final_state) where final_state is a
    detached (a, b, p) numpy triple, each (..., d), for handing off to the
    next chunk.
    """
    if k.shape != v.shape or k.data.ndim < 2:
        raise ag.ShapeError(f"wkv_sequence: k {k.shape} vs v {v.shape}")
    lead, (T, d) = k.shape[:-2], k.shape[-2:]
    if w.shape != (d,) or u.shape != (d,):
        raise ag.ShapeError(f"wkv_sequence: w {w.shape} / u {u.shape} vs d={d}")
    dtype = k.data.dtype
    if state is None:
        state = empty_state(lead + (d,), dtype=dtype)
    if any(np.shape(s) != lead + (d,) for s in state):
        raise ag.ShapeError(f"wkv_sequence: state {[np.shape(s) for s in state]} "
                            f"vs {lead + (d,)}")
    groups = math.prod(lead)
    kd, vd = _to_channels(k.data), _to_channels(v.data)
    wd, ud = np.tile(w.data, groups), np.tile(u.data, groups)
    a, b, p = (np.array(s, dtype=dtype).reshape(-1) for s in state)
    D = kd.shape[1]

    y = np.empty_like(kd)
    # saved per-step values for the backward pass
    a_in = np.empty_like(kd)
    b_in = np.empty_like(kd)
    e1s = np.empty_like(kd)
    e2s = np.empty_like(kd)
    dens = np.empty_like(kd)
    f1s = np.empty_like(kd)
    f2s = np.empty_like(kd)
    n1s = np.empty((T, D), dtype=bool)   # output max taken at p
    m1s = np.empty((T, D), dtype=bool)   # update max taken at p - w

    for t in range(T):
        a_in[t], b_in[t] = a, b
        kt, vt = kd[t], vd[t]
        uk = ud + kt
        n1 = p >= uk
        q = np.where(n1, p, uk)
        e1 = np.exp(p - q)
        e2 = np.exp(uk - q)
        den = e1 * b + e2
        y[t] = (e1 * a + e2 * vt) / den
        n1s[t], e1s[t], e2s[t], dens[t] = n1, e1, e2, den

        pw = p - wd
        m1 = pw >= kt
        q2 = np.where(m1, pw, kt)
        f1 = np.exp(pw - q2)
        f2 = np.exp(kt - q2)
        a = f1 * a + f2 * vt
        b = f1 * b + f2
        p = q2
        m1s[t], f1s[t], f2s[t] = m1, f1, f2

    def from_channels(x):
        return np.moveaxis(x.reshape((T,) + lead + (d,)), 0, -2)

    out = Tensor(from_channels(y), ag._needs_grad(k, v, w, u), (k, v, w, u), "wkv_sequence")
    final_state = tuple(s.reshape(lead + (d,)) for s in (a, b, p))

    if out.requires_grad:
        def bwd(gy):
            gy = _to_channels(gy)
            dk = np.zeros_like(kd)
            dv = np.zeros_like(vd)
            dw = np.zeros_like(wd)
            du = np.zeros_like(ud)
            da = np.zeros(D, dtype=dtype)   # grad wrt state after step t
            db = np.zeros(D, dtype=dtype)
            dp = np.zeros(D, dtype=dtype)
            for t in range(T - 1, -1, -1):
                ai, bi = a_in[t], b_in[t]
                e1, e2, den = e1s[t], e2s[t], dens[t]
                f1, f2 = f1s[t], f2s[t]
                m1 = m1s[t]
                m2 = ~m1
                n1 = n1s[t]
                n2 = ~n1
                vt = vd[t]
                g = gy[t]

                # state update: a' = f1*a + f2*v, b' = f1*b + f2, p' = q2
                g1 = (da * ai + db * bi) * f1
                g2 = (da * vt + db) * f2
                da_cur = da * f1
                db_cur = db * f1
                dv[t] += da * f2
                dk[t] += -g1 * m2 + g2 * m1 + dp * m2
                dw += -g1 * m2 + g2 * m1 - dp * m1
                dp_cur = g1 * m2 - g2 * m1 + dp * m1

                # output: y = (e1*a + e2*v) / (e1*b + e2)
                dN = g / den
                dD = -g * y[t] / den
                da_cur += dN * e1
                db_cur += dD * e1
                dv[t] += dN * e2
                g1o = (dN * ai + dD * bi) * e1
                g2o = (dN * vt + dD) * e2
                duk = -g1o * n2 + g2o * n1
                du += duk
                dk[t] += duk
                dp_cur += g1o * n2 - g2o * n1

                da, db, dp = da_cur, db_cur, dp_cur
            if k.requires_grad:
                k._accumulate(from_channels(dk))
            if v.requires_grad:
                v._accumulate(from_channels(dv))
            if w.requires_grad:
                w._accumulate(dw.reshape(groups, d).sum(axis=0))
            if u.requires_grad:
                u._accumulate(du.reshape(groups, d).sum(axis=0))
        out._backward = bwd

    return out, final_state


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
