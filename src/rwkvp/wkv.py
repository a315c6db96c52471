"""The WKV recurrence in max-shifted (log-stabilized) form.

State per channel is (a, b, p): the true accumulators are A = a*e^p and
B = b*e^p, with p a running log-scale maximum that keeps every exp argument
<= 0. The empty state is a = b = 0, p = -inf.

`wkv_step` is the plain one-token update: the reference the tests compare
against, and what `wkv_sequence` runs for a one-token chunk that needs no
gradient (T=1 decoding), where the scan buffers and the tiled w and u would
cost more than the step itself. `wkv_sequence` runs a whole
(T, ..., d) chunk inside a single autograd node with a hand-written backward
over k, v, w, u. The axes between T and d (contexts, perspectives) are
independent sequences that share w and u; time leads, so they are the G*d
channels of a free (T, G*d) reshape. The chunk-boundary state is a detached
numpy triple (gradients never cross it).

`wkv_sequence` splits the recurrence into two cheap scans and whole-chunk
array ops, so the Python loop over time costs two ufunc calls per step per
scan instead of a few dozen:

- The log-scale p' = max(p - w, k) depends on neither a nor b. Scan 1 runs
  it alone and gives p for all T + 1 positions.
- With p known, the output factors e1, e2 and the update factors f1, f2 are
  one array op each over the chunk, and (a, b) follow the linear recurrence
  ab[t + 1] = f1[t] * ab[t] + (f2 v, f2)[t]. Scan 2 runs it on the stacked
  (2, G*d) pair; y = (e1 a + e2 v) / (e1 b + e2) is then one expression.

Every value is the same formula, in the same order, as in `wkv_step`, so y
and the final state are bitwise equal to stepping token by token. That is
why p stays a loop: its closed form, max over s of (k[s] + s*w) less
(t - 1)*w via `np.maximum.accumulate`, rounds differently (and loses bits
as t*w grows), and breaks that equality.

The backward holds p and the output's log-scale q = max(p, u + k) constant.
They are a gauge: with A = a*e^p and B = b*e^p, the output is
y = (A + e^(u+k) v) / (B + e^(u+k)) and the update is A' = e^-w A + e^k v,
B' = e^-w B + e^k, whichever p, q and p' the maxes picked. So y does not
depend on them, and a gradient routed through the maxes would sum to zero
(ties included). What is left is one reverse scan for the gradient of
(a, b), whose coefficient is f1, and dk, dv, dw, du as whole-chunk
expressions: u + k enters through e2, k through f2, w through f1. Under
`no_grad` nothing is kept for it.
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


def wkv_sequence(k: Tensor, v: Tensor, w: Tensor, u: Tensor, state=None):
    """Run the recurrence over a (T, ..., d) chunk.

    Returns (y: Tensor (T, ..., d), final_state) where final_state is a
    detached (a, b, p) numpy triple, each (..., d), for handing off to the
    next chunk. The final state owns its memory: a view into the chunk's
    scan buffers would keep them alive for as long as the state is carried.
    A non-finite value in k or v raises NonFiniteError on every route.
    """
    if k.shape != v.shape or k.data.ndim < 2:
        raise ag.ShapeError(f"wkv_sequence: k {k.shape} vs v {v.shape}")
    T, lead, d = k.shape[0], k.shape[1:-1], k.shape[-1]
    if w.shape != (d,) or u.shape != (d,):
        raise ag.ShapeError(f"wkv_sequence: w {w.shape} / u {u.shape} vs d={d}")
    dtype = k.data.dtype
    if state is None:
        state = empty_state(lead + (d,), dtype=dtype)
    if any(np.shape(s) != lead + (d,) for s in state):
        raise ag.ShapeError(f"wkv_sequence: state {[np.shape(s) for s in state]} "
                            f"vs {lead + (d,)}")
    if not (np.isfinite(k.data).all() and np.isfinite(v.data).all()):
        raise ag.NonFiniteError("wkv_sequence: non-finite k or v")
    if T == 1 and not ag._needs_grad(k, v, w, u):
        # the same formula as the scans below, bitwise; w and u broadcast over lead
        y, final_state = wkv_step(state, k.data[0], v.data[0], w.data, u.data)
        return Tensor(y.reshape(k.shape), _op="wkv_sequence"), final_state
    groups = math.prod(lead)
    D = groups * d
    kd, vd = k.data.reshape(T, D), v.data.reshape(T, D)
    wd, ud = np.tile(w.data, groups), np.tile(u.data, groups)

    # scan 1: p[t + 1] = max(p[t] - w, k[t]); row t is the log-scale entering step t
    p = np.empty((T + 1, D), dtype=dtype)
    p[0] = np.reshape(state[2], D)
    for cur, nxt, kt in zip(p[:-1], p[1:], kd):
        np.subtract(cur, wd, out=nxt)
        np.maximum(nxt, kt, out=nxt)
    p_in, p_out = p[:-1], p[1:]

    # every exp factor of the chunk at once
    uk = kd + ud
    e1 = np.maximum(p_in, uk)                    # q, the output's log-scale
    e2 = np.subtract(uk, e1, out=uk)
    np.subtract(p_in, e1, out=e1)
    np.exp(e1, out=e1)                           # e1 = exp(p - q)
    np.exp(e2, out=e2)                           # e2 = exp(u + k - q)
    f1 = np.subtract(p_in, wd)
    np.subtract(f1, p_out, out=f1)
    np.exp(f1, out=f1)                           # f1 = exp(p - w - p')
    inc = np.empty((T, 2, D), dtype=dtype)       # what step t adds to (a, b)
    f2 = inc[:, 1]
    np.subtract(kd, p_out, out=f2)
    np.exp(f2, out=f2)                           # f2 = exp(k - p')
    np.multiply(f2, vd, out=inc[:, 0])

    # scan 2: with p known, (a, b) is linear: ab[t + 1] = f1[t] * ab[t] + (f2 v, f2)[t]
    ab = np.empty((T + 1, 2, D), dtype=dtype)
    ab[0, 0] = np.reshape(state[0], D)
    ab[0, 1] = np.reshape(state[1], D)
    for cur, nxt, f, i in zip(ab[:-1], ab[1:], f1, inc):
        np.multiply(cur, f, out=nxt)
        np.add(nxt, i, out=nxt)
    a_in, b_in = ab[:-1, 0], ab[:-1, 1]

    # y = (e1 a + e2 v) / (e1 b + e2)
    den = np.multiply(e1, b_in)
    den += e2
    y = np.multiply(e1, a_in)
    y += e2 * vd
    y /= den

    out = Tensor(y.reshape(k.shape), ag._needs_grad(k, v, w, u), (k, v, w, u), "wkv_sequence")
    final_state = tuple(s.reshape(lead + (d,)).copy() for s in (ab[T, 0], ab[T, 1], p[T]))

    if out.requires_grad:
        def bwd(gy):
            g = gy.reshape(T, D)
            dN = g / den
            dD = -g * y / den

            # reverse scan: dab[t] is the gradient of (a, b) entering step t
            dab = np.empty((T + 1, 2, D), dtype=dtype)
            dab[T] = 0
            np.multiply(dN, e1, out=dab[:-1, 0])
            np.multiply(dD, e1, out=dab[:-1, 1])
            for cur, nxt, f in zip(dab[-2::-1], dab[:0:-1], f1[::-1]):
                cur += nxt * f
            da, db = dab[1:, 0], dab[1:, 1]      # gradient of the state after step t

            # p and q are held constant: a gauge (see the module docstring).
            # After dv, g2 and dk reuse the buffers of dN and dD.
            if v.requires_grad:
                dv = da * f2
                dv += dN * e2
                v._accumulate(dv.reshape(v.shape))
            g2 = np.multiply(dN, vd, out=dN)     # via e2 = exp(u + k - q)
            g2 += dD
            g2 *= e2
            if k.requires_grad:
                dk = np.multiply(da, vd, out=dD)  # via f2 = exp(k - p')
                dk += db
                dk *= f2
                dk += g2
                k._accumulate(dk.reshape(k.shape))
            if w.requires_grad:
                dw = da * a_in                   # via f1 = exp(p - w - p')
                dw += db * b_in
                dw *= f1
                w._accumulate(-dw.sum(axis=0).reshape(groups, d).sum(axis=0))
            if u.requires_grad:
                u._accumulate(g2.sum(axis=0).reshape(groups, d).sum(axis=0))
        out._backward = bwd

    return out, final_state
