"""The WKV recurrence in max-shifted (log-stabilized) form.

State per channel is (a, b, p): the true accumulators are A = a*e^p and
B = b*e^p, with p a running log-scale maximum that keeps every exp argument
<= 0. The empty state is a = b = 0, p = -inf.

`wkv_step` is the plain one-token update: the reference the tests compare
against, and what `wkv_forward` runs for a one-token chunk (T=1 decoding).
`wkv_forward` is the WKV's entry in a forward under no_grad: plain arrays
in and out, and for a longer chunk `wkv_sequence` itself. `wkv_sequence`
takes the time-mix block's r, k and v as one stacked (3, T, ..., d) chunk
and returns sigmoid(r) * wkv inside a single autograd node with a
hand-written backward over r, k, v, w, u. The gate is r's only use, so it
costs no node of its own, and r, k and v's gradients are written into one
stacked array, in sigmoid_mul's operation order for r's. The axes between
T and d (contexts, perspectives) are independent sequences that share w
and u: the G*d channels of a free (T, G*d) reshape. Each entry reads the
(a, b, p) rows entering the chunk and writes the final ones into the
(3, ..., d) rows it is given, rows 1-3 of a layer's state in the model; no
gradient crosses them.

`wkv_sequence` splits the recurrence into two cheap scans and whole-chunk
array ops, so the Python loop over time costs two ufunc calls per step per
scan instead of a few dozen:

- The log-scale p' = max(p - w, k) depends on neither a nor b. Scan 1 runs
  it alone and gives p for all T + 1 positions.
- With p known, the output factors e1, e2 and the update factors f1, f2 are
  one array op each over the chunk, and (a, b) follow the linear recurrence
  ab[t + 1] = f1[t] * ab[t] + (f2 v, f2)[t]. Scan 2 steps it on flat
  (2*G*d,) rows against f1 tiled twice, so no step broadcasts; y =
  (e1 a + e2 v) / (e1 b + e2) is then one expression.

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
(a, b), on scan 2's flat rows, and dk, dv, dw, du as whole-chunk
expressions: u + k enters through e2, k through f2, w through f1. Under
`no_grad` nothing is kept for it; otherwise its closure keeps only what the
wanted gradients read, as every autograd op does, and v and f2 as compact
copies: a view would pin the whole buffer it lies in (the stacked r/k/v
projection, the inc buffer) until backward.
"""

from __future__ import annotations

import math

import numpy as np

from rwkvp import autograd as ag
from rwkvp.autograd import Tensor


def wkv_step(state, k_t: np.ndarray, v_t: np.ndarray, w: np.ndarray, u: np.ndarray,
             new_state) -> np.ndarray:
    """One token of the recurrence: writes the next (a, b, p) into the rows
    of new_state, which must not overlap state, and returns wkv_t."""
    a, b, p = state
    a_row, b_row, p_row = new_state
    uk = u + k_t
    q = np.maximum(p, uk)
    e1 = np.exp(p - q)
    e2 = np.exp(uk - q)
    y = (e1 * a + e2 * v_t) / (e1 * b + e2)
    pw = p - w
    q2 = np.maximum(pw, k_t, out=p_row)
    f1 = np.exp(pw - q2)
    f2 = np.exp(k_t - q2)
    np.multiply(f1, a, out=a_row)
    a_row += f2 * v_t
    np.multiply(f1, b, out=b_row)
    b_row += f2
    return y


def _gate(r: np.ndarray) -> np.ndarray:
    """sigmoid(r) in ag.sigmoid_mul's operations, 1 / (1 + exp(-r)), in place
    in one new array."""
    gate = np.negative(r)
    np.exp(gate, out=gate)
    gate += 1.0
    np.divide(1.0, gate, out=gate)
    return gate


def wkv_forward(rkv: np.ndarray, w: np.ndarray, u: np.ndarray, state, new_state) -> np.ndarray:
    """wkv_sequence on plain arrays, for the model's plain path (a forward
    under no_grad; see rwkvp.model).

    rkv (3, T, ..., d), w and u (d,), state and new_state as in wkv_sequence,
    whose shapes the caller has checked. Returns out (T, ..., d); out and
    the rows written are bitwise wkv_sequence's. A one-token chunk runs
    wkv_step, with w and u broadcast over the leading axes, where the scan
    buffers and the tiled w and u would cost more than the step; a longer
    one runs wkv_sequence. A non-finite r, k or v raises NonFiniteError.
    """
    if rkv.shape[1] > 1:
        return wkv_sequence(Tensor(rkv), Tensor(w), Tensor(u), state, new_state).data
    if not np.isfinite(rkv).all():
        raise ag.NonFiniteError("wkv_forward: non-finite r, k or v")
    r, k, v = rkv
    return _gate(r) * wkv_step(state, k[0], v[0], w, u, new_state)


def wkv_sequence(rkv: Tensor, w: Tensor, u: Tensor, state, new_state) -> Tensor:
    """Run the recurrence over a chunk and gate it: sigmoid(r) * wkv.

    rkv stacks the receptance, key and value chunks, (3, T, ..., d). state
    holds the (a, b, p) rows entering the chunk and new_state, which must not
    overlap it, gets the final ones; each is (3, ..., d). Returns out: Tensor
    (T, ..., d). A non-finite value in rkv raises NonFiniteError.
    """
    if rkv.data.ndim < 3 or rkv.shape[0] != 3:
        raise ag.ShapeError(f"wkv_sequence: rkv {rkv.shape}, need (3, T, ..., d)")
    T, lead, d = rkv.shape[1], rkv.shape[2:-1], rkv.shape[-1]
    if w.shape != (d,) or u.shape != (d,):
        raise ag.ShapeError(f"wkv_sequence: w {w.shape} / u {u.shape} vs d={d}")
    dtype = rkv.data.dtype
    if not np.isfinite(rkv.data).all():
        raise ag.NonFiniteError("wkv_sequence: non-finite r, k or v")
    r, k, v = rkv.data
    gate = _gate(r)
    groups = math.prod(lead)
    D = groups * d
    kd, vd = k.reshape(T, D), v.reshape(T, D)
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

    # scan 2, on flat rows: with p known, ab[t + 1] = f1[t] * ab[t] + (f2 v, f2)[t]
    ab = np.empty((T + 1, 2, D), dtype=dtype)
    ab[0] = np.reshape(state[:2], (2, D))
    rows = ab.reshape(T + 1, 2 * D)
    for cur, nxt, f, i in zip(rows[:-1], rows[1:], np.tile(f1, 2), inc.reshape(T, 2 * D)):
        np.multiply(cur, f, out=nxt)
        np.add(nxt, i, out=nxt)
    a_in, b_in = ab[:-1, 0], ab[:-1, 1]
    new_state[:2] = ab[T].reshape((2,) + lead + (d,))
    new_state[2] = p[T].reshape(lead + (d,))

    # y = (e1 a + e2 v) / (e1 b + e2)
    den = np.multiply(e1, b_in)
    den += e2
    y = np.multiply(e1, a_in)
    y += e2 * vd
    y /= den

    out = Tensor(gate * y.reshape(k.shape), ag._needs_grad(rkv, w, u), "wkv_sequence")

    if out.requires_grad:
        nrkv, nw, nu = (ag._node_of(t) for t in (rkv, w, u))
        gate, rkv_shape = gate.reshape(T, D), rkv.shape
        # keep only what the wanted gradients read: a compact v for k's and
        # u's (not the stacked r/k/v projection it lies in), a compact f2 for
        # v's and k's (not the inc buffer it lies in), the (a, b) scan for w's
        vd = vd.copy() if nrkv is not None or nu is not None else None
        f2 = f2.copy() if nrkv is not None else None
        if nw is None:
            a_in = b_in = None

        def bwd(gout):
            go = gout.reshape(T, D)
            g = go * gate                        # the gradient reaching wkv
            dN = g / den
            dD = np.negative(g)                  # -g * y / den
            dD *= y
            dD /= den

            # reverse scan: dab[t] is the gradient of (a, b) entering step t
            dab = np.empty((T + 1, 2, D), dtype=dtype)
            dab[T] = 0
            np.multiply(dN, e1, out=dab[:-1, 0])
            np.multiply(dD, e1, out=dab[:-1, 1])
            rows, tmp = dab.reshape(T + 1, 2 * D), np.empty(2 * D, dtype=dtype)
            for cur, nxt, f in zip(rows[-2::-1], rows[:0:-1], np.tile(f1, 2)[::-1]):
                np.multiply(nxt, f, out=tmp)
                cur += tmp
            da, db = dab[1:, 0], dab[1:, 1]      # gradient of the state after step t

            # p and q are held constant: a gauge (see the module docstring).
            # r, k and v's gradients are written into their slots of one array.
            if nrkv is not None:
                drkv = np.empty((3, T, D), dtype=np.result_type(go, y))
                dr, dk, dv = drkv
                np.multiply(go, y, out=dr)       # via the gate, in sigmoid_mul's order
                dr *= gate
                dr *= 1.0 - gate
                np.multiply(da, f2, out=dv)
                dv += dN * e2
            if vd is not None:
                g2 = np.multiply(dN, vd, out=dN)  # via e2 = exp(u + k - q)
                g2 += dD
                g2 *= e2
            if nrkv is not None:
                np.multiply(da, vd, out=dk)      # via f2 = exp(k - p')
                dk += db
                dk *= f2
                dk += g2
                ag._accumulate(nrkv, drkv.reshape(rkv_shape))
            if nw is not None:
                dw = da * a_in                   # via f1 = exp(p - w - p')
                dw += db * b_in
                dw *= f1
                ag._accumulate(nw, -dw.sum(axis=0).reshape(groups, d).sum(axis=0))
            if nu is not None:
                ag._accumulate(nu, g2.sum(axis=0).reshape(groups, d).sum(axis=0))
        out._node = ag._Node(bwd, nrkv, nw, nu)

    return out
