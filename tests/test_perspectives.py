import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from rwkvp import autograd as ag
from rwkvp import model as m
from rwkvp import perspectives, training
from rwkvp.autograd import cross_entropy


def _extended(n, aggregation="weighted_softmax", seed=0, **cfg_kw):
    """(the base Model, then the n-perspective config, store and mask built from it)."""
    base_cfg = tiny_config(**cfg_kw)
    base_store, base_mask = m.init_base_params(base_cfg, seed=seed)
    return m.Model(base_cfg, base_store, base_mask), *perspectives.extend_to_perspectives(
        base_store, base_cfg, n, aggregation)


def test_replicas_start_bitwise_equal():
    base, cfg, store, _ = _extended(4)
    for name in m.mu_names(cfg):
        slots = base.store[name].shape[:-2]              # (3,) for att.mu_rkv
        assert base.store[name].shape == slots + (1, cfg.d_model)
        assert store[name].shape == slots + (4, cfg.d_model)
        for i in range(4):
            assert np.array_equal(store[name].data[..., i, :], base.store[name].data[..., 0, :])


def test_extension_copies_do_not_alias_base():
    base, cfg, store, _ = _extended(2)
    mu = store["layer0.att.mu_rkv"].data[1]                     # the key slot
    mu[0] += 1.0
    assert not np.array_equal(mu[0], base.store["layer0.att.mu_rkv"].data[1, 0])
    mu[1] += 2.0
    assert not np.array_equal(mu[1], mu[0])


def test_freeze_mask_partition():
    _, cfg, store, mask = _extended(3)
    for name in store.names():
        expected = m.is_temporal(name) or m.is_aggregator(name)
        assert mask[name] == expected, name
        assert store[name].requires_grad == expected, name
    # all heavy weights are shared: exactly one copy of each projection
    assert sum(1 for n in store.names() if n.endswith("att.w_rkv")) == cfg.n_layers


def test_parameter_accounting_matches_analytic():
    for n in (1, 2, 4):
        for agg in m.AGGREGATION_MODES:
            _, cfg, store, _ = _extended(n, agg)
            expected = m.base_param_count(cfg) + m.extra_param_count(cfg)
            assert store.total_size() == expected, (n, agg)


def test_streams_evolve_independently():
    """Perturbing perspective j's mu changes only p_j."""
    _, cfg, store, _ = _extended(3)
    tokens = np.arange(8) % cfg.vocab_size
    with ag.no_grad():
        before, _ = perspectives.multi_forward(cfg, store, tokens)
        mu = store["layer0.att.mu_rkv"].data.copy()
        mu[1, 1] = np.clip(mu[1, 1] + 0.2, 0.0, 1.0)            # perspective 1's key row
        store["layer0.att.mu_rkv"].data = mu
        after, _ = perspectives.multi_forward(cfg, store, tokens)
    assert np.array_equal(before.data[:, 0], after.data[:, 0])
    assert np.array_equal(before.data[:, 2], after.data[:, 2])
    assert not np.array_equal(before.data[:, 1], after.data[:, 1])


@given(n=st.integers(1, 4), batch=st.sampled_from([(), (1,), (2,), (3,)]),
       chunks=st.lists(st.integers(1, 9), min_size=1, max_size=4), seed=st.integers(0, 999))
@settings(max_examples=100, deadline=None)
def test_each_perspective_is_the_base_run_with_its_mu_rows(n, batch, chunks, seed):
    """Differential oracle: perspective i of the stacked n-stream run_stream,
    chunk by chunk with the state handed on, is the base's run_stream with
    row i of every mu leaf put in. Bitwise while every chunk holds two or more
    tokens; a one-token chunk takes the WKV step and GEMMs of other row
    counts, so there each value is within 1e-6 of the base's, relative where
    it exceeds 1 (the WKV accumulators reach about 8)."""
    base, cfg, store, _ = _extended(n)
    rng = np.random.default_rng(seed)
    for name in m.mu_names(cfg):
        mu = store[name].data + rng.normal(0.0, 0.2, store[name].shape).astype(np.float32)
        store[name].data = np.clip(mu, 0.0, 1.0)
    tokens = rng.integers(0, cfg.vocab_size, (sum(chunks),) + batch)

    def run(cfg, store):
        ps, states = [], None
        for piece in np.split(tokens, np.cumsum(chunks)[:-1]):
            p, states = m.run_stream(cfg, store.arrays(), piece, states)    # the plain path
            ps.append(p)
        return np.concatenate(ps), states

    tol = 0.0 if min(chunks) >= 2 else 1e-6
    stacked = run(cfg, store)
    for i in range(n):
        for name in m.mu_names(cfg):
            base.store[name].data = store[name].data[..., i:i + 1, :]
        for got, want in zip(stacked, run(base.config, base.store)):
            assert got.shape[:-2] == want.shape[:-2] and want.shape[-2] == 1
            np.testing.assert_allclose(got[..., i, :], want[..., 0, :], rtol=tol, atol=tol)


# The README model: at d=48 a GEMM's rows do not depend on how many other
# rows share the call once each perspective has 26 or more (T * B), which
# the backward oracles below rely on for their bitwise cases.
README_MODEL = dict(d_model=48, vocab_size=257, context_length=64)
BITWISE_ROWS = 26


def _mu_rows_match(got, want, bitwise, rtol):
    """got equals want bitwise, or within rtol of want's largest entry."""
    if bitwise:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@given(n=st.integers(1, 4), aggregation=st.sampled_from(m.AGGREGATION_MODES),
       T=st.integers(1, 64), batch=st.sampled_from([(), (1,), (2,), (3,)]),
       seed=st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_each_perspective_mu_gradient_is_the_base_one_over_n(n, aggregation, T, batch, seed):
    """Backward differential oracle at the identity extension: for the
    training loss on one (T + 1, [B]) window, each perspective's mu gradient
    is the base's times float32(1/n). Bitwise at n = 1, 2 and 4 once each
    perspective has BITWISE_ROWS rows; with fewer, the backward GEMMs of n
    times the rows take another OpenBLAS kernel, and at n = 3 the 1/3 of
    the mean and the uniform weights is inexact in float32, so there each
    row is within 2e-6 of the base's largest entry (a search of 1000 draws
    found 1.3e-6 at n = 3 and 8.1e-7 elsewhere)."""
    base_cfg = tiny_config(**README_MODEL)
    base_store, base_mask = m.init_base_params(base_cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for _, t in base_store.items():
        t.data = t.data + rng.normal(0.0, 0.05, t.shape).astype(np.float32)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, n, aggregation)
    tokens = rng.integers(0, cfg.vocab_size, (T + 1,) + batch)
    training._batch_loss(m.Model(base_cfg, base_store, base_mask), tokens).backward()
    training._batch_loss(m.Model(cfg, store, mask), tokens).backward()
    bitwise = n != 3 and T * max(batch, default=1) >= BITWISE_ROWS
    for name in m.mu_names(cfg):
        want = base_store[name].grad[..., 0, :] * np.float32(1 / n)
        for i in range(n):
            _mu_rows_match(store[name].grad[..., i, :], want, bitwise, 2e-6)


@given(n=st.integers(1, 4), T=st.integers(1, 64), batch=st.sampled_from([(), (1,), (2,), (3,)]),
       seed=st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_each_perspective_mu_gradient_is_the_base_run_with_its_mu_rows(n, T, batch, seed):
    """Backward differential oracle, vector-Jacobian form: with temporal
    noise on the mu rows and a random cotangent G of the stack's output,
    mu row i's gradient of sum(p * G) is the base run's with row i put in,
    backpropagating G[..., i:i + 1, :]. Bitwise once each perspective has
    BITWISE_ROWS rows (T * B); with fewer, the input gradients' GEMMs over n
    times the rows take another OpenBLAS kernel than the base's, so there
    each row is within 1e-6 of the base's largest entry (a search of 400
    draws found 6.9e-7)."""
    base, cfg, store, _ = _extended(n, "average", seed, **README_MODEL)
    training.inject_temporal_noise(store, cfg, 0.1, 0.0, seed)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, cfg.vocab_size, (T,) + batch)
    p, _ = m.run_stream(cfg, store, tokens)
    G = rng.normal(0.0, 1.0, p.shape).astype(np.float32)
    ag.sum_(ag.mul(p, ag.Tensor(G))).backward()
    bitwise = T * max(batch, default=1) >= BITWISE_ROWS
    for i in range(n):
        base.store.zero_grad()
        for name in m.mu_names(cfg):
            base.store[name].data = store[name].data[..., i:i + 1, :].copy()
        q, _ = m.run_stream(base.config, base.store, tokens)
        ag.sum_(ag.mul(q, ag.Tensor(G[..., i:i + 1, :]))).backward()
        for name in m.mu_names(cfg):
            _mu_rows_match(store[name].grad[..., i, :], base.store[name].grad[..., 0, :],
                           bitwise, 1e-6)


def test_cross_perspective_gradient_is_zero():
    """d p_i / d mu^(j) = 0 for i != j, checked through backward."""
    base_cfg = tiny_config(d_model=8, n_layers=2, vocab_size=7)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, 3)
    store = store.astype(np.float64)
    tokens = np.arange(5) % cfg.vocab_size
    p, _ = perspectives.multi_forward(cfg, store, tokens)
    one_hot = ag.Tensor(np.array([0.0, 1.0, 0.0]).reshape(3, 1))
    p_1 = ag.mul(p, one_hot)             # stream 1 kept, streams 0 and 2 zeroed
    ag.sum_(ag.mul(p_1, p_1)).backward()  # loss touches only stream 1
    # the stacked pass hands every mu leaf a gradient for all its rows; the
    # other streams' rows must be exactly zero
    for name in m.mu_names(cfg):
        grad = store[name].grad
        assert grad is None or not grad[..., [0, 2], :].any(), name
    touched = [name for name in m.mu_names(cfg)
               if store[name].grad is not None and store[name].grad[..., 1, :].any()]
    assert touched  # stream 1's own coefficients do receive gradient


def test_n1_extension_is_bitwise_identical_to_base():
    base, cfg, store, mask = _extended(1)
    model = m.Model(cfg, store, mask)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, 16)
    with ag.no_grad():
        plain, _, _ = base.forward(tokens)
        multi, weights, _ = model.forward(tokens)
    assert np.array_equal(plain.data, multi.data)
    assert np.array_equal(weights, np.ones((16, 1)))


def test_extension_preserves_base_function():
    """At the identity init every aggregation mode reproduces the base."""
    rng = np.random.default_rng(0)
    for agg in m.AGGREGATION_MODES:
        base, cfg, store, mask = _extended(3, agg)
        tokens = rng.integers(0, cfg.vocab_size, 12)
        with ag.no_grad():
            plain, _, _ = base.forward(tokens)
            multi, _, _ = m.Model(cfg, store, mask).forward(tokens)
        np.testing.assert_allclose(multi.data, plain.data, rtol=1e-5, atol=1e-6), agg


def test_invalid_perspective_count():
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    with pytest.raises(m.ConfigError):
        perspectives.extend_to_perspectives(base_store, base_cfg, 0)


def test_extension_starts_from_a_base():
    _, cfg, store, _ = _extended(2)
    with pytest.raises(m.ConfigError, match="n_perspectives=1"):
        perspectives.extend_to_perspectives(store, cfg, 2)


def test_multi_forward_state_handoff():
    _, cfg, store, mask = _extended(2)
    model = m.Model(cfg, store, mask)
    tokens = np.arange(12) % cfg.vocab_size
    with ag.no_grad():
        full, _, _ = model.forward(tokens)
        states = model.init_states()
        out1, _, states = model.forward(tokens[:5], states)
        out2, _, states = model.forward(tokens[5:], states)
    assert np.abs(full.data - np.vstack([out1.data, out2.data])).max() < 1e-5


@pytest.mark.parametrize("batch", [(), (2,)], ids=["unbatched", "B2"])
def test_t1_decode_at_n4(batch):
    """16 tokens decoded one at a time with state handoff: bitwise the same
    with the tape off (the one-token WKV step) as on (the WKV scans), and
    within 1e-5 of one chunked forward."""
    _, cfg, store, mask = _extended(4)
    training.inject_selector_noise(store, 0.5, 0.0, 0)
    training.inject_temporal_noise(store, cfg, 0.05, 0.0, 0)
    model = m.Model(cfg, store, mask)
    tokens = np.random.default_rng(3).integers(0, cfg.vocab_size, (16,) + batch)

    def decode():
        states, logits, weights, grads = None, [], [], []
        for t in range(16):
            out, wt, states = model.forward(tokens[t:t + 1], states)
            logits.append(out.data[0])
            weights.append(wt[0])
            grads.append(out.requires_grad)
        return np.stack(logits), np.stack(weights), states, grads

    with ag.no_grad():
        logits, weights, states, grads = decode()
        full, full_weights, _ = model.forward(tokens)
    tape_logits, tape_weights, tape_states, tape_grads = decode()
    assert not any(grads) and all(tape_grads)
    assert logits.tobytes() == tape_logits.tobytes()
    assert weights.tobytes() == tape_weights.tobytes()
    assert states.shape == (cfg.n_layers, 5) + batch + (4, cfg.d_model)
    assert states.tobytes() == tape_states.tobytes()
    assert np.abs(logits - full.data).max() <= 1e-5
    assert np.abs(weights - full_weights).max() <= 1e-5
