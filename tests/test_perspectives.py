import numpy as np
import pytest

from conftest import tiny_config
from rwkvp import autograd as ag
from rwkvp import model as m
from rwkvp import perspectives
from rwkvp.autograd import cross_entropy


def _extended(n, aggregation="weighted_softmax", seed=0, **cfg_kw):
    base_cfg = tiny_config(**cfg_kw)
    base_store, _ = m.init_base_params(base_cfg, seed=seed)
    return base_store, base_cfg, *perspectives.extend_to_perspectives(
        base_store, base_cfg, n, aggregation)


def test_replicas_start_bitwise_equal():
    base_store, base_cfg, cfg, store, _ = _extended(4)
    for name in m.mu_names(cfg):
        assert base_store[name].shape == (1, cfg.d_model)
        assert store[name].shape == (4, cfg.d_model)
        for i in range(4):
            assert np.array_equal(store[name].data[i], base_store[name].data[0])


def test_extension_copies_do_not_alias_base():
    base_store, base_cfg, cfg, store, _ = _extended(2)
    mu = store["layer0.att.mu_k"].data
    mu[0] += 1.0
    assert not np.array_equal(mu[0], base_store["layer0.att.mu_k"].data[0])
    mu[1] += 2.0
    assert not np.array_equal(mu[1], mu[0])


def test_freeze_mask_partition():
    _, _, cfg, store, mask = _extended(3)
    for name in store.names():
        expected = m.is_temporal(name) or m.is_aggregator(name)
        assert mask[name] == expected, name
        assert store[name].requires_grad == expected, name
    # all heavy weights are shared: exactly one copy of each projection
    assert sum(1 for n in store.names() if n.endswith("att.w_k")) == cfg.n_layers


def test_parameter_accounting_matches_analytic():
    from rwkvp import evaluation
    for n in (1, 2, 4):
        for agg in m.AGGREGATION_MODES:
            _, _, cfg, store, _ = _extended(n, agg)
            expected = (evaluation.base_param_count(cfg)
                        + evaluation.extra_param_count(cfg))
            assert store.total_size() == expected, (n, agg)


def test_streams_evolve_independently():
    """Perturbing perspective j's mu changes only p_j."""
    _, _, cfg, store, _ = _extended(3)
    tokens = np.arange(8) % cfg.vocab_size
    with ag.no_grad():
        before, _ = perspectives.multi_forward(cfg, store, tokens)
        mu = store["layer0.att.mu_k"].data.copy()
        mu[1] = np.clip(mu[1] + 0.2, 0.0, 1.0)
        store["layer0.att.mu_k"].data = mu
        after, _ = perspectives.multi_forward(cfg, store, tokens)
    assert np.array_equal(before.data[0], after.data[0])
    assert np.array_equal(before.data[2], after.data[2])
    assert not np.array_equal(before.data[1], after.data[1])


def test_cross_perspective_gradient_is_zero():
    """d p_i / d mu^(j) = 0 for i != j, checked through backward."""
    ag.set_default_dtype(np.float64)
    base_cfg = tiny_config(d_model=8, n_layers=2, vocab_size=7)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, 3)
    store = store.astype(np.float64)
    store.apply_freeze(mask)
    tokens = np.arange(5) % cfg.vocab_size
    p, _ = perspectives.multi_forward(cfg, store, tokens)
    one_hot = ag.Tensor(np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
    p_1 = ag.mul(p, one_hot)             # stream 1 kept, streams 0 and 2 zeroed
    ag.sum_(ag.mul(p_1, p_1)).backward()  # loss touches only stream 1
    # the stacked pass hands every mu leaf a gradient for all its rows; the
    # other streams' rows must be exactly zero
    for name in m.mu_names(cfg):
        grad = store[name].grad
        assert grad is None or not grad[[0, 2]].any(), name
    touched = [name for name in m.mu_names(cfg)
               if store[name].grad is not None and store[name].grad[1].any()]
    assert touched  # stream 1's own coefficients do receive gradient


def test_n1_extension_is_bitwise_identical_to_base():
    base_store, base_cfg, cfg, store, mask = _extended(1)
    model = m.Model(cfg, store, mask)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, 16)
    with ag.no_grad():
        plain, _ = m.model_forward(base_cfg, base_store, tokens)
        multi, weights, _ = model.forward(tokens)
    assert np.array_equal(plain.data, multi.data)
    assert np.array_equal(weights, np.ones((16, 1)))


def test_extension_preserves_base_function():
    """At the identity init every aggregation mode reproduces the base."""
    rng = np.random.default_rng(0)
    for agg in m.AGGREGATION_MODES:
        base_store, base_cfg, cfg, store, mask = _extended(3, agg)
        tokens = rng.integers(0, cfg.vocab_size, 12)
        with ag.no_grad():
            plain, _ = m.model_forward(base_cfg, base_store, tokens)
            multi, _, _ = m.Model(cfg, store, mask).forward(tokens)
        np.testing.assert_allclose(multi.data, plain.data, rtol=1e-5, atol=1e-6), agg


def test_invalid_perspective_count():
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    with pytest.raises(m.ConfigError):
        perspectives.extend_to_perspectives(base_store, base_cfg, 0)


def test_extension_starts_from_a_base():
    _, _, cfg, store, _ = _extended(2)
    with pytest.raises(m.ConfigError, match="n_perspectives=1"):
        perspectives.extend_to_perspectives(store, cfg, 2)


def test_multi_forward_state_handoff():
    _, _, cfg, store, mask = _extended(2)
    model = m.Model(cfg, store, mask)
    tokens = np.arange(12) % cfg.vocab_size
    with ag.no_grad():
        full, _, _ = model.forward(tokens)
        states = model.init_states()
        out1, _, states = model.forward(tokens[:5], states)
        out2, _, states = model.forward(tokens[5:], states)
    assert np.abs(full.data - np.vstack([out1.data, out2.data])).max() < 1e-5
