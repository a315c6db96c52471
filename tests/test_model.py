import dataclasses

import numpy as np
import pytest

from conftest import tiny_config
from rwkvp import autograd as ag
from rwkvp import model as m
from rwkvp.autograd import Tensor


def test_config_validation():
    with pytest.raises(m.ConfigError, match="n_layers"):
        tiny_config(n_layers=0)
    with pytest.raises(m.ConfigError, match="aggregation"):
        tiny_config(aggregation="mean")
    with pytest.raises(m.ConfigError, match="n_perspectives"):
        tiny_config(n_perspectives=0)
    with pytest.raises(m.ConfigError, match="vocab_size"):
        tiny_config(vocab_size=1)


def test_config_roundtrip():
    cfg = tiny_config(n_perspectives=3, aggregation="average")
    assert m.ModelConfig(**dataclasses.asdict(cfg)) == cfg


def test_token_shift_mix_examples():
    x_t = Tensor(np.array([[[1.0, 2.0]]]))        # one perspective, one token
    x_prev = np.array([[3.0, 4.0]])               # the previous chunk's last row
    mu = Tensor(np.array([[0.25, 0.75]]))
    out = ag.token_shift(x_t, x_prev, mu)
    np.testing.assert_allclose(out.data, [[[0.25 * 1 + 0.75 * 3, 0.75 * 2 + 0.25 * 4]]])
    # mu=1 passes the current token through, mu=0 passes the previous one
    np.testing.assert_array_equal(
        ag.token_shift(x_t, x_prev, Tensor(np.ones((1, 2)))).data, x_t.data)
    np.testing.assert_array_equal(
        ag.token_shift(x_t, x_prev, Tensor(np.zeros((1, 2)))).data, x_prev[None])
    with pytest.raises(ag.ShapeError):
        ag.token_shift(x_t, np.ones((1, 3)), mu)


def test_base_init_deterministic_and_counted():
    cfg = tiny_config()
    s1, m1 = m.init_base_params(cfg, seed=0)
    s2, _ = m.init_base_params(cfg, seed=0)
    assert s1.digest() == s2.digest()
    s3, _ = m.init_base_params(cfg, seed=1)
    assert s1.digest() != s3.digest()
    assert set(m1) == set(s1.names()) and all(m1.values())
    L, d, V = cfg.n_layers, cfg.d_model, cfg.vocab_size
    assert s1.total_size() == 2 * V * d + 4 * d + L * (13 * d * d + 11 * d)


def test_mu_coefficients_in_unit_interval():
    cfg = tiny_config(n_layers=3)
    store, _ = m.init_base_params(cfg, seed=0)
    for name in m.mu_names(cfg):
        data = store[name].data
        assert np.all(data > 0) and np.all(data < 1), name


def test_forward_shapes():
    cfg = tiny_config()
    store, _ = m.init_base_params(cfg, seed=0)
    tokens = np.arange(5) % cfg.vocab_size
    logits, states = m.model_forward(cfg, store, tokens)
    assert logits.shape == (5, cfg.vocab_size)
    assert len(states) == cfg.n_layers
    assert np.all(np.isfinite(logits.data))
    # a batch is time-major too: tokens (T, B) -> logits (T, B, V), weights (T, B, n)
    from rwkvp import perspectives
    ft_cfg, ft_store, ft_mask = perspectives.extend_to_perspectives(store, cfg, 3)
    T, B = 5, 2
    logits, weights, states = m.Model(ft_cfg, ft_store, ft_mask).forward(
        np.arange(T * B).reshape(T, B) % cfg.vocab_size)
    assert logits.shape == (T, B, cfg.vocab_size)
    assert weights.shape == (T, B, 3)
    assert len(states) == cfg.n_layers
    for st in states:
        assert st.att_prev.shape == st.ffn_prev.shape == (B, 3, cfg.d_model)
        assert all(a.shape == (B, 3, cfg.d_model) for a in st.wkv_state)


def test_forward_rejects_out_of_range_token():
    from rwkvp.corpus import CorpusError
    cfg = tiny_config()
    assert cfg.vocab_size == 17
    store, _ = m.init_base_params(cfg, seed=0)
    for bad in (17, -1):
        with pytest.raises(CorpusError, match="vocab_size=17"):
            m.model_forward(cfg, store, np.array([3, bad]))


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_empty_token_array_raises_corpus_error(shape):
    from rwkvp.corpus import CorpusError
    cfg = tiny_config()
    store, _ = m.init_base_params(cfg, seed=0)
    with pytest.raises(CorpusError, match="empty"):
        m.model_forward(cfg, store, np.zeros(shape, dtype=np.int64))


def test_causality():
    """Changing future tokens never changes past logits."""
    cfg = tiny_config()
    store, _ = m.init_base_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, 10)
    with ag.no_grad():
        base, _ = m.model_forward(cfg, store, tokens)
        for cut in (3, 7):
            mutated = tokens.copy()
            mutated[cut:] = rng.integers(0, cfg.vocab_size, 10 - cut)
            alt, _ = m.model_forward(cfg, store, mutated)
            assert np.array_equal(base.data[:cut], alt.data[:cut])


def test_stepwise_equals_batched_prefix():
    """Feeding tokens one at a time with state handoff reproduces the
    full-sequence logits."""
    cfg = tiny_config()
    store, _ = m.init_base_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, cfg.vocab_size, 8)
    with ag.no_grad():
        full, _ = m.model_forward(cfg, store, tokens)
        states = None
        rows = []
        for t in tokens:
            out, states = m.model_forward(cfg, store, np.array([t]), states)
            rows.append(out.data[0])
    assert np.abs(full.data - np.array(rows)).max() < 1e-5


def test_chunked_equals_sequential_forward():
    cfg = tiny_config()
    store, _ = m.init_base_params(cfg, seed=0)
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, cfg.vocab_size, 24)
    with ag.no_grad():
        full, _ = m.model_forward(cfg, store, tokens)
        states = None
        rows = []
        for start in range(0, 24, 7):
            out, states = m.model_forward(cfg, store, tokens[start:start + 7], states)
            rows.append(out.data)
    assert np.abs(full.data - np.vstack(rows)).max() < 1e-5


def test_handworked_channel_mix_d2():
    """One channel-mix block at d=2 against values computed by hand."""
    cfg = m.ModelConfig(n_layers=1, d_model=2, vocab_size=3, context_length=4)
    store, _ = m.init_base_params(cfg, seed=0)
    # overwrite with transparent values
    store["layer0.ffn.mu_r"].data = np.array([[1.0, 1.0]], dtype=np.float32)
    store["layer0.ffn.mu_k"].data = np.array([[1.0, 1.0]], dtype=np.float32)
    store["layer0.ffn.w_r"].data = np.zeros((2, 2), dtype=np.float32)
    store["layer0.ffn.w_k"].data = np.hstack([np.eye(2)] * 4).astype(np.float32)
    store["layer0.ffn.w_v"].data = np.vstack([np.eye(2)] * 4).astype(np.float32)
    xx = Tensor(np.array([[[0.5, -1.0]]], dtype=np.float32))    # (n=1, T=1, d=2)
    st = m.StreamState.zeros((1, 2))
    with ag.no_grad():
        out, prev = m.channel_mixing(store, 0, xx, st)
    # sigmoid(0)=0.5; relu(x)^2 per copy, 4 copies summed back
    expected = 0.5 * 4 * np.maximum(np.array([0.5, -1.0]), 0.0) ** 2
    np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-6)
    np.testing.assert_array_equal(prev[0], [0.5, -1.0])


def test_time_mixing_state_advances():
    cfg = tiny_config()
    store, _ = m.init_base_params(cfg, seed=0)
    xx = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 1, cfg.d_model)).astype(np.float32))
    st = m.StreamState.zeros((1, cfg.d_model))
    with ag.no_grad():
        out, att_prev, wkv_state = m.time_mixing(store, 0, xx, st)
    assert out.shape == (3, 1, cfg.d_model)
    np.testing.assert_array_equal(att_prev[0], xx.data[-1, 0])
    assert np.all(np.isfinite(wkv_state[0]))


def test_model_bundle_forward_matches_plain_path():
    """A base runs Model.forward's one path (average head at n=1) and gives
    model_forward's logits and gradients bit for bit."""
    cfg = tiny_config()
    assert cfg.aggregation == "average"
    store, mask = m.init_base_params(cfg, seed=0)
    model = m.Model(cfg, store, mask)

    def grads(logits):
        store.zero_grad()
        ag.sum_(ag.mul(logits, logits)).backward()
        return {name: t.grad.copy() for name, t in store.items()}

    for shape in ((6,), (3, 6)):
        tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, shape)
        with ag.no_grad():
            direct, _ = m.model_forward(cfg, store, tokens)
            bundled, weights, _ = model.forward(tokens)
        assert weights is None
        assert np.array_equal(direct.data, bundled.data)
        plain = grads(m.model_forward(cfg, store, tokens)[0])
        through_head = grads(model.forward(tokens)[0])
        assert all(np.array_equal(plain[name], through_head[name]) for name in store.names())


def test_base_init_requires_average_aggregation():
    with pytest.raises(m.ConfigError, match="average"):
        m.init_base_params(tiny_config(aggregation="weighted_softmax"), seed=0)


@pytest.mark.parametrize("field,value", [("d_model", 16.5), ("n_layers", True),
                                         ("vocab_size", "17"), ("context_length", None),
                                         ("n_perspectives", np.bool_(True))])
def test_config_rejects_non_int_counts(field, value):
    with pytest.raises(m.ConfigError, match=field):
        tiny_config(**{field: value})
