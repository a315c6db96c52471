import numpy as np
import pytest

from conftest import batch_loss, tiny_config
from rwkvp import aggregation
from rwkvp import autograd as ag
from rwkvp import model as m
from rwkvp.autograd import Tensor
from rwkvp.params import ParamStore


def _head_store(d, V, rng, n=None, selector=False, agghead=False, dtype=np.float64):
    """A store holding just the shared head plus optional aggregator params."""
    store = ParamStore()
    store.add("ln_out.g", np.ones(d), dtype=dtype)
    store.add("ln_out.b", np.zeros(d), dtype=dtype)
    store.add("head.weight", rng.uniform(-1, 1, (d, V)), dtype=dtype)
    if selector:
        store.add("selector.W", rng.uniform(-1, 1, (n, d)), dtype=dtype)
        store.add("selector.b", rng.uniform(-1, 1, n), dtype=dtype)
    if agghead:
        store.add("agghead.W", rng.uniform(-1, 1, (n * d, d)), dtype=dtype)
        store.add("agghead.b", rng.uniform(-1, 1, d), dtype=dtype)
    return store


def _np_head(store, p):
    mu = p.mean(-1, keepdims=True)
    var = p.var(-1, keepdims=True)
    xhat = (p - mu) / np.sqrt(var + 1e-5)
    return (xhat * store["ln_out.g"].data + store["ln_out.b"].data) @ store["head.weight"].data


def test_zero_selector_gives_uniform_weights():
    rng = np.random.default_rng(0)
    n, d, V, T = 4, 6, 9, 5
    store = _head_store(d, V, rng, n=n, selector=True)
    store["selector.W"].data[:] = 0.0
    store["selector.b"].data[:] = 0.0
    p = Tensor(np.stack([rng.uniform(-1, 1, (T, d)) for _ in range(n)], axis=-2))
    with ag.no_grad():
        _, weights = aggregation.aggregate_weighted(p, store)
    np.testing.assert_array_equal(weights.data, np.full((T, n), 0.25))


def test_large_bias_saturates_one_perspective():
    rng = np.random.default_rng(1)
    n, d, V, T = 3, 5, 7, 4
    store = _head_store(d, V, rng, n=n, selector=True)
    store["selector.W"].data[:] = 0.0
    store["selector.b"].data[:] = 0.0
    store["selector.b"].data[1] = 20.0
    p = Tensor(np.stack([rng.uniform(-1, 1, (T, d)) for _ in range(n)], axis=-2))
    with ag.no_grad():
        logits, weights = aggregation.aggregate_weighted(p, store)
    assert np.all(np.abs(weights.data[:, 1] - 1.0) < 1e-8)
    with ag.no_grad():
        pure = aggregation.aggregate_average(Tensor(p.data[:, 1:2]), store)
    assert np.abs(logits.data - pure.data).max() < 1e-6


def test_identical_perspectives_reduce_to_single_head():
    rng = np.random.default_rng(2)
    n, d, V, T = 4, 6, 8, 3
    store = _head_store(d, V, rng, n=n, selector=True)
    p = rng.uniform(-1, 1, (T, d))
    stacked = Tensor(np.stack([p.copy() for _ in range(n)], axis=-2))
    with ag.no_grad():
        logits, weights = aggregation.aggregate_weighted(stacked, store)
        single = aggregation.aggregate_average(Tensor(stacked.data[:, :1]), store)
    # identical inputs: the convex combination collapses regardless of weights
    np.testing.assert_allclose(logits.data, single.data, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(weights.data.sum(-1), 1.0, atol=1e-12)


def test_transformer_selecting_first_perspective():
    rng = np.random.default_rng(3)
    n, d, V, T = 3, 5, 7, 4
    store = _head_store(d, V, rng, n=n, agghead=True)
    W = np.zeros((n * d, d))
    W[:d] = np.eye(d)                       # pick p_1, ignore the rest
    store["agghead.W"].data = W
    store["agghead.b"].data = np.zeros(d)
    p = Tensor(np.stack([rng.uniform(-1, 1, (T, d)) for _ in range(n)], axis=-2))
    with ag.no_grad():
        out = aggregation.aggregate_transformer(p, store)
        only_first = aggregation.aggregate_average(Tensor(p.data[:, :1]), store)
    np.testing.assert_allclose(out.data, only_first.data, rtol=1e-10, atol=1e-12)


def test_transformer_stacked_identities_equal_average():
    rng = np.random.default_rng(4)
    n, d, V, T = 3, 5, 7, 4
    store = _head_store(d, V, rng, n=n, agghead=True)
    store["agghead.W"].data = np.vstack([np.eye(d)] * n) / n
    store["agghead.b"].data = np.zeros(d)
    p = Tensor(np.stack([rng.uniform(-1, 1, (T, d)) for _ in range(n)], axis=-2))
    with ag.no_grad():
        out = aggregation.aggregate_transformer(p, store)
        avg = aggregation.aggregate_average(p, store)
    np.testing.assert_allclose(out.data, avg.data, rtol=1e-10, atol=1e-12)


def test_against_direct_numpy_oracles():
    rng = np.random.default_rng(5)
    n, d, V, T = 3, 6, 10, 7
    store = _head_store(d, V, rng, n=n, selector=True, agghead=True)
    ps = [rng.uniform(-1, 1, (T, d)) for _ in range(n)]
    p = Tensor(np.stack(ps, axis=-2))
    with ag.no_grad():
        avg = aggregation.aggregate_average(p, store)
        trf = aggregation.aggregate_transformer(p, store)
        wgt, weights = aggregation.aggregate_weighted(p, store)

    mean_p = np.mean(ps, axis=0)
    np.testing.assert_allclose(avg.data, _np_head(store, mean_p), rtol=1e-9, atol=1e-11)

    cat = np.concatenate(ps, axis=-1)
    mixed = cat @ store["agghead.W"].data + store["agghead.b"].data
    np.testing.assert_allclose(trf.data, _np_head(store, mixed), rtol=1e-9, atol=1e-11)

    z = mean_p @ store["selector.W"].data.T + store["selector.b"].data
    ez = np.exp(z - z.max(-1, keepdims=True))
    w = ez / ez.sum(-1, keepdims=True)
    np.testing.assert_allclose(weights.data, w, rtol=1e-9, atol=1e-12)
    expect = sum(w[:, i:i + 1] * _np_head(store, ps[i]) for i in range(n))
    np.testing.assert_allclose(wgt.data, expect, rtol=1e-9, atol=1e-11)


def test_weighted_output_in_convex_hull():
    rng = np.random.default_rng(6)
    n, d, V, T = 4, 5, 8, 6
    store = _head_store(d, V, rng, n=n, selector=True)
    p = Tensor(np.stack([rng.uniform(-1, 1, (T, d)) for _ in range(n)], axis=-2))
    with ag.no_grad():
        logits, weights = aggregation.aggregate_weighted(p, store)
        heads = [aggregation.aggregate_average(Tensor(p.data[:, i:i + 1]), store).data
                 for i in range(n)]
    stacked = np.stack(heads)                      # (n, T, V)
    lo, hi = stacked.min(0), stacked.max(0)
    assert np.all(logits.data >= lo - 1e-9) and np.all(logits.data <= hi + 1e-9)
    assert np.all(weights.data >= 0)
    np.testing.assert_allclose(weights.data.sum(-1), 1.0, atol=1e-12)


def test_n1_all_modes_identical():
    rng = np.random.default_rng(7)
    d, V, T = 6, 9, 5
    store = _head_store(d, V, rng, n=1, selector=True)
    store.add("agghead.W", np.eye(d), dtype=np.float64)
    store.add("agghead.b", np.zeros(d), dtype=np.float64)
    p = Tensor(rng.uniform(-1, 1, (T, 1, d)))
    with ag.no_grad():
        avg = aggregation.aggregate_average(p, store)
        trf = aggregation.aggregate_transformer(p, store)
        wgt, weights = aggregation.aggregate_weighted(p, store)
    assert np.array_equal(avg.data, wgt.data)
    np.testing.assert_allclose(trf.data, avg.data, rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(weights.data, np.ones((T, 1)))


def test_dispatch_validates_count():
    rng = np.random.default_rng(8)
    cfg = tiny_config(n_perspectives=3)
    store = _head_store(cfg.d_model, cfg.vocab_size, rng, n=3, selector=True)
    with pytest.raises(ValueError, match="perspectives"):
        aggregation.aggregate(cfg, store, Tensor(np.ones((2, 1, cfg.d_model))))


def test_weighted_loss_graph_builds_no_per_perspective_logits(monkeypatch):
    """The weighted head projects the mixed embeddings once: no node of a
    fine-tune-shaped loss graph (n=4, a batch of 2) or its gradient is
    (..., n, V). Nodes hold no values, so a node's shape is its op result's,
    recorded as the forward builds it; gradients are recorded as stored."""
    from rwkvp import perspectives
    base_cfg = tiny_config()
    base, _ = m.init_base_params(base_cfg, seed=0)
    node_shapes, grad_shapes = [], []
    init, accumulate = Tensor.__init__, ag._accumulate

    def recording_init(self, data, requires_grad=False, _op="leaf"):
        init(self, data, requires_grad, _op)
        if requires_grad and _op != "leaf":
            node_shapes.append(self.shape)

    def recording_accumulate(node, g):
        grad_shapes.append(g.shape)
        accumulate(node, g)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    monkeypatch.setattr(ag, "_accumulate", recording_accumulate)
    loss = batch_loss(*perspectives.extend_to_perspectives(base, base_cfg, 4, "weighted_softmax"))
    loss.backward()
    logits = (base_cfg.context_length, 2, base_cfg.vocab_size)
    for shapes in (node_shapes, grad_shapes):
        assert logits in shapes
        assert not [s for s in shapes if s[-2:] == (4, base_cfg.vocab_size)], shapes
