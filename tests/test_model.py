import contextlib
import dataclasses
import re

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


@pytest.mark.parametrize("aggregation", m.AGGREGATION_MODES)
@pytest.mark.parametrize("n", [1, 3])
def test_param_shapes_is_what_init_and_extend_build(n, aggregation):
    """The one table of leaf names and shapes is what init and extension
    build, in the table's order, each leaf's requires_grad its mask flag;
    the closed-form counts agree with the store's size."""
    from rwkvp import perspectives
    base_cfg = tiny_config()
    base, base_mask = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base, base_cfg, n, aggregation)
    for c, s, mk in ((base_cfg, base, base_mask), (cfg, store, mask)):
        assert list(m.param_shapes(c).items()) == [(name, t.shape) for name, t in s.items()]
        assert list(mk) == s.names()
        assert all(t.requires_grad == mk[name] for name, t in s.items())
    assert m.base_param_count(cfg) == base.total_size()
    assert m.base_param_count(cfg) + m.extra_param_count(cfg) == store.total_size()
    assert m.param_count(cfg) == store.total_size()


def test_mu_coefficients_in_unit_interval():
    cfg = tiny_config(n_layers=3)
    store, _ = m.init_base_params(cfg, seed=0)
    for name in m.mu_names(cfg):
        data = store[name].data
        assert np.all(data > 0) and np.all(data < 1), name


def test_forward_shapes():
    cfg = tiny_config()
    store, mask = m.init_base_params(cfg, seed=0)
    tokens = np.arange(5) % cfg.vocab_size
    logits, weights, states = m.Model(cfg, store, mask).forward(tokens)
    assert logits.shape == (5, cfg.vocab_size)
    assert weights is None      # a base's head is "average"
    assert states.shape == (cfg.n_layers, 5, 1, cfg.d_model)
    assert np.all(np.isfinite(logits.data))
    # a batch is time-major too: tokens (T, B) -> logits (T, B, V), weights (T, B, n)
    from rwkvp import perspectives
    ft_cfg, ft_store, ft_mask = perspectives.extend_to_perspectives(store, cfg, 3)
    T, B = 5, 2
    logits, weights, states = m.Model(ft_cfg, ft_store, ft_mask).forward(
        np.arange(T * B).reshape(T, B) % cfg.vocab_size)
    assert logits.shape == (T, B, cfg.vocab_size)
    assert weights.shape == (T, B, 3)
    # the state: per layer, att_prev, the WKV's a, b, p and ffn_prev, each (B, n, d)
    assert states.shape == (cfg.n_layers, 5, B, 3, cfg.d_model)


def test_forward_rejects_out_of_range_token():
    from rwkvp.corpus import CorpusError
    cfg = tiny_config()
    assert cfg.vocab_size == 17
    model = m.Model(cfg, *m.init_base_params(cfg, seed=0))
    for bad in (17, -1):
        with pytest.raises(CorpusError, match="vocab_size=17"):
            model.forward(np.array([3, bad]))


@pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.timedelta64, object])
def test_non_integer_token_array_raises_corpus_error(dtype):
    """Float, bool, timedelta (which numpy ranks under np.integer) or object
    ids are refused by name, not left to numpy's indexing."""
    from rwkvp.corpus import CorpusError
    cfg = tiny_config()
    model = m.Model(cfg, *m.init_base_params(cfg, seed=0))
    with pytest.raises(CorpusError, match="integers"):
        model.forward(np.array([1, 0, 1], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint16, np.uint64])
def test_signed_and_unsigned_token_ids_are_accepted(dtype):
    cfg = tiny_config()
    model = m.Model(cfg, *m.init_base_params(cfg, seed=0))
    tokens = np.array([1, 16, 0, 5])
    logits, _, _ = model.forward(tokens.astype(dtype))
    assert logits.data.tobytes() == model.forward(tokens)[0].data.tobytes()


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_empty_token_array_raises_corpus_error(shape):
    from rwkvp.corpus import CorpusError
    cfg = tiny_config()
    model = m.Model(cfg, *m.init_base_params(cfg, seed=0))
    with pytest.raises(CorpusError, match="empty"):
        model.forward(np.zeros(shape, dtype=np.int64))


def test_causality():
    """Changing future tokens never changes past logits."""
    cfg = tiny_config()
    model = m.Model(cfg, *m.init_base_params(cfg, seed=0))
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, 10)
    with ag.no_grad():
        base, _, _ = model.forward(tokens)
        for cut in (3, 7):
            mutated = tokens.copy()
            mutated[cut:] = rng.integers(0, cfg.vocab_size, 10 - cut)
            alt, _, _ = model.forward(mutated)
            assert np.array_equal(base.data[:cut], alt.data[:cut])


def test_stepwise_equals_batched_prefix():
    """Feeding tokens one at a time with state handoff reproduces the
    full-sequence logits."""
    cfg = tiny_config()
    model = m.Model(cfg, *m.init_base_params(cfg, seed=0))
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, cfg.vocab_size, 8)
    with ag.no_grad():
        full, _, _ = model.forward(tokens)
        states = None
        rows = []
        for t in tokens:
            out, _, states = model.forward(np.array([t]), states)
            rows.append(out.data[0])
    assert np.abs(full.data - np.array(rows)).max() < 1e-5


def test_chunked_equals_sequential_forward():
    cfg = tiny_config()
    model = m.Model(cfg, *m.init_base_params(cfg, seed=0))
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, cfg.vocab_size, 24)
    with ag.no_grad():
        full, _, _ = model.forward(tokens)
        states = None
        rows = []
        for start in range(0, 24, 7):
            out, _, states = model.forward(tokens[start:start + 7], states)
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
    state = m.empty_states((1, 5, 1, 2), np.float32)[0]      # layer 0's rows (5, 1, 2)
    new_state = np.empty_like(state)
    with ag.no_grad():
        out = m.channel_mixing(store, 0, xx, state, new_state)
    # sigmoid(0)=0.5; relu(x)^2 per copy, 4 copies summed back
    expected = 0.5 * 4 * np.maximum(np.array([0.5, -1.0]), 0.0) ** 2
    np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-6)
    np.testing.assert_array_equal(new_state[4, 0], [0.5, -1.0])     # ffn_prev


def test_time_mixing_state_advances():
    cfg = tiny_config()
    store, _ = m.init_base_params(cfg, seed=0)
    xx = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 1, cfg.d_model)).astype(np.float32))
    state = m.empty_states((1, 5, 1, cfg.d_model), np.float32)[0]
    new_state = np.full_like(state, np.nan)
    with ag.no_grad():
        out = m.time_mixing(store, 0, xx, state, new_state)
    assert out.shape == (3, 1, cfg.d_model)
    np.testing.assert_array_equal(new_state[0, 0], xx.data[-1, 0])      # att_prev
    assert np.all(np.isfinite(new_state[:4]))                           # and a, b, p
    assert np.isnan(new_state[4]).all()           # ffn_prev is channel mixing's


def test_perspectives_split_at_layer_0_token_shift(monkeypatch):
    """The embedding, ln0 and layer 0's ln1 run once per token, on a size-1
    perspective axis; every state array still holds all n rows."""
    from rwkvp import perspectives
    cfg = tiny_config()
    base, _ = m.init_base_params(cfg, seed=0)
    ft_cfg, store, _ = perspectives.extend_to_perspectives(base, cfg, 4)
    gains = {id(store[name]): name for name in store.names()}
    shapes = {}

    def recording(name, fn, key):
        def wrapper(*args):
            out = fn(*args)
            shapes.setdefault(key(args), out.shape)
            return out
        monkeypatch.setattr(ag, name, wrapper)

    recording("embed", ag.embed, lambda args: "embed")
    recording("layer_norm", ag.layer_norm, lambda args: gains[id(args[1])])
    T, B, d = 5, 2, cfg.d_model
    x, states = m.run_stream(ft_cfg, store, np.arange(T * B).reshape(T, B) % cfg.vocab_size)
    for key in ("embed", "ln0.g", "layer0.ln1.g"):
        assert shapes[key] == (T, B, 1, d), key
    assert shapes["layer0.ln2.g"] == shapes["layer1.ln1.g"] == x.shape == (T, B, 4, d)
    assert states.shape == (cfg.n_layers, 5, B, 4, d)


def test_base_init_requires_average_aggregation():
    with pytest.raises(m.ConfigError, match="average"):
        m.init_base_params(tiny_config(aggregation="weighted_softmax"), seed=0)


@pytest.mark.parametrize("field,value", [("d_model", 16.5), ("n_layers", True),
                                         ("vocab_size", "17"), ("context_length", None),
                                         ("n_perspectives", np.bool_(True))])
def test_config_rejects_non_int_counts(field, value):
    with pytest.raises(m.ConfigError, match=field):
        tiny_config(**{field: value})


def _count_ops(monkeypatch, modules):
    """Wrap every public function of each module in a counter; returns the
    dict of counts by name, which the wrappers update."""
    import inspect
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for module in modules:
        for name, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_") and name != "no_grad"):
                monkeypatch.setattr(module, name, counting(f"{module.__name__}.{name}", fn))
    return counts


def test_time_mixing_is_one_shift_one_projection_wkv_and_output(monkeypatch):
    """r, k and v take one token shift and one batched GEMM; the WKV node
    gates its own output; w_o projects it: 4 op calls per layer."""
    from rwkvp import wkv
    cfg = tiny_config()
    store, _ = m.init_base_params(cfg, seed=0)
    xx = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 1, cfg.d_model)).astype(np.float32))
    state = m.empty_states((1, 5, 1, cfg.d_model), np.float32)[0]
    counts = _count_ops(monkeypatch, (ag, wkv))
    m.time_mixing(store, 0, xx, state, np.empty_like(state))
    assert counts == {"rwkvp.autograd.token_shift": 1, "rwkvp.autograd.matmul": 2,
                      "rwkvp.wkv.wkv_sequence": 1}


DECODE_POSITIONS = (16, 2999)     # an early and a late token of a 3000-token decode
DECODE_OPS_PER_TOKEN = 41         # autograd op calls per token of the README n=4 model
DECODE_TENSORS_PER_TOKEN = 1      # the logits


def test_decode_cost_per_token_does_not_grow_with_position(base_config, monkeypatch):
    """The paper's linear cost of inference, counted rather than timed: the
    README n=4 model decodes 3000 tokens one at a time, and a late token
    makes the same autograd op calls (DECODE_OPS_PER_TOKEN) and has the same
    tracemalloc peak as an early one, while the carried state holds the same
    bytes at every position. Under no_grad the ops take and return arrays:
    a token builds no Tensor but its logits (DECODE_TENSORS_PER_TOKEN)."""
    import tracemalloc

    from rwkvp import perspectives, training
    base, _ = m.init_base_params(base_config, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base, base_config, 4,
                                                           "weighted_softmax")
    training.inject_selector_noise(store, 0.5, 0.0, 0)
    training.inject_temporal_noise(store, cfg, 0.05, 0.0, 0)
    model = m.Model(cfg, store, mask)
    tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, DECODE_POSITIONS[-1] + 1)
    counts = _count_ops(monkeypatch, (ag,))
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Tensor, "__init__", counting_init)
    state_bytes, ops, tensors, peaks = set(), [], [], []
    with ag.no_grad():
        states = model.init_states()
        for t in range(len(tokens)):
            measured = t in DECODE_POSITIONS
            if measured:
                counts.clear()
                built.clear()
                tracemalloc.start()
            _, _, states = model.forward(tokens[t:t + 1], states)
            if measured:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                ops.append(sum(counts.values()))
                tensors.append(len(built))
            state_bytes.add(states.nbytes)
    assert ops == [DECODE_OPS_PER_TOKEN] * 2, ops
    assert tensors == [DECODE_TENSORS_PER_TOKEN] * 2, tensors
    assert peaks[0] == peaks[1], peaks
    assert state_bytes == {7680}          # (L=2, 5, n=4, d=48) float32


def _noisy_extension(n, aggregation, dtype):
    """A tiny base extended to n perspectives with the given head, its
    selector or aggregator and every mu row perturbed, leaves cast to dtype."""
    from rwkvp import perspectives, training
    base_cfg = tiny_config()
    base, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base, base_cfg, n, aggregation)
    training.inject_selector_noise(store, 0.5, 0.0, 1)
    training.inject_temporal_noise(store, cfg, 0.05, 0.0, 1)
    return m.Model(cfg, store.astype(dtype), mask)


def _run(model, tokens, chunk, tape):
    """Model.forward over tokens in chunks with state handoff, on the tape
    (leaves that need a gradient) or on the plain path (no_grad): the logits,
    weights and state array of every chunk, as byte strings."""
    out = []
    states = None
    for start in range(0, len(tokens), chunk):
        with (contextlib.nullcontext() if tape else ag.no_grad()):
            logits, weights, states = model.forward(tokens[start:start + chunk], states)
        assert isinstance(logits, Tensor) and logits.requires_grad == tape
        out.append(logits.data.tobytes())
        out.append(None if weights is None else weights.tobytes())
        out.append(states.tobytes())
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [(), (2,)], ids=["unbatched", "B=2"])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("aggregation", m.AGGREGATION_MODES)
def test_plain_path_is_bitwise_the_tape(aggregation, n, batch, dtype):
    """A forward under no_grad (the plain path: arrays through the ops, no
    Tensor until the result) gives the tape's logits, weights and every state
    array bit for bit: T=1 decoding, and 64-token chunks with state handoff."""
    model = _noisy_extension(n, aggregation, dtype)
    tokens = np.random.default_rng(3).integers(0, model.config.vocab_size, (128,) + batch)
    for chunk, length in ((1, 12), (64, 128)):
        assert _run(model, tokens[:length], chunk, tape=False) == \
            _run(model, tokens[:length], chunk, tape=True)


@pytest.mark.parametrize("T", [1, 4])
@pytest.mark.parametrize("tape", [False, True], ids=["plain", "tape"])
def test_a_forward_leaves_the_state_it_is_given_unchanged(tape, T):
    """run_stream writes every layer's rows, the WKV's a, b and p included,
    into the state array it allocates and returns, never into the one it is
    given: a carried state's bytes are the same after the forward."""
    model = _noisy_extension(4, "weighted_softmax", np.float32)
    with ag.no_grad():
        _, _, states = model.forward(np.arange(5))
    before = states.tobytes()
    with (contextlib.nullcontext() if tape else ag.no_grad()):
        _, _, new_states = model.forward(np.arange(T), states)
    assert states.tobytes() == before
    assert not np.shares_memory(new_states, states)


STATE_ROWS = ("att_prev", "wkv_state a", "wkv_state b", "wkv_state p", "ffn_prev")


def _bad_states(states, case):
    """states (L, 5, n, d) made wrong in one way: one row left out (named by
    the row), or a layer, a B axis, a perspective or a channel too many or
    too few, a list of the layers' arrays, or another dtype."""
    if case in STATE_ROWS:
        return np.delete(states, STATE_ROWS.index(case), axis=1)
    return {"L": lambda: states[:-1], "B": lambda: states[:, :, None],
            "n": lambda: states[..., :-1, :], "d": lambda: np.pad(states, [(0, 0)] * 3 + [(0, 1)]),
            "list": lambda: list(states), "dtype": lambda: states.astype(np.float64)}[case]()


@pytest.mark.parametrize("T", [1, 4])
@pytest.mark.parametrize("name", [*STATE_ROWS, "L", "B", "n", "d", "list", "dtype"])
def test_plain_path_refuses_a_state_array_of_the_wrong_shape(name, T):
    """The one state array is checked once, at run_stream's entry: any other
    shape or dtype, or anything that is not an array, is one ShapeError that
    names the wanted shape and dtype, on the plain path and the tape's."""
    model = _noisy_extension(4, "weighted_softmax", np.float32)
    states = _bad_states(model.init_states(), name)
    for path in (ag.no_grad(), contextlib.nullcontext()):
        with path, pytest.raises(ag.ShapeError, match=r"states must be an array of shape "
                                 r"\(2, 5, 4, 16\) and dtype float32, got "):
            model.forward(np.arange(T), states)


@pytest.mark.parametrize("tape", [False, True], ids=["plain", "tape"])
@pytest.mark.parametrize("shape", [(), (3, 2, 2)], ids=["0-d", "3-D"])
def test_tokens_of_another_rank_are_refused(shape, tape):
    """Tokens are (T,) or (T, B): a 0-d or 3-D array is a CorpusError naming
    its shape at run_stream's entry, on either path, not numpy's ValueError,
    a ShapeError from inside token_shift or a run over a third axis."""
    from rwkvp.corpus import CorpusError
    model = _noisy_extension(4, "weighted_softmax", np.float32)
    with (contextlib.nullcontext() if tape else ag.no_grad()), pytest.raises(
            CorpusError, match=re.escape(f"got shape {shape}")):
        model.forward(np.ones(shape, dtype=np.int64))


def test_a_no_grad_forward_reads_the_leaves_once(monkeypatch):
    """Model.forward reads ParamStore.arrays once for the stack and the head."""
    from rwkvp.params import ParamStore
    model = _noisy_extension(4, "weighted_softmax", np.float32)
    arrays, reads = ParamStore.arrays, []

    def counting(self):
        reads.append(1)
        return arrays(self)
    monkeypatch.setattr(ParamStore, "arrays", counting)
    with ag.no_grad():
        model.forward(np.arange(4))
    assert len(reads) == 1


@pytest.mark.parametrize("T", [1, 4])
def test_plain_path_refuses_a_non_finite_key(T):
    model = _noisy_extension(4, "weighted_softmax", np.float32)
    model.store["layer0.att.w_rkv"].data[1, 0, 3] = np.inf   # k's channel 3
    with ag.no_grad(), pytest.raises(ag.NonFiniteError, match="non-finite r, k or v"):
        model.forward(np.arange(T), model.init_states())
