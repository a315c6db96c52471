import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from rwkvp import evaluation
from rwkvp import model as m
from rwkvp import perspectives, training
from rwkvp.autograd import Tensor
from rwkvp.corpus import CorpusError


class StubModel:
    """Model stand-in emitting predetermined logits per absolute position."""

    def __init__(self, row_fn, vocab_size=4, context_length=8):
        self.config = m.ModelConfig(n_layers=1, d_model=2, vocab_size=vocab_size,
                                    context_length=context_length)
        self.row_fn = row_fn

    def init_states(self):
        return 0

    def forward(self, tokens, states=None):
        offset = states or 0
        rows = np.stack([self.row_fn(offset + t, int(tok))
                         for t, tok in enumerate(tokens)])
        return Tensor(rows), None, offset + len(tokens)


def test_perplexity_uniform_model_equals_vocab_size():
    V = 256
    model = StubModel(lambda pos, tok: np.zeros(V), vocab_size=V)
    tokens = np.random.default_rng(0).integers(0, V, 100)
    assert abs(evaluation.perplexity(model, tokens) - V) < 1e-9


def test_perplexity_oracle_approaches_one():
    tokens = np.array([0, 1, 2, 3] * 25)

    def row_fn(pos, tok):
        row = np.zeros(4)
        row[(tok + 1) % 4] = 50.0     # near-certain about the true next token
        return row

    assert abs(evaluation.perplexity(StubModel(row_fn), tokens) - 1.0) < 1e-6


def test_perplexity_exact_arithmetic():
    """Probability exactly 1/8 on every target gives perplexity exactly 8."""
    tokens = np.zeros(50, dtype=np.int64)
    row = np.log(np.array([1 / 8, 7 / 8, 1e-30, 1e-30]))
    model = StubModel(lambda pos, tok: row)
    assert abs(evaluation.perplexity(model, tokens) - 8.0) < 1e-9


def test_perplexity_mixed_positions_sqrt():
    """NLL ln(8) on odd targets and 0 on even targets -> perplexity sqrt(8)."""
    tokens = np.zeros(101, dtype=np.int64)
    certain = np.log(np.array([1 - 3e-31, 1e-31, 1e-31, 1e-31]))
    eighth = np.log(np.array([1 / 8, 7 / 8, 1e-31, 1e-31]))

    model = StubModel(lambda pos, tok: certain if pos % 2 == 0 else eighth)
    # targets at stream positions 1..100: predictor row alternates
    got = evaluation.perplexity(model, tokens)
    assert abs(got - math.sqrt(8.0)) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_perplexity_non_finite_nll_raises(bad):
    from rwkvp.autograd import NonFiniteError
    tokens = np.zeros(20, dtype=np.int64)

    def row_fn(pos, tok):
        row = np.zeros(4)
        if pos == 11:
            row[0] = bad        # nan/inf in one row makes that row's NLL non-finite
        return row

    with pytest.raises(NonFiniteError, match="NLL"):
        evaluation.perplexity(StubModel(row_fn), tokens)


def test_perplexity_invariant_to_chunk_size():
    rng = np.random.default_rng(1)
    rows = rng.uniform(-2, 2, (300, 4))
    model = StubModel(lambda pos, tok: rows[pos])
    tokens = rng.integers(0, 4, 120)
    base = evaluation.perplexity(model, tokens, chunk=120)
    for chunk in (1, 7, 32):
        assert abs(evaluation.perplexity(model, tokens, chunk=chunk) - base) < 1e-9


@pytest.mark.parametrize("chunk", [0, -3])
def test_perplexity_rejects_a_chunk_below_one(chunk):
    model = StubModel(lambda pos, tok: np.zeros(4))
    with pytest.raises(m.ConfigError, match="chunk"):
        evaluation.perplexity(model, np.arange(10) % 4, chunk=chunk)


def test_perplexity_defaults_the_chunk_to_the_context_length(monkeypatch):
    chunks = []
    stream = evaluation._stream

    def recording_stream(model, tokens, chunk):
        chunks.append(chunk)
        return stream(model, tokens, chunk)

    monkeypatch.setattr(evaluation, "_stream", recording_stream)
    model = StubModel(lambda pos, tok: np.zeros(4), context_length=5)
    evaluation.perplexity(model, np.arange(10) % 4)
    evaluation.perplexity(model, np.arange(10) % 4, chunk=3)
    assert chunks == [5, 3]


def test_perplexity_requires_two_tokens():
    model = StubModel(lambda pos, tok: np.zeros(4))
    with pytest.raises(CorpusError):
        evaluation.perplexity(model, np.array([1]))


# ---------------------------------------------------------------------------
# parameter counting


PUBLISHED_ANCHORS = [
    # (layers, d_model, published base total, published increase %)
    (12, 768, 1.6934e8, 0.08),
    (24, 1024, 4.3039e8, 0.09),
    (24, 2048, 1.5151e9, 0.04),
]


@pytest.mark.parametrize("L,d,base_total,pct", PUBLISHED_ANCHORS)
def test_count_matches_published_anchors(L, d, base_total, pct):
    cfg = m.ModelConfig(n_layers=L, d_model=d, vocab_size=50277,
                        n_perspectives=4, aggregation="weighted_softmax",
                        context_length=1024)
    report = evaluation.count_parameters(cfg, base_total=base_total)
    assert abs(report.increase_fraction - pct) <= 0.02


def test_count_matches_allocation():
    for n in (1, 3):
        for agg in m.AGGREGATION_MODES:
            cfg = tiny_config(n_perspectives=n, aggregation=agg)
            base_store, _ = m.init_base_params(tiny_config(), seed=0)
            _, store, _ = perspectives.extend_to_perspectives(
                base_store, tiny_config(), n, agg)
            report = evaluation.count_parameters(cfg)
            assert store.total_size() == int(report.extended_count), (n, agg)


def test_extra_count_properties():
    # monotone in n, and independent of the vocabulary size
    counts = [m.extra_param_count(tiny_config(n_perspectives=n))
              for n in (1, 2, 3, 4)]
    assert counts == sorted(counts) and counts[0] < counts[-1]
    a = m.extra_param_count(tiny_config(n_perspectives=3))
    b = m.extra_param_count(tiny_config(n_perspectives=3, vocab_size=5000))
    assert a == b


# ---------------------------------------------------------------------------
# tracing


def _traced_model(seed=0, n=3):
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=seed)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, n)
    return m.Model(cfg, store, mask)


def test_trace_zero_selector_is_uniform():
    model = _traced_model(n=4)
    tokens = np.arange(30) % model.config.vocab_size
    weights = evaluation.trace_weights(model, tokens)
    np.testing.assert_array_equal(weights, np.full((30, 4), 0.25))


def test_trace_weights_valid_distribution():
    model = _traced_model(n=3)
    training.inject_selector_noise(model.store, 0.5, 0.0, seed=1)
    tokens = np.arange(50) % model.config.vocab_size
    weights = evaluation.trace_weights(model, tokens)
    assert weights.shape == (50, 3)
    assert np.all(weights >= 0)
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-6)


_NOISY_MODEL = _traced_model(n=3)
training.inject_selector_noise(_NOISY_MODEL.store, 0.5, 0.0, seed=2)
training.inject_temporal_noise(_NOISY_MODEL.store, _NOISY_MODEL.config, 0.05, 0.0, seed=3)


@given(tokens=st.lists(st.integers(0, 16), min_size=2, max_size=40),
       chunk=st.integers(1, 41))
@settings(max_examples=30, deadline=None)
def test_perplexity_of_a_model_does_not_depend_on_chunk(tokens, chunk):
    tokens = np.array(tokens)
    whole = evaluation.perplexity(_NOISY_MODEL, tokens, chunk=len(tokens))
    assert abs(evaluation.perplexity(_NOISY_MODEL, tokens, chunk=chunk) - whole) <= 1e-5 * whole


@given(tokens=st.lists(st.integers(0, 16), min_size=1, max_size=40),
       context_length=st.integers(2, 41))
@settings(max_examples=30, deadline=None)
def test_trace_weights_do_not_depend_on_context_length(tokens, context_length):
    """The same store traced in chunks of context_length and in one chunk;
    ModelConfig needs context_length >= 2."""
    def trace(length):
        cfg = dataclasses.replace(_NOISY_MODEL.config, context_length=length)
        return evaluation.trace_weights(m.Model(cfg, _NOISY_MODEL.store, _NOISY_MODEL.mask),
                                        tokens)

    chunked, whole = trace(context_length), trace(max(2, len(tokens)))
    assert chunked.shape == whole.shape == (len(tokens), 3)
    np.testing.assert_allclose(chunked, whole, rtol=1e-5, atol=0)


def test_trace_requires_weighted_mode():
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, 2,
                                                           "average")
    with pytest.raises(m.ConfigError):
        evaluation.trace_weights(m.Model(cfg, store, mask), np.arange(4))


def test_trace_csv_roundtrip():
    model = _traced_model(n=3)
    training.inject_selector_noise(model.store, 0.5, 0.0, seed=2)
    tokens = np.arange(20) % model.config.vocab_size
    weights = evaluation.trace_weights(model, tokens)
    text = evaluation.trace_to_csv(tokens, weights)
    header = text.splitlines()[0]
    assert header == "position,token,weight_1,weight_2,weight_3,top"
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert len(rows) == len(weights)
    for t, (tok, row_weights, row) in enumerate(zip(tokens, weights, rows)):
        assert [int(row[0]), int(row[1]), int(row[-1])] == [t, tok, np.argmax(row_weights)]
        np.testing.assert_allclose([float(w) for w in row[2:-1]], row_weights, rtol=1e-8)


def test_trace_svg_renders_all_perspectives():
    model = _traced_model(n=3)
    svg = evaluation.render_trace_svg(evaluation.trace_weights(model, np.arange(15)))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<polygon") == 3
    assert "perspective 3" in svg


# ---------------------------------------------------------------------------
# ablation harness


def _micro_setup(synth_split):
    train_tokens, val_tokens = synth_split
    base_cfg = m.ModelConfig(n_layers=1, d_model=16, vocab_size=257, context_length=32)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4, mini_epochs=1,
                              contexts_per_mini_epoch=4, context_length=32, seed=0)
    return base_cfg, base_store, train_tokens[:2000], val_tokens[:300], tc


def test_ablation_report_structure(synth_split):
    base_cfg, base_store, train, val, tc = _micro_setup(synth_split)
    report = evaluation.run_ablation("n_perspectives", base_cfg, base_store,
                                     train, val, tc, arms=[1, 2], seeds=(0, 1, 2),
                                     n_perspectives=2)
    assert [a.setting for a in report.arms] == ["1", "2"]
    for arm in report.arms:
        assert not arm.failed
        assert len(arm.values) == 3
        assert np.isfinite(arm.mean) and np.isfinite(arm.stddev)
        assert abs(arm.mean - np.mean(arm.values)) < 1e-12
        assert abs(arm.stddev - np.std(arm.values, ddof=1)) < 1e-12
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == ("axis,setting,mean_val_ppl,stddev_val_ppl,"
                                        "seed_values,failed")
    assert len(csv_text.splitlines()) == 3
    assert "n_perspectives" in report.to_table()


def test_ablation_byte_identical_rerun(synth_split):
    base_cfg, base_store, train, val, tc = _micro_setup(synth_split)

    def run():
        return evaluation.run_ablation("noise_placement", base_cfg, base_store,
                                       train, val, tc,
                                       arms=["selector", "temporal"],
                                       seeds=(0, 1, 2), n_perspectives=2).to_csv()

    assert run() == run()


def test_ablation_validation(synth_split):
    base_cfg, base_store, train, val, tc = _micro_setup(synth_split)
    with pytest.raises(m.ConfigError):
        evaluation.run_ablation("nonsense", base_cfg, base_store, train, val, tc)
    with pytest.raises(m.ConfigError):
        evaluation.run_ablation("aggregation", base_cfg, base_store, train, val,
                                tc, arms=["average"])
    with pytest.raises(m.ConfigError):
        evaluation.run_ablation("aggregation", base_cfg, base_store, train, val,
                                tc, seeds=(0, 1))
