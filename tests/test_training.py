import math

import numpy as np
import pytest

from conftest import tiny_config
from rwkvp import corpus as corpus_mod
from rwkvp import evaluation
from rwkvp import model as m
from rwkvp import perspectives, training


def test_lr_schedule_endpoints_and_midpoint():
    assert training.lr_schedule(0, 100, 3e-5, 1e-5) == 3e-5
    assert training.lr_schedule(100, 100, 3e-5, 1e-5) == 1e-5
    mid = training.lr_schedule(50, 100, 3e-5, 1e-5)
    assert abs(mid - math.sqrt(3.0) * 1e-5) < 1e-9


def test_lr_schedule_monotone_decreasing():
    values = [training.lr_schedule(s, 50, 1e-3, 1e-5) for s in range(51)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lr_schedule_validation():
    with pytest.raises(m.ConfigError):
        training.lr_schedule(5, 4, 1e-3, 1e-5)
    with pytest.raises(m.ConfigError):
        training.lr_schedule(0, 10, 1e-5, 1e-3)


def test_train_config_validation():
    with pytest.raises(m.ConfigError):
        training.TrainConfig(lr_max=1e-5, lr_min=1e-3)
    with pytest.raises(m.ConfigError):
        training.TrainConfig(noise_std=-0.1)
    with pytest.raises(m.ConfigError):
        training.TrainConfig(noise_target="everywhere")


@pytest.mark.parametrize("field,value", [
    ("batch_size", 1.5), ("mini_epochs", True), ("seed", "0"), ("context_length", 32.0),
    ("contexts_per_mini_epoch", None), ("lr_max", "1e-3"), ("lr_min", float("nan")),
    ("noise_std", float("inf")), ("grad_clip", None)])
def test_train_config_rejects_wrong_types(field, value):
    with pytest.raises(m.ConfigError, match=field):
        training.TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("seed", -1), ("context_length", 1),
                                         ("context_length", -3), ("grad_clip", -1.0)])
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(m.ConfigError, match=field):
        training.TrainConfig(**{field: value})


def test_train_config_accepts_integer_rates():
    assert training.TrainConfig(lr_max=1, lr_min=1, noise_std=0).noise_std == 0


def _noisy_extended(n=3, seed=0, aggregation="weighted_softmax"):
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    return perspectives.extend_to_perspectives(base_store, base_cfg, n, aggregation)


def test_selector_noise_zero_std_is_identity():
    cfg, store, _ = _noisy_extended()
    before = store.digest()
    training.inject_selector_noise(store, 0.0, 0.0, seed=0)
    assert store.digest() == before


def test_selector_noise_deterministic_and_targeted():
    cfg, s1, _ = _noisy_extended()
    _, s2, _ = _noisy_extended()
    training.inject_selector_noise(s1, 0.01, 0.0, seed=7)
    training.inject_selector_noise(s2, 0.01, 0.0, seed=7)
    assert s1.digest() == s2.digest()
    training.inject_selector_noise(s2, 0.01, 0.0, seed=8)
    assert s1.digest() != s2.digest()
    # only the aggregator moved
    others = [n for n in s1.names() if not m.is_aggregator(n)]
    _, fresh, _ = _noisy_extended()
    assert s1.digest(others) == fresh.digest(others)
    assert not np.array_equal(s1["selector.W"].data, fresh["selector.W"].data)


def test_temporal_noise_targets_all_perspectives():
    cfg, store, _ = _noisy_extended(n=2)
    _, fresh, _ = _noisy_extended(n=2)
    training.inject_temporal_noise(store, cfg, 0.01, 0.0, seed=3)
    non_mu = [n for n in store.names() if not m.is_temporal(n)]
    assert store.digest(non_mu) == fresh.digest(non_mu)
    for name in m.mu_names(cfg):
        for i in range(2):
            assert not np.array_equal(store[name].data[i], fresh[name].data[i]), (name, i)


def test_temporal_noise_draws_perspective_then_layer_then_slot():
    """Row i of every mu leaf gets the draws of perspective i, taken from one
    generator in the order: perspective, layer, slot (att r/k/v, ffn r/k)."""
    cfg, store, _ = _noisy_extended(n=3)
    _, fresh, _ = _noisy_extended(n=3)
    training.inject_temporal_noise(store, cfg, 0.01, 0.002, seed=11)
    rng = np.random.default_rng(11)
    for i in range(3):
        for l in range(cfg.n_layers):
            for slot in ("att.mu_r", "att.mu_k", "att.mu_v", "ffn.mu_r", "ffn.mu_k"):
                name = f"layer{l}.{slot}"
                row = fresh[name].data[i]
                expected = row + rng.normal(0.002, 0.01, size=row.shape).astype(row.dtype)
                assert np.array_equal(store[name].data[i], expected), (name, i)


def test_noise_statistics():
    """10k injected entries: mean in [-0.001, 0.001], std in [0.009, 0.011]."""
    from rwkvp.params import ParamStore
    store = ParamStore()
    store.add("selector.W", np.zeros((100, 100)))
    training.inject_selector_noise(store, 0.01, 0.0, seed=0)
    sample = store["selector.W"].data.reshape(-1)
    assert sample.size == 10000
    assert -0.001 <= sample.mean() <= 0.001
    assert 0.009 <= sample.std() <= 0.011


def test_clip_global_norm():
    grad = np.array([3.0, 0.0, 0.0, 4.0])
    total = training.clip_global_norm(grad, [2, 2], 1.0)
    assert abs(total - 5.0) < 1e-12
    assert abs(math.sqrt(float((grad * grad).sum())) - 1.0) < 1e-12
    grad = np.array([0.3])
    training.clip_global_norm(grad, [1], 1.0)     # below threshold: untouched
    np.testing.assert_array_equal(grad, [0.3])
    grad = np.array([3.0, 4.0])
    assert training.clip_global_norm(grad, [2], 0.0) == 5.0    # 0 turns clipping off
    np.testing.assert_array_equal(grad, [3.0, 4.0])


def test_clip_norm_sums_leaf_by_leaf():
    """The flat norm is bitwise the sum, in leaf order, of each leaf's float32
    sum of squares."""
    rng = np.random.default_rng(0)
    leaves = [rng.standard_normal(s).astype(np.float32) for s in [(257, 48), (48,), (48, 192), (1, 48)]]
    expected = math.sqrt(sum(float((g * g).sum()) for g in leaves))
    flat = np.concatenate([g.reshape(-1) for g in leaves])
    assert training.clip_global_norm(flat, [g.size for g in leaves], 0.0) == expected


def test_adam_first_step_is_signed_lr():
    from rwkvp.params import ParamStore
    store = ParamStore()
    store.add("w", np.array([1.0, 1.0]))
    params = store.flatten(["w"])
    opt = training.Adam()
    opt.step(params, np.array([0.5, -2.0], dtype=np.float32), lr=0.1)
    # bias-corrected first step moves by ~lr in the gradient's sign direction,
    # in place: the leaf is a view of the buffer
    np.testing.assert_allclose(store["w"].data, [0.9, 1.1], atol=1e-6)


class _LeafAdam:
    """Reference Adam, one leaf at a time in the textbook expression form,
    rebinding each leaf's data."""

    def __init__(self, b1=0.9, b2=0.999, eps=1e-8):
        self.b1, self.b2, self.eps, self.t = b1, b2, eps, 0
        self.m, self.v = {}, {}

    def step(self, store, grads, lr):
        self.t += 1
        b1, b2 = self.b1, self.b2
        for name, g in grads.items():
            m = self.m[name] = b1 * self.m.get(name, np.zeros_like(g)) + (1 - b1) * g
            v = self.v[name] = b2 * self.v.get(name, np.zeros_like(g)) + (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            store[name].data = store[name].data - lr * mhat / (np.sqrt(vhat) + self.eps)


def test_flat_adam_is_bitwise_the_per_leaf_expression():
    from rwkvp.params import ParamStore
    rng = np.random.default_rng(1)
    shapes = [(5, 3), (3,), (2, 1, 3)]
    store, reference = ParamStore(), ParamStore()
    for i, shape in enumerate(shapes):
        value = rng.standard_normal(shape)
        store.add(f"p{i}", value)
        reference.add(f"p{i}", value)
    params = store.flatten(store.names())
    opt, ref_opt = training.Adam(), _LeafAdam()
    for k in range(5):
        grads = {name: rng.standard_normal(store[name].shape).astype(np.float32)
                 for name in store.names()}
        lr = 1e-2 * 0.9 ** k
        opt.step(params, np.concatenate([g.reshape(-1) for g in grads.values()]), lr)
        ref_opt.step(reference, grads, lr)
    assert store.digest() == reference.digest()


def test_flatten_makes_leaves_views_of_one_buffer():
    from rwkvp.params import ParamStore
    store = ParamStore()
    store.add("a", np.arange(6.0).reshape(2, 3))
    store.add("frozen", np.ones(2), requires_grad=False)
    store.add("b", np.array([7.0]))
    frozen = store["frozen"].data
    flat = store.flatten(["b", "a"])
    np.testing.assert_array_equal(flat, [7, 0, 1, 2, 3, 4, 5])
    flat += 1
    np.testing.assert_array_equal(store["a"].data, np.arange(1.0, 7.0).reshape(2, 3))
    assert store["b"].data.shape == (1,) and store["b"].data[0] == 8
    assert store["frozen"].data is frozen
    store.add("c", np.ones(2), dtype=np.float64)
    with pytest.raises(TypeError, match="mixed dtypes"):
        store.flatten(["a", "c"])


def test_no_graph_is_alive_when_the_optimizer_steps(synth_split, monkeypatch):
    """Adam updates the leaves in place, so the step's loss (and with it the
    whole graph) must be released before Adam.step runs."""
    import weakref
    train_tokens, val_tokens = synth_split
    losses, alive = [], []
    batch_loss, adam_step = training._batch_loss, training.Adam.step

    def tracked_loss(model, batch):
        loss = batch_loss(model, batch)
        losses.append(weakref.ref(loss))
        return loss

    def checked_step(self, params, grad, lr):
        alive.append(losses[-1]() is not None)
        adam_step(self, params, grad, lr)

    monkeypatch.setattr(training, "_batch_loss", tracked_loss)
    monkeypatch.setattr(training.Adam, "step", checked_step)
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4, mini_epochs=1,
                              contexts_per_mini_epoch=6, context_length=8, seed=0)
    training.pretrain_base(cfg, train_tokens, val_tokens[:32], tc)
    assert alive == [False, False, False]


def test_finetune_freeze_invariant_and_log(synth_split):
    train_tokens, val_tokens = synth_split
    base_cfg = m.ModelConfig(n_layers=1, d_model=16, vocab_size=257, context_length=32)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4, mini_epochs=2,
                              contexts_per_mini_epoch=8, context_length=32, seed=0)
    cfg, store, mask, log = training.finetune_perspectives(
        base_store, base_cfg, 2, "weighted_softmax", train_tokens, val_tokens, tc)
    frozen = mask.frozen_names()
    # frozen parameters are byte-for-byte the base parameters
    assert store.digest(frozen) == base_store.digest(frozen)
    # trainable parameters moved
    assert not np.array_equal(store["selector.W"].data,
                              np.zeros_like(store["selector.W"].data))
    assert len(log.steps) == 2 * math.ceil(8 / 2)
    assert len(log.val_ppl) == 2
    assert all(np.isfinite(l) for l in log.losses())


def test_finetune_is_deterministic(synth_split):
    train_tokens, val_tokens = synth_split
    base_cfg = m.ModelConfig(n_layers=1, d_model=16, vocab_size=257, context_length=32)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4, mini_epochs=1,
                              contexts_per_mini_epoch=6, context_length=32, seed=5)

    def run():
        _, store, _, log = training.finetune_perspectives(
            base_store, base_cfg, 2, "weighted_softmax", train_tokens, val_tokens, tc)
        return store.digest(), log.to_text()

    d1, t1 = run()
    d2, t2 = run()
    assert d1 == d2 and t1 == t2


def test_average_mode_falls_back_to_temporal_noise(synth_split):
    train_tokens, val_tokens = synth_split
    base_cfg = m.ModelConfig(n_layers=1, d_model=16, vocab_size=257, context_length=32)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4, mini_epochs=1,
                              contexts_per_mini_epoch=4, context_length=32, seed=0,
                              noise_target="selector")
    cfg, store, mask, _ = training.finetune_perspectives(
        base_store, base_cfg, 2, "average", train_tokens, val_tokens, tc)
    # the two perspectives must have been desymmetrized despite having no selector
    mu = store["layer0.att.mu_k"].data
    assert not np.array_equal(mu[0], base_store["layer0.att.mu_k"].data[0]) or \
           not np.array_equal(mu[1], mu[0])


@pytest.mark.parametrize("bad", [17, -3])
def test_training_rejects_target_outside_vocab(bad):
    """The corpus' last token is only ever a target, never a model input."""
    from rwkvp.corpus import CorpusError
    cfg = tiny_config()
    tokens = np.arange(40) % cfg.vocab_size
    tokens[-1] = bad
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4, mini_epochs=1,
                              contexts_per_mini_epoch=4, context_length=8, seed=0)
    with pytest.raises(CorpusError, match="vocab_size=17"):
        training.pretrain_base(cfg, tokens, tokens[:20], tc)


def test_memorization_single_pattern():
    """A model trained on one repeating byte pattern drives perplexity
    toward 1 on that pattern."""
    pattern = (b"ab" * 600)
    tokens = np.frombuffer(pattern, dtype=np.uint8).astype(np.int64)
    cfg = m.ModelConfig(n_layers=1, d_model=16, vocab_size=257, context_length=16)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-2, lr_min=5e-3, mini_epochs=2,
                              contexts_per_mini_epoch=30, context_length=16, seed=0)
    store, mask, log = training.pretrain_base(cfg, tokens, tokens[:64], tc)
    assert log.val_ppl[-1][1] < 1.3


def test_recorded_grad_norms_match_a_leaf_by_leaf_recomputation(synth_split):
    """A tiny pretrain run against the same steps taken leaf by leaf: the
    per-leaf norm, clip and Adam give the logged norms and clip flags, the
    losses and the trained parameters bitwise."""
    train_tokens, val_tokens = synth_split
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-2, lr_min=5e-3, mini_epochs=1,
                              contexts_per_mini_epoch=16, context_length=8, seed=0,
                              grad_clip=4.0)
    store, mask, log = training.pretrain_base(cfg, train_tokens, val_tokens[:32], tc)

    ref, _ = m.init_base_params(cfg, seed=tc.seed)
    model = m.Model(cfg, ref, mask)
    sampler = corpus_mod.sample_contexts(train_tokens, tc.context_length,
                                         len(log.steps) * tc.batch_size, seed=tc.seed)
    opt, expected, losses = _LeafAdam(), [], []
    for step, lr, _ in log.steps:
        ref.zero_grad()
        loss = training._batch_loss(model, np.stack([next(sampler) for _ in range(2)], axis=1))
        loss.backward()
        losses.append(loss.item())
        grads = {name: ref[name].grad for name in mask.trainable_names()}
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        expected.append((step, norm, norm > tc.grad_clip))
        for g in grads.values():
            g *= min(1.0, tc.grad_clip / norm)
        opt.step(ref, grads, lr)
    assert log.grad_norms == expected
    assert {clipped for _, _, clipped in expected} == {False, True}
    assert log.losses() == losses
    assert store.digest() == ref.digest()
    text = log.to_text().splitlines()
    assert [line for line in text if line.startswith("gradnorm ")] == [
        f"gradnorm {step} {norm:.9g} {int(clipped)}" for step, norm, clipped in expected]


def test_train_log_roundtrip_format():
    log = training.TrainLog(seeds=[3], steps=[(0, 1e-3, 2.5), (1, 9e-4, 2.25)],
                            val_ppl=[(0, 10.5)])
    text = log.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert "seed 3" in lines
    assert any(l.startswith("step 1 ") for l in lines)
    assert lines[-1] == "epoch 0 val_ppl 10.5"


def test_pretrain_rejects_multi_perspective_config():
    cfg = tiny_config(n_perspectives=2)
    tc = training.TrainConfig(contexts_per_mini_epoch=1, mini_epochs=1,
                              context_length=8)
    with pytest.raises(m.ConfigError):
        training.pretrain_base(cfg, np.zeros(32, dtype=np.int64),
                               np.zeros(16, dtype=np.int64), tc)


def test_batched_loss_equals_mean_of_context_losses():
    """One (T, B) forward gives the mean of the B per-context losses and the
    mean of their gradients."""
    from rwkvp.autograd import cross_entropy
    cfg, store, mask = _noisy_extended(n=3)
    training.inject_selector_noise(store, 0.5, 0.0, seed=0)
    training.inject_temporal_noise(store, cfg, 0.05, 0.0, seed=1)
    model = m.Model(cfg, store, mask)
    batch = np.random.default_rng(0).integers(0, cfg.vocab_size, (3, 10))

    store.zero_grad()
    loss = training._batch_loss(model, np.stack(batch, axis=1))
    loss.backward()
    batched = store.collect_grads(mask)

    per_context, summed = [], 0.0
    for ctx in batch:
        store.zero_grad()
        part = cross_entropy(model.forward(ctx[:-1])[0], ctx[1:])
        part.backward()
        per_context.append(part.item())
        summed = summed + store.collect_grads(mask)
    assert abs(loss.item() - np.mean(per_context)) <= 1e-6
    assert batched.shape == summed.shape
    # coordinate by coordinate, over every trainable leaf's segment
    np.testing.assert_allclose(batched, summed / len(batch), rtol=0, atol=1e-5)


def test_batch_loss_takes_cross_entropy_over_a_view_of_the_head_output(monkeypatch):
    """The (T*B, V) rows that _batch_loss hands to cross_entropy are a free
    reshape of the head's (T, B, V) logits, not a copy."""
    from rwkvp import aggregation
    cfg, store, mask = _noisy_extended(n=2)
    heads, rows = [], []
    aggregate, cross_entropy = aggregation.aggregate, training.cross_entropy

    def recording_aggregate(*args):
        logits, weights = aggregate(*args)
        heads.append(logits.data)
        return logits, weights

    def recording_cross_entropy(logits, targets):
        rows.append(logits.data)
        return cross_entropy(logits, targets)

    monkeypatch.setattr(aggregation, "aggregate", recording_aggregate)
    monkeypatch.setattr(training, "cross_entropy", recording_cross_entropy)
    batch = np.random.default_rng(0).integers(0, cfg.vocab_size, (7, 3))    # (T+1, B)
    training._batch_loss(m.Model(cfg, store, mask), batch)
    assert heads[0].shape == (6, 3, cfg.vocab_size)
    assert rows[0].shape == (18, cfg.vocab_size)
    assert np.shares_memory(rows[0], heads[0])
