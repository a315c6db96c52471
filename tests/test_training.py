import math

import numpy as np
import pytest

from conftest import tiny_config
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
    for i in range(2):
        for name in m.mu_names(cfg, i):
            assert not np.array_equal(store[name].data, fresh[name].data), name


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
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    total = training.clip_global_norm(grads, 1.0)
    assert abs(total - 5.0) < 1e-12
    clipped = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert abs(clipped - 1.0) < 1e-12
    grads = {"a": np.array([0.3])}
    training.clip_global_norm(grads, 1.0)     # below threshold: untouched
    np.testing.assert_array_equal(grads["a"], [0.3])


def test_adam_first_step_is_signed_lr():
    from rwkvp.params import ParamStore
    store = ParamStore()
    store.add("w", np.array([1.0, 1.0]))
    opt = training.Adam()
    opt.step(store, {"w": np.array([0.5, -2.0], dtype=np.float32)}, lr=0.1)
    # bias-corrected first step moves by ~lr in the gradient's sign direction
    np.testing.assert_allclose(store["w"].data, [0.9, 1.1], atol=1e-6)


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
    assert not np.array_equal(store["layer0.att.mu_k.p0"].data,
                              base_store["layer0.att.mu_k.p0"].data) or \
           not np.array_equal(store["layer0.att.mu_k.p1"].data,
                              store["layer0.att.mu_k.p0"].data)


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
    """One (B, T) forward gives the mean of the B per-context losses and the
    mean of their gradients."""
    from rwkvp.autograd import cross_entropy
    cfg, store, mask = _noisy_extended(n=3)
    training.inject_selector_noise(store, 0.5, 0.0, seed=0)
    training.inject_temporal_noise(store, cfg, 0.05, 0.0, seed=1)
    model = m.Model(cfg, store, mask)
    batch = np.random.default_rng(0).integers(0, cfg.vocab_size, (3, 10))

    store.zero_grad()
    loss = training._batch_loss(model, batch)
    loss.backward()
    batched = store.collect_grads(mask)

    per_context, summed = [], {}
    for ctx in batch:
        store.zero_grad()
        part = cross_entropy(model.forward(ctx[:-1])[0], ctx[1:])
        part.backward()
        per_context.append(part.item())
        for name, g in store.collect_grads(mask).items():
            summed[name] = summed.get(name, 0.0) + g
    assert abs(loss.item() - np.mean(per_context)) <= 1e-6
    assert batched.keys() == summed.keys()
    for name, g in batched.items():
        np.testing.assert_allclose(g, summed[name] / len(batch), rtol=0, atol=1e-5,
                                   err_msg=name)
