import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import forbid_model_builds, tiny_config
from rwkvp import autograd as ag
from rwkvp import corpus as corpus_mod
from rwkvp import evaluation
from rwkvp import model as m
import rwkvp
from rwkvp import perspectives, training


def test_lr_schedule_endpoints_and_midpoint():
    assert training.lr_schedule(0, 100, 3e-5, 1e-5) == 3e-5
    assert training.lr_schedule(100, 100, 3e-5, 1e-5) == 1e-5
    mid = training.lr_schedule(50, 100, 3e-5, 1e-5)
    assert abs(mid - math.sqrt(3.0) * 1e-5) < 1e-9


def test_lr_schedule_monotone_decreasing():
    values = [training.lr_schedule(s, 50, 1e-3, 1e-5) for s in range(51)]
    assert all(a > b for a, b in zip(values, values[1:]))


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


@pytest.mark.parametrize("fields,named", [
    ({"lr_max": 1e308, "lr_min": 1e308}, "lr_max"), ({"noise_std": 1e39}, "noise_std")],
    ids=["lr", "noise_std"])
def test_train_config_rejects_values_float32_cannot_hold(fields, named):
    """Finite in Python, infinite in the float32 arrays they scale: Adam's
    first step would overflow at a *= lr. The largest float32 is accepted."""
    with pytest.raises(m.ConfigError, match=f"{named} must be at most float32's largest"):
        training.TrainConfig(**fields)
    top = float(np.finfo(np.float32).max)
    assert training.TrainConfig(lr_max=top, lr_min=top, noise_std=top).lr_max == top


def test_train_config_accepts_integer_rates():
    assert training.TrainConfig(lr_max=1, lr_min=1, noise_std=0).noise_std == 0


def test_the_size_check_compares_with_the_reported_memory(monkeypatch):
    """The float32 parameters, seven float32 arrays of the trainable
    parameters' size and the int64 context starts (steps x batch) must fit
    in the memory os.sysconf reports; where it reports none, the check
    passes."""
    cfg = tiny_config()
    tc = training.TrainConfig(batch_size=2, mini_epochs=3, contexts_per_mini_epoch=3,
                              context_length=16)
    params, trainable = 4 * m.param_count(cfg), 2 * cfg.d_model
    memory = {"SC_PAGE_SIZE": 1,
              "SC_PHYS_PAGES": params + 7 * 4 * trainable + 8 * 6 * 2}   # 2 steps x 3 epochs
    monkeypatch.setattr(training.os, "sysconf", memory.__getitem__)
    trains = {"ln0.g", "ln0.b"}.__contains__
    training._check_fits(cfg, tc, trains)
    memory["SC_PHYS_PAGES"] -= 1
    with pytest.raises(m.ConfigError, match=f"{params} bytes of float32 parameters, "
                                            f"{28 * trainable} of gradients and optimizer state "
                                            f"\\({trainable} trainable\\) and 96 of context "
                                            r"starts \(6 steps of 2\)"):
        training._check_fits(cfg, tc, trains)

    def unreported(name):
        raise ValueError(name)
    monkeypatch.setattr(training.os, "sysconf", unreported)
    training._check_fits(m.ModelConfig(n_layers=2 ** 70), tc)


@pytest.mark.parametrize("n", [1, 3], ids=["pretrain", "finetune"])
def test_the_size_check_counts_a_step_s_trainable_sized_arrays(monkeypatch, n):
    """A memory that holds the parameters, the context starts and six float32
    arrays of the trainable parameters' size, but not the step's seven
    (gradients, flat gradient, its square, Adam's m, v and two scratch
    buffers), is a ConfigError before a model is built. Fine-tuning counts
    only the leaves its mask trains."""
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    tokens = np.arange(64) % base_cfg.vocab_size
    tc = training.TrainConfig(mini_epochs=1, contexts_per_mini_epoch=2, context_length=16)
    if n == 1:
        cfg, trainable = base_cfg, base_store.total_size()
        run = lambda: training.pretrain_base(base_cfg, tokens, tokens, tc)
    else:
        cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, n)
        trainable = sum(store[name].data.size for name in mask.trainable_names())
        run = lambda: training.finetune_perspectives(base_store, base_cfg, n,
                                                     "weighted_softmax", tokens, tokens, tc)
    memory = 4 * m.param_count(cfg) + 6 * 4 * trainable + 8 * 1 * 2     # 1 step of 2
    monkeypatch.setattr(training.os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.get)
    forbid_model_builds(monkeypatch)
    with pytest.raises(m.ConfigError, match=f"\\({trainable} trainable\\)"):
        run()


def test_finetune_refuses_an_extension_that_cannot_fit(monkeypatch):
    """2**70 perspectives is one ConfigError, raised before the extension
    walks or allocates anything."""
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    forbid_model_builds(monkeypatch)
    tokens = np.arange(64) % base_cfg.vocab_size
    tc = training.TrainConfig(mini_epochs=1, contexts_per_mini_epoch=2, context_length=16)
    with pytest.raises(m.ConfigError, match="float32 parameters"):
        training.finetune_perspectives(base_store, base_cfg, 2 ** 70, "weighted_softmax",
                                       tokens, tokens, tc)


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
    generator in the order: perspective, layer, slot (att r/k/v, the three
    slots of att.mu_rkv, then ffn r/k)."""
    cfg, store, _ = _noisy_extended(n=3)
    _, fresh, _ = _noisy_extended(n=3)
    training.inject_temporal_noise(store, cfg, 0.01, 0.002, seed=11)
    rng = np.random.default_rng(11)
    slots = [("att.mu_rkv", (0,)), ("att.mu_rkv", (1,)), ("att.mu_rkv", (2,)),
             ("ffn.mu_r", ()), ("ffn.mu_k", ())]
    for i in range(3):
        for l in range(cfg.n_layers):
            for slot, at in slots:
                name = f"layer{l}.{slot}"
                row = fresh[name].data[at + (i,)]
                expected = row + rng.normal(0.002, 0.01, size=row.shape).astype(row.dtype)
                assert np.array_equal(store[name].data[at + (i,)], expected), (name, at, i)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_clip_global_norm_rejects_a_non_finite_norm(bad):
    """A non-finite entry raises before the clip scales anything."""
    grad = np.array([bad, 1.0, 2.0], dtype=np.float32)
    with pytest.raises(ag.NonFiniteError, match="global norm"):
        training.clip_global_norm(grad, [3], 1.0)
    np.testing.assert_array_equal(grad, np.array([bad, 1.0, 2.0], dtype=np.float32))


def test_a_non_finite_gradient_never_reaches_the_parameters(synth_split, monkeypatch):
    """A NaN in the step's flat gradient stops the loop before Adam steps."""
    from rwkvp.params import ParamStore
    train_tokens, val_tokens = synth_split
    collect_grads = ParamStore.collect_grads

    def poisoned(self, mask):
        grad = collect_grads(self, mask)
        grad[0] = np.nan
        return grad

    monkeypatch.setattr(ParamStore, "collect_grads", poisoned)
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    store, mask = m.init_base_params(cfg, seed=0)
    trainable = mask.trainable_names()
    before = store.digest(trainable)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4, mini_epochs=1,
                              contexts_per_mini_epoch=4, context_length=8, seed=0)
    with pytest.raises(training.DivergenceError, match=r"at step 0 \(the gradient's global norm"):
        training._train_loop(m.Model(cfg, store, mask), train_tokens, val_tokens[:32], tc)
    assert store.digest(trainable) == before


def test_a_finite_loss_with_an_overflowing_perplexity_is_a_divergence(synth_split):
    """Logits scaled until the validation's mean NLL (about 244) is past
    float32's exp limit (about 88.7): the step's loss is finite, and the
    perplexity's inf ends the run as a DivergenceError naming the mini-epoch's
    last step, with no numpy warning (an error in tier-1) ahead of it."""
    train_tokens, val_tokens = synth_split
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    store, mask = m.init_base_params(cfg, seed=0)
    store["head.weight"].data *= 100
    tc = training.TrainConfig(batch_size=2, lr_max=1e-6, lr_min=1e-6, mini_epochs=1,
                              contexts_per_mini_epoch=2, context_length=8, seed=0)
    with pytest.raises(training.DivergenceError,
                       match=r"at step 0 \(perplexity: the mean NLL over 31 predictions is 2\d\d\."
                       ) as info:
        training._train_loop(m.Model(cfg, store, mask), train_tokens, val_tokens[:32], tc)
    assert isinstance(info.value.__cause__, ag.NonFiniteError) and info.value.step == 0


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
    mu = store["layer0.att.mu_rkv"].data[1]                     # the key slot
    assert not np.array_equal(mu[0], base_store["layer0.att.mu_rkv"].data[1, 0]) or \
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
    per-leaf norm (a stacked (3, ...) leaf summed slot by slot), clip and
    Adam give the logged norms and clip flags, the losses and the trained
    parameters bitwise."""
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
        norm = math.sqrt(sum(float((s * s).sum()) for g in grads.values()
                             for s in (g if g.ndim == 3 else [g])))
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


def _run_in_fresh_interpreters(code, *envs):
    """Run code in one fresh interpreter per env (variables added to this
    process's environment), all side by side with src/ on the path, and
    return each run's stdout."""
    src = str(Path(rwkvp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [subprocess.Popen([sys.executable, "-c", code], text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env={**os.environ, **env, "PYTHONPATH": path})
            for env in envs]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        outputs.append(out)
    return outputs


# a 40-step pretrain and a 40-step n=4 fine-tune at the README model shape
_DIGEST_RUN = """
import numpy as np
from rwkvp import model as m, synth, training
from rwkvp.corpus import train_val_split
train, val = train_val_split(np.frombuffer(synth.generate_corpus(0, 300), np.uint8).astype(np.int64))
cfg = m.ModelConfig(n_layers=2, d_model=48, context_length=64)
tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=2e-4, mini_epochs=1,
                          contexts_per_mini_epoch=80, context_length=64)
store, _, _ = training.pretrain_base(cfg, train, val, tc)
_, ft_store, _, _ = training.finetune_perspectives(store, cfg, 4, "weighted_softmax",
                                                   train, val, tc)
print(store.digest(), ft_store.digest())
"""


def test_trained_digests_do_not_depend_on_the_blas_thread_count():
    """Training is byte-for-byte the same at 1 and 2 OpenBLAS threads, each
    run in a fresh interpreter (the thread count is read at BLAS load)."""
    digests = [out.split() for out in _run_in_fresh_interpreters(
        _DIGEST_RUN, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"})]
    assert len(digests[0]) == 2 and digests[0] == digests[1]


# minor page faults of each step of a 24-step n=4 fine-tune at the README
# model shape, read from zero_grad (a step's first call) to the end of
# Adam.step (its last)
_FAULT_RUN = """
import resource
import numpy as np
from rwkvp import model as m, params, synth, training
from rwkvp.corpus import train_val_split

def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

starts, faults = [], []
zero_grad, adam_step = params.ParamStore.zero_grad, training.Adam.step

def counted_zero_grad(self):
    starts.append(minor_faults())
    zero_grad(self)

def counted_step(self, *args):
    adam_step(self, *args)
    faults.append(minor_faults() - starts[-1])

params.ParamStore.zero_grad, training.Adam.step = counted_zero_grad, counted_step
train, val = train_val_split(np.frombuffer(synth.generate_corpus(0, 300), np.uint8).astype(np.int64))
cfg = m.ModelConfig(n_layers=2, d_model=48, context_length=64)
base, _ = m.init_base_params(cfg, seed=0)
tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=2e-4, mini_epochs=1,
                          contexts_per_mini_epoch=48, context_length=64)
training.finetune_perspectives(base, cfg, 4, "weighted_softmax", train, val, tc)
print(*faults)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt (not glibc)")
def test_fine_tune_steps_after_the_first_take_no_page_faults():
    """The training loop keeps a step's freed memory mapped, so the steps
    after the first reuse it instead of faulting fresh pages in (about 2800
    a step under glibc's default trim and mmap thresholds). Run in a fresh
    interpreter: the allocator policy holds for the rest of a process."""
    (out,) = _run_in_fresh_interpreters(_FAULT_RUN, {})
    faults = [int(f) for f in out.split()]
    assert len(faults) == 24
    assert max(faults[1:]) <= 200, faults


# minor page faults of each chunk of a 32-chunk n=4 weighted_softmax
# perplexity at the README model shape, read as each chunk's forward starts
# and after the last chunk
_EVAL_FAULT_RUN = """
import resource
import numpy as np
from rwkvp import evaluation, model as m, perspectives, synth, tokenizer

def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

marks, forward = [], m.Model.forward

def counted_forward(self, *args):
    marks.append(minor_faults())
    return forward(self, *args)

m.Model.forward = counted_forward
cfg = m.ModelConfig(n_layers=2, d_model=48, context_length=64)
base, _ = m.init_base_params(cfg, seed=0)
model = m.Model(*perspectives.extend_to_perspectives(base, cfg, 4, "weighted_softmax"))
tokens = tokenizer.tokenize(synth.generate_corpus(0, 300))[:32 * 64]
evaluation.perplexity(model, tokens)
marks.append(minor_faults())
print(*np.diff(marks))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt (not glibc)")
def test_eval_chunks_after_the_first_take_no_page_faults():
    """A no-grad stream sets the training loop's allocator policy, so each
    chunk after the first reuses the memory the one before it freed (130-240
    faults a chunk under glibc's defaults). Run in a fresh interpreter: the
    policy holds for the rest of a process."""
    (out,) = _run_in_fresh_interpreters(_EVAL_FAULT_RUN, {})
    faults = [int(f) for f in out.split()]
    assert len(faults) == 32
    assert max(faults[1:]) <= 50, faults
