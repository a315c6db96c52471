"""End-to-end acceptance suite.

Each test checks one numbered release criterion and prints a single
PASS/FAIL line directly to the terminal (bypassing capture), so the run
output doubles as the acceptance report.
"""

import math

import numpy as np
import pytest

from conftest import tiny_config
from rwkvp import autograd as ag
from rwkvp import checkpoint as ckpt
from rwkvp import evaluation, gradcheck, perspectives, training, wkv
from rwkvp import model as m
from rwkvp.autograd import Tensor


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_parameter_count_anchors(capsys):
    """Published anchors reproduced within +/- 0.02 percentage points."""
    anchors = [(12, 768, 1.6934e8, 0.08),
               (24, 1024, 4.3039e8, 0.09),
               (24, 2048, 1.5151e9, 0.04)]
    worst = 0.0
    for L, d, base_total, pct in anchors:
        cfg = m.ModelConfig(n_layers=L, d_model=d, vocab_size=50277,
                            n_perspectives=4, aggregation="weighted_softmax",
                            context_length=1024)
        report = evaluation.count_parameters(cfg, base_total=base_total)
        worst = max(worst, abs(report.increase_fraction - pct))
    _report(capsys, 1, worst <= 0.02,
            f"max anchor deviation {worst:.4f} pp (limit 0.02)")


def test_criterion_02_n1_reduction_bit_identical(capsys):
    """n=1 extended model matches the plain baseline bit-for-bit on 100
    random 64-token sequences."""
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, 1)
    model = m.Model(cfg, store, mask)
    rng = np.random.default_rng(0)
    identical = 0
    with ag.no_grad():
        for _ in range(100):
            tokens = rng.integers(0, cfg.vocab_size, 64)
            plain, _ = m.model_forward(base_cfg, base_store, tokens)
            multi, _, _ = model.forward(tokens)
            identical += int(np.array_equal(plain.data, multi.data))
    _report(capsys, 2, identical == 100,
            f"{identical}/100 sequences bit-identical")


def test_criterion_03_finite_difference_gradcheck(capsys):
    """Full-model analytic gradients vs central differences: L=2, d=8, n=3,
    T=5, epsilon=1e-5, float64; max relative error < 1e-4."""
    result = gradcheck.model_gradcheck(seed=0)
    _report(capsys, 3, result.max_rel_error < 1e-4,
            f"max rel error {result.max_rel_error:.3e} over "
            f"{result.coords_checked} coordinates (limit 1e-4)")


def test_criterion_04_freeze_invariant(capsys, synth_split):
    """After a 200-step fine-tune, frozen base bytes are unchanged while
    the temporal and selector parameters have moved."""
    train_tokens, val_tokens = synth_split
    base_cfg = m.ModelConfig(n_layers=2, d_model=16, vocab_size=257,
                             context_length=32)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4,
                              mini_epochs=1, contexts_per_mini_epoch=400,
                              context_length=32, seed=0)
    cfg, store, mask, log = training.finetune_perspectives(
        base_store, base_cfg, 2, "weighted_softmax", train_tokens,
        val_tokens[:300], tc)
    assert len(log.steps) == 200
    frozen_ok = store.digest(mask.frozen_names()) == base_store.digest(mask.frozen_names())
    selector_moved = not np.array_equal(store["selector.W"].data,
                                        np.zeros_like(store["selector.W"].data))
    mu_moved = any(
        not np.array_equal(store[name].data[i], base_store[name].data[0])
        for name in m.mu_names(base_cfg)
        for i in range(cfg.n_perspectives))
    ok = frozen_ok and selector_moved and mu_moved
    _report(capsys, 4, ok,
            f"200 steps: frozen bytes identical={frozen_ok}, "
            f"selector moved={selector_moved}, temporal moved={mu_moved}")


def test_criterion_05_wkv_chunking_and_extremes(capsys):
    """Sequential vs two-chunk WKV within 1e-5 on 100 random cases; outputs
    stay finite at k = +/-200."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        T, d = 16, 4
        k = rng.uniform(-1, 1, (T, d))
        v = rng.uniform(-1, 1, (T, d))
        w = rng.uniform(0.05, 2.0, d)
        u = rng.uniform(-1, 1, d)
        cut = int(rng.integers(1, T))
        with ag.no_grad():
            full, _ = wkv.wkv_sequence(Tensor(k), Tensor(v), Tensor(w), Tensor(u))
            y1, mid = wkv.wkv_sequence(Tensor(k[:cut]), Tensor(v[:cut]),
                                       Tensor(w), Tensor(u))
            y2, _ = wkv.wkv_sequence(Tensor(k[cut:]), Tensor(v[cut:]),
                                     Tensor(w), Tensor(u), state=mid)
        worst = max(worst, float(np.abs(full.data - np.vstack([y1.data, y2.data])).max()))
    finite = True
    for extreme in (-200.0, 200.0):
        k = rng.uniform(-1, 1, (8, 4))
        k[3] = extreme
        with ag.no_grad():
            y, _ = wkv.wkv_sequence(Tensor(k), Tensor(rng.uniform(-1, 1, (8, 4))),
                                    Tensor(np.full(4, 0.5)), Tensor(np.zeros(4)))
        finite = finite and bool(np.all(np.isfinite(y.data)))
    _report(capsys, 5, worst < 1e-5 and finite,
            f"max chunking deviation {worst:.2e} (limit 1e-5), "
            f"finite at k=+/-200: {finite}")


def test_criterion_06_trace_weight_properties(capsys):
    """Over a 1000-token trace: weights nonnegative, rows sum to 1 within
    1e-6; a zero selector yields exactly uniform weights."""
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, 4)
    model = m.Model(cfg, store, mask)
    tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, 1000)

    uniform_ok = np.array_equal(evaluation.trace_weights(model, tokens), np.full((1000, 4), 0.25))

    training.inject_selector_noise(store, 0.5, 0.0, seed=0)
    weights = evaluation.trace_weights(model, tokens)
    nonneg = bool(np.all(weights >= 0))
    sums_ok = bool(np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-6))
    ok = weights.shape == (1000, 4) and uniform_ok and nonneg and sums_ok
    _report(capsys, 6, ok,
            f"1000 positions: zero-selector exactly uniform={uniform_ok}, "
            f"nonnegative={nonneg}, sums within 1e-6={sums_ok}")


def test_criterion_07_finetune_beats_frozen_baseline(capsys, pretrained_base,
                                                     base_config, synth_split):
    """Mean validation perplexity of the fine-tuned n=4 softmax-weighted
    model over 3 seeds is at most 99% of the frozen baseline's."""
    base_store, base_mask, _ = pretrained_base
    train_tokens, val_tokens = synth_split
    baseline = evaluation.perplexity(m.Model(base_config, base_store, base_mask),
                                     val_tokens, chunk=64)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-2, lr_min=1e-3,
                              mini_epochs=2, contexts_per_mini_epoch=400,
                              context_length=64)
    finetuned = []
    for seed in (1, 2, 3):
        from dataclasses import replace
        _, _, _, log = training.finetune_perspectives(
            base_store, base_config, 4, "weighted_softmax",
            train_tokens, val_tokens, replace(tc, seed=seed))
        finetuned.append(log.val_ppl[-1][1])
    ratio = float(np.mean(finetuned)) / baseline
    _report(capsys, 7, ratio <= 0.99,
            f"baseline ppl {baseline:.4f}, finetuned mean "
            f"{np.mean(finetuned):.4f} over seeds (1,2,3), "
            f"ratio {ratio:.4f} (limit 0.99)")


def test_criterion_08_ablation_reports(capsys, synth_split):
    """All three ablation axes produce CSVs with mean +/- std over 3 seeds,
    full arm coverage, and byte-identical reruns."""
    train_tokens, val_tokens = synth_split
    base_cfg = m.ModelConfig(n_layers=1, d_model=16, vocab_size=257,
                             context_length=32)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=5e-4,
                              mini_epochs=1, contexts_per_mini_epoch=4,
                              context_length=32, seed=0)

    def run(axis):
        return evaluation.run_ablation(axis, base_cfg, base_store,
                                       train_tokens[:2000], val_tokens[:300],
                                       tc, seeds=(0, 1, 2), n_perspectives=4)

    expected_arms = {"n_perspectives": ["1", "2", "3", "4"],
                     "aggregation": ["average", "transformer_like",
                                     "weighted_softmax"],
                     "noise_placement": ["selector", "temporal"]}
    ok = True
    details = []
    for axis, arms in expected_arms.items():
        report = run(axis)
        arms_ok = [a.setting for a in report.arms] == arms
        stats_ok = all(len(a.values) == 3 and np.isfinite(a.mean)
                       and np.isfinite(a.stddev) and not a.failed
                       for a in report.arms)
        rerun_ok = report.to_csv() == run(axis).to_csv()
        ok = ok and arms_ok and stats_ok and rerun_ok
        details.append(f"{axis}: arms={arms_ok}, stats={stats_ok}, "
                       f"byte-identical rerun={rerun_ok}")
    _report(capsys, 8, ok, "; ".join(details))


def test_criterion_09_learning_rate_schedule(capsys):
    """lr(0) = 3e-5 and lr(T) = 1e-5 exactly; geometric midpoint
    sqrt(3)*1e-5 within 1e-9."""
    start = training.lr_schedule(0, 1000, 3e-5, 1e-5)
    end = training.lr_schedule(1000, 1000, 3e-5, 1e-5)
    mid = training.lr_schedule(500, 1000, 3e-5, 1e-5)
    ok = (start == 3e-5 and end == 1e-5
          and abs(mid - math.sqrt(3.0) * 1e-5) <= 1e-9)
    _report(capsys, 9, ok,
            f"lr(0)={start:.9g}, lr(T)={end:.9g}, "
            f"midpoint off by {abs(mid - math.sqrt(3.0) * 1e-5):.2e} (limit 1e-9)")


def test_criterion_10_checkpoint_round_trip(capsys, tmp_path):
    """save -> load -> save is byte-identical and the reloaded model emits
    bit-identical logits."""
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, 3)
    training.inject_selector_noise(store, 0.01, 0.0, seed=0)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, p1, seeds=[0])
    store2, cfg2, mask2, seeds = ckpt.load_checkpoint(p1)
    ckpt.save_checkpoint(store2, cfg2, mask2, p2, seeds=seeds)
    bytes_ok = p1.read_bytes() == p2.read_bytes()
    tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, 32)
    with ag.no_grad():
        a, _, _ = m.Model(cfg, store, mask).forward(tokens)
        b, _, _ = m.Model(cfg2, store2, mask2).forward(tokens)
    logits_ok = np.array_equal(a.data, b.data)
    _report(capsys, 10, bytes_ok and logits_ok,
            f"files byte-identical={bytes_ok}, logits bit-identical={logits_ok}")
