import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from rwkvp import checkpoint as ckpt
from rwkvp import corpus as corpus_mod
from rwkvp import model as m
from rwkvp import evaluation, gradcheck, perspectives, synth, training


def tiny_config(**kw):
    base = dict(n_layers=2, d_model=16, vocab_size=17, n_perspectives=1,
                context_length=16)
    base.update(kw)
    return m.ModelConfig(**base)


def batch_loss(cfg, store, mask, batch=2):
    """A training step's loss graph (training._batch_loss) over one
    (T+1, batch) window of seeded random tokens."""
    tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, (cfg.context_length + 1, batch))
    return training._batch_loss(m.Model(cfg, store, mask), tokens)


def rewrite_manifest(path, edit):
    """Rewrite the checkpoint at path with edit(manifest dict) applied, payload kept."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    start = len(ckpt.MAGIC) + 4
    manifest = json.loads(raw[start:start + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:len(ckpt.MAGIC)] + struct.pack("<I", len(mbytes)) + mbytes
                     + raw[start + mlen:])


def forbid_model_builds(monkeypatch):
    """Make both init functions raise wherever a module binds them, so a
    checkpoint load that builds a model fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint built a model")

    for module in (m, perspectives, ckpt):
        for name in ("init_base_params", "extend_to_perspectives"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def corpus_split():
    """The shared synthetic corpus, split 90/10 into train and validation tokens."""
    data = synth.generate_corpus(0, 3000)
    return corpus_mod.train_val_split(np.frombuffer(data, dtype=np.uint8).astype(np.int64))


def readme_config():
    """The README model: a base (n=1, the average head)."""
    return m.ModelConfig(n_layers=2, d_model=48, vocab_size=257,
                         n_perspectives=1, context_length=64)


def pretrain_shared_base(cfg, split):
    """A lightly pretrained tiny base: 200 steps of the README model."""
    train_tokens, val_tokens = split
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=2e-4,
                              mini_epochs=2, contexts_per_mini_epoch=200,
                              context_length=cfg.context_length, seed=0)
    return training.pretrain_base(cfg, train_tokens, val_tokens, tc)


def finetune_win(cfg, base, split):
    """Criterion 7's runs: the frozen base's validation perplexity and, at
    seeds 1, 2 and 3, the n=4 weighted_softmax fine-tune's."""
    base_store, base_mask, _ = base
    train_tokens, val_tokens = split
    baseline = evaluation.perplexity(m.Model(cfg, base_store, base_mask), val_tokens, chunk=64)
    tc = training.TrainConfig(batch_size=2, lr_max=1e-2, lr_min=1e-3,
                              mini_epochs=2, contexts_per_mini_epoch=400,
                              context_length=64)
    finetuned = []
    for seed in (1, 2, 3):
        _, _, _, log = training.finetune_perspectives(
            base_store, cfg, 4, "weighted_softmax", train_tokens, val_tokens,
            replace(tc, seed=seed))
        finetuned.append(log.val_ppl[-1][1])
    return baseline, finetuned


@pytest.fixture(scope="session")
def synth_split():
    return corpus_split()


@pytest.fixture(scope="session")
def base_config():
    return readme_config()


@pytest.fixture(scope="session")
def pretrained_base(base_config, synth_split):
    """A lightly pretrained tiny base, shared by training/eval/acceptance tests."""
    return pretrain_shared_base(base_config, synth_split)


@pytest.fixture(scope="session")
def criterion_03():
    """Criterion 3's finite-difference gradcheck, shared with the golden record."""
    return gradcheck.model_gradcheck(seed=0)


@pytest.fixture(scope="session")
def criterion_07(base_config, pretrained_base, synth_split):
    """Criterion 7's (baseline, fine-tuned perplexities), shared with the golden record."""
    return finetune_win(base_config, pretrained_base, synth_split)
