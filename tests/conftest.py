import json
import struct

import numpy as np
import pytest

from rwkvp import checkpoint as ckpt
from rwkvp import corpus as corpus_mod
from rwkvp import model as m
from rwkvp import perspectives, synth, training


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


@pytest.fixture(scope="session")
def synth_tokens():
    data = synth.generate_corpus(0, 3000)
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


@pytest.fixture(scope="session")
def synth_split(synth_tokens):
    return corpus_mod.train_val_split(synth_tokens)


@pytest.fixture(scope="session")
def base_config():
    return m.ModelConfig(n_layers=2, d_model=48, vocab_size=257,
                         n_perspectives=1, context_length=64)


@pytest.fixture(scope="session")
def pretrained_base(base_config, synth_split):
    """A lightly pretrained tiny base, shared by training/eval/acceptance tests."""
    train_tokens, val_tokens = synth_split
    tc = training.TrainConfig(batch_size=2, lr_max=1e-3, lr_min=2e-4,
                              mini_epochs=2, contexts_per_mini_epoch=200,
                              context_length=base_config.context_length, seed=0)
    store, mask, log = training.pretrain_base(base_config, train_tokens,
                                              val_tokens, tc)
    return store, mask, log
