import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from rwkvp import autograd as ag
from rwkvp import checkpoint as ckpt
from rwkvp import corpus as corpus_mod
from rwkvp import model as m
from rwkvp import synth, tokenizer


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_ascii_example():
    np.testing.assert_array_equal(tokenizer.tokenize("ab"), [97, 98])


def test_tokenize_bytes_and_str_agree():
    assert np.array_equal(tokenizer.tokenize("hello"), tokenizer.tokenize(b"hello"))


@given(st.binary(max_size=500))
@settings(max_examples=100, deadline=None)
def test_tokenizer_roundtrip_bytes(data):
    tokens = tokenizer.tokenize(data)
    assert tokens.dtype == np.int64
    assert np.all(tokens >= 0) and np.all(tokens < tokenizer.EOT)
    assert tokenizer.detokenize(tokens) == data


def test_detokenize_drops_end_of_text():
    assert tokenizer.detokenize([97, tokenizer.EOT, 98]) == b"ab"


def test_vocab_constants():
    assert tokenizer.VOCAB_SIZE == 257
    assert tokenizer.EOT == 256


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_corpus_schema():
    data = synth.generate_corpus(0, 200).decode("ascii")
    lines = data.strip().split("\n")
    assert len(lines) == 200
    reused = 0
    prev_key = None
    for line in lines:
        head, tail = line.split("=")
        key, filler = head.split(":")
        assert 3 <= len(key) <= 6 and set(key) <= set(synth.KEY_ALPHABET)
        assert 4 <= len(filler) <= 20 and set(filler) <= set(synth.FILLER_ALPHABET)
        assert tail == key + ";"
        reused += int(key == prev_key)
        prev_key = key
    assert 20 <= reused <= 85      # ~25% reuse over 199 opportunities


def test_synth_corpus_deterministic():
    assert synth.generate_corpus(7, 50) == synth.generate_corpus(7, 50)
    assert synth.generate_corpus(7, 50) != synth.generate_corpus(8, 50)


def test_write_corpus_and_load(tmp_path):
    path = tmp_path / "c.txt"
    synth.write_corpus(path, seed=1, n_records=20)
    tokens = corpus_mod.load_corpus(path)
    assert tokenizer.detokenize(tokens) == synth.generate_corpus(1, 20)


# ---------------------------------------------------------------------------
# corpus sampling


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    with pytest.raises(corpus_mod.CorpusError):
        corpus_mod.load_corpus(path)


def test_train_val_split_fractions():
    tokens = np.arange(100)
    train, val = corpus_mod.train_val_split(tokens)
    assert len(train) == 90 and len(val) == 10
    np.testing.assert_array_equal(np.concatenate([train, val]), tokens)


def test_sample_contexts_deterministic():
    tokens = np.arange(200)
    a = list(corpus_mod.sample_contexts(tokens, 16, 10, seed=3))
    b = list(corpus_mod.sample_contexts(tokens, 16, 10, seed=3))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = list(corpus_mod.sample_contexts(tokens, 16, 10, seed=4))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_sample_contexts_windows_are_contiguous():
    tokens = np.arange(500)
    for ctx in corpus_mod.sample_contexts(tokens, 32, 50, seed=0):
        assert len(ctx) == 32
        assert np.array_equal(ctx, np.arange(ctx[0], ctx[0] + 32))


def test_sample_contexts_single_window_corpus():
    tokens = np.arange(8)
    windows = list(corpus_mod.sample_contexts(tokens, 8, 5, seed=0))
    assert all(np.array_equal(w, tokens) for w in windows)


def test_sample_contexts_corpus_too_short():
    with pytest.raises(corpus_mod.CorpusError):
        list(corpus_mod.sample_contexts(np.arange(4), 8, 1, seed=0))


# ---------------------------------------------------------------------------
# checkpoints


def _small_model(seed=0):
    cfg = tiny_config()
    store, mask = m.init_base_params(cfg, seed=seed)
    return cfg, store, mask


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    cfg, store, mask = _small_model()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, p1, seeds=[0, 5])
    store2, cfg2, mask2, seeds = ckpt.load_checkpoint(p1)
    assert cfg2 == cfg and dict(mask2) == dict(mask) and seeds == [0, 5]
    ckpt.save_checkpoint(store2, cfg2, mask2, p2, seeds=seeds)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_logits_bit_identical(tmp_path):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    store2, cfg2, mask2, _ = ckpt.load_checkpoint(path)
    tokens = np.arange(10) % cfg.vocab_size
    with ag.no_grad():
        a, _ = m.model_forward(cfg, store, tokens)
        b, _ = m.model_forward(cfg2, store2, tokens)
    assert np.array_equal(a.data, b.data)


def test_checkpoint_magic_and_version(tmp_path):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    raw = path.read_bytes()
    assert raw.startswith(ckpt.MAGIC)

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT" + raw[8:])
    with pytest.raises(ckpt.CheckpointError, match="magic"):
        ckpt.load_checkpoint(bad)

    # bump the version inside the manifest
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    start = len(ckpt.MAGIC) + 4
    current = f'"version":{ckpt.FORMAT_VERSION}'.encode()
    assert current in raw[start:start + mlen]
    manifest = raw[start:start + mlen].replace(current, b'"version":99')
    versioned = tmp_path / "v.ckpt"
    versioned.write_bytes(raw[:len(ckpt.MAGIC)] + struct.pack("<I", len(manifest))
                          + manifest + raw[start + mlen:])
    with pytest.raises(ckpt.VersionMismatchError):
        ckpt.load_checkpoint(versioned)


def _rewrite_manifest(path, edit):
    """Rewrite the checkpoint at path with edit(manifest dict) applied, payload kept."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    start = len(ckpt.MAGIC) + 4
    manifest = json.loads(raw[start:start + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:len(ckpt.MAGIC)] + struct.pack("<I", len(mbytes)) + mbytes
                     + raw[start + mlen:])


def test_checkpoint_manifest_records_payload_sha256(tmp_path):
    import hashlib
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    start = len(ckpt.MAGIC) + 4
    manifest = json.loads(raw[start:start + mlen])
    assert manifest["version"] == ckpt.FORMAT_VERSION == 2
    assert manifest["payload_sha256"] == hashlib.sha256(raw[start + mlen:]).hexdigest()


@pytest.mark.parametrize("where", [0, 1000, -1], ids=["first", "middle", "last"])
def test_checkpoint_rejects_flipped_payload_byte(tmp_path, where):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    raw = bytearray(path.read_bytes())
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    payload_start = len(ckpt.MAGIC) + 4 + mlen
    pos = payload_start + where if where >= 0 else len(raw) + where
    # the low mantissa bit of a little-endian float32 on a 4-byte boundary
    # (where=-1 hits a high byte; the flip keeps every weight finite either way)
    raw[pos] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ckpt.CheckpointError, match="SHA-256"):
        ckpt.load_checkpoint(path)


def test_checkpoint_rejects_version_1_file(tmp_path):
    """A v1 file (per-perspective mu names, no payload hash) is refused, not converted."""
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)

    def to_v1(manifest):
        manifest["version"] = 1
        del manifest["payload_sha256"]
        for entry in manifest["tensors"]:
            if ".mu_" in entry["name"]:
                entry["name"] += ".p0"
        manifest["freeze_mask"] = {(k + ".p0" if ".mu_" in k else k): v
                                   for k, v in manifest["freeze_mask"].items()}

    _rewrite_manifest(path, to_v1)
    with pytest.raises(ckpt.VersionMismatchError, match="version 1"):
        ckpt.load_checkpoint(path)


def test_checkpoint_truncation_names_tensor(tmp_path):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[:-40])
    with pytest.raises(ckpt.TruncatedPayloadError) as err:
        ckpt.load_checkpoint(cut)
    # the error names the tensor whose payload is missing (sorted-last name)
    assert sorted(store.names())[-1] in str(err.value)


def test_checkpoint_rejects_garbage_manifest(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", 5) + b"{{{{{")
    with pytest.raises(ckpt.CheckpointError, match="manifest"):
        ckpt.load_checkpoint(path)


def test_checkpoint_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(ckpt.MAGIC + b"\x01")
    with pytest.raises(ckpt.TruncatedPayloadError, match="header"):
        ckpt.load_checkpoint(path)


def test_checkpoint_rejects_unknown_config_key(tmp_path):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    _rewrite_manifest(path, lambda manifest: manifest["config"].update(no_such_field=1))
    with pytest.raises(ckpt.CheckpointError, match="config"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("field,value", [("n_layers", True), ("d_model", 16.0),
                                         ("n_layers", 0)])
def test_checkpoint_rejects_invalid_config_value(tmp_path, field, value):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    _rewrite_manifest(path, lambda manifest: manifest["config"].update({field: value}))
    with pytest.raises(ckpt.CheckpointError, match=f"config.*{field}"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_weights(tmp_path, value):
    cfg, store, mask = _small_model()
    store["emb.weight"].data[0, 0] = value
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    with pytest.raises(ckpt.CheckpointError, match="'emb.weight'.*non-finite"):
        ckpt.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ckpt.CheckpointError, match="7 trailing bytes"):
        ckpt.load_checkpoint(path)


def test_failed_save_leaves_previous_checkpoint_whole(tmp_path, monkeypatch):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(ckpt.struct, "pack", fail)   # fails after the magic is written
    other, _ = m.init_base_params(cfg, seed=1)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save_checkpoint(other, cfg, mask, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]    # no temp file left
    assert ckpt.load_checkpoint(path)[0].digest() == store.digest()


def test_checkpoint_preserves_freeze_partition(tmp_path):
    from rwkvp import perspectives
    base_cfg = tiny_config()
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, 3)
    path = tmp_path / "ft.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    store2, cfg2, mask2, _ = ckpt.load_checkpoint(path)
    assert cfg2.n_perspectives == 3
    assert sorted(mask2.trainable_names()) == sorted(mask.trainable_names())
    for name in mask2.frozen_names():
        assert not store2[name].requires_grad
