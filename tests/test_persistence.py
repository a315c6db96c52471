import functools
import json
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import forbid_model_builds, rewrite_manifest, tiny_config
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
    assert tokens.dtype == np.uint8
    assert tokens.flags.writeable and tokens.flags.owndata
    assert np.all(tokens >= 0) and np.all(tokens < 256)
    assert tokens.astype(np.uint8).tobytes() == data


def test_vocab_constants():
    # ids 0..255 are the bytes; 256 is a reserved id that no text maps to
    assert tokenizer.VOCAB_SIZE == 257


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
    assert tokens.astype(np.uint8).tobytes() == synth.generate_corpus(1, 20)


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


def test_checkpoint_refuses_non_float32_store(tmp_path):
    """A float64 store is refused, not rounded to float32, and no file is left."""
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    with pytest.raises(ckpt.CheckpointError, match="float64"):
        ckpt.save_checkpoint(store.astype(np.float64), cfg, mask, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [-1, True, np.int64(3)], ids=["negative", "bool", "int64"])
def test_checkpoint_refuses_seeds_load_would_reject(tmp_path, seed):
    """save checks seeds as load does (an int >= 0): a bad one is a
    CheckpointError before anything is written, not a file load refuses."""
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    with pytest.raises(ckpt.CheckpointError, match="seeds"):
        ckpt.save_checkpoint(store, cfg, mask, path, seeds=[0, seed])
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_logits_bit_identical(tmp_path):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    store2, cfg2, mask2, _ = ckpt.load_checkpoint(path)
    tokens = np.arange(10) % cfg.vocab_size
    with ag.no_grad():
        a, _, _ = m.Model(cfg, store, mask).forward(tokens)
        b, _, _ = m.Model(cfg2, store2, mask2).forward(tokens)
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


def test_checkpoint_manifest_records_payload_sha256(tmp_path):
    import hashlib
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    start = len(ckpt.MAGIC) + 4
    manifest = json.loads(raw[start:start + mlen])
    assert manifest["version"] == ckpt.FORMAT_VERSION == 4
    # the config fixes every tensor's name and shape: no directory is stored
    assert manifest.keys() == {"version", "config", "payload_sha256", "freeze_mask", "seeds"}
    assert manifest["payload_sha256"] == hashlib.sha256(raw[start + mlen:]).hexdigest()


def test_checkpoint_payload_bytes_are_pinned(tmp_path):
    """The payload is the tensors sorted by name, float32 little-endian, in
    their param_shapes shapes: the bytes format 4 writes, pinned by hash."""
    import hashlib
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    payload = raw[len(ckpt.MAGIC) + 4 + mlen:]
    assert len(payload) == 4 * store.total_size()
    assert hashlib.sha256(payload).hexdigest() == (
        "a1cf1ca9d4c6437f70cc883579c43a02fc66beb39618a3e798a7676beba1f6cd")


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
        manifest["freeze_mask"] = {(k + ".p0" if ".mu_" in k else k): v
                                   for k, v in manifest["freeze_mask"].items()}

    rewrite_manifest(path, to_v1)
    with pytest.raises(ckpt.VersionMismatchError, match="version 1"):
        ckpt.load_checkpoint(path)


def test_checkpoint_rejects_version_2_file(tmp_path):
    """A v2 file (the same payload behind a tensor directory) is refused, not converted."""
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)

    def to_v2(manifest):
        manifest["version"] = 2
        manifest["tensors"] = [{"name": name, "shape": list(store[name].shape)}
                               for name in sorted(store.names())]

    rewrite_manifest(path, to_v2)
    with pytest.raises(ckpt.VersionMismatchError, match="version 2"):
        ckpt.load_checkpoint(path)


# the init payload of _small_model as format 3 wrote it (its old pin)
FORMAT_3_PAYLOAD_SHA256 = "83f86e560461be3967ba9feb960d6ba1939cf374dcc5bdead24f8641ff4aca17"


def test_checkpoint_rejects_version_3_file(tmp_path):
    """A format-3 file holds att.mu_r/mu_k/mu_v and att.w_r/w_k/w_v as leaves
    of their own. Its payload has format 4's length and a valid SHA-256, so
    only the version tells the layouts apart: the file is refused by it,
    before its payload is sliced by the new names."""
    import hashlib
    from dataclasses import asdict
    cfg, store, mask = _small_model()
    leaves, flags = {}, {}
    for name, t in store.items():
        slots = zip("rkv", t.data) if name.endswith("_rkv") else [("", t.data)]
        for suffix, data in slots:
            key = name[:-3] + suffix if suffix else name
            leaves[key], flags[key] = data, mask[name]
    payload = b"".join(np.ascontiguousarray(leaves[n], dtype="<f4").tobytes()
                       for n in sorted(leaves))
    assert len(payload) == 4 * m.param_count(cfg)
    assert hashlib.sha256(payload).hexdigest() == FORMAT_3_PAYLOAD_SHA256
    manifest = json.dumps({"version": 3, "config": asdict(cfg),
                           "payload_sha256": hashlib.sha256(payload).hexdigest(),
                           "freeze_mask": flags, "seeds": [0]},
                          sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "v3.ckpt"
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(manifest)) + manifest + payload)
    with pytest.raises(ckpt.VersionMismatchError, match="version 3, expected 4"):
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
    # the error gives the bytes the payload holds and the bytes the config needs
    need = 4 * store.total_size()
    assert f"({need - 40} bytes), the config needs {need // 4} ({need} bytes)" in str(err.value)


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
    rewrite_manifest(path, lambda manifest: manifest["config"].update(no_such_field=1))
    with pytest.raises(ckpt.CheckpointError, match="config"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("field,value", [("n_layers", True), ("d_model", 16.0),
                                         ("n_layers", 0)])
def test_checkpoint_rejects_invalid_config_value(tmp_path, field, value):
    cfg, store, mask = _small_model()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    rewrite_manifest(path, lambda manifest: manifest["config"].update({field: value}))
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


@pytest.mark.parametrize("field,value", [("d_model", 1_000_000), ("n_layers", 1_000_000_000)])
def test_checkpoint_config_larger_than_payload_builds_nothing(tmp_path, monkeypatch,
                                                             field, value):
    """A manifest config far larger than its payload is refused on the
    closed-form count, before anything the size of that config is allocated."""
    cfg = m.ModelConfig(n_layers=2, d_model=48, vocab_size=257, context_length=64)
    store, mask = m.init_base_params(cfg, seed=0)
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    rewrite_manifest(path, lambda manifest: manifest["config"].update({field: value}))
    forbid_model_builds(monkeypatch)
    with pytest.raises(ckpt.TruncatedPayloadError, match="payload holds 85824 parameters"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("n,aggregation", [(1, "average"), (3, "weighted_softmax"),
                                           (2, "transformer_like")])
def test_checkpoint_load_builds_no_model(tmp_path, monkeypatch, n, aggregation):
    """Load slices the payload by param_shapes(config): with both init
    functions raising, a base and each kind of extension still load whole."""
    from rwkvp import perspectives
    cfg, store, mask = _small_model()
    if n > 1:
        cfg, store, mask = perspectives.extend_to_perspectives(store, cfg, n, aggregation)
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    forbid_model_builds(monkeypatch)
    store2, cfg2, mask2, _ = ckpt.load_checkpoint(path)
    assert cfg2 == cfg and dict(mask2) == dict(mask) and store2.digest() == store.digest()


@pytest.mark.parametrize("edit,named", [
    (lambda mf: mf["freeze_mask"].update({"emb.weight": "false"}), "freeze_mask"),
    (lambda mf: mf["freeze_mask"].update({"emb.weight": 0}), "freeze_mask"),
    (lambda mf: mf.update(seeds=["x", None]), "seeds"),
    (lambda mf: mf.update(seeds=[-1]), "seeds"),
    (lambda mf: mf.update(seeds=[True]), "seeds"),
    (lambda mf: mf.update(seeds={"0": 0}), "seeds"),
], ids=["mask-string", "mask-int", "seeds-not-ints", "seed-negative", "seed-bool",
        "seeds-object"])
def test_checkpoint_rejects_manifest_value_types(tmp_path, edit, named):
    """Freeze-mask values must be JSON booleans and seeds non-negative
    integers: the string "false" would otherwise load a frozen leaf as trainable."""
    from rwkvp import perspectives
    base_cfg, base, _ = _small_model()
    cfg, store, mask = perspectives.extend_to_perspectives(base, base_cfg, 2)
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path, seeds=[0])
    rewrite_manifest(path, edit)
    with pytest.raises(ckpt.CheckpointError, match=named):
        ckpt.load_checkpoint(path)


@functools.cache
def _mutation_target():
    """A small fine-tuned checkpoint's bytes, what it loads to, and where the
    digits of its manifest are."""
    from rwkvp import perspectives
    base_cfg = m.ModelConfig(n_layers=1, d_model=4, vocab_size=5, context_length=4)
    base, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base, base_cfg, 2,
                                                           "weighted_softmax")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        ckpt.save_checkpoint(store, cfg, mask, path, seeds=[0])
        raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    start = len(ckpt.MAGIC) + 4
    digits = [i for i in range(start, start + mlen) if raw[i:i + 1].isdigit()]
    return raw, store.digest(), dict(mask), cfg, digits


_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2 ** 20), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 20), st.just(0)),
    st.tuples(st.just("digit"), st.integers(0, 2 ** 20), st.integers(1, 9)),
)


@given(_MUTATIONS)
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_checkpoint_is_refused_or_loads_unchanged(tmp_path, mutation):
    """A byte flip or a truncation anywhere, or a digit edit in the manifest,
    either raises CheckpointError or loads the original weights and freeze
    mask under the original config, up to its context length."""
    raw, digest, mask, cfg, digits = _mutation_target()
    kind, where, how = mutation
    data = bytearray(raw)
    if kind == "flip":
        data[where % len(data)] ^= 1 << how
    elif kind == "truncate":
        del data[where % len(data):]
    else:
        pos = digits[where % len(digits)]
        data[pos] = ord("0") + (data[pos] - ord("0") + how) % 10
    path = tmp_path / "mutated.ckpt"
    path.write_bytes(bytes(data))
    try:
        store2, cfg2, mask2, _ = ckpt.load_checkpoint(path)
    except ckpt.CheckpointError:
        return
    assert store2.digest() == digest and dict(mask2) == mask
    assert replace(cfg2, context_length=cfg.context_length) == cfg
