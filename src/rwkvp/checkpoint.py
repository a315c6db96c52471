"""Checkpoint file format: human-readable manifest + binary payload.

Layout:
    magic (10 bytes)  b"RWKVPv4MP\\0"
    u32 little-endian manifest byte length
    manifest: canonical JSON (sorted keys, no whitespace), holding the
        format version, the model config, the payload's SHA-256, the freeze
        mask and the seed lineage
    payload: contiguous little-endian float32 tensor data, the tensors
        sorted by name, each in its model.param_shapes(config) shape

The config fixes every tensor's name and shape, so the file holds no tensor
directory: save refuses a store that does not match the config's table, and
load slices the payload by that table. Tensors are written sorted by name,
so save -> load -> save is byte-identical and the format is platform
independent. Files of other versions are rejected, not converted. Format 4
holds each layer's time-mix r, k and v stacked (att.mu_rkv, att.w_rkv);
format 3 held them as six leaves, a payload of the same length, so only
the version tells the two apart.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from rwkvp.model import ConfigError, ModelConfig, param_count, param_shapes
from rwkvp.params import FreezeMask, ParamStore

MAGIC = b"RWKVPv4MP\x00"
FORMAT_VERSION = 4


class CheckpointError(ValueError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedPayloadError(CheckpointError):
    pass


def _check_store_matches(store: ParamStore, config: ModelConfig) -> None:
    """Raise CheckpointError unless the store holds param_shapes(config): the
    parameter count first, then each missing, extra or wrong-shape tensor."""
    have, need = store.total_size(), param_count(config)
    wrong = [] if have == need else [f"store holds {have} parameters, the config needs {need}"]
    expected, found = param_shapes(config), {name: t.shape for name, t in store.items()}
    wrong += [f"{name!r} {found.get(name, 'missing')}, expected {expected.get(name, 'none')}"
              for name in sorted(expected.keys() | found.keys())
              if found.get(name) != expected.get(name)]
    if wrong:
        raise CheckpointError(f"cannot save: tensors do not match the config: {'; '.join(wrong)}")


def _is_seed(seed) -> bool:
    """What save writes and load accepts in the seed lineage: a JSON integer >= 0."""
    return type(seed) is int and seed >= 0


def save_checkpoint(store: ParamStore, config: ModelConfig, mask: FreezeMask,
                    path, seeds=()) -> None:
    seeds = list(seeds)
    if not all(map(_is_seed, seeds)):
        raise CheckpointError(f"cannot save seeds {seeds!r}: each must be an int >= 0")
    _check_store_matches(store, config)
    names = sorted(store.names())
    blobs = []
    for name in names:
        if store[name].data.dtype != np.float32:
            # the payload is float32: writing another dtype would round it silently
            raise CheckpointError(f"cannot save {name!r}: dtype {store[name].data.dtype}, "
                                  "checkpoints hold float32 only")
        blobs.append(np.ascontiguousarray(store[name].data, dtype="<f4").tobytes())
    manifest = {
        "version": FORMAT_VERSION,
        "config": asdict(config),
        "payload_sha256": hashlib.sha256(b"".join(blobs)).hexdigest(),
        "freeze_mask": {n: bool(mask[n]) for n in names},
        "seeds": seeds,
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # renamed onto path once whole: a failed save leaves an earlier file there intact
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(mbytes)))
            f.write(mbytes)
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_MANIFEST_KEYS = ("config", "payload_sha256", "freeze_mask", "seeds")


def _check_manifest(path, manifest) -> None:
    """Raise CheckpointError unless the manifest has the shape save_checkpoint writes."""
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is a JSON {type(manifest).__name__}, "
                              "not an object")
    if manifest.get("version") != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format version {manifest.get('version')}, "
                                   f"expected {FORMAT_VERSION}")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise CheckpointError(f"{path}: manifest lacks {', '.join(missing)}")
    if not (isinstance(manifest["payload_sha256"], str)
            and isinstance(manifest["freeze_mask"], dict)
            and all(isinstance(flag, bool) for flag in manifest["freeze_mask"].values())
            and isinstance(manifest["seeds"], list)
            and all(map(_is_seed, manifest["seeds"]))):
        raise CheckpointError(f"{path}: manifest payload_sha256 must be a string, freeze_mask "
                              "an object of booleans and seeds a list of non-negative integers")


def load_checkpoint(path) -> tuple[ParamStore, ModelConfig, FreezeMask, list]:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e.strerror}") from None
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    mstart = len(MAGIC) + 4
    if len(raw) < mstart:
        raise TruncatedPayloadError(f"{path}: header truncated ({len(raw)} of {mstart} bytes)")
    (mlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    try:
        manifest = json.loads(raw[mstart:mstart + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable manifest: {e}") from None
    _check_manifest(path, manifest)
    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ConfigError) as e:
        raise CheckpointError(f"{path}: invalid model config: {e}") from None
    payload = raw[mstart + mlen:]
    need = 4 * param_count(config)
    if len(payload) < need:
        raise TruncatedPayloadError(f"{path}: payload holds {len(payload) // 4} parameters "
                                    f"({len(payload)} bytes), the config needs {need // 4} "
                                    f"({need} bytes)")
    if len(payload) > need:
        raise CheckpointError(f"{path}: {len(payload) - need} trailing bytes after the last tensor")
    if hashlib.sha256(payload).hexdigest() != manifest["payload_sha256"]:
        raise CheckpointError(f"{path}: payload does not match its SHA-256 (corrupted file)")
    shapes, mask = param_shapes(config), FreezeMask(manifest["freeze_mask"])
    if mask.keys() != shapes.keys():
        raise CheckpointError(f"{path}: freeze mask does not cover the config's tensors")
    store = ParamStore()
    offset = 0
    for name, shape in sorted(shapes.items()):
        size = math.prod(shape)
        data = np.frombuffer(payload, dtype="<f4", count=size, offset=offset).reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        store.add(name, data.copy(), requires_grad=mask[name])
        offset += 4 * size
    return store, config, mask, manifest["seeds"]
