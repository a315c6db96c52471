"""Checkpoint file format: human-readable manifest + binary payload.

Layout:
    magic (10 bytes)  b"RWKVPv4MP\\0"
    u32 little-endian manifest byte length
    manifest: canonical JSON (sorted keys, no whitespace), holding the
        format version, the model config, the tensor directory
        (name/shape/offset/length into the payload), the payload's SHA-256,
        the freeze mask, and the seed lineage
    payload: contiguous little-endian float32 tensor data, directory order;
        each entry's offset is the end of the one before it

Tensors are written sorted by name, so save -> load -> save is
byte-identical and the format is platform independent. Version 2 holds
each token-shift slot as one (n, d) tensor, layer{l}.{att|ffn}.mu_{r,k,v};
files of other versions are rejected, not converted.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from rwkvp.model import (ConfigError, ModelConfig, base_param_count, extra_param_count,
                         init_base_params)
from rwkvp.params import FreezeMask, ParamStore
from rwkvp.perspectives import extend_to_perspectives

MAGIC = b"RWKVPv4MP\x00"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedPayloadError(CheckpointError):
    pass


def save_checkpoint(store: ParamStore, config: ModelConfig, mask: FreezeMask,
                    path, seeds=()) -> None:
    names = sorted(store.names())
    directory = []
    offset = 0
    blobs = []
    for name in names:
        if store[name].data.dtype != np.float32:
            # the payload is float32: writing another dtype would round it silently
            raise CheckpointError(f"cannot save {name!r}: dtype {store[name].data.dtype}, "
                                  "checkpoints hold float32 only")
        blob = np.ascontiguousarray(store[name].data, dtype="<f4").tobytes()
        directory.append({"name": name, "shape": list(store[name].shape),
                          "offset": offset, "length": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    manifest = {
        "version": FORMAT_VERSION,
        "config": config.to_dict(),
        "tensors": directory,
        "payload_sha256": hashlib.sha256(b"".join(blobs)).hexdigest(),
        "freeze_mask": {n: bool(mask[n]) for n in names},
        "seeds": list(seeds),
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


_MANIFEST_KEYS = ("config", "tensors", "freeze_mask", "payload_sha256")
_TENSOR_KEYS = ("name", "shape", "offset", "length")


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


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
    if not (isinstance(manifest["tensors"], list) and isinstance(manifest["freeze_mask"], dict)
            and isinstance(manifest.get("seeds", []), list)
            and isinstance(manifest["payload_sha256"], str)):
        raise CheckpointError(f"{path}: manifest tensors and seeds must be lists, "
                              "freeze_mask an object and payload_sha256 a string")
    for entry in manifest["tensors"]:
        if not (isinstance(entry, dict) and all(key in entry for key in _TENSOR_KEYS)
                and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
                and all(_is_count(n) for n in entry["shape"])
                and _is_count(entry["offset"]) and _is_count(entry["length"])):
            raise CheckpointError(f"{path}: malformed tensor entry {entry!r}; expected "
                                  f"{', '.join(_TENSOR_KEYS)}")


def _check_tensors_match_config(path, store: ParamStore, config: ModelConfig) -> None:
    """Raise CheckpointError unless the store holds the tensors, in the shapes,
    that the init path builds for config: a base, then its extension.

    The config's analytic parameter count is compared with the payload's first,
    and the init path runs only for a config at most 4x the payload, so a
    manifest cannot make the load allocate much more than the file holds.
    """
    have, need = store.total_size(), base_param_count(config) + extra_param_count(config)
    wrong = [] if have == need else [f"payload holds {have} parameters, the config needs {need}"]
    if need <= 4 * have:
        base_cfg = replace(config, n_perspectives=1, aggregation="average")
        _, built, _ = extend_to_perspectives(init_base_params(base_cfg, seed=0)[0], base_cfg,
                                             config.n_perspectives, config.aggregation)
        expected = {name: t.shape for name, t in built.items()}
        found = {name: t.shape for name, t in store.items()}
        wrong += [f"{name!r} {found.get(name, 'missing')}, expected {expected.get(name, 'none')}"
                  for name in sorted(expected.keys() | found.keys())
                  if found.get(name) != expected.get(name)]
    if wrong:
        raise CheckpointError(f"{path}: tensors do not match the config: {'; '.join(wrong)}")


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
    payload = raw[mstart + mlen:]
    store = ParamStore()
    seen = set()
    end = 0
    for entry in manifest["tensors"]:
        name, shape = entry["name"], tuple(entry["shape"])
        if name in seen:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        seen.add(name)
        if entry["offset"] != end:
            raise CheckpointError(f"{path}: tensor {name!r} at offset {entry['offset']}, "
                                  f"expected {end}, the end of the tensor before it")
        lo, hi = end, end + entry["length"]
        if hi > len(payload):
            raise TruncatedPayloadError(f"{path}: payload truncated at tensor {name!r} "
                                        f"(need {hi} bytes, have {len(payload)})")
        expected = int(np.prod(shape)) if shape else 1
        if entry["length"] != expected * 4:
            raise CheckpointError(f"{path}: tensor {name!r} length {entry['length']} "
                                  f"does not match shape {shape}")
        data = np.frombuffer(payload[lo:hi], dtype="<f4").reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        store.add(name, data.copy())
        end = hi
    if len(payload) != end:
        raise CheckpointError(f"{path}: {len(payload) - end} trailing bytes after the last tensor")
    if hashlib.sha256(payload).hexdigest() != manifest["payload_sha256"]:
        raise CheckpointError(f"{path}: payload does not match its SHA-256 (corrupted file)")
    try:
        config = ModelConfig.from_dict(manifest["config"])
    except (TypeError, ConfigError) as e:
        raise CheckpointError(f"{path}: invalid model config: {e}") from None
    _check_tensors_match_config(path, store, config)
    mask = FreezeMask({k: bool(v) for k, v in manifest["freeze_mask"].items()})
    if set(mask) != set(store.names()):
        raise CheckpointError(f"{path}: freeze mask does not cover tensor directory")
    store.apply_freeze(mask)
    return store, config, mask, list(manifest.get("seeds", []))
