"""Byte-level tokenizer: ids 0..255 are raw bytes, 256 is end-of-text."""

from __future__ import annotations

import numpy as np

EOT = 256
VOCAB_SIZE = 257


def tokenize(text: bytes | str) -> np.ndarray:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return np.frombuffer(text, dtype=np.uint8).astype(np.int64)
