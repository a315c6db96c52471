"""Byte-level tokenizer: ids 0..255 are raw bytes. VOCAB_SIZE keeps one more id,
256, that no text maps to: the vocabulary's size fixes every init draw.

`tokenize` returns the text's bytes as a uint8 array that owns its memory, one
byte an id rather than an int64's eight; the model, the loss and every reader
of token ids take any integer dtype."""

from __future__ import annotations

import numpy as np

VOCAB_SIZE = 257


def tokenize(text: bytes | str) -> np.ndarray:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return np.frombuffer(text, dtype=np.uint8).copy()
