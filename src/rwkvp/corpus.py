"""Corpus loading and seeded context sampling.

All randomness flows from explicit integer seeds through numpy's PCG64
generator; there is no ambient entropy anywhere in the package.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from rwkvp import tokenizer


class CorpusError(ValueError):
    pass


def check_token_range(tokens: np.ndarray, vocab_size: int) -> None:
    """Raise CorpusError unless tokens is a non-empty integer array and every id
    lies in [0, vocab_size)."""
    # by kind, signed or unsigned: numpy ranks timedelta64 under np.integer
    if tokens.dtype.kind not in "iu":
        raise CorpusError(f"token ids must be integers, got dtype {tokens.dtype}")
    if tokens.size == 0:
        raise CorpusError(f"empty token array {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= vocab_size:
        raise CorpusError(f"token ids must lie in [0, {vocab_size}) for vocab_size="
                          f"{vocab_size}, got ids {int(tokens.min())}..{int(tokens.max())}")


def load_corpus(path) -> np.ndarray:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CorpusError(f"cannot read corpus file {path}: {e.strerror}") from None
    if not data:
        raise CorpusError(f"corpus file {path} is empty")
    return tokenizer.tokenize(data)


def train_val_split(tokens: np.ndarray, val_fraction: float = 0.1):
    cut = int(len(tokens) * (1.0 - val_fraction))
    return tokens[:cut], tokens[cut:]


def sample_contexts(tokens: np.ndarray, context_length: int, count: int, seed: int):
    """Yield `count` uniformly sampled windows of exactly context_length tokens."""
    n_starts = len(tokens) - context_length + 1
    if n_starts < 1:
        raise CorpusError(f"corpus ({len(tokens)} tokens) shorter than "
                          f"context_length ({context_length})")
    rng = np.random.default_rng(seed)
    for start in rng.integers(0, n_starts, size=count):
        yield tokens[start:start + context_length]

