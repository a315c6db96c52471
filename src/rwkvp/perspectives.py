"""n parallel temporal views sharing all projection/decay weights.

Each perspective owns only its token-shift coefficients (five d-vectors per
layer) and its recurrent state; everything heavy is referenced from the
shared store. The streams never mix before the aggregation head, so they run
as one stacked pass (see rwkvp.model): activations (n, [B,] T, d), state
arrays (n, [B,] d) per layer, perspective i at index i of the leading axis.
"""

from __future__ import annotations

import numpy as np

from rwkvp import model as m
from rwkvp.autograd import Tensor
from rwkvp.params import FreezeMask, ParamStore


def init_perspectives(store: ParamStore, cfg_base: m.ModelConfig, n: int) -> None:
    """Replicate the base mu vectors into perspectives 1..n-1, in place.

    Every copy starts bitwise equal to the base (perspective 0); the noise
    that differentiates training goes elsewhere (see rwkvp.training).
    """
    if n < 1:
        raise m.ConfigError(f"n_perspectives must be >= 1, got {n}")
    for base_name in m.mu_names(cfg_base, persp=0):
        stem = base_name[:-len(".p0")]
        for i in range(1, n):
            name = f"{stem}.p{i}"
            if name not in store:
                src = store[base_name].data
                store.add(name, src.copy(), dtype=src.dtype)


def extend_to_perspectives(base_store: ParamStore, base_cfg: m.ModelConfig,
                           n: int, aggregation: str = "weighted_softmax"
                           ) -> tuple[m.ModelConfig, ParamStore, FreezeMask]:
    """Build the fine-tuning model from a trained base.

    Copies the store, replicates temporal components n-fold, adds the
    aggregation parameters at an identity-to-base initialization, and
    returns a freeze mask that leaves only the temporal components and the
    aggregator trainable.
    """
    cfg = m.ModelConfig(n_layers=base_cfg.n_layers, d_model=base_cfg.d_model,
                        vocab_size=base_cfg.vocab_size, n_perspectives=n,
                        aggregation=aggregation,
                        context_length=base_cfg.context_length)
    store = base_store.copy()
    init_perspectives(store, base_cfg, n)
    d = cfg.d_model
    dtype = store["emb.weight"].data.dtype
    if aggregation == "weighted_softmax":
        # zero selector => uniform weights => output identical to the base
        store.add("selector.W", np.zeros((n, d)), dtype=dtype)
        store.add("selector.b", np.zeros(n), dtype=dtype)
    elif aggregation == "transformer_like":
        # stacked identities / n => plain average => identical to the base
        store.add("agghead.W", np.vstack([np.eye(d)] * n) / n, dtype=dtype)
        store.add("agghead.b", np.zeros(d), dtype=dtype)

    mask = FreezeMask({name: (m.is_temporal(name) or m.is_aggregator(name))
                       for name in store.names()})
    store.apply_freeze(mask)
    return cfg, store, mask


def multi_forward(cfg: m.ModelConfig, store: ParamStore, tokens: np.ndarray,
                  states=None) -> tuple[Tensor, list]:
    """Run all n perspective streams over tokens (T,) or (B, T) in one pass.

    Returns (p (n, [B,] T, d), new states: one StreamState per layer).
    """
    return m.run_stream(cfg, store, tokens, states)
