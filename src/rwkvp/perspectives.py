"""n parallel temporal views sharing all projection/decay weights.

Each perspective owns only its token-shift coefficients (row i of the five
(n, d) mu leaves of every layer, e.g. store["layer0.att.mu_k"].data[i]) and
its recurrent state; everything heavy is shared. The streams never mix before
the aggregation head, so they run as one stacked, time-major pass (see
rwkvp.model): activations (T, [B,] n, d), state arrays ([B,] n, d) per
layer, perspective i at index i of the axis before d.
"""

from __future__ import annotations

import numpy as np

from rwkvp import model as m
from rwkvp.autograd import Tensor
from rwkvp.params import FreezeMask, ParamStore


def extend_to_perspectives(base_store: ParamStore, base_cfg: m.ModelConfig,
                           n: int, aggregation: str = "weighted_softmax"
                           ) -> tuple[m.ModelConfig, ParamStore, FreezeMask]:
    """Build the fine-tuning model from a trained base.

    Copies the store with each mu leaf's one row repeated n times (every
    perspective starts bitwise equal to the base; the noise that
    differentiates training goes elsewhere, see rwkvp.training), adds the
    aggregation parameters at an identity-to-base initialization, and
    returns a freeze mask that leaves only the mu leaves and the aggregator
    trainable.
    """
    if base_cfg.n_perspectives != 1:
        raise m.ConfigError(f"extension starts from a base with n_perspectives=1, "
                            f"got {base_cfg.n_perspectives}")
    cfg = m.ModelConfig(n_layers=base_cfg.n_layers, d_model=base_cfg.d_model,
                        vocab_size=base_cfg.vocab_size, n_perspectives=n,
                        aggregation=aggregation,
                        context_length=base_cfg.context_length)
    store = ParamStore()
    for name, t in base_store.items():
        store.add(name, np.repeat(t.data, n, axis=0) if m.is_temporal(name) else t.data.copy(),
                  dtype=t.data.dtype)
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

    Returns (p (T, [B,] n, d), new states: one StreamState per layer).
    """
    return m.run_stream(cfg, store, tokens, states)
