"""n parallel temporal views sharing all projection/decay weights.

Each perspective owns only its token-shift coefficients (row i, on the axis
before d, of every layer's mu leaves: att.mu_rkv (3, n, d) and ffn.mu_r,
ffn.mu_k (n, d); store["layer0.att.mu_rkv"].data[1, i] is its key's) and
its recurrent state; everything heavy is shared. The streams never mix before
the aggregation head, so they run as one stacked, time-major pass (see
rwkvp.model): tokens (T, [B]), activations (T, [B,] n, d), the state array
(L, 5, [B,] n, d), perspective i at index i of the axis before d.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from rwkvp import model as m
from rwkvp.params import FreezeMask, ParamStore


def extended_config(base_cfg: m.ModelConfig, n: int,
                    aggregation: str = "weighted_softmax") -> m.ModelConfig:
    """The config of base_cfg's n=1 base extended to n perspectives."""
    if base_cfg.n_perspectives != 1:
        raise m.ConfigError(f"extension starts from a base with n_perspectives=1, "
                            f"got {base_cfg.n_perspectives}")
    return replace(base_cfg, n_perspectives=n, aggregation=aggregation)


def is_fine_tuned(name: str) -> bool:
    return m.is_temporal(name) or m.is_aggregator(name)


def extend_to_perspectives(base_store: ParamStore, base_cfg: m.ModelConfig,
                           n: int, aggregation: str = "weighted_softmax"
                           ) -> tuple[m.ModelConfig, ParamStore, FreezeMask]:
    """Build the fine-tuning model from a trained base.

    Walks m.param_shapes of the extended config, in its order: each mu
    leaf is the base's one row repeated n times on axis -2 (every perspective starts
    bitwise equal to the base; the noise that differentiates training goes
    elsewhere, see rwkvp.training), every other base leaf a copy, and each
    aggregator leaf its identity-to-base value. The freeze mask, built in
    the same walk, leaves only the mu leaves and the aggregator trainable.
    """
    cfg = extended_config(base_cfg, n, aggregation)
    dtype = base_store["emb.weight"].data.dtype
    store, mask = ParamStore(), FreezeMask()
    for name, shape in m.param_shapes(cfg).items():
        mask[name] = is_fine_tuned(name)
        if name == "agghead.W":
            # stacked identities / n => plain average => identical to the base
            data = np.asarray(np.vstack([np.eye(cfg.d_model)] * n) / n, dtype=dtype)
        elif m.is_aggregator(name):
            # zero selector => uniform weights => identical to the base
            data = np.zeros(shape, dtype=dtype)
        elif m.is_temporal(name):
            data = np.repeat(base_store[name].data, n, axis=-2)
        else:
            data = base_store[name].data.copy()
        store.add(name, data, requires_grad=mask[name], dtype=data.dtype)
    return cfg, store, mask


def multi_forward(cfg: m.ModelConfig, store, tokens: np.ndarray, states=None):
    """Run all n perspective streams over tokens (T,) or (T, B) in one pass.

    store and states as in model.run_stream. Returns (p (T, [B,] n, d), the
    new state array (L, 5, [B,] n, d)).
    """
    return m.run_stream(cfg, store, tokens, states)
