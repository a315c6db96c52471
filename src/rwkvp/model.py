"""RWKV-v4 block family: config, parameter init, time/channel mixing, forward.

Composition: embedding -> input LN -> [LN -> time-mix residual ->
LN -> channel-mix residual] x L -> head (final LN + unembedding).

Stacked, time-major layout: the n perspectives share every heavy weight and
differ only in their token-shift mu vectors and recurrent state, so they run
as one pass. Time leads in every array the model takes and returns: tokens
(T,) for one stream or (T, B) for B contexts; the embedding and input LN run
once and are expanded to n copies, so every activation is (T, [B,] n, d),
perspective i at [..., i, :], and the token shift and WKV scan walk axis 0.
Each token-shift slot holds one (n, d) leaf, layer{l}.{att|ffn}.mu_{r,k,v},
row i perspective i's mu (a base holds (1, d)), which ag.token_shift
broadcasts. Every model, the base included, runs run_stream and then its
aggregation head; a base's "average" head at n=1 is bitwise model_forward's
plain head. Both return the head's logits (T, [B,] V) as they are
(Model.forward also weights (T, [B,] n)). The recurrent parts cross chunk
boundaries as detached numpy state: one StreamState per layer, each array
([B,] n, d), with no time axis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from rwkvp import autograd as ag
from rwkvp import wkv
from rwkvp.autograd import Tensor
from rwkvp.corpus import check_token_range
from rwkvp.params import FreezeMask, ParamStore

AGGREGATION_MODES = ("average", "transformer_like", "weighted_softmax")


class ConfigError(ValueError):
    pass


def check_field_types(cfg, ints=(), floats=()) -> None:
    """Raise ConfigError unless each named int field holds an int that is not a
    bool, and each float field a finite real number (an int such as 0 counts)."""
    for name in ints:
        value = getattr(cfg, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in floats:
        value = getattr(cfg, name)
        if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass
class ModelConfig:
    n_layers: int = 4
    d_model: int = 64
    vocab_size: int = 257
    n_perspectives: int = 1
    aggregation: str = "average"
    context_length: int = 128

    def __post_init__(self):
        check_field_types(self, ints=("n_layers", "d_model", "vocab_size", "n_perspectives",
                                      "context_length"))
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.d_model < 2:
            raise ConfigError(f"d_model must be >= 2, got {self.d_model}")
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.n_perspectives < 1:
            raise ConfigError(f"n_perspectives must be >= 1, got {self.n_perspectives}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigError(f"aggregation must be one of {AGGREGATION_MODES}, "
                              f"got {self.aggregation!r}")
        if self.context_length < 2:
            raise ConfigError(f"context_length must be >= 2, got {self.context_length}")


def mu_names(cfg: ModelConfig) -> list[str]:
    """The token-shift leaves, layer by layer; row i of each is perspective i."""
    return [f"layer{l}.{slot}" for l in range(cfg.n_layers)
            for slot in ("att.mu_r", "att.mu_k", "att.mu_v", "ffn.mu_r", "ffn.mu_k")]


def is_temporal(name: str) -> bool:
    return ".mu_" in name


def is_aggregator(name: str) -> bool:
    return name.startswith("selector.") or name.startswith("agghead.")


def init_base_params(cfg: ModelConfig, seed: int) -> tuple[ParamStore, FreezeMask]:
    """From-scratch init of a single-perspective base model (all trainable)."""
    if cfg.n_perspectives != 1:
        raise ConfigError("base models are initialized with n_perspectives=1")
    if cfg.aggregation != "average":
        raise ConfigError(f"base models have no aggregator leaves, so their aggregation "
                          f"is 'average', got {cfg.aggregation!r}")
    rng = np.random.default_rng(seed)
    L, d, V = cfg.n_layers, cfg.d_model, cfg.vocab_size
    store = ParamStore()

    def uniform(shape, s):
        return rng.uniform(-s, s, size=shape)

    store.add("emb.weight", uniform((V, d), 0.4 / np.sqrt(d)))
    store.add("ln0.g", np.ones(d))
    store.add("ln0.b", np.zeros(d))

    pos = (np.arange(d) + 0.5) / d
    s_in = np.sqrt(3.0 / d)
    s_out = s_in / np.sqrt(2.0 * L)
    for l in range(L):
        depth = l / max(L - 1, 1)          # 0 at the bottom, 1 at the top
        store.add(f"layer{l}.ln1.g", np.ones(d))
        store.add(f"layer{l}.ln1.b", np.zeros(d))
        store.add(f"layer{l}.ln2.g", np.ones(d))
        store.add(f"layer{l}.ln2.b", np.zeros(d))
        # depth-graded token-shift coefficients in (0, 1); one row: perspective 0
        ramp = pos ** (1.0 - 0.9 * depth)
        store.add(f"layer{l}.att.mu_r", [0.5 * ramp])
        store.add(f"layer{l}.att.mu_k", [ramp])
        store.add(f"layer{l}.att.mu_v", [np.clip(ramp + 0.3 * depth, 0.0, 0.99)])
        store.add(f"layer{l}.att.w_r", uniform((d, d), s_in))
        store.add(f"layer{l}.att.w_k", uniform((d, d), s_in))
        store.add(f"layer{l}.att.w_v", uniform((d, d), s_in))
        store.add(f"layer{l}.att.w_o", uniform((d, d), s_out))
        # per-channel decay exponent: channel 0 remembers longest
        store.add(f"layer{l}.att.decay", 0.1 + 6.0 * (np.arange(d) / max(d - 1, 1)) ** 1.5)
        store.add(f"layer{l}.att.bonus", 0.3 + 0.2 * np.cos(np.arange(d)))
        store.add(f"layer{l}.ffn.mu_r", [0.5 * ramp])
        store.add(f"layer{l}.ffn.mu_k", [ramp])
        store.add(f"layer{l}.ffn.w_r", uniform((d, d), s_in))
        store.add(f"layer{l}.ffn.w_k", uniform((d, 4 * d), s_in))
        store.add(f"layer{l}.ffn.w_v", uniform((4 * d, d), np.sqrt(3.0 / (4 * d)) / np.sqrt(2.0 * L)))

    store.add("ln_out.g", np.ones(d))
    store.add("ln_out.b", np.zeros(d))
    store.add("head.weight", uniform((d, V), s_in))
    return store, FreezeMask.fromkeys(store.names(), True)


def base_param_count(cfg: ModelConfig) -> int:
    """Analytic n=1 parameter count matching init_base_params exactly."""
    L, d, V = cfg.n_layers, cfg.d_model, cfg.vocab_size
    per_layer = 13 * d * d + 11 * d      # 4 att mats + 9 ffn mats, mus, decay/bonus, 2 LNs
    return 2 * V * d + 4 * d + L * per_layer


def extra_param_count(cfg: ModelConfig) -> int:
    """Parameters added by n perspectives plus the configured aggregator."""
    L, d, n = cfg.n_layers, cfg.d_model, cfg.n_perspectives
    extra = (n - 1) * 5 * d * L
    if cfg.aggregation == "weighted_softmax":
        extra += n * d + n
    elif cfg.aggregation == "transformer_like":
        extra += n * d * d + d
    return extra


@dataclass
class StreamState:
    """Recurrent state of one layer for every stream: arrays ([B,] n, d)."""
    att_prev: np.ndarray          # last post-LN row seen by the time-mix block
    wkv_state: tuple              # (a, b, p)
    ffn_prev: np.ndarray          # last post-LN row seen by the channel-mix block

    @classmethod
    def zeros(cls, shape, dtype=np.float32) -> "StreamState":
        """Empty state; shape is ([B,] n, d)."""
        return cls(np.zeros(shape, dtype=dtype), wkv.empty_state(shape, dtype),
                   np.zeros(shape, dtype=dtype))


def time_mixing(store: ParamStore, layer: int, xx: Tensor,
                st: StreamState) -> tuple[Tensor, np.ndarray, tuple]:
    """Time-mix block over post-LN chunks xx (T, [B,] n, d), one per perspective.

    Returns (residual delta, new att_prev rows, new wkv state).
    """
    pre = f"layer{layer}.att"
    xr = ag.token_shift(xx, st.att_prev, store[f"{pre}.mu_r"])
    xk = ag.token_shift(xx, st.att_prev, store[f"{pre}.mu_k"])
    xv = ag.token_shift(xx, st.att_prev, store[f"{pre}.mu_v"])
    r = ag.matmul(xr, store[f"{pre}.w_r"])
    k = ag.matmul(xk, store[f"{pre}.w_k"])
    v = ag.matmul(xv, store[f"{pre}.w_v"])
    y, wkv_state = wkv.wkv_sequence(k, v, store[f"{pre}.decay"], store[f"{pre}.bonus"],
                                    st.wkv_state)
    out = ag.matmul(ag.sigmoid_mul(r, y), store[f"{pre}.w_o"])
    return out, xx.data[-1].copy(), wkv_state


def channel_mixing(store: ParamStore, layer: int, xx: Tensor,
                   st: StreamState) -> tuple[Tensor, np.ndarray]:
    """Channel-mix block over post-LN chunks xx (T, [B,] n, d), one per perspective.

    Returns (residual delta, new ffn_prev rows).
    """
    pre = f"layer{layer}.ffn"
    xr = ag.token_shift(xx, st.ffn_prev, store[f"{pre}.mu_r"])
    xk = ag.token_shift(xx, st.ffn_prev, store[f"{pre}.mu_k"])
    kk = ag.relu_square(ag.matmul(xk, store[f"{pre}.w_k"]))
    out = ag.sigmoid_mul(ag.matmul(xr, store[f"{pre}.w_r"]), ag.matmul(kk, store[f"{pre}.w_v"]))
    return out, xx.data[-1].copy()


def run_stream(cfg: ModelConfig, store: ParamStore, tokens: np.ndarray,
               states: list[StreamState] | None = None) -> tuple[Tensor, list[StreamState]]:
    """Full stack for all cfg.n_perspectives streams in one pass.

    tokens: (T,) or (T, B). Returns the pre-head embeddings (T, [B,] n, d)
    and one new StreamState per layer.
    """
    tokens = np.asarray(tokens)
    check_token_range(tokens, cfg.vocab_size)
    n = cfg.n_perspectives
    if states is None:
        shape = tokens.shape[1:] + (n, cfg.d_model)
        states = [StreamState.zeros(shape, store["emb.weight"].data.dtype)
                  for _ in range(cfg.n_layers)]
    x = ag.embed(store["emb.weight"], tokens)
    x = ag.layer_norm(x, store["ln0.g"], store["ln0.b"])
    x = ag.expand(x, n)
    new_states = []
    for l in range(cfg.n_layers):
        st = states[l]
        xx = ag.layer_norm(x, store[f"layer{l}.ln1.g"], store[f"layer{l}.ln1.b"])
        delta, att_prev, wkv_state = time_mixing(store, l, xx, st)
        x = ag.add(x, delta)
        xx = ag.layer_norm(x, store[f"layer{l}.ln2.g"], store[f"layer{l}.ln2.b"])
        delta, ffn_prev = channel_mixing(store, l, xx, st)
        x = ag.add(x, delta)
        new_states.append(StreamState(att_prev, wkv_state, ffn_prev))
    return x, new_states


def head_logits(store: ParamStore, p: Tensor) -> Tensor:
    """Shared head: final LN then unembedding projection."""
    return ag.matmul(ag.layer_norm(p, store["ln_out.g"], store["ln_out.b"]),
                     store["head.weight"])


def model_forward(cfg: ModelConfig, store: ParamStore, tokens: np.ndarray,
                  states: list[StreamState] | None = None) -> tuple[Tensor, list[StreamState]]:
    """Plain single-stream RWKV-v4 path (the n=1 reference).

    tokens: (T,) or (T, B); returns logits (T, [B,] V) and new states.
    """
    if cfg.n_perspectives != 1:
        raise ConfigError(f"model_forward runs one stream, got n_perspectives="
                          f"{cfg.n_perspectives}")
    p, new_states = run_stream(cfg, store, tokens, states)
    return head_logits(store, ag.reshape(p, p.shape[:-2] + p.shape[-1:])), new_states


@dataclass
class Model:
    """A config + parameter store + freeze mask bundle."""
    config: ModelConfig
    store: ParamStore
    mask: FreezeMask

    def forward(self, tokens, states=None):
        """All n perspective streams, then the configured aggregation head.

        tokens: (T,) or (T, B). Returns (logits Tensor (T, [B,] V), weights
        ndarray (T, [B,] n) or None, new states: one StreamState per layer).
        """
        from rwkvp import aggregation, perspectives
        p, new_states = perspectives.multi_forward(self.config, self.store, tokens, states)
        logits, weights = aggregation.aggregate(self.config, self.store, p)
        return logits, None if weights is None else weights.data, new_states

    def init_states(self):
        """One empty StreamState per layer for one stream: arrays (n, d)."""
        cfg, dtype = self.config, self.store["emb.weight"].data.dtype
        return [StreamState.zeros((cfg.n_perspectives, cfg.d_model), dtype)
                for _ in range(cfg.n_layers)]
