"""RWKV-v4 block family: config, parameter init, time/channel mixing, forward.

Composition: embedding -> input LN -> [LN -> time-mix residual ->
LN -> channel-mix residual] x L -> head (final LN + unembedding).

Stacked, time-major layout: the n perspectives share every heavy weight and
differ only in their token-shift mu vectors and recurrent state, so they run
as one pass. Time leads in every array the model takes and returns: tokens
(T,) for one stream or (T, B) for B contexts. The streams are equal until layer
0's token shifts, so the embedding, input LN and layer 0's ln1 run once, on
(T, [B,] 1, d); from those shifts on every activation is (T, [B,] n, d),
perspective i at [..., i, :], and the token shift and WKV scan walk axis 0.
The time-mix block derives r, k and v by one shift-then-project step, so
they are one stack: layer{l}.att.mu_rkv (3, n, d) and layer{l}.att.w_rkv
(3, d, d), slot order r, k, v. One ag.token_shift gives the three shifted
inputs (3, T, [B,] n, d), one batched ag.matmul projects them, and
wkv.wkv_sequence gates its own output by sigmoid(r), then w_o projects it:
4 ops per layer. Channel-mix keeps ffn.mu_r and ffn.mu_k (n, d), because
its two weights differ in shape. In every mu leaf, [..., i, :] is
perspective i's mu (a base holds one row), which ag.token_shift broadcasts.
param_shapes(cfg) states every leaf's name and shape once.
init_base_params and perspectives.extend_to_perspectives walk it, so its
order is their stores', training's flat trainable buffer's and the gradient
clip's; the parameter counts are its sizes. Every model, the base included,
runs run_stream and then its aggregation head through Model.forward; a base's
"average" head at n=1 is the plain RWKV-v4 head, so a base's Model.forward
is the n=1 reference that an extended model reduces to. It returns the
head's logits (T, [B,] V) as they are (the weighted head also its weights
(T, [B,] n)). The recurrent parts cross chunk boundaries as one detached
numpy array (L, 5, [B,] n, d), with no time axis: per layer, the rows
att_prev, the WKV's a, b and p, and ffn_prev (empty_states builds it).

Two paths run this one composition (run_stream, time_mixing,
channel_mixing, head_logits and the aggregation heads), and Model.forward
picks one per call. With the tape on, the ops take the store's Tensors.
Under ag.no_grad it reads the leaves' arrays once (ParamStore.arrays) and
the ops take those (the plain path; see rwkvp.autograd), with
wkv.wkv_forward for the WKV: no Tensor, no graph node and no per-op check,
the tokens and the state being checked once at run_stream's entry. Each
function returns what its inputs are made of, so only the logits are
wrapped, once, in Model.forward. The ops run the same forward arithmetic on
both paths, so the numbers are bitwise equal.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, replace

import numpy as np

from rwkvp import aggregation, perspectives
from rwkvp import autograd as ag
from rwkvp import wkv
from rwkvp.autograd import Tensor
from rwkvp.corpus import CorpusError, check_token_range
from rwkvp.params import FreezeMask, ParamStore
from rwkvp.tokenizer import VOCAB_SIZE

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
    vocab_size: int = VOCAB_SIZE
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


def _leaf_shapes(cfg: ModelConfig) -> tuple[dict, dict, dict, dict]:
    """The leaves' shapes in store order: (the leaves below the layers, one
    layer's by slot name, the leaves above the layers, the aggregator's)."""
    d, V, n = cfg.d_model, cfg.vocab_size, cfg.n_perspectives
    vec, mat, mu = (d,), (d, d), (n, d)
    below = {"emb.weight": (V, d), "ln0.g": vec, "ln0.b": vec}
    layer = {"ln1.g": vec, "ln1.b": vec, "ln2.g": vec, "ln2.b": vec,
             "att.mu_rkv": (3,) + mu, "att.w_rkv": (3,) + mat, "att.w_o": mat,
             "att.decay": vec, "att.bonus": vec,
             "ffn.mu_r": mu, "ffn.mu_k": mu, "ffn.w_r": mat, "ffn.w_k": (d, 4 * d),
             "ffn.w_v": (4 * d, d)}
    above = {"ln_out.g": vec, "ln_out.b": vec, "head.weight": (d, V)}
    aggregator = {"weighted_softmax": {"selector.W": (n, d), "selector.b": (n,)},
                  "transformer_like": {"agghead.W": (n * d, d), "agghead.b": vec}}
    return below, layer, above, aggregator.get(cfg.aggregation, {})


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each leaf's name and shape, in the order every store built from the
    table holds them: the embedding and ln0, one slot table per layer
    (layer{l}.<slot>, each mu leaf ([3,] n, d), perspective i at [..., i, :]), ln_out and
    the head, then the aggregator's leaves. init_base_params and
    extend_to_perspectives walk it, so it is also the order of training's
    flat trainable buffer and of the gradient clip's segments; a
    checkpoint's payload holds the same leaves sorted by name."""
    below, layer, above, aggregator = _leaf_shapes(cfg)
    layers = {f"layer{l}.{slot}": shape for l in range(cfg.n_layers)
              for slot, shape in layer.items()}
    return {**below, **layers, **above, **aggregator}


def param_count(cfg: ModelConfig, keep=lambda name: True) -> int:
    """The size of param_shapes(cfg), or of the leaves keep accepts by name (a
    layer's by slot name), in closed form: no layer is listed."""
    below, per_layer, above, agg = (sum(math.prod(s) for name, s in part.items() if keep(name))
                                    for part in _leaf_shapes(cfg))
    return below + cfg.n_layers * per_layer + above + agg


def base_param_count(cfg: ModelConfig) -> int:
    """Parameters of cfg's n=1 base, the size init_base_params allocates."""
    return param_count(replace(cfg, n_perspectives=1, aggregation="average"))


def extra_param_count(cfg: ModelConfig) -> int:
    """Parameters added by n perspectives plus the configured aggregator."""
    return param_count(cfg) - base_param_count(cfg)


def mu_names(cfg: ModelConfig) -> list[str]:
    """The token-shift leaves, layer by layer; [..., i, :] of each is perspective i."""
    return [name for name in param_shapes(cfg) if is_temporal(name)]


def is_temporal(name: str) -> bool:
    return ".mu_" in name


def is_aggregator(name: str) -> bool:
    return name.startswith("selector.") or name.startswith("agghead.")


def init_base_params(cfg: ModelConfig, seed: int) -> tuple[ParamStore, FreezeMask]:
    """From-scratch init of a single-perspective base model (all trainable):
    each leaf of param_shapes(cfg), in order, gets its slot's initial value,
    so the matrices draw from the seeded generator in table order."""
    if cfg.n_perspectives != 1:
        raise ConfigError("base models are initialized with n_perspectives=1")
    if cfg.aggregation != "average":
        raise ConfigError(f"base models have no aggregator leaves, so their aggregation "
                          f"is 'average', got {cfg.aggregation!r}")
    rng = np.random.default_rng(seed)
    L, d = cfg.n_layers, cfg.d_model
    channel = np.arange(d)
    s_in = np.sqrt(3.0 / d)
    # the uniform bound of each matrix that does not take s_in
    bounds = {"emb.weight": 0.4 / np.sqrt(d), "att.w_o": s_in / np.sqrt(2.0 * L),
              "ffn.w_v": np.sqrt(3.0 / (4 * d)) / np.sqrt(2.0 * L)}
    store = ParamStore()
    for name, shape in param_shapes(cfg).items():
        layer = re.match(r"layer(\d+)\.", name)
        slot = name[layer.end():] if layer else name
        depth = int(layer[1]) / max(L - 1, 1) if layer else 0.0   # 0 at the bottom, 1 at the top
        # depth-graded token-shift coefficients in (0, 1); one row: perspective 0
        ramp = ((channel + 0.5) / d) ** (1.0 - 0.9 * depth)
        if slot.endswith(".g"):
            value = np.ones(shape)
        elif slot.endswith(".b"):
            value = np.zeros(shape)
        elif slot == "ffn.mu_r":
            value = 0.5 * ramp
        elif slot == "ffn.mu_k":
            value = ramp
        elif slot == "att.mu_rkv":
            value = [0.5 * ramp, ramp, np.clip(ramp + 0.3 * depth, 0.0, 0.99)]
        elif slot == "att.decay":
            # per-channel decay exponent: channel 0 remembers longest
            value = 0.1 + 6.0 * (channel / max(d - 1, 1)) ** 1.5
        elif slot == "att.bonus":
            value = 0.3 + 0.2 * np.cos(channel)
        else:
            bound = bounds.get(slot, s_in)
            value = rng.uniform(-bound, bound, size=shape)
        store.add(name, np.reshape(value, shape))
    return store, FreezeMask.fromkeys(store.names(), True)


def empty_states(shape, dtype) -> np.ndarray:
    """The recurrent state with no history, shape (L, 5, [B,] n, d): zeros,
    but the WKV's p (row 3) starts at -inf."""
    states = np.zeros(shape, dtype)
    states[:, 3] = -np.inf
    return states


def time_mixing(store, layer: int, xx, state, new_state):
    """Time-mix block over post-LN chunks xx (T, [B,] n, d), one per perspective
    (at layer 0 one (T, [B,] 1, d) chunk that all n share).

    store as in run_stream, and xx and the residual delta returned of its
    kind. state is the layer's rows (5, [B,] n, d) of the carried state,
    new_state those of the state run_stream returns: this writes row 0
    (att_prev, the last row of xx), and the WKV writes 1-3 (its a, b, p).
    """
    pre = f"layer{layer}.att"
    # r, k and v as one stack (3, T, [B,] n, d): one shift, one batched GEMM
    rkv = ag.matmul(ag.token_shift(xx, state[0], store[f"{pre}.mu_rkv"]),
                    store[f"{pre}.w_rkv"])
    tape = isinstance(rkv, Tensor)
    y = (wkv.wkv_sequence if tape else wkv.wkv_forward)(
        rkv, store[f"{pre}.decay"], store[f"{pre}.bonus"], state[1:4], new_state[1:4])
    new_state[0] = (xx.data if tape else xx)[-1]
    return ag.matmul(y, store[f"{pre}.w_o"])


def channel_mixing(store, layer: int, xx, state, new_state):
    """Channel-mix block over post-LN chunks xx (T, [B,] n, d), one per
    perspective; store, xx, state and new_state as in time_mixing.

    Writes row 4 (ffn_prev, the last row of xx) and returns the residual delta.
    """
    pre = f"layer{layer}.ffn"
    xr = ag.token_shift(xx, state[4], store[f"{pre}.mu_r"])
    xk = ag.token_shift(xx, state[4], store[f"{pre}.mu_k"])
    kk = ag.relu_square(ag.matmul(xk, store[f"{pre}.w_k"]))
    out = ag.sigmoid_mul(ag.matmul(xr, store[f"{pre}.w_r"]), ag.matmul(kk, store[f"{pre}.w_v"]))
    new_state[4] = (xx.data if isinstance(xx, Tensor) else xx)[-1]
    return out


def run_stream(cfg: ModelConfig, store, tokens: np.ndarray, states: np.ndarray | None = None):
    """Full stack for all cfg.n_perspectives streams in one pass.

    store is the ParamStore (the tape path: Tensors) or its leaves' arrays
    by name, ParamStore.arrays() (the plain path: arrays, with
    wkv.wkv_forward for the WKV). tokens: (T,) or (T, B); states: the array
    (L, 5, [B,] n, d), or None for no history. The tokens and the state are
    checked here, once. Returns the pre-head embeddings (T, [B,] n, d), of
    the store's kind, and a new state array; the one passed in is not written.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim not in (1, 2):
        raise CorpusError(f"tokens must be (T,) or (T, B), got shape {tokens.shape}")
    check_token_range(tokens, cfg.vocab_size)
    dtype = store["emb.weight"].dtype
    shape = (cfg.n_layers, 5) + tokens.shape[1:] + (cfg.n_perspectives, cfg.d_model)
    if states is None:
        states = empty_states(shape, dtype)
    elif not isinstance(states, np.ndarray) or states.shape != shape or states.dtype != dtype:
        raise ag.ShapeError(
            f"run_stream: states must be an array of shape {shape} and dtype {dtype}, got "
            f"{type(states).__name__} of shape {getattr(states, 'shape', None)} and dtype "
            f"{getattr(states, 'dtype', None)}")
    # allocated before the forward's temporaries, so it does not split their heap space
    new_states = np.empty_like(states)
    x = ag.embed(store["emb.weight"], tokens[..., None])     # (T, [B,] 1, d)
    x = ag.layer_norm(x, store["ln0.g"], store["ln0.b"])
    for l, (state, new_state) in enumerate(zip(states, new_states)):
        xx = ag.layer_norm(x, store[f"layer{l}.ln1.g"], store[f"layer{l}.ln1.b"])
        x = ag.add(x, time_mixing(store, l, xx, state, new_state))
        xx = ag.layer_norm(x, store[f"layer{l}.ln2.g"], store[f"layer{l}.ln2.b"])
        x = ag.add(x, channel_mixing(store, l, xx, state, new_state))
    return x, new_states


def head_logits(store, p, weights=None):
    """Shared head: final LN then unembedding projection. Given weights
    (..., n) for p (..., n, d), the normalised rows are mixed by them over
    the perspective axis first, so the projection runs once, on (..., d).
    store and p as in time_mixing."""
    x = ag.layer_norm(p, store["ln_out.g"], store["ln_out.b"])
    if weights is not None:
        x = ag.sum_(ag.mul(ag.reshape(weights, weights.shape + (1,)), x), axis=-2)
    return ag.matmul(x, store["head.weight"])


@dataclass
class Model:
    """A config + parameter store + freeze mask bundle."""
    config: ModelConfig
    store: ParamStore
    mask: FreezeMask

    def forward(self, tokens, states=None):
        """All n perspective streams, then the configured aggregation head.

        tokens: (T,) or (T, B). Returns (logits Tensor (T, [B,] V), weights
        ndarray (T, [B,] n) or None, the new state array (L, 5, [B,] n, d)).
        This is where the path is picked: on the tape the composition takes
        the store's Tensors; under no_grad it takes the leaves' arrays, read
        once here, and only the logits are wrapped in a Tensor.
        """
        tape = ag._grad_enabled
        leaves = self.store if tape else self.store.arrays()
        p, new_states = perspectives.multi_forward(self.config, leaves, tokens, states)
        logits, weights = aggregation.aggregate(self.config, leaves, p)
        if tape:
            return logits, None if weights is None else weights.data, new_states
        return Tensor(logits), weights, new_states

    def init_states(self):
        """The empty state of one stream: an array (L, 5, n, d)."""
        cfg = self.config
        return empty_states((cfg.n_layers, 5, cfg.n_perspectives, cfg.d_model),
                            self.store["emb.weight"].dtype)
