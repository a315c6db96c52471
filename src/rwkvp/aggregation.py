"""The three heads that fuse perspective embeddings into vocabulary logits.

All operate position-wise on the stacked pre-head embeddings p
(T, [B,] n, d), perspective i at p[..., i, :], and return time-major logits
(T, [B,] V), which Model.forward hands back as they are; the shared head
(final LN + unembedding) is applied inside each aggregator. With n=1 every
mode reduces to the plain head.
"""

from __future__ import annotations

from rwkvp import autograd as ag
from rwkvp.autograd import Tensor
from rwkvp.model import ModelConfig, head_logits
from rwkvp.params import ParamStore


def _mean_embedding(p: Tensor) -> Tensor:
    if p.shape[-2] == 0:
        raise ValueError("aggregation requires at least one perspective")
    return ag.scale(ag.sum_(p, axis=-2), 1.0 / p.shape[-2])


def aggregate_average(p: Tensor, store: ParamStore) -> Tensor:
    """head(mean of perspective embeddings)."""
    return head_logits(store, _mean_embedding(p))


def aggregate_transformer(p: Tensor, store: ParamStore) -> Tensor:
    """head(affine projection of the concatenated embeddings)."""
    # (T, [B,] n, d) -> (T, [B,] n*d): each row is [p_1 | p_2 | ... | p_n]
    cat = ag.reshape(p, p.shape[:-2] + (p.shape[-2] * p.shape[-1],))
    mixed = ag.add(ag.matmul(cat, store["agghead.W"]), store["agghead.b"])
    return head_logits(store, mixed)


def aggregate_weighted(p: Tensor, store: ParamStore) -> tuple[Tensor, Tensor]:
    """Learned softmax-weighted combination of per-perspective logits.

    weights = softmax(selector(mean of embeddings)) per position; the output
    is the weight-convex combination of head(p_i), so it always lies in the
    convex hull of the per-perspective logits. Returns (logits, weights
    (T, [B,] n)).
    """
    mean_p = _mean_embedding(p)
    z = ag.add(ag.matmul(mean_p, ag.transpose(store["selector.W"])), store["selector.b"])
    weights = ag.softmax(z, axis=-1)
    per_persp = ag.reshape(weights, weights.shape + (1,))
    logits = ag.sum_(ag.mul(per_persp, head_logits(store, p)), axis=-2)
    return logits, weights


def aggregate(cfg: ModelConfig, store: ParamStore, p: Tensor
              ) -> tuple[Tensor, Tensor | None]:
    """Dispatch on cfg.aggregation; returns (logits, weights-or-None)."""
    if p.shape[-2] != cfg.n_perspectives:
        raise ValueError(f"got {p.shape[-2]} perspectives, config says {cfg.n_perspectives}")
    if cfg.aggregation == "average":
        return aggregate_average(p, store), None
    if cfg.aggregation == "transformer_like":
        return aggregate_transformer(p, store), None
    return aggregate_weighted(p, store)
