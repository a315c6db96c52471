"""The three heads that fuse perspective embeddings into vocabulary logits.

All operate position-wise on the stacked pre-head embeddings p
(T, [B,] n, d), perspective i at p[..., i, :], and return time-major logits
(T, [B,] V), which Model.forward hands back as they are; the shared head
(final LN + unembedding) is applied inside each aggregator. The weighted head
mixes the normalised embeddings and projects once, which equals mixing the
per-perspective logits up to rounding. With n=1 every mode reduces to the
plain RWKV-v4 head. Each head takes p and the store as run_stream's composition
does, and returns results of their kind: Tensors and the ParamStore on the
tape path, arrays and the leaves' arrays by name on the plain path.
"""

from __future__ import annotations

from rwkvp import autograd as ag
from rwkvp import model as m


def _mean_embedding(p):
    return ag.scale(ag.sum_(p, axis=-2), 1.0 / p.shape[-2])


def aggregate_average(p, store):
    """head(mean of perspective embeddings)."""
    return m.head_logits(store, _mean_embedding(p))


def aggregate_transformer(p, store):
    """head(affine projection of the concatenated embeddings)."""
    # (T, [B,] n, d) -> (T, [B,] n*d): each row is [p_1 | p_2 | ... | p_n]
    cat = ag.reshape(p, p.shape[:-2] + (p.shape[-2] * p.shape[-1],))
    mixed = ag.add(ag.matmul(cat, store["agghead.W"]), store["agghead.b"])
    return m.head_logits(store, mixed)


def aggregate_weighted(p, store):
    """Learned softmax-weighted combination of per-perspective logits.

    weights = softmax(selector(mean of embeddings)) per position. The output
    mixes the normalised embeddings LN(p_i) by the weights and projects the
    mixture onto the vocabulary once. The projection is linear and the weights
    sum to 1, so this equals the weight-convex combination of head(p_i) and
    lies in the convex hull of the per-perspective logits, up to rounding; no
    (..., n, V) array is built. Returns (logits, weights (T, [B,] n)).
    """
    mean_p = _mean_embedding(p)
    z = ag.add(ag.matmul(mean_p, ag.transpose(store["selector.W"])), store["selector.b"])
    weights = ag.softmax(z)
    return m.head_logits(store, p, weights), weights


def aggregate(cfg: m.ModelConfig, store, p):
    """Dispatch on cfg.aggregation; returns (logits, weights-or-None)."""
    if cfg.aggregation == "average":
        return aggregate_average(p, store), None
    if cfg.aggregation == "transformer_like":
        return aggregate_transformer(p, store), None
    return aggregate_weighted(p, store)
