"""Evaluation: perplexity, parameter counting, ablations, and
perspective-weight tracing.

A trace is the (T, n) array of the softmax head's weights over a token
stream, row t at token t; the CSV and SVG writers take it as it is.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from rwkvp import autograd as ag
from rwkvp import model as m
from rwkvp import training
from rwkvp.corpus import CorpusError
from rwkvp.params import ParamStore


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _stream(model: m.Model, tokens: np.ndarray, chunk: int):
    """Yield (start, piece, logits, weights) per chunk of a no-grad forward
    over the stream, handing the recurrent state from chunk to chunk."""
    if tokens.size == 0:
        raise CorpusError("cannot stream an empty token array")
    states = model.init_states()
    for start in range(0, len(tokens), chunk):
        piece = tokens[start:start + chunk]
        with ag.no_grad():     # not held across the yield
            logits, weights, states = model.forward(piece, states)
        yield start, piece, logits.data, weights


def perplexity(model: m.Model, tokens: np.ndarray, chunk: int | None = None) -> float:
    """exp(mean next-token NLL, natural log) over the whole stream.

    The stream is processed in chunks (by default of the context length)
    with recurrent-state handoff, so the result is invariant to the chunk size.
    Raises ag.NonFiniteError if the NLL is not finite (non-finite or
    overflowing logits).
    """
    chunk = model.config.context_length if chunk is None else chunk
    if chunk < 1:
        raise m.ConfigError(f"chunk must be >= 1, got {chunk}")
    tokens = np.asarray(tokens)
    if tokens.size < 2:
        raise CorpusError("perplexity needs at least two tokens")
    nll_sum = 0.0
    for start, _, logits, _ in _stream(model, tokens, chunk):
        # row t predicts token start + t + 1; the stream's last row predicts nothing
        targets = tokens[start + 1:start + 1 + len(logits)]
        logp = _log_softmax(logits[:len(targets)])
        nll_sum -= logp[np.arange(len(targets)), targets].sum()
    if not math.isfinite(nll_sum):
        raise ag.NonFiniteError(f"perplexity: the summed NLL over {len(tokens) - 1} "
                                f"predictions is {nll_sum}")
    return float(np.exp(nll_sum / (len(tokens) - 1)))


# ---------------------------------------------------------------------------
# parameter counting


@dataclass
class ParamCountReport:
    base_count: float
    extended_count: float
    increase_fraction: float    # percent


def count_parameters(cfg: m.ModelConfig, base_total: float | None = None) -> ParamCountReport:
    """Analytic count; pass base_total to anchor against a published size."""
    if base_total is not None and not (math.isfinite(base_total) and base_total > 0):
        raise m.ConfigError(f"base_total must be a finite number > 0, got {base_total}")
    base = float(base_total) if base_total is not None else float(m.base_param_count(cfg))
    extra = float(m.extra_param_count(cfg))
    return ParamCountReport(base_count=base, extended_count=base + extra,
                            increase_fraction=extra / base * 100.0)


# ---------------------------------------------------------------------------
# perspective-weight tracing


def trace_weights(model: m.Model, tokens: np.ndarray) -> np.ndarray:
    """Softmax perspective weights (T, n) over a decoded prompt, row t at token t."""
    if model.config.aggregation != "weighted_softmax":
        raise m.ConfigError("trace_weights requires aggregation='weighted_softmax', "
                            f"got {model.config.aggregation!r}")
    return np.concatenate([weights for _, _, _, weights in
                           _stream(model, np.asarray(tokens), model.config.context_length)])


def trace_to_csv(tokens: np.ndarray, weights: np.ndarray) -> str:
    """One row per position: the token, its weights (T, n) and their argmax."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["position", "token"]
                    + [f"weight_{i + 1}" for i in range(weights.shape[1])] + ["top"])
    for t, (tok, row) in enumerate(zip(tokens, weights)):
        writer.writerow([t, int(tok)] + [f"{w:.9g}" for w in row] + [int(np.argmax(row))])
    return out.getvalue()


def render_trace_svg(weights: np.ndarray) -> str:
    """Stacked-area rendering of the per-position perspective weights (T, n)."""
    width, height = 900, 260
    T, n = weights.shape
    pad = 30
    pw = (width - 2 * pad) / max(T - 1, 1)
    palette = ["#4477aa", "#66ccee", "#228833", "#ccbb44", "#ee6677", "#aa3377",
               "#bbbbbb", "#000000"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    cum = np.zeros(T)
    for i in range(n):
        top = cum + weights[:, i]
        pts = []
        for t in range(T):
            pts.append(f"{pad + t * pw:.2f},{height - pad - cum[t] * (height - 2 * pad):.2f}")
        for t in range(T - 1, -1, -1):
            pts.append(f"{pad + t * pw:.2f},{height - pad - top[t] * (height - 2 * pad):.2f}")
        color = palette[i % len(palette)]
        parts.append(f'<polygon points="{" ".join(pts)}" fill="{color}" '
                     f'fill-opacity="0.8" stroke="none"/>')
        parts.append(f'<text x="{pad + 4}" y="{16 + 14 * i}" font-size="12" '
                     f'fill="{color}">perspective {i + 1}</text>')
        cum = top
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# ablation harness


ABLATION_AXES = ("n_perspectives", "aggregation", "noise_placement")

DEFAULT_ARMS = {
    "n_perspectives": [1, 2, 3, 4],
    "aggregation": list(m.AGGREGATION_MODES),
    "noise_placement": list(training.NOISE_TARGETS),
}


@dataclass
class ArmResult:
    setting: str
    mean: float
    stddev: float
    values: list
    failed: bool = False


@dataclass
class AblationReport:
    axis: str
    arms: list

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["axis", "setting", "mean_val_ppl", "stddev_val_ppl",
                         "seed_values", "failed"])
        for arm in self.arms:
            writer.writerow([self.axis, arm.setting, f"{arm.mean:.9g}",
                             f"{arm.stddev:.9g}",
                             ";".join(f"{v:.9g}" for v in arm.values),
                             int(arm.failed)])
        return out.getvalue()

    def to_table(self) -> str:
        rows = [["setting", "val ppl (mean +/- std)"]]
        for arm in self.arms:
            if arm.failed:
                rows.append([arm.setting, "FAILED"])
            else:
                rows.append([arm.setting, f"{arm.mean:.4f} +/- {arm.stddev:.4f}"])
        w0 = max(len(r[0]) for r in rows)
        lines = [f"axis: {self.axis}"]
        lines += [f"{r[0]:<{w0}}  {r[1]}" for r in rows]
        return "\n".join(lines) + "\n"


def run_ablation(axis: str, base_cfg: m.ModelConfig, base_store: ParamStore,
                 train_tokens: np.ndarray, val_tokens: np.ndarray, tc,
                 arms=None, seeds=(0, 1, 2), n_perspectives: int = 4) -> AblationReport:
    """Fine-tune + evaluate per (arm, seed); report mean and stddev per arm.

    The metric is validation perplexity after the arm's fine-tuning run.
    A diverging arm is marked failed; the report is still emitted.
    """
    if axis not in ABLATION_AXES:
        raise m.ConfigError(f"unknown ablation axis {axis!r}; one of {ABLATION_AXES}")
    arms = list(arms) if arms is not None else list(DEFAULT_ARMS[axis])
    seeds = list(seeds)
    if len(arms) < 2:
        raise m.ConfigError("run_ablation needs at least 2 arms")
    if len(seeds) < 3:
        raise m.ConfigError("run_ablation needs at least 3 seeds")

    results = []
    for arm in arms:
        # the weighted head at n with the run's noise, the axis's setting replaced
        setting = {"n_perspectives": n_perspectives, "aggregation": "weighted_softmax",
                   "noise_placement": tc.noise_target, axis: arm}
        values, failed = [], False
        for seed in seeds:
            arm_tc = replace(tc, seed=seed, noise_target=setting["noise_placement"])
            try:
                _, _, _, log = training.finetune_perspectives(
                    base_store, base_cfg, setting["n_perspectives"], setting["aggregation"],
                    train_tokens, val_tokens, arm_tc)
                values.append(log.val_ppl[-1][1])
            except training.DivergenceError:
                failed = True
                break
        if failed:
            results.append(ArmResult(str(arm), math.nan, math.nan, values, failed=True))
        else:
            arr = np.array(values)
            results.append(ArmResult(str(arm), float(arr.mean()), float(arr.std(ddof=1)),
                                     values))
    return AblationReport(axis=axis, arms=results)
