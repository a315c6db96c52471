"""Training: pretraining the tiny base and frozen-base fine-tuning.

The fine-tuning protocol: extend a trained base to n perspectives (exact
copies), add the aggregator at an identity-to-base initialization, inject
one-time Gaussian noise (selector by default, temporal as the ablation
arm), freeze every base parameter, and train only the temporal components
and the aggregator with Adam under an exponential LR decay.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from rwkvp import autograd as ag
from rwkvp import corpus as corpus_mod
from rwkvp import model as m
from rwkvp import perspectives as persp_mod
from rwkvp.autograd import cross_entropy
from rwkvp.params import FreezeMask, ParamStore


class DivergenceError(RuntimeError):
    def __init__(self, step: int, detail: str):
        super().__init__(f"training diverged at step {step} ({detail})")
        self.step = step


class FreezeViolationError(AssertionError):
    pass


NOISE_TARGETS = ("selector", "temporal")
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class TrainConfig:
    """One training run's settings. grad_clip is the global-norm bound on
    the gradient; 0 turns clipping off."""

    batch_size: int = 2
    lr_max: float = 3e-5
    lr_min: float = 1e-5
    mini_epochs: int = 4
    contexts_per_mini_epoch: int = 2000
    context_length: int = 128
    noise_target: str = "selector"
    noise_std: float = 0.01
    seed: int = 0
    grad_clip: float = 1.0

    def __post_init__(self):
        m.check_field_types(self, ints=("batch_size", "mini_epochs", "contexts_per_mini_epoch",
                                        "context_length", "seed"),
                            floats=("lr_max", "lr_min", "noise_std", "grad_clip"))
        if not (0 < self.lr_min <= self.lr_max):
            raise m.ConfigError(f"need 0 < lr_min <= lr_max, got {self.lr_min}, {self.lr_max}")
        for name in ("lr_max", "lr_min", "noise_std"):
            # the rate scales and the noise lands in float32 arrays
            if getattr(self, name) > FLOAT32_MAX:
                raise m.ConfigError(f"{name} must be at most float32's largest value "
                                    f"{FLOAT32_MAX:.7g}, got {getattr(self, name)!r}")
        if self.noise_std < 0:
            raise m.ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.grad_clip < 0:
            raise m.ConfigError(f"grad_clip must be >= 0 (0 turns clipping off), "
                                f"got {self.grad_clip}")
        if self.noise_target not in NOISE_TARGETS:
            raise m.ConfigError(f"noise_target must be one of {NOISE_TARGETS}, "
                                f"got {self.noise_target!r}")
        if self.batch_size < 1 or self.mini_epochs < 1 or self.contexts_per_mini_epoch < 1:
            raise m.ConfigError("batch_size, mini_epochs, contexts_per_mini_epoch must be >= 1")
        if self.context_length < 2:
            raise m.ConfigError(f"context_length must be >= 2, got {self.context_length}")
        if self.seed < 0:
            raise m.ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainLog:
    seeds: list = field(default_factory=list)
    steps: list = field(default_factory=list)        # (step, lr, loss)
    val_ppl: list = field(default_factory=list)      # (mini_epoch, ppl)
    grad_norms: list = field(default_factory=list)   # (step, pre-clip norm, clipped)

    def to_text(self) -> str:
        lines = ["# rwkvp train log v1"]
        for s in self.seeds:
            lines.append(f"seed {s}")
        for step, lr, loss in self.steps:
            lines.append(f"step {step} {lr:.9g} {loss:.9g}")
        for step, norm, clipped in self.grad_norms:
            lines.append(f"gradnorm {step} {norm:.9g} {int(clipped)}")
        for epoch, ppl in self.val_ppl:
            lines.append(f"epoch {epoch} val_ppl {ppl:.9g}")
        return "\n".join(lines) + "\n"

    def losses(self):
        return [loss for _, _, loss in self.steps]


def lr_schedule(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Exponential decay from lr_max at step 0 to lr_min at total_steps."""
    return lr_max * (lr_min / lr_max) ** (step / total_steps)


class Adam:
    """Adam over one flat buffer of trainable parameters, no weight decay.

    step updates the buffer in place with whole-buffer ufuncs, each value
    computed as b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g and
    p - (lr*mhat)/(sqrt(vhat) + eps), with b1, b2, eps = BETA1, BETA2, EPS. No
    graph built on the parameters may be alive across a step: its saved views
    would see the new values.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        self.t = 0
        # moments and two scratch buffers, made at the first step in its shape
        self.m = self.v = self._scratch = None

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
            self._scratch = np.empty_like(params), np.empty_like(params)
        m, v = self.m, self.v
        a, b = self._scratch
        m *= b1
        np.multiply(grad, 1 - b1, out=a)
        m += a
        v *= b2
        np.multiply(grad, 1 - b2, out=a)
        a *= grad
        v += a
        np.divide(m, 1 - b1 ** self.t, out=a)
        a *= lr
        np.divide(v, 1 - b2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += self.EPS
        a /= b
        params -= a


def clip_global_norm(grad: np.ndarray, sizes, max_norm: float) -> float:
    """Scale the flat gradient in place to a global L2 norm of at most
    max_norm; returns the norm before clipping.

    sizes are the lengths of the segments, in order: one per leaf, and one
    per slot of a stacked (3, ...) leaf. Each segment's squares are summed on
    their own and the sums added in order, so the norm is bitwise the one a
    leaf-by-leaf sum gives. A non-finite norm raises NonFiniteError before
    anything is scaled.
    """
    sq = grad * grad
    bounds = [0, *itertools.accumulate(sizes)]
    total = math.sqrt(sum(float(np.add.reduce(sq[lo:hi])) for lo, hi in zip(bounds, bounds[1:])))
    if not math.isfinite(total):
        raise ag.NonFiniteError(f"the gradient's global norm is {total}")
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / total
    return total


def _add_noise(name: str, p, noise: np.ndarray, std: float) -> None:
    """Set p.data to p.data + noise, summed in p's dtype. A draw that the sum
    cannot hold (a std near float32's largest value) is a ConfigError naming
    noise_std, raised before p changes."""
    with np.errstate(over="ignore", invalid="ignore"):
        data = p.data + noise.astype(p.data.dtype)
    if not np.isfinite(data).all():
        raise m.ConfigError(f"noise_std={std!r} draws noise that {name}'s "
                            f"{p.data.dtype} values cannot hold")
    p.data = data


def inject_selector_noise(store: ParamStore, std: float, mean: float, seed: int) -> None:
    """One-time Gaussian perturbation of the aggregator's linear layer."""
    rng = np.random.default_rng(seed)
    for name, p in store.items():
        if m.is_aggregator(name):
            _add_noise(name, p, rng.normal(mean, std, size=p.shape), std)


def inject_temporal_noise(store: ParamStore, cfg: m.ModelConfig, std: float,
                          mean: float, seed: int) -> None:
    """One-time Gaussian perturbation of every perspective's mu rows.

    Draws run perspective by perspective, then layer by layer and slot by
    slot (att r, k, v, the three slots of att.mu_rkv, then ffn r, k).
    """
    names = m.mu_names(cfg)
    slots = [math.prod(store[name].shape[:-2]) for name in names]   # 3 for att.mu_rkv
    noise = np.random.default_rng(seed).normal(
        mean, std, size=(cfg.n_perspectives, sum(slots), cfg.d_model)).swapaxes(0, 1)
    for name, part in zip(names, np.split(noise, np.cumsum(slots)[:-1])):
        _add_noise(name, store[name], part.reshape(store[name].shape), std)


# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory_mapped() -> None:
    """Keep the memory a training step or an evaluation chunk frees mapped
    for the next one; _train_loop and evaluation._stream call it first.

    A step builds and frees a graph of about 10 MB. By default glibc maps the
    largest temporaries with mmap and trims the freed heap top, so each step
    faults the same ~2800 pages in again, a fifth of a fine-tuning step, and
    each no-grad chunk 130-240. A 32 MiB mmap threshold (glibc's largest on
    64-bit) and a trim threshold far above any step's transient keep it all
    on the heap, for the rest of the process. Without glibc's mallopt this
    does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _steps(tc: TrainConfig) -> tuple[int, int]:
    """(steps per mini-epoch, total steps): each mini-epoch's contexts in batches."""
    per_epoch = -(-tc.contexts_per_mini_epoch // tc.batch_size)
    return per_epoch, per_epoch * tc.mini_epochs


def _check_fits(cfg: m.ModelConfig, tc: TrainConfig, trains=lambda name: True) -> None:
    """Raise ConfigError, before anything is walked or allocated, if a step needs
    more bytes than the machine's physical memory (where os.sysconf reports it):
    cfg's float32 parameters, the int64 context starts drawn up front and seven
    float32 arrays the size of the leaves trains accepts (their gradients, the
    flat one, the clip's square, Adam's m, v and two scratch buffers). The
    graph is not counted; the rest is counted in closed form."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    total_steps, trainable = _steps(tc)[1], m.param_count(cfg, trains)
    params, grads = 4 * m.param_count(cfg), 7 * 4 * trainable
    starts = 8 * total_steps * tc.batch_size
    if 0 < memory < params + grads + starts:
        raise m.ConfigError(f"the run needs {params} bytes of float32 parameters, {grads} of "
                            f"gradients and optimizer state ({trainable} trainable) and {starts} "
                            f"of context starts ({total_steps} steps of {tc.batch_size}), more "
                            f"than the machine's {memory} bytes of memory")


def _train_loop(model: m.Model, train_tokens: np.ndarray, val_tokens: np.ndarray,
                tc: TrainConfig) -> TrainLog:
    """Adam steps on the model's trainable parameters over batches of
    sampled contexts, then validation perplexity after each mini-epoch."""
    from rwkvp import evaluation

    # a context's last token is only a target, which run_stream never sees
    corpus_mod.check_token_range(train_tokens, model.config.vocab_size)
    if len(val_tokens) < 2:
        raise corpus_mod.CorpusError(f"the validation split holds {len(val_tokens)} tokens; "
                                     "its perplexity needs at least 2")
    store, mask = model.store, model.mask
    names = mask.trainable_names()
    params = store.flatten(names)
    # the clip sums a stacked (3, ...) leaf slot by slot, as it summed the
    # three leaves the slots once were
    sizes = [part.size for name in names for part in
             (store[name].data if store[name].data.ndim == 3 else [store[name].data])]
    log = TrainLog(seeds=[tc.seed])
    steps_per_epoch, total_steps = _steps(tc)
    sampler = corpus_mod.sample_contexts(train_tokens, tc.context_length,
                                         total_steps * tc.batch_size, seed=tc.seed)
    opt = Adam()
    _keep_freed_memory_mapped()
    step = 0
    # A diverging run overflows on its way to a non-finite value. numpy raises
    # at the first overflow or invalid value, and the gradient-norm, WKV and
    # perplexity checks at the first non-finite one; either ends the run as
    # one DivergenceError naming the step (for a mini-epoch's validation, its
    # last step).
    with np.errstate(over="raise", invalid="raise"):
        try:
            for epoch in range(tc.mini_epochs):
                for step in range(epoch * steps_per_epoch, (epoch + 1) * steps_per_epoch):
                    lr = lr_schedule(step, total_steps, tc.lr_max, tc.lr_min)
                    store.zero_grad()
                    batch = np.stack([next(sampler) for _ in range(tc.batch_size)], axis=1)
                    loss = _batch_loss(model, batch)
                    value = loss.item()
                    if not math.isfinite(value):
                        raise DivergenceError(step, f"loss={value}")
                    loss.backward()
                    # opt.step updates the leaves in place: the graph must be gone
                    del loss
                    grad = store.collect_grads(mask)
                    norm = clip_global_norm(grad, sizes, tc.grad_clip)
                    opt.step(params, grad, lr)
                    log.steps.append((step, lr, value))
                    log.grad_norms.append((step, norm, norm > tc.grad_clip > 0))
                ppl = evaluation.perplexity(model, val_tokens, chunk=tc.context_length)
                log.val_ppl.append((epoch, ppl))
        except FloatingPointError as e:     # ag.NonFiniteError is one
            raise DivergenceError(step, str(e)) from e
    return log


def _batch_loss(model: m.Model, batch: np.ndarray):
    """Mean next-token NLL over every position of the (T+1, B) contexts."""
    logits, _, _ = model.forward(batch[:-1])
    return cross_entropy(ag.reshape(logits, (-1, logits.shape[-1])), batch[1:].reshape(-1))


def pretrain_base(base_cfg: m.ModelConfig, train_tokens: np.ndarray,
                  val_tokens: np.ndarray, tc: TrainConfig
                  ) -> tuple[ParamStore, FreezeMask, TrainLog]:
    """Train a single-perspective base from scratch, all parameters trainable."""
    _check_fits(base_cfg, tc)
    store, mask = m.init_base_params(base_cfg, seed=tc.seed)
    log = _train_loop(m.Model(base_cfg, store, mask), train_tokens, val_tokens, tc)
    return store, mask, log


def finetune_perspectives(base_store: ParamStore, base_cfg: m.ModelConfig,
                          n: int, aggregation: str, train_tokens: np.ndarray,
                          val_tokens: np.ndarray, tc: TrainConfig
                          ) -> tuple[m.ModelConfig, ParamStore, FreezeMask, TrainLog]:
    """Frozen-base fine-tuning of the temporal components and aggregator."""
    _check_fits(persp_mod.extended_config(base_cfg, n, aggregation), tc, persp_mod.is_fine_tuned)
    cfg, store, mask = persp_mod.extend_to_perspectives(base_store, base_cfg, n,
                                                        aggregation)
    if tc.noise_target == "selector" and cfg.aggregation != "average":
        inject_selector_noise(store, tc.noise_std, 0.0, tc.seed)
    else:
        # 'temporal' arm, and the fallback for aggregators with no linear
        # layer (plain average), where only temporal noise can break the
        # symmetry between identical perspectives
        inject_temporal_noise(store, cfg, tc.noise_std, 0.0, tc.seed)

    frozen = mask.frozen_names()
    before = store.digest(frozen)
    log = _train_loop(m.Model(cfg, store, mask), train_tokens, val_tokens, tc)
    if store.digest(frozen) != before:
        raise FreezeViolationError("frozen base parameters changed during fine-tuning")
    return cfg, store, mask, log
