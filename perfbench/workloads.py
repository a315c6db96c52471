"""The benchmark's workloads: closed loops with one caller each.

Every workload runs the README configuration (L=2, d=48, V=257, T=64,
batch 2, n=4 ``weighted_softmax`` where perspectives apply) on a corpus made
by ``synth.generate_corpus(seed, ...)``; the program sees nothing else. The
workload seed picks the corpus only: model initialisation, noise and context
sampling use the fixed ``MODEL_SEED``. ``val_ppl`` scores the call's model on
one fixed held-out text (``QUALITY_SEED``), so it moves with the program and
not with which corpus the seed drew.

A workload has three parts:

* ``setup``: corpus generation, seeded base build and a checkpoint round
  trip (plus, where needed, the perspective extension); timed as ``setup_s``.
* ``call``: one call into the program, made of a fixed number of timed
  operations (training steps, eval chunks or decoded tokens). The runner
  repeats it until the run's time is up, so the next call starts only when
  the last one has returned.
* ``check``: output checks on each call's result, and ``precheck`` for the
  checks that run once, outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODEL = dict(n_layers=2, d_model=48, vocab_size=257, context_length=64)
N_PERSPECTIVES = 4
AGGREGATION = "weighted_softmax"
BATCH = 2
CORPUS_RECORDS = 3000          # ~75k byte tokens
VAL_SLICE = 256                # validation tokens scored after each training call
QUALITY_SEED = 99991           # held-out text behind val_ppl, the same for every seed
QUALITY_TOKENS = 4096          # scored once per run, untimed
FINETUNE_CONTEXTS = 32         # 16 steps per finetune_perspectives call
PRETRAIN_CONTEXTS = 64         # 32 steps per pretrain_base call
STREAM_TOKENS = 2048           # 32 chunks of 64 per perplexity call
CHECK_CHUNK = 48               # second chunk size for the invariance check
DECODE_TOKENS = 128            # tokens per decode call
MODEL_SEED = 0
DECODE_TOL = 1e-5              # T=1 vs chunked logits, absolute
CHUNK_TOL = 1e-5               # perplexity at two chunk sizes, relative


@dataclass
class CallResult:
    ops: int           # timed operations in the call
    tokens: int        # tokens processed by the call
    outputs: dict      # what the checks and the traced/untraced comparison read
    model: object      # the model the call trained or ran; val_ppl scores it


@dataclass
class Base:
    cfg: object
    store: object
    train: np.ndarray
    val: np.ndarray
    ckpt_bytes: int


def build_base(rw, seed: int, workdir) -> Base:
    """Corpus from the seed, a base model, and a checkpoint round trip."""
    tokens = rw.tokenizer.tokenize(rw.synth.generate_corpus(seed, CORPUS_RECORDS))
    train, val = rw.corpus.train_val_split(tokens, 0.1)
    cfg = rw.model.ModelConfig(**MODEL)
    store, mask = rw.model.init_base_params(cfg, MODEL_SEED)
    path = workdir / f"base-seed{seed}.ckpt"
    rw.checkpoint.save_checkpoint(store, cfg, mask, path, seeds=[seed])
    store, cfg, _, _ = rw.checkpoint.load_checkpoint(path)
    return Base(cfg, store, train, val, path.stat().st_size)


class Workload:
    name = ""
    why = ""
    op = ""            # what one timed operation is

    def __init__(self, rw, seed: int, workdir):
        self.rw, self.seed, self.workdir = rw, seed, workdir

    def setup(self) -> None:
        self.base = build_base(self.rw, self.seed, self.workdir)

    def clock_points(self):
        """(owner, attribute) pairs whose entry/return bound one operation."""
        raise NotImplementedError

    def call(self) -> CallResult:
        raise NotImplementedError

    def check(self, result: CallResult) -> list[str]:
        return []

    def precheck(self, reference: CallResult) -> list[str]:
        return []

    def quality(self, reference: CallResult) -> float:
        """val_ppl: perplexity of the call's model on the fixed held-out text."""
        rw = self.rw
        text = rw.tokenizer.tokenize(rw.synth.generate_corpus(QUALITY_SEED, CORPUS_RECORDS // 10))
        return rw.evaluation.perplexity(reference.model, text[:QUALITY_TOKENS])


class _Training(Workload):
    """Shared step clock and checks of the two training workloads."""

    contexts = 0

    def train_config(self):
        return self.rw.training.TrainConfig(
            batch_size=BATCH, lr_max=1e-3, lr_min=2e-4, mini_epochs=1,
            contexts_per_mini_epoch=self.contexts,
            context_length=MODEL["context_length"], seed=MODEL_SEED)

    def clock_points(self):
        # a step runs from zero_grad to the return of the optimizer step
        return ((self.rw.params.ParamStore, "zero_grad"), (self.rw.training.Adam, "step"))

    def _result(self, log, cfg, store, mask) -> CallResult:
        losses = log.losses()
        return CallResult(ops=len(losses), tokens=self.contexts * MODEL["context_length"],
                          outputs={"losses": losses, "val_ppl": log.val_ppl[-1][1],
                                   "digest": store.digest(mask.trainable_names())},
                          model=self.rw.model.Model(cfg, store, mask))

    def check(self, result):
        errors = []
        if not all(math.isfinite(v) for v in result.outputs["losses"]):
            errors.append("non-finite training loss")
        if not math.isfinite(result.outputs["val_ppl"]):
            errors.append("non-finite validation perplexity")
        return errors


class FinetuneN4(_Training):
    name = "finetune_n4"
    why = ("The paper's main cost: frozen-base fine-tuning of n=4 perspectives runs 8 "
           "run_stream calls per step, so WKV fwd+bwd, perspectives, aggregation and the tape dominate.")
    op = "step"
    contexts = FINETUNE_CONTEXTS

    def setup(self):
        super().setup()
        self.base_digest = self.base.store.digest()
        self.frozen_names = None

    def call(self):
        rw, b = self.rw, self.base
        cfg, store, mask, log = rw.training.finetune_perspectives(
            b.store, b.cfg, N_PERSPECTIVES, AGGREGATION, b.train, b.val[:VAL_SLICE],
            self.train_config())
        result = self._result(log, cfg, store, mask)
        self.frozen_names = mask.frozen_names()
        result.outputs["frozen_digest"] = store.digest(self.frozen_names)
        return result

    def check(self, result):
        errors = super().check(result)
        if result.outputs["frozen_digest"] != self.base.store.digest(self.frozen_names):
            errors.append("frozen base parameters differ from the base checkpoint")
        if self.base.store.digest() != self.base_digest:
            errors.append("fine-tuning modified the base store")
        return errors


class PretrainN1(_Training):
    name = "pretrain_n1"
    why = ("Same tape and WKV backward with all ~86k parameters trainable, but bypasses the "
           "perspectives and aggregation layers; Adam is a larger share of the step.")
    op = "step"
    contexts = PRETRAIN_CONTEXTS

    def call(self):
        rw, b = self.rw, self.base
        store, mask, log = rw.training.pretrain_base(b.cfg, b.train, b.val[:VAL_SLICE],
                                                     self.train_config())
        return self._result(log, b.cfg, store, mask)


class _Inference(Workload):
    """An n=4 weighted_softmax extension of the base with seeded noise."""

    def setup(self):
        super().setup()
        rw, b = self.rw, self.base
        cfg, store, mask = rw.perspectives.extend_to_perspectives(
            b.store, b.cfg, N_PERSPECTIVES, AGGREGATION)
        rw.training.inject_selector_noise(store, 0.5, 0.0, MODEL_SEED)
        rw.training.inject_temporal_noise(store, cfg, 0.05, 0.0, MODEL_SEED)
        self.model = rw.model.Model(cfg, store, mask)
        self.stream = b.val[:STREAM_TOKENS]

    def clock_points(self):
        forward = (self.rw.model.Model, "forward")
        return forward, forward


class InferN4(_Inference):
    name = "infer_n4"
    why = ("No-grad streaming eval (perplexity in 64-token chunks) at n=4: bound by the "
           "WKV forward loop, with the tape off.")
    op = "chunk"

    def call(self):
        ppl = self.rw.evaluation.perplexity(self.model, self.stream,
                                            chunk=MODEL["context_length"])
        return CallResult(ops=len(self.stream) // MODEL["context_length"],
                          tokens=len(self.stream), outputs={"ppl": ppl}, model=self.model)

    def check(self, result):
        return [] if math.isfinite(result.outputs["ppl"]) else ["non-finite perplexity"]

    def precheck(self, reference):
        ppl = reference.outputs["ppl"]
        other = self.rw.evaluation.perplexity(self.model, self.stream, chunk=CHECK_CHUNK)
        gap = abs(other - ppl) / ppl
        if not gap <= CHUNK_TOL:
            return [f"perplexity at chunk {CHECK_CHUNK} differs by {gap:.3g} relative"]
        return []


class DecodeN4(_Inference):
    name = "decode_n4"
    why = ("Stateful T=1 decoding at n=4: the same layers as infer_n4 but per-op dispatch "
           "dominates and WKV is small, so a WKV gain that costs dispatch shows here.")
    op = "token"

    def setup(self):
        super().setup()
        self.tokens = self.stream[:DECODE_TOKENS]

    def call(self):
        rw, model = self.rw, self.model
        rows = []
        with rw.autograd.no_grad():
            states = model.init_states()
            for t in range(DECODE_TOKENS):
                logits, _, states = model.forward(self.tokens[t:t + 1], states)
                rows.append(logits.data[0])
        return CallResult(ops=DECODE_TOKENS, tokens=DECODE_TOKENS,
                          outputs={"logits": np.stack(rows)}, model=model)

    def precheck(self, reference):
        """Chunked forward over the same tokens, with state handoff."""
        rw, model, T = self.rw, self.model, MODEL["context_length"]
        parts = []
        with rw.autograd.no_grad():
            states = model.init_states()
            for start in range(0, DECODE_TOKENS, T):
                logits, _, states = model.forward(self.tokens[start:min(start + T, DECODE_TOKENS)],
                                                  states)
                parts.append(logits.data)
        self.chunked = np.concatenate(parts)
        return []

    def check(self, result):
        gap = float(np.abs(result.outputs["logits"] - self.chunked).max())
        if not gap <= DECODE_TOL:
            return [f"T=1 logits differ from the chunked forward by {gap:.3g}"]
        return []


WORKLOADS = {w.name: w for w in (FinetuneN4, PretrainN1, InferN4, DecodeN4)}
