"""Outside-in instrumentation of the rwkvp package for the benchmark.

Nothing under ``src/`` knows about this module. It swaps module and class
attributes of the loaded ``rwkvp`` modules for timing wrappers and puts the
originals back afterwards:

* ``OpClock`` probes mark where each timed operation (a training step, an
  eval chunk, a decoded token) starts and ends. They are two clock reads per
  operation and are installed in every run, traced or not.
* ``Tracer`` wraps the public functions of the traced modules plus a few
  boundary methods (``Tensor.backward``, ``Model.forward``, ``Adam.step``,
  ``ParamStore.zero_grad`` / ``collect_grads``). Each call opens a span with
  a name, start, end, parent and operation id. Each tape node returned by a
  wrapped function gets its ``_backward`` closure swapped for a timed one, so
  backward time is credited to the layers whose scope created the node.

Wrappers only pass arguments and results through, so a traced run computes
bitwise the same numbers as an untraced one (checked by ``selftest.py`` and
by every traced benchmark run).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

perf_counter = time.perf_counter

TRACED_MODULES = ("autograd", "wkv", "model", "perspectives", "aggregation",
                  "training", "evaluation", "checkpoint")

# autograd helpers that build no tape node; wrapping them would only add cost
AUTOGRAD_HELPERS = frozenset({"as_tensor", "set_default_dtype", "get_default_dtype",
                              "double_precision", "no_grad", "set_debug"})
OP_CATEGORIES = {"matmul": "matmul", "layer_norm": "layer_norm",
                 "cross_entropy": "cross_entropy"}   # every other op: "elementwise"

# (module, class or None, attribute) wrapped besides the public functions
BOUNDARIES = (("autograd", None, "_toposort"), ("autograd", "Tensor", "backward"),
              ("model", "Model", "forward"), ("training", "Adam", "step"),
              ("params", "ParamStore", "zero_grad"), ("params", "ParamStore", "collect_grads"))

# span name -> layer buckets the call opens; forward time is credited to a
# bucket by the outermost call that opens it, backward time by every tape node
# created while the bucket is open
BUCKETS = {
    "autograd._toposort": ("autograd.toposort",),
    "autograd.Tensor.backward": ("autograd.backward",),
    "wkv.wkv_sequence": ("wkv",),
    "wkv.wkv_step": ("wkv",),
    "model.run_stream": ("model.run_stream",),
    "model.time_mixing": ("model.time_mixing",),
    "model.channel_mixing": ("model.channel_mixing",),
    "model.head_logits": ("model.head",),
    "perspectives.multi_forward": ("perspectives.multi_forward",),
    "training.pretrain_base": ("training.run",),
    "training.finetune_perspectives": ("training.run",),
    "training.Adam.step": ("training.optimizer",),
    "training.clip_global_norm": ("training.clip",),
    "params.ParamStore.collect_grads": ("training.collect_grads",),
    "evaluation.perplexity": ("evaluation.perplexity",),
    "checkpoint.save_checkpoint": ("checkpoint.save",),
    "checkpoint.load_checkpoint": ("checkpoint.load",),
}
# span name -> (enclosing bucket, bucket): opened only inside the enclosing one
NESTED_BUCKETS = {
    "evaluation.perplexity": (("training.run", "training.val_ppl"),),
    "model.head_logits": (("aggregation", "aggregation.head"),),
    "model.run_stream": (("perspectives.multi_forward", "perspectives.stream"),),
    "model.Model.forward": (("evaluation.perplexity", "evaluation.chunk"),),
    "autograd.embed": (("model.run_stream", "model.embed_ln0"),),
}
EMBED_LN0 = "model.embed_ln0"

MAX_SPANS = 50_000


class Patcher:
    """Swaps attributes and restores them, last swapped first."""

    def __init__(self):
        self._saved = []

    def swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> list:
        """Put every original back; returns the (owner, attr, original) triples."""
        done = []
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
            done.append((owner, attr, orig))
        return done


def all_restored(restored) -> bool:
    return all(owner.__dict__[attr] is orig for owner, attr, orig in restored)


class OpClock:
    """Start and end time of every timed operation of a workload."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._patcher = Patcher()

    def install(self, begin_at, end_at) -> None:
        """Read the clock when begin_at is entered and when end_at returns.

        Both are (owner, attribute) pairs; they may name the same method.
        """
        starts, ends = self.starts, self.ends
        b_owner, b_attr = begin_at
        e_owner, e_attr = end_at
        if (b_owner, b_attr) == (e_owner, e_attr):
            orig = b_owner.__dict__[b_attr]

            def both(*args, **kwargs):
                starts.append(perf_counter())
                out = orig(*args, **kwargs)
                ends.append(perf_counter())
                return out
            self._patcher.swap(b_owner, b_attr, both)
            return
        b_orig = b_owner.__dict__[b_attr]
        e_orig = e_owner.__dict__[e_attr]

        def begin(*args, **kwargs):
            starts.append(perf_counter())
            return b_orig(*args, **kwargs)

        def end(*args, **kwargs):
            out = e_orig(*args, **kwargs)
            ends.append(perf_counter())
            return out
        self._patcher.swap(b_owner, b_attr, begin)
        self._patcher.swap(e_owner, e_attr, end)

    def uninstall(self) -> list:
        return self._patcher.restore()

    def count(self) -> int:
        return len(self.starts)

    def durations(self, since: int = 0) -> list[float]:
        return [e - s for s, e in zip(self.starts[since:], self.ends[since:])]


@dataclass(frozen=True)
class _Spec:
    name: str
    buckets: tuple
    nested: tuple
    tape: bool            # wrap the _backward closure of the returned node


class _Frame:
    __slots__ = ("credits", "span", "embed_out")

    def __init__(self, credits, span):
        self.credits = credits
        self.span = span
        self.embed_out = None


def _targets(rwkvp_modules: dict):
    """(owner, attribute, span name, function) for everything to wrap."""
    out = []
    for short in TRACED_MODULES:
        mod = rwkvp_modules[short]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or hasattr(obj, "__wrapped__")):
                continue
            if short == "autograd" and attr in AUTOGRAD_HELPERS:
                continue
            out.append((mod, attr, f"{short}.{attr}", obj))
    for short, cls_name, attr in BOUNDARIES:
        mod = rwkvp_modules[short]
        owner = getattr(mod, cls_name) if cls_name else mod
        name = f"{short}.{cls_name}.{attr}" if cls_name else f"{short}.{attr}"
        out.append((owner, attr, name, owner.__dict__[attr]))
    return out


def _spec(name: str) -> _Spec:
    module, _, attr = name.partition(".")
    buckets = BUCKETS.get(name, ())
    tape = False
    if module == "autograd" and "." not in attr and not attr.startswith("_"):
        buckets = (f"autograd.{OP_CATEGORIES.get(attr, 'elementwise')}",)
        tape = True
    elif name == "wkv.wkv_sequence":
        tape = True
    elif module == "aggregation":
        buckets = ("aggregation",)
    return _Spec(name, buckets, NESTED_BUCKETS.get(name, ()), tape)


class Tracer:
    """Spans, per-layer time buckets and exact counters for one process.

    ``current_op`` returns the id of the operation in progress; spans of one
    operation share it.
    """

    def __init__(self, rwkvp_modules: dict, current_op=lambda: 0):
        self._modules = rwkvp_modules
        self._tensor_cls = rwkvp_modules["autograd"].Tensor
        self._current_op = current_op
        self._patcher = Patcher()
        self._stack: list[_Frame] = []
        self._open_cache: dict = {}
        self._fwd_t0 = None
        self.fwd = defaultdict(float)      # bucket -> seconds, forward
        self.bwd = defaultdict(float)      # bucket -> seconds, tape-node backward
        self.calls = defaultdict(int)      # bucket -> calls that opened it
        self.counters = defaultdict(int)   # exact counts
        self.closures_s = 0.0              # all timed backward closures
        self.top_s = 0.0                   # spans with no parent
        self.spans: list[tuple] = []      # (id, name, start, end, parent id, op id)
        self.n_spans = 0
        self._t0 = perf_counter()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "rwkvp" or n.startswith("rwkvp.")]
        for owner, attr, name, fn in _targets(self._modules):
            wrapper = self._wrap(fn, _spec(name))
            self._patcher.swap(owner, attr, wrapper)
            if inspect.ismodule(owner):
                # names imported with "from rwkvp.x import f" elsewhere
                for mod in modules:
                    for alias, obj in list(vars(mod).items()):
                        if obj is fn and not (mod is owner and alias == attr):
                            self._patcher.swap(mod, alias, wrapper)

    def uninstall(self) -> list:
        self._stack.clear()
        return self._patcher.restore()

    # -- recording --------------------------------------------------------

    def _opened(self, spec: _Spec, parent_credits: tuple):
        key = (spec.name, parent_credits)
        hit = self._open_cache.get(key)
        if hit is None:
            opened = tuple(b for b in spec.buckets if b not in parent_credits)
            opened += tuple(b for outer, b in spec.nested
                            if outer in parent_credits and b not in parent_credits)
            hit = self._open_cache[key] = (opened, parent_credits + opened)
        return hit

    def _wrap(self, fn, spec: _Spec):
        tracer = self
        tensor_cls = self._tensor_cls
        stack = self._stack
        fwd, calls, counters = self.fwd, self.calls, self.counters
        is_backward = spec.name == "autograd.Tensor.backward"
        is_zero_grad = spec.name == "params.ParamStore.zero_grad"
        is_toposort = spec.name == "autograd._toposort"
        is_wkv_seq = spec.name == "wkv.wkv_sequence"
        is_embed = spec.name == "autograd.embed"
        is_ln = spec.name == "autograd.layer_norm"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            opened, credits = tracer._opened(spec, parent.credits if parent else ())
            if is_ln and parent is not None and parent.embed_out is not None \
                    and args and args[0] is parent.embed_out:
                parent.embed_out = None
                if EMBED_LN0 not in credits:
                    opened, credits = opened + (EMBED_LN0,), credits + (EMBED_LN0,)
            frame = _Frame(credits, tracer.n_spans)
            tracer.n_spans += 1
            stack.append(frame)
            t0 = perf_counter()
            if is_backward and tracer._fwd_t0 is not None:
                fwd["training.forward"] += t0 - tracer._fwd_t0
                tracer._fwd_t0 = None
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                for b in opened:
                    fwd[b] += dt
                    calls[b] += 1
                if parent is None:
                    tracer.top_s += dt
                tracer._record(frame.span, spec.name, t0, t1, parent)
            if spec.tape:
                node = out[0] if isinstance(out, tuple) else out
                if isinstance(node, tensor_cls) and node._backward is not None:
                    tracer._time_node(node, spec.name, credits)
                if is_wkv_seq:
                    counters["wkv.channel_steps"] += args[0].data.size
                elif is_embed and parent is not None:
                    parent.embed_out = out
            elif is_toposort:
                counters["autograd.graph_nodes"] += len(out)
            elif is_zero_grad:
                tracer._fwd_t0 = t1
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _time_node(self, node, name: str, credits: tuple) -> None:
        orig = node._backward
        tracer = self
        bwd = self.bwd
        span_name = "backward:" + name

        def timed(g):
            parent = tracer._stack[-1] if tracer._stack else None
            t0 = perf_counter()
            orig(g)
            t1 = perf_counter()
            dt = t1 - t0
            tracer.closures_s += dt
            for b in credits:
                bwd[b] += dt
            tracer.n_spans += 1
            tracer._record(tracer.n_spans - 1, span_name, t0, t1, parent)
        node._backward = timed

    def _record(self, span, name, t0, t1, parent) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span, name, t0 - self._t0, t1 - self._t0,
                               parent.span if parent is not None else None,
                               self._current_op()))

    def op_calls(self) -> int:
        return sum(n for b, n in self.calls.items() if b.startswith("autograd.")
                   and b not in ("autograd.backward", "autograd.toposort"))
