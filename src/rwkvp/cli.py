"""Operator-facing command line.

Subcommands: pretrain, finetune, eval, ablate, trace, count-params,
gradcheck. Every command that writes outputs records the effective config
and seed in its output directory, so any run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from rwkvp import autograd as ag
from rwkvp import checkpoint as ckpt
from rwkvp import corpus as corpus_mod
from rwkvp import evaluation, gradcheck, training
from rwkvp import model as m

DEFAULT_N_PERSPECTIVES = 4     # finetune, ablate and count-params


class CliError(Exception):
    pass


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as e:
        raise CliError(f"cannot read config file {path}: {e.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CliError(f"invalid config file {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    # the sections _build_configs reads, and the output-only records
    # _echo_config writes beside them, so effective_config.json works as --config
    unknown = [key for key in cfg if key not in ("model", "train", "runtime", "ablation")]
    if unknown:
        raise CliError(f"config file {path}: unknown section(s) {', '.join(map(repr, unknown))}")
    return cfg


# the flags _build_configs copies onto ModelConfig and TrainConfig
_MODEL_FLAGS = ("n_perspectives", "aggregation")
_TRAIN_FLAGS = ("seed", "noise_target", "noise_std")
# the fields a checkpoint fixes for every run that starts from it
_BASE_FIELDS = ("n_layers", "d_model", "vocab_size", "context_length")


def _check_given(given: dict, name: str, label: str, used) -> None:
    """Raise ConfigError if `given` (file values or flags) sets name to other than
    the value the run uses; a list of values is the arms', which take none from outside."""
    if name in given and given[name] != used:
        uses = f"each of {used!r}" if isinstance(used, list) else repr(used)
        raise m.ConfigError(f"{label} is {given[name]!r}, but the run uses {uses}")


def _build_configs(args, base_cfg: m.ModelConfig | None = None, fixed: dict | None = None,
                   **model_defaults) -> tuple[m.ModelConfig, training.TrainConfig]:
    """Defaults, then file values, then the flags the subcommand declares.

    A base checkpoint's config fixes the model's shape, `fixed` maps the
    fields the subcommand sets itself to the value the run uses (or to the
    list of values its arms take), and the model's context length is the
    training one: a file value or a flag that disagrees is a ConfigError.
    """
    file_cfg = _load_config_file(args.config)
    file_model, file_train = file_cfg.get("model", {}), file_cfg.get("train", {})
    try:
        model_cfg = m.ModelConfig(**{**model_defaults, **file_model})
        train_cfg = training.TrainConfig(**file_train)
    except TypeError as e:          # a field the config does not have; a bad value is a ConfigError
        raise CliError(f"invalid config field: {e}")
    fixed = dict(fixed or {})
    if base_cfg is not None:
        fixed.update({name: getattr(base_cfg, name) for name in _BASE_FIELDS})
    flags = {k: v for k, v in vars(args).items() if v is not None}
    for name, used in fixed.items():
        section = "model" if hasattr(model_cfg, name) else "train"
        _check_given(file_cfg.get(section, {}), name, f"the config file's {section}.{name}", used)
        _check_given(flags, name, "--" + name.replace("_", "-"), used)
    model_cfg = replace(model_cfg, **{name: used for name, used in fixed.items()
                                      if hasattr(model_cfg, name) and not isinstance(used, list)})
    _check_given(file_train, "context_length", "the config file's train.context_length",
                 model_cfg.context_length)
    model_cfg = replace(model_cfg, **{k: flags[k] for k in _MODEL_FLAGS if k in flags})
    train_cfg = replace(train_cfg, context_length=model_cfg.context_length,
                        **{k: flags[k] for k in _TRAIN_FLAGS if k in flags})
    return model_cfg, train_cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot make output directory {out}: {e.strerror}") from None
    return out


def _blas_kernel() -> str | None:
    """The kernel OpenBLAS picked when numpy loaded it, asked of the
    scipy-openblas library a numpy wheel ships (Linux, Windows, macOS)."""
    here = Path(np.__file__).parent
    for path in sorted([*here.parent.glob("numpy.libs/*openblas*"),
                        *here.glob(".dylibs/*openblas*")]):
        try:
            query = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        query.argtypes, query.restype = (), ctypes.c_char_p
        return query().decode()
    return None


def _runtime() -> dict:
    """What a run's bytes depend on besides its settings (README: one numpy
    build, BLAS kernel and SIMD level); None where a value cannot be read."""
    try:
        from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                                   __cpu_features__)
        simd = " ".join([*__cpu_baseline__,
                         *(f for f in __cpu_dispatch__ if __cpu_features__[f])])
    except ImportError:
        simd = None
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy_version": np.__version__, "simd_extensions": simd or None,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_kernel": _blas_kernel()}


def _echo_config(out: Path, model_cfg, train_cfg, unshared=(), **records) -> None:
    """The settings the run used, less the unshared fields, plus output-only
    records: the runtime, and the caller's."""
    eff = {"model": asdict(model_cfg), "train": asdict(train_cfg)}
    for section in eff.values():
        for name in unshared:
            section.pop(name, None)
    (out / "effective_config.json").write_text(
        json.dumps({**eff, "runtime": _runtime(), **records}, indent=2, sort_keys=True) + "\n")


def _load_split_corpus(args):
    return corpus_mod.train_val_split(corpus_mod.load_corpus(args.corpus))


def cmd_pretrain(args) -> int:
    model_cfg, train_cfg = _build_configs(args)
    # a base has no aggregator leaves; the file's aggregation is for finetune
    model_cfg = replace(model_cfg, n_perspectives=1, aggregation="average")
    out = _outdir(args)
    _echo_config(out, model_cfg, train_cfg)
    train_tokens, val_tokens = _load_split_corpus(args)
    store, mask, log = training.pretrain_base(model_cfg, train_tokens, val_tokens, train_cfg)
    ckpt.save_checkpoint(store, model_cfg, mask, out / "base.ckpt", seeds=[train_cfg.seed])
    (out / "train_log.txt").write_text(log.to_text())
    print(f"pretrained base: val_ppl={log.val_ppl[-1][1]:.4f} -> {out / 'base.ckpt'}")
    return 0


def cmd_finetune(args) -> int:
    base_store, base_cfg, _, base_seeds = ckpt.load_checkpoint(args.checkpoint)
    model_cfg, train_cfg = _build_configs(args, base_cfg, n_perspectives=DEFAULT_N_PERSPECTIVES,
                                          aggregation="weighted_softmax")
    out = _outdir(args)
    _echo_config(out, model_cfg, train_cfg)
    train_tokens, val_tokens = _load_split_corpus(args)
    cfg, store, mask, log = training.finetune_perspectives(
        base_store, base_cfg, model_cfg.n_perspectives, model_cfg.aggregation,
        train_tokens, val_tokens, train_cfg)
    ckpt.save_checkpoint(store, cfg, mask, out / "finetuned.ckpt",
                         seeds=list(base_seeds) + [train_cfg.seed])
    (out / "train_log.txt").write_text(log.to_text())
    print(f"finetuned n={cfg.n_perspectives} ({cfg.aggregation}): "
          f"val_ppl={log.val_ppl[-1][1]:.4f} -> {out / 'finetuned.ckpt'}")
    return 0


def cmd_eval(args) -> int:
    out = _outdir(args) if args.out else None
    store, cfg, mask, _ = ckpt.load_checkpoint(args.checkpoint)
    tokens = corpus_mod.load_corpus(args.corpus)
    ppl = evaluation.perplexity(m.Model(cfg, store, mask), tokens)
    print(f"perplexity {ppl:.6f}")
    if out is not None:
        (out / "eval.txt").write_text(f"perplexity {ppl:.9g}\n")
    return 0


def cmd_ablate(args) -> int:
    base_store, base_cfg, _, _ = ckpt.load_checkpoint(args.checkpoint)
    arms = evaluation.DEFAULT_ARMS[args.axis]
    axis_field = "noise_target" if args.axis == "noise_placement" else args.axis
    # every arm runs the weighted head at n, once per seed, and sets the axis's field
    fixed = {"aggregation": "weighted_softmax", "seed": args.seeds, axis_field: arms}
    model_cfg, train_cfg = _build_configs(args, base_cfg, fixed,
                                          n_perspectives=DEFAULT_N_PERSPECTIVES)
    out = _outdir(args)
    _echo_config(out, model_cfg, train_cfg, unshared=(axis_field, "seed"),
                 ablation={"axis": args.axis, "arms": arms, "seeds": args.seeds})
    train_tokens, val_tokens = _load_split_corpus(args)
    report = evaluation.run_ablation(
        args.axis, base_cfg, base_store, train_tokens, val_tokens, train_cfg,
        seeds=args.seeds, n_perspectives=model_cfg.n_perspectives)
    (out / f"ablation_{args.axis}.csv").write_text(report.to_csv())
    (out / f"ablation_{args.axis}.txt").write_text(report.to_table())
    print(report.to_table())
    return 0


def cmd_trace(args) -> int:
    out = _outdir(args)
    store, cfg, mask, _ = ckpt.load_checkpoint(args.checkpoint)
    model = m.Model(cfg, store, mask)
    if args.prompt is not None:
        from rwkvp import tokenizer
        # the argument's bytes as the shell passed them: argv is decoded with
        # surrogateescape, so a byte that is not UTF-8 comes back as itself
        tokens = tokenizer.tokenize(os.fsencode(args.prompt))
    else:
        tokens = corpus_mod.load_corpus(args.corpus)[:args.max_tokens]
    weights = evaluation.trace_weights(model, tokens)
    (out / "trace.csv").write_text(evaluation.trace_to_csv(tokens, weights))
    (out / "trace.svg").write_text(evaluation.render_trace_svg(weights))
    print(f"traced {len(weights)} positions -> {out / 'trace.csv'}, {out / 'trace.svg'}")
    return 0


def cmd_count_params(args) -> int:
    cfg = m.ModelConfig(n_layers=args.layers, d_model=args.d_model,
                        vocab_size=args.vocab, n_perspectives=args.n_perspectives,
                        aggregation=args.aggregation)
    report = evaluation.count_parameters(cfg, base_total=args.base_total)
    print(f"base {report.base_count:.6g}  extended {report.extended_count:.6g}  "
          f"increase {report.increase_fraction:.4f}%")
    return 0


def cmd_gradcheck(args) -> int:
    result = gradcheck.model_gradcheck(args.seed)
    print(f"gradcheck: max_rel_error={result.max_rel_error:.3e} "
          f"coords={result.coords_checked}")
    return 0 if result.max_rel_error < 1e-4 else 1


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer seed, got {text!r}")
    return int(text)


def _seed_list(text: str) -> list[int]:
    return [_seed(s) for s in text.split(",")]


# flags shared by several subcommands; each subcommand declares the ones it reads
_FLAGS = {
    "--config": dict(help="JSON config file ({'model': ..., 'train': ...})"),
    "--checkpoint": dict(required=True, help="checkpoint path"),
    "--corpus": dict(required=True, help="plain-text corpus file"),
    "--out": dict(required=True, help="output directory"),
    "--seed": dict(type=_seed, help="training seed (overrides the config file)"),
    "--n-perspectives": dict(type=int, help=f"perspectives (default {DEFAULT_N_PERSPECTIVES})"),
    "--aggregation": dict(choices=m.AGGREGATION_MODES),
    "--noise-target": dict(choices=training.NOISE_TARGETS),
    "--noise-std": dict(type=float),
}


def _add_flags(p, *flags) -> None:
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rwkvp",
                                     description="Multi-perspective RWKV toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a tiny n=1 base from scratch")
    _add_flags(p, "--config", "--corpus", "--out", "--seed")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="frozen-base fine-tune of n perspectives")
    _add_flags(p, "--config", "--checkpoint", "--corpus", "--out", "--seed",
               "--n-perspectives", "--aggregation", "--noise-target", "--noise-std")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="perplexity of a checkpoint on a corpus")
    _add_flags(p, "--checkpoint", "--corpus")
    p.add_argument("--out", help="output directory for eval.txt")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation axis over seeds")
    _add_flags(p, "--config", "--checkpoint", "--corpus", "--out")
    p.add_argument("--axis", required=True, choices=list(evaluation.ABLATION_AXES))
    p.add_argument("--seeds", type=_seed_list, default="0,1,2",
                   help="comma-separated seed list")
    _add_flags(p, "--n-perspectives", "--noise-target", "--noise-std")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("trace", help="export per-token perspective weights (CSV + SVG)")
    _add_flags(p, "--checkpoint", "--out")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--prompt", help="inline prompt text")
    source.add_argument("--corpus", help="plain-text corpus file")
    p.add_argument("--max-tokens", type=_positive_int, default=1000,
                   help="corpus tokens to trace (default 1000)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("count-params", help="analytic parameter-count report")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--d-model", type=int, required=True)
    p.add_argument("--vocab", type=int, default=50277)
    p.add_argument("--n-perspectives", type=int, default=DEFAULT_N_PERSPECTIVES)
    p.add_argument("--aggregation", choices=m.AGGREGATION_MODES, default="weighted_softmax")
    p.add_argument("--base-total", type=float,
                   help="published base parameter total to anchor the ratio")
    p.set_defaults(fn=cmd_count_params)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    # no prefix matching: ablate would read --seed as its --seeds
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, m.ConfigError, ckpt.CheckpointError, corpus_mod.CorpusError,
            training.DivergenceError, ag.NonFiniteError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
