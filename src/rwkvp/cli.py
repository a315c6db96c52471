"""Operator-facing command line.

Subcommands: pretrain, finetune, eval, ablate, trace, count-params,
gradcheck. Every command that writes outputs records the effective config
and seed in its output directory, so any run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from rwkvp import autograd as ag
from rwkvp import checkpoint as ckpt
from rwkvp import corpus as corpus_mod
from rwkvp import evaluation, gradcheck, training
from rwkvp import model as m

AGG_CLI_NAMES = {"average": "average", "transformer": "transformer_like",
                 "weighted": "weighted_softmax"}


class CliError(Exception):
    pass


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"invalid config file {path}: {e}")
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return cfg


def _build_configs(args, **model_defaults) -> tuple[m.ModelConfig, training.TrainConfig]:
    """Defaults, then file values, then flag overrides."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    try:
        model_cfg = m.ModelConfig(**{**model_defaults, **file_cfg.get("model", {})})
        train_cfg = training.TrainConfig(**file_cfg.get("train", {}))
    except (TypeError, m.ConfigError) as e:
        raise CliError(f"invalid config field: {e}")
    overrides = {}
    if getattr(args, "n_perspectives", None) is not None:
        overrides["n_perspectives"] = args.n_perspectives
    if getattr(args, "aggregation", None) is not None:
        overrides["aggregation"] = AGG_CLI_NAMES[args.aggregation]
    if overrides:
        model_cfg = replace(model_cfg, **overrides)
    t_overrides = {}
    for flag, field in (("seed", "seed"), ("noise_target", "noise_target"),
                        ("noise_std", "noise_std")):
        if getattr(args, flag, None) is not None:
            t_overrides[field] = getattr(args, flag)
    t_overrides["context_length"] = model_cfg.context_length
    train_cfg = replace(train_cfg, **t_overrides)
    return model_cfg, train_cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(out: Path, model_cfg, train_cfg) -> None:
    eff = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()}
    (out / "effective_config.json").write_text(json.dumps(eff, indent=2, sort_keys=True) + "\n")


def _load_split_corpus(args, train_cfg):
    if args.corpus is None:
        raise CliError("--corpus is required")
    try:
        tokens = corpus_mod.load_corpus(args.corpus)
    except FileNotFoundError:
        raise CliError(f"corpus file not found: {args.corpus}")
    return corpus_mod.train_val_split(tokens)


def cmd_pretrain(args) -> int:
    model_cfg, train_cfg = _build_configs(args)
    # a base has no aggregator leaves; the file's aggregation is for finetune
    model_cfg = replace(model_cfg, n_perspectives=1, aggregation="average")
    out = _outdir(args)
    _echo_config(out, model_cfg, train_cfg)
    train_tokens, val_tokens = _load_split_corpus(args, train_cfg)
    store, mask, log = training.pretrain_base(model_cfg, train_tokens, val_tokens, train_cfg)
    ckpt.save_checkpoint(store, model_cfg, mask, out / "base.ckpt", seeds=[train_cfg.seed])
    (out / "train_log.txt").write_text(log.to_text())
    print(f"pretrained base: val_ppl={log.val_ppl[-1][1]:.4f} -> {out / 'base.ckpt'}")
    return 0


def cmd_finetune(args) -> int:
    model_cfg, train_cfg = _build_configs(args, aggregation="weighted_softmax")
    out = _outdir(args)
    base_store, base_cfg, _, base_seeds = ckpt.load_checkpoint(args.checkpoint)
    n = model_cfg.n_perspectives
    _echo_config(out, replace(base_cfg, n_perspectives=n,
                              aggregation=model_cfg.aggregation), train_cfg)
    train_tokens, val_tokens = _load_split_corpus(args, train_cfg)
    cfg, store, mask, log = training.finetune_perspectives(
        base_store, base_cfg, n, model_cfg.aggregation,
        train_tokens, val_tokens, replace(train_cfg, context_length=base_cfg.context_length))
    ckpt.save_checkpoint(store, cfg, mask, out / "finetuned.ckpt",
                         seeds=list(base_seeds) + [train_cfg.seed])
    (out / "train_log.txt").write_text(log.to_text())
    print(f"finetuned n={n} ({cfg.aggregation}): "
          f"val_ppl={log.val_ppl[-1][1]:.4f} -> {out / 'finetuned.ckpt'}")
    return 0


def cmd_eval(args) -> int:
    store, cfg, mask, _ = ckpt.load_checkpoint(args.checkpoint)
    tokens = corpus_mod.load_corpus(args.corpus) if args.corpus else None
    if tokens is None:
        raise CliError("--corpus is required")
    model = m.Model(cfg, store, mask)
    ppl = evaluation.perplexity(model, tokens)
    print(f"perplexity {ppl:.6f}")
    if args.out:
        out = _outdir(args)
        (out / "eval.txt").write_text(f"perplexity {ppl:.9g}\n")
    return 0


def cmd_ablate(args) -> int:
    model_cfg, train_cfg = _build_configs(args)
    out = _outdir(args)
    base_store, base_cfg, _, _ = ckpt.load_checkpoint(args.checkpoint)
    _echo_config(out, base_cfg, train_cfg)
    train_tokens, val_tokens = _load_split_corpus(args, train_cfg)
    seeds = [int(s) for s in args.seeds.split(",")]
    report = evaluation.run_ablation(
        args.axis, base_cfg, base_store, train_tokens, val_tokens,
        replace(train_cfg, context_length=base_cfg.context_length),
        seeds=seeds, n_perspectives=model_cfg.n_perspectives)
    (out / f"ablation_{args.axis}.csv").write_text(report.to_csv())
    (out / f"ablation_{args.axis}.txt").write_text(report.to_table())
    print(report.to_table())
    return 0


def cmd_trace(args) -> int:
    store, cfg, mask, _ = ckpt.load_checkpoint(args.checkpoint)
    model = m.Model(cfg, store, mask)
    if args.prompt is not None:
        from rwkvp import tokenizer
        tokens = tokenizer.tokenize(args.prompt)
    elif args.corpus is not None:
        tokens = corpus_mod.load_corpus(args.corpus)[:args.max_tokens]
    else:
        raise CliError("trace needs --prompt or --corpus")
    records = evaluation.trace_weights(model, tokens)
    out = _outdir(args)
    (out / "trace.csv").write_text(evaluation.trace_to_csv(records))
    (out / "trace.svg").write_text(evaluation.render_trace_svg(records))
    print(f"traced {len(records)} positions -> {out / 'trace.csv'}, {out / 'trace.svg'}")
    return 0


def cmd_count_params(args) -> int:
    cfg = m.ModelConfig(n_layers=args.layers, d_model=args.d_model,
                        vocab_size=args.vocab, n_perspectives=args.n_perspectives or 4,
                        aggregation=AGG_CLI_NAMES[args.aggregation or "weighted"])
    report = evaluation.count_parameters(cfg, base_total=args.base_total)
    print(f"base {report.base_count:.6g}  extended {report.extended_count:.6g}  "
          f"increase {report.increase_fraction:.4f}%")
    return 0


def cmd_gradcheck(args) -> int:
    from rwkvp import perspectives
    cfg = m.ModelConfig(n_layers=2, d_model=8, vocab_size=11, context_length=8)
    store, _ = m.init_base_params(cfg, seed=args.seed or 0)
    ft_cfg, ft_store, ft_mask = perspectives.extend_to_perspectives(store, cfg, n=3)
    # perturb away from the symmetric init: identical perspectives make the
    # selector gradient exactly zero, which the FD noise floor cannot resolve
    training.inject_selector_noise(ft_store, 0.05, 0.0, seed=args.seed or 0)
    training.inject_temporal_noise(ft_store, ft_cfg, 0.02, 0.0, seed=(args.seed or 0) + 1)
    ft_store = ft_store.astype(np.float64)
    ft_store.apply_freeze(ft_mask)
    rng = np.random.default_rng(args.seed or 0)
    tokens = rng.integers(0, cfg.vocab_size, size=6)

    def loss_fn(store):
        model2 = m.Model(ft_cfg, store, ft_mask)
        logits, _, _ = model2.forward(tokens[:-1])
        from rwkvp.autograd import cross_entropy
        return cross_entropy(logits, tokens[1:])

    result = gradcheck.finite_diff_check(loss_fn, ft_store, ft_mask, epsilon=1e-5)
    print(f"gradcheck: max_rel_error={result.max_rel_error:.3e} "
          f"coords={result.coords_checked}")
    return 0 if result.max_rel_error < 1e-4 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rwkvp",
                                     description="Multi-perspective RWKV toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON config file ({'model': ..., 'train': ...})")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--corpus", help="plain-text corpus file")
        p.add_argument("--checkpoint", help="checkpoint path")
        p.add_argument("--n-perspectives", type=int, dest="n_perspectives")
        p.add_argument("--aggregation", choices=sorted(AGG_CLI_NAMES))
        p.add_argument("--noise-target", choices=["selector", "temporal"],
                       dest="noise_target")
        p.add_argument("--noise-std", type=float, dest="noise_std")

    p = sub.add_parser("pretrain", help="train a tiny n=1 base from scratch")
    common(p)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="frozen-base fine-tune of n perspectives")
    common(p)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="perplexity of a checkpoint on a corpus")
    common(p, out_required=False)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation axis over seeds")
    common(p)
    p.add_argument("--axis", required=True, choices=list(evaluation.ABLATION_AXES))
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("trace", help="export per-token perspective weights (CSV + SVG)")
    common(p)
    p.add_argument("--prompt", help="inline prompt text")
    p.add_argument("--max-tokens", type=int, default=1000, dest="max_tokens")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("count-params", help="analytic parameter-count report")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--d-model", type=int, required=True, dest="d_model")
    p.add_argument("--vocab", type=int, default=50277)
    p.add_argument("--n-perspectives", type=int, dest="n_perspectives")
    p.add_argument("--aggregation", choices=sorted(AGG_CLI_NAMES))
    p.add_argument("--base-total", type=float, dest="base_total",
                   help="published base parameter total to anchor the ratio")
    p.set_defaults(fn=cmd_count_params)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_gradcheck)

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
