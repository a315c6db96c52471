import json
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from rwkvp import checkpoint as ckpt
from rwkvp import cli, perspectives, synth, training
from rwkvp import model as m
from rwkvp.params import FreezeMask, ParamStore


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    synth.write_corpus(path, seed=0, n_records=400)
    return path


@pytest.fixture(scope="module")
def micro_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "model": {"n_layers": 1, "d_model": 16, "vocab_size": 257,
                  "context_length": 32},
        "train": {"batch_size": 2, "lr_max": 1e-3, "lr_min": 5e-4,
                  "mini_epochs": 1, "contexts_per_mini_epoch": 6,
                  "context_length": 32},
    }))
    return path


@pytest.fixture(scope="module")
def pretrained_dir(tmp_path_factory, corpus_file, micro_config):
    out = tmp_path_factory.mktemp("runs") / "base"
    rc = cli.main(["pretrain", "--config", str(micro_config),
                   "--corpus", str(corpus_file), "--out", str(out), "--seed", "0"])
    assert rc == 0
    return out


def test_pretrain_outputs(pretrained_dir):
    assert (pretrained_dir / "base.ckpt").exists()
    assert (pretrained_dir / "train_log.txt").read_text().startswith("#")
    eff = json.loads((pretrained_dir / "effective_config.json").read_text())
    assert eff["model"]["n_perspectives"] == 1
    assert eff["model"]["aggregation"] == "average"
    assert eff["train"]["seed"] == 0


def test_full_pipeline(tmp_path, corpus_file, micro_config, pretrained_dir):
    ft = tmp_path / "ft"
    rc = cli.main(["finetune", "--config", str(micro_config),
                   "--checkpoint", str(pretrained_dir / "base.ckpt"),
                   "--corpus", str(corpus_file), "--out", str(ft),
                   "--n-perspectives", "2", "--aggregation", "weighted",
                   "--seed", "1"])
    assert rc == 0
    store, cfg, mask, seeds = ckpt.load_checkpoint(ft / "finetuned.ckpt")
    assert cfg.n_perspectives == 2 and cfg.aggregation == "weighted_softmax"
    assert seeds == [0, 1]
    assert len(mask.frozen_names()) > 0

    rc = cli.main(["eval", "--checkpoint", str(ft / "finetuned.ckpt"),
                   "--corpus", str(corpus_file), "--out", str(tmp_path / "ev")])
    assert rc == 0
    assert "perplexity" in (tmp_path / "ev" / "eval.txt").read_text()

    tr = tmp_path / "tr"
    rc = cli.main(["trace", "--checkpoint", str(ft / "finetuned.ckpt"),
                   "--prompt", "abc:123=abc;", "--out", str(tr)])
    assert rc == 0
    csv_text = (tr / "trace.csv").read_text()
    assert csv_text.startswith("position,token,weight_1,weight_2,top")
    assert "<svg" in (tr / "trace.svg").read_text()


def test_flag_overrides_config_file(tmp_path, corpus_file, micro_config):
    out = tmp_path / "o"
    rc = cli.main(["pretrain", "--config", str(micro_config),
                   "--corpus", str(corpus_file), "--out", str(out), "--seed", "9"])
    assert rc == 0
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["train"]["seed"] == 9                  # flag wins
    assert eff["train"]["lr_max"] == 1e-3             # file value kept


def test_count_params_report(capsys):
    rc = cli.main(["count-params", "--layers", "12", "--d-model", "768",
                   "--n-perspectives", "4", "--aggregation", "weighted",
                   "--base-total", "1.6934e8"])
    assert rc == 0
    out = capsys.readouterr().out
    pct = float(out.split("increase")[1].replace("%", "").strip())
    assert abs(pct - 0.08) <= 0.02


def test_gradcheck_command(capsys):
    rc = cli.main(["gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max_rel_error" in out


def test_missing_config_file_errors(tmp_path, capsys, corpus_file):
    rc = cli.main(["pretrain", "--config", str(tmp_path / "nope.json"),
                   "--corpus", str(corpus_file), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_corpus_errors(tmp_path, capsys, micro_config):
    rc = cli.main(["pretrain", "--config", str(micro_config),
                   "--corpus", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "corpus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "trace"])
def test_read_only_commands_missing_corpus_error(tmp_path, capsys, pretrained_dir, command):
    rc = cli.main([command, "--checkpoint", str(pretrained_dir / "base.ckpt"),
                   "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "CorpusError" in capsys.readouterr().err


def test_bad_checkpoint_errors(tmp_path, capsys, corpus_file, micro_config):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage file contents")
    rc = cli.main(["finetune", "--config", str(micro_config),
                   "--checkpoint", str(bad), "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "CheckpointError" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [
    b"5",
    b"[1,2]",
    b'{"version":%d}' % ckpt.FORMAT_VERSION,
    b'{"config":{},"freeze_mask":{},"payload_sha256":"","tensors":[{"name":"x"}],'
    b'"version":%d}' % ckpt.FORMAT_VERSION,
], ids=["number", "list", "no-tensors", "tensor-entry-lacks-keys"])
def test_eval_malformed_manifest_errors(tmp_path, capsys, corpus_file, manifest):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(manifest)) + manifest)
    rc = cli.main(["eval", "--checkpoint", str(path), "--corpus", str(corpus_file)])
    assert rc == 1
    assert "CheckpointError" in capsys.readouterr().err


def test_eval_non_finite_weight_errors(tmp_path, capsys, corpus_file):
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    store, mask = m.init_base_params(cfg, seed=0)
    store["emb.weight"].data[3, 5] = np.nan
    path = tmp_path / "nan.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    rc = cli.main(["eval", "--checkpoint", str(path), "--corpus", str(corpus_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "emb.weight" in err


def _mismatched_checkpoint(case):
    """A store and the config it is saved under, whose tensors it does not match."""
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    store, mask = m.init_base_params(cfg, seed=0)
    if case == "missing-head":
        kept = ParamStore()
        for name, t in store.items():
            if name != "head.weight":
                kept.add(name, t.data)
        store, mask = kept, FreezeMask.fromkeys(kept.names(), True)
    elif case == "extra-tensor":
        _, store, mask = perspectives.extend_to_perspectives(store, cfg, 1, "weighted_softmax")
    elif case == "n4-over-base":
        cfg = replace(cfg, n_perspectives=4)
    elif case == "d16-over-d8":
        cfg = replace(cfg, d_model=16)
    return store, cfg, mask


@pytest.mark.parametrize("case,named", [
    ("missing-head", "head.weight"), ("extra-tensor", "selector.W"),
    ("n4-over-base", "layer0.att.mu_k"), ("d16-over-d8", "emb.weight")])
def test_eval_checkpoint_tensors_must_match_config(tmp_path, capsys, corpus_file, case, named):
    store, cfg, mask = _mismatched_checkpoint(case)
    path = tmp_path / f"{case}.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    rc = cli.main(["eval", "--checkpoint", str(path), "--corpus", str(corpus_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "do not match the config" in err and named in err


def test_eval_config_larger_than_payload_errors(tmp_path, capsys, corpus_file, monkeypatch):
    cfg = m.ModelConfig(n_layers=2, d_model=48, vocab_size=257, context_length=64)
    store, mask = m.init_base_params(cfg, seed=0)
    path = tmp_path / "huge.ckpt"
    ckpt.save_checkpoint(store, replace(cfg, d_model=1_000_000), mask, path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint built a model for an unchecked config")

    monkeypatch.setattr(ckpt, "init_base_params", refuse)
    rc = cli.main(["eval", "--checkpoint", str(path), "--corpus", str(corpus_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "85824 parameters" in err


def test_eval_trailing_bytes_errors(tmp_path, capsys, corpus_file):
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    store, mask = m.init_base_params(cfg, seed=0)
    path = tmp_path / "tail.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    path.write_bytes(path.read_bytes() + b"garbage")
    rc = cli.main(["eval", "--checkpoint", str(path), "--corpus", str(corpus_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "trailing" in err


def test_trace_empty_prompt_errors(tmp_path, capsys):
    base_cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    base_store, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base_store, base_cfg, 2)
    path = tmp_path / "ft.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    rc = cli.main(["trace", "--checkpoint", str(path), "--prompt", "",
                   "--out", str(tmp_path / "tr")])
    assert rc == 1
    assert "CorpusError" in capsys.readouterr().err


def test_eval_version_1_checkpoint_errors(tmp_path, capsys, corpus_file):
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    store, mask = m.init_base_params(cfg, seed=0)
    path = tmp_path / "v1.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, len(ckpt.MAGIC))
    start = len(ckpt.MAGIC) + 4
    manifest = raw[start:start + mlen].replace(b'"version":%d' % ckpt.FORMAT_VERSION,
                                               b'"version":1')
    path.write_bytes(raw[:start - 4] + struct.pack("<I", len(manifest)) + manifest
                     + raw[start + mlen:])
    rc = cli.main(["eval", "--checkpoint", str(path), "--corpus", str(corpus_file)])
    assert rc == 1
    assert "VersionMismatchError" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_non_finite_perplexity_errors(tmp_path, capsys, corpus_file):
    cfg = m.ModelConfig(n_layers=1, d_model=8, vocab_size=257, context_length=8)
    store, mask = m.init_base_params(cfg, seed=0)
    store["head.weight"].data[:] = 1e38      # finite weights, overflowing logits
    path = tmp_path / "huge.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    rc = cli.main(["eval", "--checkpoint", str(path), "--corpus", str(corpus_file)])
    assert rc == 1
    assert "NonFiniteError" in capsys.readouterr().err


def test_trace_base_checkpoint_errors(tmp_path, capsys, pretrained_dir):
    rc = cli.main(["trace", "--checkpoint", str(pretrained_dir / "base.ckpt"),
                   "--prompt", "abc:123=abc;", "--out", str(tmp_path / "tr")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "weighted_softmax" in err


@pytest.mark.parametrize("section,field,value", [
    ("model", "d_model", 48.5), ("model", "n_layers", True), ("model", "vocab_size", "257"),
    ("train", "batch_size", 1.5), ("train", "mini_epochs", False),
    ("train", "lr_max", "1e-3"), ("train", "noise_std", None)])
def test_pretrain_wrongly_typed_config_errors(tmp_path, capsys, corpus_file, micro_config,
                                              section, field, value):
    cfg = json.loads(micro_config.read_text())
    cfg[section][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["pretrain", "--config", str(path), "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert field in capsys.readouterr().err


def test_pretrain_corpus_beyond_vocab_errors(tmp_path, capsys, corpus_file, micro_config):
    cfg = json.loads(micro_config.read_text())
    cfg["model"]["vocab_size"] = 2
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["pretrain", "--config", str(path), "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "CorpusError" in capsys.readouterr().err


def test_invalid_config_field_errors(tmp_path, capsys, corpus_file):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"n_layers": 0}}))
    rc = cli.main(["pretrain", "--config", str(cfg), "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_does_not_mutate_inputs(tmp_path, corpus_file, micro_config,
                                    pretrained_dir):
    corpus_before = corpus_file.read_bytes()
    base_before = (pretrained_dir / "base.ckpt").read_bytes()
    cli.main(["finetune", "--config", str(micro_config),
              "--checkpoint", str(pretrained_dir / "base.ckpt"),
              "--corpus", str(corpus_file), "--out", str(tmp_path / "ft2"),
              "--n-perspectives", "2", "--seed", "0"])
    assert corpus_file.read_bytes() == corpus_before
    assert (pretrained_dir / "base.ckpt").read_bytes() == base_before
    # no --aggregation flag and none in the config file: the weighted head
    assert "aggregation" not in json.loads(micro_config.read_text())["model"]
    _, cfg, _, _ = ckpt.load_checkpoint(tmp_path / "ft2" / "finetuned.ckpt")
    assert cfg.aggregation == "weighted_softmax"


def test_ablate_command(tmp_path, corpus_file, micro_config, pretrained_dir):
    out = tmp_path / "abl"
    rc = cli.main(["ablate", "--config", str(micro_config),
                   "--checkpoint", str(pretrained_dir / "base.ckpt"),
                   "--corpus", str(corpus_file), "--out", str(out),
                   "--axis", "noise_placement", "--seeds", "0,1,2",
                   "--n-perspectives", "2"])
    assert rc == 0
    csv_text = (out / "ablation_noise_placement.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0].startswith("axis,setting")
    assert len(lines) == 3
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["model"]["n_perspectives"] == 2
    assert eff["model"]["aggregation"] == "weighted_softmax"
    assert "noise_target" not in eff["train"] and "seed" not in eff["train"]
    assert eff["ablation"] == {"axis": "noise_placement", "arms": ["selector", "temporal"],
                               "seeds": [0, 1, 2]}


@pytest.fixture(scope="module")
def train_only_config(tmp_path_factory):
    """A config file with no model section: n and the context length come from
    the defaults and the checkpoint."""
    path = tmp_path_factory.mktemp("cfg") / "train_only.json"
    path.write_text(json.dumps({"train": {"batch_size": 2, "mini_epochs": 1,
                                          "contexts_per_mini_epoch": 4, "seed": 7}}))
    return path


def test_finetune_defaults_to_four_perspectives_and_echoes_the_run(
        tmp_path, capsys, corpus_file, train_only_config, pretrained_dir):
    out = tmp_path / "ft"
    rc = cli.main(["finetune", "--config", str(train_only_config),
                   "--checkpoint", str(pretrained_dir / "base.ckpt"),
                   "--corpus", str(corpus_file), "--out", str(out)])
    assert rc == 0
    assert "finetuned n=4 (weighted_softmax)" in capsys.readouterr().out
    _, cfg, _, _ = ckpt.load_checkpoint(out / "finetuned.ckpt")
    assert cfg.n_perspectives == 4
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["model"]["n_perspectives"] == 4
    # the base trained at 32, and so does its fine-tuning, whatever the file's default
    assert eff["model"]["context_length"] == eff["train"]["context_length"] == 32
    assert eff["train"]["seed"] == 7


def test_ablate_defaults_to_four_perspectives_and_records_the_arms(
        tmp_path, corpus_file, train_only_config, pretrained_dir):
    out = tmp_path / "abl"
    rc = cli.main(["ablate", "--config", str(train_only_config),
                   "--checkpoint", str(pretrained_dir / "base.ckpt"),
                   "--corpus", str(corpus_file), "--out", str(out),
                   "--axis", "aggregation", "--seeds", "3,4,5"])
    assert rc == 0
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["model"]["n_perspectives"] == 4
    assert eff["model"]["context_length"] == eff["train"]["context_length"] == 32
    # each arm sets its own head and runs at each seed: neither is a shared setting
    assert "aggregation" not in eff["model"] and "seed" not in eff["train"]
    assert eff["ablation"] == {"axis": "aggregation",
                               "arms": ["average", "transformer_like", "weighted_softmax"],
                               "seeds": [3, 4, 5]}
    lines = (out / "ablation_aggregation.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == eff["ablation"]["arms"]


@pytest.mark.parametrize("value", ["-5", "0"])
def test_trace_max_tokens_must_be_positive(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "--checkpoint", "c", "--corpus", "t", "--out", "o",
                  "--max-tokens", value])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_pretrain_one_byte_corpus_errors(tmp_path, capsys, micro_config):
    corpus = tmp_path / "one.txt"
    corpus.write_bytes(b"a")
    rc = cli.main(["pretrain", "--config", str(micro_config), "--corpus", str(corpus),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "CorpusError" in capsys.readouterr().err


def test_pretrain_short_validation_split_errors_before_training(tmp_path, capsys,
                                                                 monkeypatch):
    corpus = tmp_path / "eight.txt"
    corpus.write_bytes(b"abcdefgh")                 # 7 training tokens, 1 validation
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"model": {"n_layers": 1, "d_model": 8, "vocab_size": 257,
                                         "context_length": 4},
                               "train": {"mini_epochs": 1, "contexts_per_mini_epoch": 2}}))

    def no_step(*_):
        raise AssertionError("a training step ran")
    monkeypatch.setattr(training, "_batch_loss", no_step)
    rc = cli.main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CorpusError" in err and "validation" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--corpus", "{corpus}"],
    ["trace", "--prompt", "abc", "--out", "{out}"],
    ["finetune", "--corpus", "{corpus}", "--out", "{out}"],
    ["ablate", "--corpus", "{corpus}", "--out", "{out}", "--axis", "n_perspectives"],
], ids=lambda argv: argv[0])
def test_missing_checkpoint_file_errors(tmp_path, capsys, corpus_file, argv):
    missing = tmp_path / "nonexistent.ckpt"
    argv = [a.format(corpus=corpus_file, out=tmp_path / "x") for a in argv]
    rc = cli.main(argv + ["--checkpoint", str(missing)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err and str(missing) in err


@pytest.mark.parametrize("argv", [
    ["--base-total", "0"], ["--base-total=-1"], ["--base-total", "nan"],
    ["--base-total", "inf"], ["--n-perspectives", "0"],
], ids=["total-0", "total-negative", "total-nan", "total-inf", "n-0"])
def test_count_params_bad_input_errors(capsys, argv):
    rc = cli.main(["count-params", "--layers", "12", "--d-model", "768"] + argv)
    assert rc == 1
    assert "ConfigError" in capsys.readouterr().err


SUBCOMMAND_FLAGS = {
    "pretrain": {"--config", "--corpus", "--out", "--seed"},
    "finetune": {"--config", "--checkpoint", "--corpus", "--out", "--seed",
                 "--n-perspectives", "--aggregation", "--noise-target", "--noise-std"},
    "eval": {"--checkpoint", "--corpus", "--out"},
    "ablate": {"--config", "--checkpoint", "--corpus", "--out", "--axis", "--seeds",
               "--n-perspectives", "--noise-target", "--noise-std"},
    "trace": {"--checkpoint", "--out", "--prompt", "--corpus", "--max-tokens"},
    "count-params": {"--layers", "--d-model", "--vocab", "--n-perspectives",
                     "--aggregation", "--base-total"},
    "gradcheck": {"--seed"},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_help_lists_exactly_the_flags_the_subcommand_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert flags == SUBCOMMAND_FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "c", "--corpus", "t", "--n-perspectives", "2"],
    ["pretrain", "--corpus", "t", "--out", "o", "--aggregation", "weighted"],
    ["ablate", "--checkpoint", "c", "--corpus", "t", "--out", "o",
     "--axis", "n_perspectives", "--seed", "5"],
    ["trace", "--checkpoint", "c", "--prompt", "p", "--out", "o", "--noise-std", "0.1"],
    ["ablate", "--checkpoint", "c", "--corpus", "t", "--out", "o",
     "--axis", "n_perspectives", "--seeds", "a,b,c"],
    ["eval", "--corpus", "t"],
    ["trace", "--checkpoint", "c", "--out", "o"],
    ["pretrain", "--corpus", "t", "--out", "o", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["finetune", "--checkpoint", "c", "--corpus", "t", "--out", "o", "--seed=-1"],
    ["ablate", "--checkpoint", "c", "--corpus", "t", "--out", "o",
     "--axis", "n_perspectives", "--seeds=-1,0,1"],
], ids=["eval-n", "pretrain-aggregation", "ablate-seed", "trace-noise-std",
        "ablate-seeds-not-ints", "eval-no-checkpoint", "trace-no-prompt-or-corpus",
        "pretrain-negative-seed", "gradcheck-negative-seed", "finetune-negative-seed",
        "ablate-negative-seeds"])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("argv", [
    ["pretrain", "--config", "{config}", "--corpus", "{corpus}"],
    ["finetune", "--config", "{config}", "--checkpoint", "{ckpt}", "--corpus", "{corpus}"],
    ["eval", "--checkpoint", "{ckpt}", "--corpus", "{corpus}"],
    ["ablate", "--config", "{config}", "--checkpoint", "{ckpt}", "--corpus", "{corpus}",
     "--axis", "n_perspectives"],
    ["trace", "--checkpoint", "{ckpt}", "--prompt", "abc:123=abc;"],
], ids=lambda argv: argv[0])
def test_out_that_is_not_a_directory_errors(tmp_path, capsys, corpus_file, micro_config,
                                            pretrained_dir, argv, below):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    out = afile / "sub" if below else afile
    argv = [a.format(config=micro_config, corpus=corpus_file,
                     ckpt=pretrained_dir / "base.ckpt") for a in argv]
    rc = cli.main(argv + ["--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""           # nothing computed before the output directory failed
    assert "CliError" in captured.err and str(out) in captured.err
    assert afile.read_text() == "not a directory"


def test_file_train_context_length_must_be_the_run_one(tmp_path, capsys, corpus_file,
                                                        micro_config):
    cfg = json.loads(micro_config.read_text())
    cfg["train"]["context_length"] = 16              # the model's is 32
    path = tmp_path / "ctx16.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["pretrain", "--config", str(path), "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "train.context_length is 16" in err and "uses 32" in err


@pytest.mark.parametrize("command", ["finetune", "ablate"])
@pytest.mark.parametrize("field,value", [("n_layers", 3), ("d_model", 64),
                                         ("vocab_size", 300), ("context_length", 64)])
def test_file_model_shape_must_be_the_checkpoint_one(tmp_path, capsys, corpus_file,
                                                      micro_config, pretrained_dir,
                                                      command, field, value):
    cfg = json.loads(micro_config.read_text())
    base = cfg["model"][field]
    cfg["model"][field] = value
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--checkpoint", str(pretrained_dir / "base.ckpt"),
            "--corpus", str(corpus_file), "--out", str(tmp_path / "x")]
    rc = cli.main(argv + (["--axis", "n_perspectives"] if command == "ablate" else []))
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and f"model.{field} is {value}" in err and f"uses {base}" in err
