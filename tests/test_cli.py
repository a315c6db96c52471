import json
import struct

import numpy as np
import pytest

from rwkvp import checkpoint as ckpt
from rwkvp import cli, perspectives, synth
from rwkvp import model as m


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
    b'{"version":1}',
    b'{"config":{},"freeze_mask":{},"tensors":[{"name":"x"}],"version":1}',
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
