"""Generated inputs for the CLI: every outcome is a clean exit.

`rwkvp pretrain --config`: each model and train field gets ints, bools,
floats (nan, +-inf, 1e308, 1e-300), strings, lists and objects over a tiny
base config and corpus. Sizes are either at most 16 or at least 2**40: the
run's size check refuses the large ones before anything is allocated, so
nothing big is asked for. `rwkvp finetune` gets the same config overrides
over a tiny base checkpoint, and generated text for each of its flags;
`rwkvp ablate` gets generated text for --axis, --seeds, --n-perspectives
and --noise-std. `rwkvp trace --prompt` and `rwkvp eval --corpus`
get generated bytes (a prompt holds no NUL, which argv cannot carry) over a
tiny n=2 weighted_softmax checkpoint. Whatever the input holds, the command
exits 0, 1 or 2 with no traceback and no RuntimeWarning on stderr, and an
exit 1 prints exactly one `error: <Type>:` line.
"""

import contextlib
import io
import itertools
import json
import math
import os
import re
import resource
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwkvp import checkpoint as ckpt
from rwkvp import cli, perspectives, synth, training
from rwkvp import model as m
from rwkvp.evaluation import ABLATION_AXES

BASE = {"model": {"n_layers": 1, "d_model": 4, "context_length": 4},
        "train": {"batch_size": 1, "mini_epochs": 1, "contexts_per_mini_epoch": 2,
                  "lr_max": 1e-3, "lr_min": 1e-4}}
SIZES = st.one_of(st.integers(-2, 16), st.integers(2 ** 40, 2 ** 80))
FLOATS = st.one_of(st.sampled_from([0.0, 0.5, 1e-3, -1.0, math.nan, math.inf, -math.inf,
                                     1e308, -1e308, 1e-300, 5e-324]), st.floats())
OTHERS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=6),
    st.sampled_from([*m.AGGREGATION_MODES, *training.NOISE_TARGETS]),
    st.lists(SIZES, max_size=3), st.dictionaries(st.text(max_size=3), SIZES, max_size=2))
VALUES = st.one_of(SIZES, FLOATS, OTHERS)
# a (section, field, value) override of BASE
OVERRIDE = st.tuples(st.sampled_from(
    [("model", f.name) for f in fields(m.ModelConfig)]
    + [("train", f.name) for f in fields(training.TrainConfig)]), VALUES)
ERROR_LINE = re.compile(r"error: \w+: ")
GENERATED = dict(max_examples=200, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("generated")
    synth.write_corpus(path / "corpus.txt", seed=0, n_records=40)
    return path


@contextlib.contextmanager
def _address_space_headroom(extra=1 << 30):
    """Cap this process's address space at its current size plus `extra` (Linux),
    so a size the check fails to refuse ends in MemoryError, not in the
    machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[0])
    except OSError:
        yield
        return
    cap = pages * resource.getpagesize() + extra
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY
                                            else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture(scope="module")
def base_file(tmp_path_factory):
    """A tiny n=1 base, as finetune and ablate load it."""
    base_cfg = m.ModelConfig(**BASE["model"])
    store, mask = m.init_base_params(base_cfg, seed=0)
    path = tmp_path_factory.mktemp("generated") / "base.ckpt"
    ckpt.save_checkpoint(store, base_cfg, mask, path)
    return path


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """A tiny n=2 weighted_softmax model, as trace and eval load it."""
    base_cfg = m.ModelConfig(**BASE["model"])
    base, _ = m.init_base_params(base_cfg, seed=0)
    cfg, store, mask = perspectives.extend_to_perspectives(base, base_cfg, 2, "weighted_softmax")
    path = tmp_path_factory.mktemp("generated") / "ft.ckpt"
    ckpt.save_checkpoint(store, cfg, mask, path)
    return path


def _run(argv) -> tuple[int, str]:
    """cli.main's exit status and stderr."""
    err = io.StringIO()
    with (_address_space_headroom(), contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        try:
            code = cli.main(argv)
        except SystemExit as e:     # argparse's usage errors
            code = e.code
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(OVERRIDE, min_size=1, max_size=2))
def test_pretrain_exits_cleanly_on_any_config(corpus_dir, overrides):
    with tempfile.TemporaryDirectory(dir=corpus_dir) as out:
        argv = ["pretrain", "--config", _config_file(out, overrides),
                "--corpus", str(corpus_dir / "corpus.txt"), "--out", str(Path(out) / "run")]
        code, err = _run(argv)
    _assert_clean_exit(code, err)


def _config_file(out, overrides=()) -> str:
    """BASE with the (section, field, value) overrides, written to out/config.json."""
    cfg = {section: dict(values) for section, values in BASE.items()}
    for (section, name), value in overrides:
        cfg[section][name] = value
    path = Path(out) / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _arg(accepted):
    """A flag's argument: mostly one the flag's parser accepts, else any short text."""
    return st.one_of(accepted, accepted, accepted, st.text(max_size=6))


SIZE_ARG, FLOAT_ARG = _arg(SIZES.map(str)), _arg(FLOATS.map(str))
FINETUNE_FLAGS = st.fixed_dictionaries({}, optional={
    "--seed": SIZE_ARG, "--n-perspectives": SIZE_ARG,
    "--aggregation": _arg(st.sampled_from(m.AGGREGATION_MODES)),
    "--noise-target": _arg(st.sampled_from(training.NOISE_TARGETS)), "--noise-std": FLOAT_ARG})
ABLATE_FLAGS = st.fixed_dictionaries({}, optional={
    "--seeds": _arg(st.lists(SIZES, max_size=4).map(lambda seeds: ",".join(map(str, seeds)))),
    "--n-perspectives": SIZE_ARG, "--noise-std": FLOAT_ARG})


@settings(**GENERATED)
@given(st.lists(OVERRIDE, max_size=2), FINETUNE_FLAGS)
def test_finetune_exits_cleanly_on_any_config_and_flags(corpus_dir, base_file, overrides,
                                                        flags):
    with tempfile.TemporaryDirectory(dir=corpus_dir) as out:
        argv = ["finetune", "--config", _config_file(out, overrides),
                "--checkpoint", str(base_file), "--corpus", str(corpus_dir / "corpus.txt"),
                "--out", str(Path(out) / "run"), *itertools.chain(*flags.items())]
        code, err = _run(argv)
    _assert_clean_exit(code, err)


@settings(**{**GENERATED, "max_examples": 40})
@given(st.one_of(st.sampled_from(ABLATION_AXES), st.text(max_size=6)), ABLATE_FLAGS)
def test_ablate_exits_cleanly_on_any_flags(corpus_dir, base_file, axis, flags):
    with tempfile.TemporaryDirectory(dir=corpus_dir) as out:
        argv = ["ablate", "--config", _config_file(out), "--checkpoint", str(base_file),
                "--corpus", str(corpus_dir / "corpus.txt"), "--out", str(Path(out) / "run"),
                "--axis", axis, *itertools.chain(*flags.items())]
        code, err = _run(argv)
    _assert_clean_exit(code, err)


@settings(**GENERATED)
@given(st.binary(max_size=40).map(lambda data: data.replace(b"\0", b"")))
def test_trace_exits_cleanly_on_any_prompt(checkpoint_file, prompt):
    with tempfile.TemporaryDirectory(dir=checkpoint_file.parent) as out:
        code, err = _run(["trace", "--checkpoint", str(checkpoint_file),
                          "--prompt", os.fsdecode(prompt), "--out", out])
    _assert_clean_exit(code, err)


@settings(**GENERATED)
@given(st.binary(max_size=40))
def test_eval_exits_cleanly_on_any_corpus(checkpoint_file, corpus):
    with tempfile.TemporaryDirectory(dir=checkpoint_file.parent) as out:
        path = Path(out) / "corpus.txt"
        path.write_bytes(corpus)
        code, err = _run(["eval", "--checkpoint", str(checkpoint_file), "--corpus", str(path)])
    _assert_clean_exit(code, err)


def _assert_clean_exit(code, err) -> None:
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and "RuntimeWarning" not in err, err
    if code == 1:
        assert len(ERROR_LINE.findall(err)) == 1 and err.startswith("error: "), err

