"""Generated config files for `rwkvp pretrain`: every outcome is a clean exit.

Each model and train field gets ints, bools, floats (nan, +-inf, 1e308,
1e-300), strings, lists and objects over a tiny base config and corpus.
Sizes are either at most 16 or at least 2**40: the run's size check refuses
the large ones before anything is allocated, so nothing big is asked for.
Whatever the config holds, the command exits 0, 1 or 2 with no traceback
and no RuntimeWarning on stderr, and an exit 1 prints exactly one
`error: <Type>:` line.
"""

import contextlib
import io
import json
import math
import re
import resource
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwkvp import cli, synth, training
from rwkvp import model as m

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
# one or two (section, field, value) overrides of BASE
OVERRIDES = st.lists(st.tuples(st.sampled_from(
    [("model", f.name) for f in fields(m.ModelConfig)]
    + [("train", f.name) for f in fields(training.TrainConfig)]), VALUES), min_size=1, max_size=2)
ERROR_LINE = re.compile(r"error: \w+: ")


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
@given(OVERRIDES)
def test_pretrain_exits_cleanly_on_any_config(corpus_dir, overrides):
    cfg = {section: dict(values) for section, values in BASE.items()}
    for (section, name), value in overrides:
        cfg[section][name] = value
    with tempfile.TemporaryDirectory(dir=corpus_dir) as out:
        path = Path(out) / "config.json"
        path.write_text(json.dumps(cfg))
        argv = ["pretrain", "--config", str(path), "--corpus", str(corpus_dir / "corpus.txt"),
                "--out", str(Path(out) / "run")]
        code, err = _run(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and "RuntimeWarning" not in err, err
    if code == 1:
        assert len(ERROR_LINE.findall(err)) == 1 and err.startswith("error: "), err

