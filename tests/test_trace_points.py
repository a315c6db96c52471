"""The functions the benchmark's per-layer split is keyed on.

perfbench/tracer.py wraps these from the outside by module and attribute
name, and only when the function is defined in that module. If one is
renamed, moved, or re-exported from elsewhere, its layer silently reads zero.
It reads its boundary functions and methods with owner.__dict__[attr], so
deleting one or moving it to another class makes the benchmark fail to install.
"""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from rwkvp import autograd, model, params, perspectives, training, wkv

TRACE_POINTS = [
    (wkv, "wkv_sequence"),
    (model, "run_stream"),
    (model, "time_mixing"),
    (model, "channel_mixing"),
    (model, "head_logits"),
    (perspectives, "multi_forward"),
]


@pytest.mark.parametrize("module, name", TRACE_POINTS,
                         ids=[f"{mod.__name__}.{name}" for mod, name in TRACE_POINTS])
def test_traced_function_is_defined_in_its_module(module, name):
    fn = vars(module).get(name)
    assert inspect.isfunction(fn), f"{module.__name__}.{name} is missing"
    assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"


def test_model_forward_is_a_method_of_model():
    assert inspect.isfunction(vars(model.Model).get("forward"))


BOUNDARIES = [
    (autograd, "_toposort"),
    (autograd.Tensor, "backward"),
    (training.Adam, "step"),
    (params.ParamStore, "zero_grad"),
    (params.ParamStore, "collect_grads"),
]


@pytest.mark.parametrize("owner, name", BOUNDARIES,
                         ids=[f"{owner.__name__}.{name}" for owner, name in BOUNDARIES])
def test_boundary_is_defined_on_its_owner(owner, name):
    assert inspect.isfunction(vars(owner).get(name)), f"{owner.__name__}.{name} is missing"


def test_benchmark_selftest_passes():
    """perfbench/selftest.py: on every workload, traced and untraced outputs
    are bitwise equal and every wrapped function is restored afterwards."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
