"""The functions the benchmark's per-layer split is keyed on.

perfbench/tracer.py wraps these from the outside by module and attribute
name, and only when the function is defined in that module. If one is
renamed, moved, or re-exported from elsewhere, its layer silently reads zero.
"""

import inspect

import pytest

from rwkvp import model, perspectives, wkv

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
