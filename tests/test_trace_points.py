"""The functions the benchmark's per-layer split is keyed on.

perfbench/tracer.py wraps these from the outside by module and attribute
name, and only when the function is defined in that module. If one is
renamed, moved, or re-exported from elsewhere, its layer silently reads zero.
It reads its boundary functions and methods with owner.__dict__[attr], so
deleting one or moving it to another class makes the benchmark fail to install.
The names are read from the tracer's own tables (parsed, not imported), so
every span name it keys a bucket on is checked here.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracer_tables() -> dict:
    """TRACED_MODULES, BUCKETS, NESTED_BUCKETS and BOUNDARIES of perfbench/tracer.py."""
    wanted = {"TRACED_MODULES", "BUCKETS", "NESTED_BUCKETS", "BOUNDARIES"}
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in wanted}


TABLES = _tracer_tables()
BOUNDARIES = TABLES["BOUNDARIES"]      # (module, class or None, attribute)
# every other span name a bucket is keyed on: a function the tracer finds by module
TRACE_POINTS = sorted(
    (set(TABLES["BUCKETS"]) | set(TABLES["NESTED_BUCKETS"]))
    - {".".join(filter(None, boundary)) for boundary in BOUNDARIES})


@pytest.mark.parametrize("name", TRACE_POINTS, ids=lambda name: f"rwkvp.{name}")
def test_traced_function_is_defined_in_its_module(name):
    short, attr = name.split(".")
    assert short in TABLES["TRACED_MODULES"], f"the tracer does not wrap rwkvp.{short}"
    module = importlib.import_module(f"rwkvp.{short}")
    fn = vars(module).get(attr)
    assert inspect.isfunction(fn), f"{module.__name__}.{attr} is missing"
    assert fn.__module__ == module.__name__, f"{attr} is defined in {fn.__module__}"


@pytest.mark.parametrize("short, cls_name, attr", BOUNDARIES,
                         ids=[f"{cls_name}.{attr}" if cls_name else f"rwkvp.{short}.{attr}"
                              for short, cls_name, attr in BOUNDARIES])
def test_boundary_is_defined_on_its_owner(short, cls_name, attr):
    module = importlib.import_module(f"rwkvp.{short}")
    owner = vars(module)[cls_name] if cls_name else module
    assert inspect.isfunction(vars(owner).get(attr)), f"{owner.__name__}.{attr} is missing"


def test_benchmark_selftest_passes():
    """perfbench/selftest.py: on every workload, traced and untraced outputs
    are bitwise equal and every wrapped function is restored afterwards."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
