"""The golden record (tests/golden.py) still reads what tests/golden.json holds."""

import json

import pytest

import golden
from rwkvp import cli


def _leaves(record, prefix=""):
    """Flatten nested dicts to {"a.b": value}."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def test_golden_record_is_unchanged(base_config, synth_split, criterion_03, criterion_07):
    want = json.loads(golden.PATH.read_text())
    runtime = cli._runtime()
    differ = [f"{key} ({want['runtime'].get(key)!r} recorded, {runtime.get(key)!r} here)"
              for key in sorted(want["runtime"].keys() | runtime.keys())
              if want["runtime"].get(key) != runtime.get(key)]
    if differ:
        pytest.skip(f"the runtime differs from the record's in {'; '.join(differ)}, "
                    "so the bytes may differ (README's envelope)")
    got = _leaves(golden.record(base_config, synth_split, criterion_03, criterion_07))
    want = _leaves(want)
    moved = [f"{key}: {want.get(key)!r} recorded, {got.get(key)!r} now"
             for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]
    assert not moved, "\n".join(moved)
