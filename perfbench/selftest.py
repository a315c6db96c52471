"""Self-test of the benchmark harness itself (not of rwkvp).

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload it checks that

1. the tracer only observes: a traced call's outputs (losses, val_ppl,
   digests, logits) are bitwise equal to an untraced call's;
2. every function the tracer and the operation clock wrapped is restored:
   afterwards each attribute of the rwkvp modules and classes is the same
   object as before;
3. the exact counters repeat exactly across two runs with the same seed
   (two workloads set up separately, one traced call each);

and that BENCHMARK.json lists the workloads of ``workloads.py`` and the
metrics of ``metrics.py`` with the same units, directions and bounds.
Exit status 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import metrics as mx
import run
from tracer import OpClock, Tracer
from workloads import WORKLOADS


def snapshot(rw_modules: dict) -> dict:
    """Every attribute of the rwkvp modules and of the classes they define."""
    snap = {}
    for mod in rw_modules.values():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    snap[(mod.__name__, attr, cattr)] = cobj
    return snap


def changed(before: dict, after: dict) -> list:
    return [key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]


def check_workload(cls, rw, rw_modules, failures: list) -> None:
    name = cls.name
    pristine = snapshot(rw_modules)
    counters = []
    plain = None
    for attempt in range(2):
        workload = cls(rw, seed=run.DEFAULT_SEED, workdir=run.OUT)
        workload.setup()
        clock = OpClock()
        clock.install(*workload.clock_points())
        if plain is None:
            plain = workload.call()
        workload.precheck(plain)
        tracer = Tracer(rw_modules, current_op=clock.count)
        tracer.install()
        try:
            traced = workload.call()
        finally:
            tracer.uninstall()
            clock.uninstall()
        if changed(pristine, snapshot(rw_modules)):
            failures.append(f"{name}: wrapped functions not restored: "
                            f"{sorted(map(str, changed(pristine, snapshot(rw_modules))))[:5]}")
        if not run.same_outputs(plain.outputs, traced.outputs):
            failures.append(f"{name}: traced outputs differ from untraced outputs")
        errors = workload.check(traced)
        if errors:
            failures.append(f"{name}: output check failed: {errors}")
        counters.append(mx.counter_totals(tracer))
    if counters[0] != counters[1]:
        failures.append(f"{name}: counters differ across two runs: {counters}")
    if not counters[0]["autograd.op_calls"] or not counters[0]["wkv.calls"]:
        failures.append(f"{name}: counters saw no work: {counters[0]}")
    print(f"  {name}: counters {counters[0]}")


def check_benchmark_json(failures: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {name: cls.why for name, cls in WORKLOADS.items()}:
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    if any(len(why) > 200 or "\n" in why for why in workloads.values()):
        failures.append("a workload 'why' is longer than one 200-character line")
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    if end_to_end != {m.name: (m.unit, m.better, m.bound) for m in mx.END_TO_END}:
        failures.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if per_layer != {m.name: (m.unit, m.better) for m in mx.PER_LAYER}:
        failures.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")


def main() -> int:
    rw, rw_modules = run.load_program(run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    failures: list[str] = []
    check_benchmark_json(failures)
    for cls in WORKLOADS.values():
        check_workload(cls, rw, rw_modules, failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
