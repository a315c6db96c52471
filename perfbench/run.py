"""Run one rwkvp benchmark workload and report its metrics.

    python3 perfbench/run.py --workload finetune_n4 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is loaded from ``src/`` there.
One process, one caller, ``OPENBLAS_NUM_THREADS=1``. The workload repeats
one call into the program (see ``workloads.py``) until ``--seconds`` have
passed, checking every call's outputs.

``--trace 0`` reports the end-to-end metrics; only two clock reads per
operation are added to the program. ``--trace 1`` alternates untraced calls
with calls under the outside-in tracer and reports the per-layer metrics
of the traced ones, the tracing overhead, and whether traced outputs were
bitwise equal to untraced ones.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics. The full record
(environment, sample counts, exact counters, spans) is written under
``.perfbench/`` in the checkout. Exit status: 0 when every check passed,
1 when an output check failed, 2 when the program cannot be loaded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import metrics as mx  # noqa: E402
from tracer import OpClock, Tracer, all_restored  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0
CLAIM_SEED = 1729          # held out: a claimed gain must also hold on this seed
SETUP_REPEATS = 3          # traced in-process set-ups, for the checkpoint metrics
COLD_SETUPS = 5            # set-ups in fresh interpreters, spread over an untraced run
PROGRAM_MODULES = ("autograd", "wkv", "params", "model", "perspectives", "aggregation",
                   "training", "evaluation", "checkpoint", "corpus", "synth", "tokenizer")


def load_program(root: Path) -> tuple[SimpleNamespace, dict]:
    """Import rwkvp from the checkout's src/ and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    mods = {}
    for name in PROGRAM_MODULES:
        mod = importlib.import_module(f"rwkvp.{name}")
        if Path(mod.__file__).resolve().parent != (src / "rwkvp").resolve():
            raise ImportError(f"rwkvp.{name} loaded from {mod.__file__}, not from {src}")
        mods[name] = mod
    return SimpleNamespace(**mods), mods


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "claim_seed": CLAIM_SEED,
    }


def same_outputs(a: dict, b: dict) -> bool:
    """Bitwise equality of two calls' outputs."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, np.ndarray):
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


class Run:
    """State of one benchmark run: timings, outcomes and errors."""

    def __init__(self, workload, clock: OpClock):
        self.workload, self.clock = workload, clock
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.op_seconds: list[float] = []
        self.call_seconds: list[float] = []
        self.tokens = 0

    def call(self, reference, tracer=None) -> tuple[float, list[float] | None]:
        """One checked call: (wall seconds, op seconds, or None if it raised)."""
        start = self.clock.count()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = self.workload.call()
        except Exception as exc:  # a failing call counts against error_rate
            self.attempted += reference.ops
            self.failed += reference.ops
            self._error(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None and not all_restored(tracer.uninstall()):
                self._error("tracer left a wrapped function in place")
        errors = self.workload.check(result)
        if not same_outputs(result.outputs, reference.outputs):
            errors.append("outputs differ bitwise from the first call"
                          + (" (traced call)" if tracer is not None else ""))
        self.attempted += result.ops
        if errors:
            self.failed += result.ops
            for e in errors:
                self._error(e)
        ops = self.clock.durations(start)
        if len(ops) != result.ops:
            self._error(f"clock saw {len(ops)} operations, call reported {result.ops}")
        return wall, ops

    def _error(self, message: str) -> None:
        if message not in self.errors:
            self.errors.append(message)


def cold_setup(workload: str, seed: int) -> float:
    """Seconds of one set-up in a fresh interpreter, imports included."""
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("setup_time.py")),
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure(run: Run, reference, seconds: float, seed: int) -> list[float]:
    """Untraced calls until they have taken ``seconds``.

    Cold set-ups run between calls, spread over the run so that they see the
    same host conditions as the calls; their time is not part of ``seconds``.
    """
    setups: list[float] = []
    measured = 0.0
    while measured < seconds:
        if len(setups) < COLD_SETUPS * measured / seconds:
            setups.append(cold_setup(run.workload.name, seed))
        wall, ops = run.call(reference)
        measured += wall
        if ops is not None:
            run.call_seconds.append(wall)
            run.op_seconds.extend(ops)
            run.tokens += reference.tokens
    while len(setups) < COLD_SETUPS:
        setups.append(cold_setup(run.workload.name, seed))
    return setups


def measure_traced(run: Run, reference, seconds: float, rw_modules: dict) -> dict:
    """Alternate untraced and traced calls; per-layer figures from the traced ones."""
    tracer = Tracer(rw_modules, current_op=run.clock.count)
    traced_op_s, plain_op_s = [], []
    traced_wall = unattributed_s = 0.0
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end or not traced_op_s:
        traced = i % 2 == 1
        i += 1
        top_before = tracer.top_s
        wall, ops = run.call(reference, tracer if traced else None)
        if ops is None:
            if not traced_op_s and time.perf_counter() >= t_end:
                break
            continue
        if traced:
            traced_op_s.extend(ops)
            traced_wall += wall
            unattributed_s += wall - (tracer.top_s - top_before)
        else:
            plain_op_s.extend(ops)
    if not traced_op_s:
        return None
    overhead = min(traced_op_s) / min(plain_op_s) - 1.0 if plain_op_s else 0.0
    return {"tracer": tracer, "ops": len(traced_op_s),
            "unattributed": unattributed_s / traced_wall, "overhead": overhead,
            "traced_op_ms": mx.timing_summary(traced_op_s),
            "untraced_op_ms": mx.timing_summary(plain_op_s) if plain_op_s else {}}


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<32} {value:>16.6g} {unit:<8} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rw, rw_modules = load_program(ROOT)
    except ImportError as exc:
        print(f"cannot load the rwkvp program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](rw, args.seed, OUT)
    setup_tracer = Tracer(rw_modules) if args.trace else None
    setup_s = []
    restored = True
    for _ in range(SETUP_REPEATS if args.trace else 1):
        if setup_tracer is not None:
            setup_tracer.install()
        t0 = time.perf_counter()
        try:
            workload.setup()
        finally:
            setup_s.append(time.perf_counter() - t0)
            if setup_tracer is not None:
                restored &= all_restored(setup_tracer.uninstall())
    setup_s[0] += import_s
    if setup_tracer is not None:
        setup_tracer.counters["checkpoint.bytes"] += SETUP_REPEATS * workload.base.ckpt_bytes

    clock = OpClock()
    clock.install(*workload.clock_points())
    run = Run(workload, clock)
    if not restored:
        run._error("tracer left a wrapped function in place after set-up")
    try:
        reference = workload.call()       # warm-up; every later call must match it
        for e in workload.precheck(reference) + workload.check(reference):
            run._error(e)
        val_ppl = workload.quality(reference)
    except Exception as exc:  # the program failed before anything was timed
        traceback.print_exc()
        run._error(f"warm-up call raised {type(exc).__name__}: {exc}")
    if run.errors:
        run.attempted = run.failed = 1

    traced = None
    if not run.errors:
        if args.trace:
            traced = measure_traced(run, reference, args.seconds, rw_modules)
        else:
            setup_s += measure(run, reference, args.seconds, args.seed)
    if not all_restored(clock.uninstall()):
        run._error("operation clock left a wrapped method in place")
    correct = not run.errors and run.failed == 0

    print(f"rwkvp benchmark  workload={workload.name}  seed={args.seed}  "
          f"trace={args.trace}  op={workload.op}")
    env = environment(args.seed)
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": workload.name, "why": workload.why, "op": workload.op,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "attempted": run.attempted, "failed": run.failed, "errors": run.errors}
    metrics = {}
    if args.trace == 0 and run.op_seconds:
        ops = mx.timing_summary(run.op_seconds)
        ops_ms = [t * 1e3 for t in run.op_seconds]
        values = {
            "op_ms_min": ops["min"],
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "val_ppl": val_ppl,
        }
        tok_s = run.tokens / sum(run.call_seconds)
        record.update(op_ms=ops, tok_s=tok_s, setups_s=setup_s,
                      op_ms_series=ops_ms,
                      error_rate=run.failed / max(run.attempted, 1))
        for m in mx.END_TO_END:
            metrics[m.name] = {"value": values[m.name], "unit": m.unit}
            note = f"({ops['samples']} {workload.op}s)" if m.name.startswith("op_") else ""
            report(m.name, values[m.name], m.unit, note)
        # reported, not gated: on a host whose speed swings between two levels
        # for seconds at a time these move with the host more than the program
        for q in ("p50", "p90", "p99"):
            if q in ops:
                report(f"op_ms_{q}", ops[q], "ms", "(not gated)")
        report("tok_s", tok_s, "tok/s", "(not gated)")
        report("error_rate", record["error_rate"], "", f"({run.failed}/{run.attempted})")
    elif args.trace == 1 and traced is not None:
        tracer = traced["tracer"]
        values = mx.layer_values(tracer, traced["ops"], SETUP_REPEATS, setup_tracer,
                                 traced["unattributed"], traced["overhead"])
        for m in mx.PER_LAYER:
            metrics[m.name] = {"value": values[m.name], "unit": m.unit}
            report(m.name, values[m.name], m.unit, f"-> {m.moves}")
        record.update(traced_ops=traced["ops"], traced_op_ms=traced["traced_op_ms"],
                      untraced_op_ms=traced["untraced_op_ms"],
                      counters={"totals": mx.counter_totals(tracer), "ops": traced["ops"]},
                      moves={m.name: m.moves for m in mx.PER_LAYER},
                      spans_recorded=len(tracer.spans), spans_total=tracer.n_spans)
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), s)))
                        + "\n")
        print(f"  tracing overhead {traced['overhead']:+.1%} per {workload.op}; "
              f"{len(tracer.spans)} of {tracer.n_spans} spans written to {spans_path.name}")
    for e in run.errors:
        print(f"  CHECK FAILED: {e}")
    record["metrics"] = metrics
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
