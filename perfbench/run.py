"""Run one workload of the gkmcalc benchmark and print its metrics.

    python3 perfbench/run.py --workload loop-powers --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout: the program is imported from ``src/``
there, never from an installed copy.  The workload's set-up runs a few
times, each from a fresh import of the package; then its
timed unit repeats back to back for ``--seconds`` seconds in this one
process.  The outputs are checked after the timed loop.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  A run record is written to ``perfbench/records/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from time import perf_counter

from meter import KERNEL_REFERENCE_S, Meter
from tracing import Direct, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORDS = BENCH_DIR / "records"

# per-layer metrics: <layer>_s self times, rates of a layer per counted item,
# and byte sizes
TIME_LAYERS = (
    "coxeter.coset_orbit",
    "coxeter.real_roots",
    "builders.build_flag_graph",
    "builders.moment_embedding",
    "graph.validate",
    "graph.dumps",
    "graph.loads",
    "graph.class_product",
    "polyring.solve_congruences",
    "solver.canonical_generators",
    "solver.expand_in_basis",
    "solver.basis_from_dict",
    "solver.basis_dumps",
    "ring_ops.power_coefficient",
    "ring_ops.ordinary_reduction",
    "render.to_svg",
)
RATES = (
    ("builders.s_per_edge", "builders.build_flag_graph", "edges"),
    ("polyring.s_per_system", "polyring.solve_congruences", "systems"),
    ("solver.s_per_generator", "solver.canonical_generators", "generators"),
    ("solver.s_per_expansion", "solver.expand_in_basis", "expansions"),
)
BYTE_SIZES = (
    ("graph.json_bytes", "graph_json_bytes"),
    ("solver.basis_json_bytes", "basis_json_bytes"),
)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ``gkmcalc`` afresh from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "gkmcalc" / "__init__.py").is_file():
        raise ProgramMissing(f"no gkmcalc sources under {src}")
    for name in [m for m in sys.modules if m == "gkmcalc" or m.startswith("gkmcalc.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    gk = importlib.import_module("gkmcalc")
    for sub in ("builders", "coxeter", "errors", "graph", "oracle", "polyring", "render", "ring_ops", "solver"):
        importlib.import_module(f"gkmcalc.{sub}")
    if Path(gk.__file__).resolve().parent != (src / "gkmcalc").resolve():
        raise ProgramMissing(f"imported gkmcalc from {gk.__file__}, not from {src}")
    return gk


def instrument(gk, tracer):
    """Record the coxeter calls made inside ``build_flag_graph`` as spans."""
    for name in ("coset_orbit", "real_roots"):
        setattr(gk.builders, name, tracer.wrap(f"coxeter.{name}", getattr(gk.coxeter, name)))


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run(workload, seed, seconds, traced):
    """Set up, repeat the timed unit, check the outputs.  Round times are
    calibrated (see ``meter.py``); the raw times go to the run record."""
    meter = Meter()
    calls = Tracer(meter) if traced else Direct(meter)

    def timed(kind, fn):
        with meter.round(kind), calls.round(kind):
            return fn()

    def set_up():
        gk = import_program()
        if traced:
            instrument(gk, calls)
        return gk, workload.prepare(gk, seed, calls)

    for _ in range(workload.setup_rounds):
        gk, state = timed("setup", set_up)

    attempted = failed = 0
    first = None
    failures = []
    deadline = perf_counter() + seconds
    while True:
        rep = timed("rep", lambda: workload.repeat(gk, state, calls))
        attempted += rep.attempted
        failed += rep.failed
        if traced:
            timed("replay", lambda: workload.replay(gk, state, rep, calls))
            failures += rep.replay_failures
        if first is None:
            first = rep
        elif not workload.same(first, rep):
            failures.append(f"repetition {len(meter.raw('rep'))} gave other outputs than the first")
        if perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures += workload.check(gk, state, first, traced)
    solution_s = median(meter.scaled("rep"))
    end_to_end = as_metrics({
        "solution_s": (solution_s, "s"),
        "setup_s": (median(meter.scaled("setup")), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "items_per_s": (first.items / solution_s, "1/s"),
    })
    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": end_to_end,
        "failures": failures,
        "items_per_repetition": first.items,
        "raw_repetition_seconds": meter.raw("rep"),
        "raw_setup_seconds": meter.raw("setup"),
        "kernel_readings": meter.readings,
        "kernel_reference_s": KERNEL_REFERENCE_S,
    }
    if not traced:
        return record, None
    record["metrics"] = as_metrics(calls.layer_metrics(TIME_LAYERS, RATES, BYTE_SIZES, meter.factors()))
    record["traced_end_to_end"] = end_to_end
    record["counters"] = calls.totals()
    return record, calls.dump()


def as_metrics(values):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def write_record(args, record, spans):
    """Write the run record, and the spans of a traced run, to ``records/``."""
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "machine": machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **record,
    }
    RECORDS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (RECORDS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (RECORDS / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    ok = True
    print(f"{'workload':<18} {'metric':<32} {'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            ok = False
            print(f"{name:<18} failed with exit code {done.returncode}: {done.stderr.strip()[-500:]}")
            continue
        out = json.loads(lines[-1])
        ok = ok and out["correct"]
        for metric, m in out["metrics"].items():
            print(f"{name:<18} {metric:<32} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<18} {'attempted / failed':<32} {out['attempted']:>7} / {out['failed']}"
              f"  correct={out['correct']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        record, spans = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    write_record(args, record, spans)
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
