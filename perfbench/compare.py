"""Compare two sets of benchmark run records.

    python3 perfbench/compare.py BEFORE [AFTER]

Each set is a directory of run records (as ``perfbench/run.py`` writes
them to ``perfbench/records/``) or a single record file.  For every
(workload, metric) pair one row gives, for each set, the number of runs,
the median and the quartiles (``statistics.quantiles(values, n=4)``) and
the spread: the distance between the quartiles as a share of the median.
For an end-to-end metric the row ends with its bound from
``BENCHMARK.json`` and a verdict:

* ``ok``: AFTER's median is not worse than BEFORE's by more than the
  bound, and each set's spread (except that of ``setup_s``) is within it;
* ``WORSE``: AFTER's median is worse by more than the bound;
* ``SPREAD``: a spread exceeds the bound, so the pair is unresolved.

With one set only the spreads are judged.  Each workload also gets a row
comparing the share of failed operations, which must be exactly equal.
The exit code is 0 when every row is ``ok``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent


def load_set(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = []
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        records.append(json.loads(f.read_text(encoding="utf-8")))
    if not records:
        raise SystemExit(f"compare: no run records in {path}")
    return records


def by_pair(records):
    """``{(workload, metric): [values]}`` and ``{workload: [(failed, attempted)]}``."""
    values = defaultdict(list)
    failed = defaultdict(list)
    for r in records:
        for name, m in r["metrics"].items():
            values[(r["workload"], name)].append(m["value"])
        if not r["trace"]:
            failed[r["workload"]].append(Fraction(r["failed"], r["attempted"]))
    return values, failed


def stats(vals):
    if not vals:
        return None
    q1, q2, q3 = quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    med = median(vals)
    return {"n": len(vals), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def fmt(s):
    if s is None:
        return f"{'-':>4} {'-':>12} {'-':>25} {'-':>7}"
    quart = f"[{s['q1']:.5g}, {s['q3']:.5g}]"
    return f"{s['n']:>4} {s['median']:>12.6g} {quart:>25} {s['spread']:>7.2%}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    sets = [by_pair(load_set(a)) for a in argv]
    before, after = sets[0], sets[-1]
    two = len(sets) == 2

    all_ok = True
    header = f"{'n':>4} {'median':>12} {'quartiles':>25} {'spread':>7}"
    print(f"{'workload':<17} {'metric':<30} {header} | {header if two else ''}"
          f"{'change':>8} {'bound':>6}  verdict")
    pairs = sorted(set(before[0]) | set(after[0]))
    for workload, metric in pairs:
        a = stats(before[0].get((workload, metric), []))
        b = stats(after[0].get((workload, metric), [])) if two else None
        row = f"{workload:<17} {metric:<30} {fmt(a)} | " + (f"{fmt(b)} " if two else "")
        m = end_to_end.get(metric)
        if m is None or a is None:
            print(row + f"{'':>8} {'-':>6}  -")
            continue
        bound = m["bound"]
        verdict = "ok"
        change = ""
        spreads = [s for s in (a, b) if s is not None]
        if metric != "setup_s" and any(s["spread"] > bound for s in spreads):
            verdict = "SPREAD"
        if two and b is not None:
            rel = (b["median"] - a["median"]) / a["median"]
            worse = rel if m["better"] == "lower" else -rel
            change = f"{rel:+.2%}"
            if worse > bound:
                verdict = "WORSE"
        all_ok = all_ok and verdict == "ok"
        print(row + f"{change:>8} {bound:>6}  {verdict}")

    for workload in sorted(set(before[1]) | set(after[1])):
        shares = {str(x) for s in sets for x in s[1].get(workload, [])}
        verdict = "ok" if len(shares) == 1 else "DIFFERS"
        all_ok = all_ok and verdict == "ok"
        print(f"{workload:<17} {'failed/attempted':<30} {', '.join(sorted(shares))}  {verdict}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
