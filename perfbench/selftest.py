"""Self-test of the benchmark: its checks pass on true outputs and catch
corrupted ones.

    python3 perfbench/selftest.py

Runs one repetition of each workload (loop-powers at a smaller degree),
checks its outputs, then feeds each workload's check a corrupted copy of
the outputs and requires the matching failure:

* a power coefficient off by one;
* one generator value perturbed at one vertex;
* a structure constant with a negative coefficient;
* a vertex position shifted off its edge line;
* a wrong vertex count at one length.

It also requires the metric names in ``BENCHMARK.json`` to be the ones
``run.py`` prints.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import sys

import run
from meter import Meter
from tracing import Direct
from workloads import FlagProducts, KacMoodyGraphs, LoopPowers, Rep

def caught(workload, gk, state, rep, marker):
    """The check fails on ``rep`` with a message containing ``marker``."""
    failures = workload.check(gk, state, rep, False)
    return any(marker in f for f in failures)


def untimed():
    return Direct(Meter())


def with_output(rep, name, value):
    return Rep({**rep.outputs, name: value}, rep.attempted, rep.failed, rep.items)


def loop_powers(gk):
    workload = LoopPowers()
    workload.DEGREE = 4
    state = workload.prepare(gk, 1, untimed())
    rep = workload.repeat(gk, state, untimed())
    yield ("loop-powers: checks pass on true outputs", not workload.check(gk, state, rep, False))

    graph, ok, basis, powers = rep.outputs["omega-su2"]
    bad = list(powers)
    bad[2] += 1
    yield (
        "loop-powers: power coefficient off by one is caught",
        caught(workload, gk, state, with_output(rep, "omega-su2", (graph, ok, basis, bad)), "power coefficient"),
    )

    vid = next(v.id for v in graph.vertices if v.cell_dim == 2)
    wid = next(v.id for v in graph.vertices if v.cell_dim == 6)
    gen = basis.generator(vid)
    x1 = gk.polyring.Polynomial.variable(0, graph.rank)
    values = {**gen.values, wid: gen.values[wid] + x1}
    gens = {**basis.generators, vid: gk.graph.CohClass(values, gen.degree)}
    perturbed = gk.solver.GeneratorBasis(graph, basis.degree, basis.mode, gens)
    yield (
        "loop-powers: generator perturbed at one vertex is caught",
        caught(workload, gk, state, with_output(rep, "omega-su2", (graph, ok, perturbed, powers)), "not divisible"),
    )


def flag_products(gk):
    workload = FlagProducts()
    state = workload.prepare(gk, 1, untimed())
    rep = workload.repeat(gk, state, untimed())
    yield ("flag-products: checks pass on true outputs", not workload.check(gk, state, rep, False))

    basis, products, combos = rep.outputs["G2"]
    (u, v), (coeffs, reduction) = next(iter(products.items()))
    wid = next(w for w, c in coeffs.items() if not c.is_zero())
    bad = {**coeffs, wid: coeffs[wid] * -1}
    corrupted = {**products, (u, v): (bad, reduction)}
    yield (
        "flag-products: structure constant with a negative coefficient is caught",
        caught(workload, gk, state, with_output(rep, "G2", (basis, corrupted, combos)), "non-negative"),
    )


def kac_moody_graphs(gk):
    workload = KacMoodyGraphs()
    state = workload.prepare(gk, 1, untimed())
    rep = workload.repeat(gk, state, untimed())
    yield ("kac-moody-graphs: checks pass on true outputs", not workload.check(gk, state, rep, False))
    yield ("kac-moody-graphs: the hyperbolic build fails", rep.failed == 1 and rep.outputs["hyperbolic"] is None)

    graph, ok, text, loaded, svg = rep.outputs["omega-su3"]
    v = next(v for v in graph.vertices if v.cell_dim == 4)
    shifted = graph.with_positions({v.id: (v.position[0] + 1,) + tuple(v.position[1:])})
    yield (
        "kac-moody-graphs: vertex position shifted off its edge line is caught",
        caught(workload, gk, state, with_output(rep, "omega-su3", (shifted, ok, text, loaded, svg)), "off its label"),
    )

    fewer = graph.induced([w.id for w in graph.vertices if w.id != v.id])
    yield (
        "kac-moody-graphs: wrong vertex count at one length is caught",
        caught(workload, gk, state, with_output(rep, "omega-su3", (fewer, ok, text, loaded, svg)), "vertices per length"),
    )


def metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [f"{layer}_s" for layer in run.TIME_LAYERS]
    per_layer += [name for name, _, _ in run.RATES] + [name for name, _ in run.BYTE_SIZES]
    yield ("BENCHMARK.json per-layer metrics are the ones run.py prints",
           [m["name"] for m in spec["per_layer"]] == per_layer)
    yield ("BENCHMARK.json end-to-end metrics are the ones run.py prints",
           {m["name"] for m in spec["end_to_end"]} == {"solution_s", "setup_s", "peak_rss_mb", "items_per_s"})


def main():
    gk = run.import_program()
    failed = 0
    for test in (metric_names(), loop_powers(gk), flag_products(gk), kac_moody_graphs(gk)):
        for label, ok in test:
            print(f"{'PASS' if ok else 'FAIL'}  {label}")
            failed += not ok
    print(f"{failed} failed" if failed else "all self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
