"""The benchmark's workloads.

Each workload has the same shape:

* ``prepare(gk, seed, calls)`` makes the inputs from the seed and does the
  set-up the timed unit needs (``gk`` is the freshly imported package);
  it runs ``setup_rounds`` times and the median time is reported;
* ``repeat(gk, state, calls)`` is one repetition of the timed unit and
  returns a :class:`Rep` with its outputs and operation counts;
* ``same(a, b)`` tells whether two repetitions gave equal outputs;
* ``replay(gk, state, rep, calls)`` runs, in the traced run only, the solver
  systems of the repetition again through ``solve_congruences``;
* ``check(gk, state, rep, traced)`` returns the failures of the correctness
  checks on one repetition's outputs, computed outside the timed region.

Every call into the program goes through ``calls.call(name, ...)``, so the
traced run records a span named after the layer around it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import checks


@dataclass
class Rep:
    outputs: object
    attempted: int
    failed: int
    items: int
    replay_failures: list = field(default_factory=list)


def build(gk, calls, gcm, parabolic, degree):
    """``build_flag_graph`` as a user calls it; the traced run builds with
    ``embed=False`` and embeds separately, so the two layers are timed apart."""
    b = gk.builders
    if not calls.traced:
        graph = b.build_flag_graph(gcm, parabolic, degree)
    else:
        graph = calls.call(
            "builders.build_flag_graph", b.build_flag_graph, gcm, parabolic, degree, embed=False
        )
        if gk.coxeter.classify(gcm) != "indefinite":
            graph = calls.call("builders.moment_embedding", b.moment_embedding, graph, gcm, parabolic)
    calls.count("edges", len(graph.edges))
    return graph


def solve(gk, calls, graph, degree):
    basis = calls.call("solver.canonical_generators", gk.solver.canonical_generators, graph, degree)
    calls.count("generators", len(basis.generators))
    return basis


def replay_systems(gk, calls, graph, basis) -> list[str]:
    """Solve again every (generator, vertex) system ``canonical_generators``
    solved, rebuilt from the graph and the solved values; each result must
    equal the generator's value.  Counts systems whose residues are all zero."""
    dims = {v.id: v.cell_dim for v in graph.vertices}
    failures = []
    systems = zero = 0
    for vid, cls in basis.generators.items():
        degree = dims[vid] // 2
        for wid, dim in dims.items():
            if dim <= dims[vid]:
                continue
            constraints = [(e.weight, cls.values[e.other(wid)]) for e in graph.down_edges(wid)]
            h = calls.call(
                "polyring.solve_congruences",
                gk.polyring.solve_congruences,
                constraints,
                degree,
                basis.mode,
            )
            systems += 1
            zero += all(p.is_zero() for _, p in constraints)
            if h != cls.values[wid]:
                failures.append(f"replayed system of generator {vid} at {wid} gives {h}")
    calls.count("systems", systems)
    calls.count("zero_residue_systems", zero)
    return failures


def generator_terms(basis) -> dict:
    return {
        vid: {wid: checks.terms(p) for wid, p in cls.values.items()}
        for vid, cls in basis.generators.items()
    }


def seeded_order(items, seed):
    """The workload's items in an order drawn from the seed."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# -- loop-powers --------------------------------------------------------------


class LoopPowers:
    """Build, validate, solve and take power coefficients of the two loop-space
    presets.  One repetition solves 2 * (DEGREE + 1) generators."""

    name = "loop-powers"
    setup_rounds = 7  # set-up is the package import alone
    DEGREE = 7

    def prepare(self, gk, seed, calls):
        b = gk.builders
        presets = [
            ("omega-su2", "loops", b.affine_type_a(1), frozenset({1})),
            ("A1-4-twisted", "twisted", b.TWISTED_A1_4, frozenset({1})),
        ]
        return seeded_order(presets, seed)

    def repeat(self, gk, state, calls):
        d = self.DEGREE
        out = {}
        attempted = items = 0
        for name, _, gcm, parabolic in state:
            graph = build(gk, calls, gcm, parabolic, d)
            report = calls.call("graph.validate", gk.graph.validate, graph)
            basis = solve(gk, calls, graph, d)
            powers = [
                calls.call("ring_ops.power_coefficient", gk.ring_ops.power_coefficient, graph, basis, n)
                for n in range(1, d + 1)
            ]
            out[name] = (graph, report.ok, basis, powers)
            attempted += 3 + d
            items += len(basis.generators)
        return Rep(out, attempted, 0, items)

    def replay(self, gk, state, rep, calls):
        for graph, _, basis, _ in rep.outputs.values():
            rep.replay_failures += replay_systems(gk, calls, graph, basis)

    @staticmethod
    def same(a, b):
        return all(
            ga == gb and ba.generators == bb.generators and pa == pb
            for (ga, _, ba, pa), (gb, _, bb, pb) in zip(a.outputs.values(), b.outputs.values())
        )

    def check(self, gk, state, rep, traced):
        d = self.DEGREE
        failures = []
        for name, law, _, _ in state:
            graph, ok, basis, powers = rep.outputs[name]
            if not ok:
                failures.append(f"{name}: graph fails validation")
            if graph != gk.builders.build_preset(name, d):
                failures.append(f"{name}: graph differs from build_preset({name!r}, {d})")
            failures += checks.check_counts(graph, checks.one_per_length(d), name)
            failures += checks.check_power_laws(law, powers)
            failures += checks.check_generators(graph, generator_terms(basis), name)
        return failures


# -- flag-products ------------------------------------------------------------


FLAGS = (
    # name, Cartan matrix, degree cutoff (G2 is its whole flag variety)
    ("A3", ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 4),
    ("B3", ((2, -1, 0), (-1, 2, -1), (0, -2, 2)), 3),
    ("G2", ((2, -1), (-3, 2)), 6),
)
COMBINATIONS = 4  # seeded random products per flag and repetition


@dataclass
class FlagInput:
    name: str
    gcm: object
    degree: int
    text: str  # the solved basis as JSON, what `gkm generators -o` writes
    solved: object  # the basis canonical_generators returned in set-up
    pairs: list  # (u, v): every product f_u f_v with deg u + deg v <= degree
    combinations: list  # (a, b): {generator id: integer coefficient} each


class FlagProducts:
    """Load each solved basis from JSON and expand products in it, as
    ``gkm multiply`` does.  No congruence solving in the timed unit."""

    name = "flag-products"
    setup_rounds = 3  # each solves three bases, a few seconds

    def prepare(self, gk, seed, calls):
        rng = random.Random(seed)
        inputs = []
        for name, rows, degree in FLAGS:
            gcm = gk.coxeter.GCM(rows)
            graph = build(gk, calls, gcm, (), degree)
            report = calls.call("graph.validate", gk.graph.validate, graph)
            if not report.ok:
                raise RuntimeError(f"{name}: flag graph fails validation")
            basis = solve(gk, calls, graph, degree)
            if calls.traced:
                failures = replay_systems(gk, calls, graph, basis)
                if failures:
                    raise RuntimeError(f"{name}: {failures[0]}")
            text = calls.call("solver.basis_dumps", basis.dumps)
            calls.count("basis_json_bytes", len(text.encode()))
            deg = {v.id: v.cell_dim // 2 for v in graph.vertices}
            ids = [vid for vid in graph.vertex_ids if deg[vid] > 0]
            pairs = [
                (u, v) for i, u in enumerate(ids) for v in ids[i:] if deg[u] + deg[v] <= degree
            ]
            splits = [(p, q) for p in range(1, degree) for q in range(p, degree - p + 1)]
            combinations = []
            for _ in range(COMBINATIONS):
                p, q = rng.choice(splits)
                combinations.append(
                    tuple(
                        self._coefficients(rng, [vid for vid in ids if deg[vid] == k])
                        for k in (p, q)
                    )
                )
            inputs.append(FlagInput(name, gcm, degree, text, basis, pairs, combinations))
        return inputs

    @staticmethod
    def _coefficients(rng, ids):
        while True:
            coeffs = {vid: rng.randrange(-3, 4) for vid in ids}
            coeffs = {vid: c for vid, c in coeffs.items() if c}
            if coeffs:
                return coeffs

    def repeat(self, gk, state, calls):
        expand = gk.solver.expand_in_basis
        reduce = gk.ring_ops.ordinary_reduction
        out = {}
        attempted = items = 0
        for flag in state:
            basis = calls.call("solver.basis_from_dict", _load_basis, gk, flag.text)
            gens = basis.generators

            def expansion(left, right):
                product = calls.call("graph.class_product", _times, left, right)
                coeffs = calls.call("solver.expand_in_basis", expand, product, basis)
                return coeffs, calls.call("ring_ops.ordinary_reduction", reduce, coeffs)

            products = {(u, v): expansion(gens[u], gens[v]) for u, v in flag.pairs}
            combos = [
                expansion(*(calls.call("graph.class_product", _combine, gens, c) for c in ab))
                for ab in flag.combinations
            ]
            calls.count("expansions", len(products) + len(combos))
            out[flag.name] = (basis, products, combos)
            attempted += 1 + len(products) + len(combos)
            items += len(products) + len(combos)
        return Rep(out, attempted, 0, items)

    def replay(self, gk, state, rep, calls):
        pass  # the solver runs in set-up, where the traced run replays it

    @staticmethod
    def same(a, b):
        return all(
            ba.generators == bb.generators and pa == pb and ca == cb
            for (ba, pa, ca), (bb, pb, cb) in zip(a.outputs.values(), b.outputs.values())
        )

    def check(self, gk, state, rep, traced):
        oracle = gk.oracle.divided_difference_schubert
        word = gk.builders.word_from_id
        failures = []
        for flag in state:
            basis, products, combos = rep.outputs[flag.name]
            if basis.generators != flag.solved.generators:
                failures.append(f"{flag.name}: basis loaded from JSON differs from the solved one")
            if traced and basis.graph != gk.builders.build_flag_graph(flag.gcm, (), flag.degree):
                failures.append(f"{flag.name}: traced build differs from the untraced build")
            gens = generator_terms(basis)
            schubert = {
                vid: {
                    wid: checks.terms(p)
                    for wid, p in oracle(flag.gcm, gk.coxeter.CosetRep(word(vid))).values.items()
                }
                for vid in gens
            }
            failures += checks.check_against_oracle(gens, schubert, flag.name)
            constants = {}
            for (u, v), (coeffs, reduction) in products.items():
                what = f"{flag.name} f_{u}*f_{v}"
                c = {wid: checks.terms(p) for wid, p in coeffs.items()}
                constants[frozenset((u, v))] = c
                failures += checks.check_positivity(c, what)
                failures += checks.check_reproduces(gens, gens[u], gens[v], c, what)
                zero = (0,) * basis.graph.rank
                if reduction != {wid: c[wid].get(zero, 0) for wid in c}:
                    failures.append(f"{what}: ordinary reduction is not the constant terms")
            for i, ((coeffs, _), (a, b)) in enumerate(zip(combos, flag.combinations)):
                c = {wid: checks.terms(p) for wid, p in coeffs.items()}
                failures += checks.check_bilinear(c, a, b, constants, f"{flag.name} combination {i}")
        return failures


def _load_basis(gk, text):
    return gk.solver.GeneratorBasis.from_dict(json.loads(text))


def _times(left, right):
    return left * right


def _combine(gens, coeffs):
    """``sum_u a_u f_u`` with class arithmetic."""
    total = None
    for vid, a in coeffs.items():
        term = gens[vid] * a
        total = term if total is None else total + term
    return total


# -- kac-moody-graphs ---------------------------------------------------------


HYPERBOLIC = ((2, -3), (-3, 2))
HYPERBOLIC_DEGREE = 9


class KacMoodyGraphs:
    """Build, validate, serialise and render large truncations; the solver
    does nothing.  The hyperbolic build is an operation that fails every
    time (ClosureFailureError; see the README)."""

    name = "kac-moody-graphs"
    setup_rounds = 7  # set-up is the package import alone

    def prepare(self, gk, seed, calls):
        b = gk.builders
        graphs = [
            # name, Cartan matrix, parabolic, degree, closed-form cells per length
            ("omega-su2", b.affine_type_a(1), frozenset({1}), 30, checks.loop_group_series(2, 30)),
            ("A1-4-twisted", b.TWISTED_A1_4, frozenset({1}), 20, checks.one_per_length(20)),
            ("omega-su3", b.affine_type_a(2), frozenset({1, 2}), 8, checks.loop_group_series(3, 8)),
            ("affine-A2-flag", b.affine_type_a(2), frozenset(), 6, checks.affine_weyl_series((1, 2), 6)),
            (
                "hyperbolic",
                gk.coxeter.GCM(HYPERBOLIC),
                frozenset(),
                HYPERBOLIC_DEGREE,
                checks.infinite_dihedral_series(HYPERBOLIC_DEGREE),
            ),
        ]
        return seeded_order(graphs, seed)

    def repeat(self, gk, state, calls):
        out = {}
        attempted = failed = items = 0
        for name, gcm, parabolic, degree, _ in state:
            attempted += 1
            try:
                graph = build(gk, calls, gcm, parabolic, degree)
            except gk.errors.ClosureFailureError:
                failed += 1
                out[name] = None
                continue
            report = calls.call("graph.validate", gk.graph.validate, graph)
            text = calls.call("graph.dumps", graph.dumps)
            calls.count("graph_json_bytes", len(text.encode()))
            loaded = calls.call("graph.loads", gk.graph.GkmGraph.loads, text)
            svg = calls.call("render.to_svg", gk.render.to_svg, loaded)
            out[name] = (graph, report.ok, text, loaded, svg)
            attempted += 4
            items += len(graph.vertices)
        return Rep(out, attempted, failed, items)

    def replay(self, gk, state, rep, calls):
        pass  # no solver work

    @staticmethod
    def same(a, b):
        return all(
            x is y is None or (x and y and x[2] == y[2] and x[4] == y[4])
            for x, y in zip(a.outputs.values(), b.outputs.values())
        )

    def check(self, gk, state, rep, traced):
        failures = []
        for name, gcm, parabolic, degree, series in state:
            result = rep.outputs[name]
            if result is None:
                continue  # counted as failed
            graph, ok, text, loaded, _ = result
            if not ok:
                failures.append(f"{name}: graph fails validation")
            failures += checks.check_counts(graph, series, name)
            failures += checks.check_down_edges(graph, name)
            if gk.coxeter.classify(gcm) != "indefinite":
                failures += checks.check_edge_lines(graph, name)
            failures += checks.check_round_trip(graph, text, loaded, loaded.dumps(), name)
            if traced and graph != gk.builders.build_flag_graph(gcm, parabolic, degree):
                failures.append(f"{name}: traced build differs from the untraced build")
        return failures


WORKLOADS = {w.name: w for w in (LoopPowers(), FlagProducts(), KacMoodyGraphs())}
