"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Every check is an exact algebraic identity; the time limits are generous
desk-scale bounds.
"""

import random
from contextlib import contextmanager
from math import factorial
from pathlib import Path
from time import perf_counter

from gkmcalc.builders import build_preset, type_a, word_from_id
from gkmcalc.coxeter import CosetRep
from gkmcalc.graph import CohClass, Edge, GkmGraph, Vertex, validate
from gkmcalc.oracle import (
    brute_force_classes,
    divided_difference_schubert,
    expected_gkm_dimension,
    s2n_relative_image,
)
from gkmcalc.polyring import Polynomial, Weight, divide_by_weight, monomials
from gkmcalc.ring_ops import poincare_series, power_coefficient
from gkmcalc.solver import GeneratorBasis, canonical_generators
from test_polyring import solve_linear_system
from test_solver import generator_failures

FIXTURES = Path(__file__).parent / "fixtures"
ALL_PRESETS = ("A1-flag", "A2-flag", "B2-flag", "omega-su2", "omega-su3", "A1-4-twisted")


@contextmanager
def criterion(number, title, limit_seconds):
    t0 = perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance {number}] FAIL  {title}")
        raise
    elapsed = perf_counter() - t0
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s (limit {limit_seconds}s)"
    print(f"[acceptance {number}] PASS  ({elapsed:.2f}s) {title}")


def sphere_graph():
    return GkmGraph(
        2, "Z", [Vertex("n", 0), Vertex("s", 2)], [Edge("n", "s", Weight((1, 0)))]
    )


def _class_vector(cls, ids, mons):
    vec = []
    for vid in ids:
        for m in mons:
            vec.append(cls.values[vid].terms.get(m, 0))
    return vec


def test_acceptance_1_sphere_lemma_oracle():
    with criterion(1, "two-point sphere graph equals {(f,g): weight | f-g} in degrees <= 3", 1.0):
        g = sphere_graph()
        alpha = Weight((1, 0))
        for d in range(4):
            basis = brute_force_classes(g, d)
            # dimension formula: free f plus free witness
            want = len(monomials(2, d)) + len(monomials(2, d - 1))
            assert len(basis) == want
            ids = g.vertex_ids
            mons = monomials(2, d)
            rows = [_class_vector(cls, ids, mons) for cls in basis]
            # containment one way: every basis element satisfies the divisibility
            for cls in basis:
                divide_by_weight(cls.values["n"] - cls.values["s"], alpha)
            # containment the other way: a spanning family of the divisibility
            # space lies inside the brute-force span (exact linear solve)
            spanning = []
            for m in mons:
                p = Polynomial(2, {m: 1})
                spanning.append(CohClass({"n": p, "s": p}, d))
            for m in monomials(2, d - 1):
                p = alpha.to_polynomial() * Polynomial(2, {m: 1})
                spanning.append(CohClass({"n": p, "s": Polynomial.zero(2)}, d))
            for cls in spanning:
                target = _class_vector(cls, ids, mons)
                solve_linear_system(
                    [[rows[j][i] for j in range(len(rows))] for i in range(len(target))],
                    target,
                )  # raises if inconsistent


def test_acceptance_2_relative_primality_implication():
    with criterion(2, "a_i | g for all i  <=>  prod a_i | g, 1000 random trials", 5.0):
        rng = random.Random(1234)
        failures = 0
        for _ in range(1000):
            rank = rng.choice((2, 3))
            count = rng.choice((2, 3))
            ws = []
            while len(ws) < count:
                w = Weight(tuple(rng.randrange(-3, 4) for _ in range(rank)))
                if w.is_zero() or any(w.proportional(u) for u in ws):
                    continue
                ws.append(w)
            beta = Polynomial(
                rank, {m: rng.randrange(-3, 4) for m in monomials(rank, rng.randrange(0, 2))}
            )
            multiple = beta
            for w in ws:
                multiple = multiple * w.to_polynomial()
            if not s2n_relative_image(ws, multiple):
                failures += 1
            # arbitrary polynomial: the two criteria must agree (checked inside)
            probe = Polynomial(
                rank, {m: rng.randrange(-2, 3) for m in monomials(rank, rng.randrange(0, 4))}
            )
            s2n_relative_image(ws, probe)
        assert failures == 0


def test_acceptance_3_su3_coadjoint_orbit():
    with criterion(3, "A2 orbit: 6 vertices, 9 edges, ranks (1,2,2,1), generators exact", 2.0):
        g = build_preset("A2-flag")
        assert len(g.vertices) == 6 and len(g.edges) == 9
        assert poincare_series(g, 3) == [1, 2, 2, 1]
        basis = canonical_generators(g, 3)
        assert generator_failures(basis) == []
        x1 = Polynomial.variable(0, 2)
        x2 = Polynomial.variable(1, 2)
        assert basis.generator("1-0-1").values["1-0-1"] == x1 * x2 * (x1 + x2)
        gcm = type_a(2)
        for vid in g.vertex_ids:
            sch = divided_difference_schubert(gcm, CosetRep(word_from_id(vid)))
            assert sch.values == basis.generator(vid).values


def test_acceptance_4_free_module_rank_check():
    with criterion(4, "brute-force dimension equals the one-generator-per-cell count", 30.0):
        for name in ALL_PRESETS:
            g = build_preset(name)
            for d in range(4):
                got = len(brute_force_classes(g, d))
                assert got == expected_gkm_dimension(g, d), (name, d)


def test_acceptance_5_omega_su2_divided_powers():
    with criterion(5, "loops in SU(2): power coefficients are n! for n = 1..5, Z-mode", 60.0):
        g = build_preset("omega-su2", 5)
        assert g.mode == "Z"
        basis = canonical_generators(g, 5, mode="Z")  # raises on any non-integrality
        for _, cls in basis.generators.items():
            assert all(p.is_integral() for p in cls.values.values())
        for n in range(1, 6):
            assert power_coefficient(g, basis, n) == factorial(n)


def test_acceptance_6_twisted_divided_powers():
    with criterion(6, "twisted example: power coefficients are n! * 2^(n//2) for n = 1..4", 60.0):
        g = build_preset("A1-4-twisted", 4)
        basis = canonical_generators(g, 4, mode="Z")
        for n in range(1, 5):
            assert power_coefficient(g, basis, n) == factorial(n) * 2 ** (n // 2)


def _relabel_within_dimensions(g, rng):
    by_dim = {}
    for v in g.vertices:
        by_dim.setdefault(v.cell_dim, []).append(v.id)
    mapping = {}
    for ids in by_dim.values():
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping.update(dict(zip(ids, shuffled)))
    relabeled = GkmGraph(
        g.rank,
        g.mode,
        [Vertex(mapping[v.id], v.cell_dim, v.position, v.label) for v in g.vertices],
        [Edge(mapping[e.u], mapping[e.v], e.weight) for e in g.edges],
    )
    return relabeled, mapping


def test_acceptance_7_uniqueness_and_perturbation():
    with criterion(7, "permutation invariance and perturbation detection, 200+ trials", 60.0):
        rng = random.Random(99)
        trials = 0
        for name in ("A2-flag", "B2-flag", "omega-su2"):
            g = build_preset(name, 3)
            top = max(v.cell_dim // 2 for v in g.vertices)
            basis = canonical_generators(g, top)
            # invariance under within-dimension relabeling (permutes solve order)
            for _ in range(35):
                relabeled, mapping = _relabel_within_dimensions(g, rng)
                rebased = canonical_generators(relabeled, top)
                for vid, cls in basis.generators.items():
                    image = rebased.generator(mapping[vid])
                    for wid in g.vertex_ids:
                        assert cls.values[wid] == image.values[mapping[wid]]
                trials += 1
            # any single-value change by a down-edge weight is detected
            for _ in range(35):
                vid = rng.choice(list(basis.generators))
                wid = rng.choice([w for w in g.vertex_ids if g.down_edges(w)])
                alpha = rng.choice(g.down_edges(wid)).weight.to_polynomial()
                cls = basis.generator(vid)
                tampered_cls = CohClass(
                    {u: (p + alpha if u == wid else p) for u, p in cls.values.items()}
                )
                tampered = GeneratorBasis(
                    g, basis.degree, basis.mode, {**basis.generators, vid: tampered_cls}
                )
                assert generator_failures(tampered)
                trials += 1
        assert trials >= 200


def test_acceptance_8_embedded_graph_property():
    with criterion(8, "position differences are rational multiples of edge labels", 10.0):
        for name in ALL_PRESETS:
            g = build_preset(name)
            for e in g.edges:
                pu = g.vertex(e.u).position
                pv = g.vertex(e.v).position
                assert pu is not None and pv is not None, (name, e)
                diff = [a - b for a, b in zip(pu, pv)]
                w = e.weight.coeffs
                assert any(diff)
                # diff = t * w for a single rational t: exact cross-multiplication
                for i in range(len(w)):
                    for j in range(i + 1, len(w)):
                        assert diff[i] * w[j] == diff[j] * w[i], (name, e)


def test_acceptance_9_validator_soundness():
    with criterion(9, "presets validate; corrupted fixtures fail on the right line", 30.0):
        for name in ALL_PRESETS:
            assert validate(build_preset(name)).ok, name
        expectations = {
            "odd_cell": "even_cell_dim",
            "collinear_weights": "coprimality",
            "wrong_down_count": "down_edge_count",
        }
        for fixture, check in expectations.items():
            rep = validate(GkmGraph.load(FIXTURES / f"{fixture}.json"))
            assert not rep.ok, fixture
            failing = {e.check for e in rep.entries if not e.ok}
            assert check in failing, (fixture, failing)
            assert any(
                check in line and "FAIL" in line for line in rep.format_text().splitlines()
            )
