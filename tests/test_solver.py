"""Canonical generator solving, the characterizing conditions, and expansion."""

import copy
import hashlib
import json
import math
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmcalc import oracle, polyring, ring_ops, solver
from gkmcalc.builders import PRESETS, TWISTED_A1_4, affine_type_a, build_flag_graph, build_preset, type_a
from gkmcalc.coxeter import GCM
from gkmcalc.errors import (
    MissingVertexValueError,
    NoSolutionError,
    NonIntegralError,
    NotDivisibleError,
    NotInSpanError,
    PolynomialParseError,
    ValidationFailureError,
)
from gkmcalc.graph import CohClass, Edge, GkmGraph, ValidationReport, Vertex, is_gkm_class, validate
from gkmcalc.polyring import Polynomial, Weight, monomials, parse_polynomial
from gkmcalc.solver import GeneratorBasis, canonical_generators, expand_in_basis
from test_graph import _TEXT, _xml_text


def poly2(text):
    return parse_polynomial(text, 2)


def test_bottom_generator_is_constant_one():
    for name in ("A2-flag", "omega-su2"):
        g = build_preset(name)
        basis = canonical_generators(g, 2)
        f = basis.generator("e")
        assert all(p == Polynomial.one(2) for p in f.values.values())


def test_a2_top_generator():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    top = basis.generator("1-0-1")
    assert top.values["1-0-1"] == poly2("x1^2*x2 + x1*x2^2")  # x1*x2*(x1+x2)
    for vid in g.vertex_ids:
        if vid != "1-0-1":
            assert top.values[vid].is_zero()


# Frozen by hand: solving the down-edge congruences of the loop-space graph
# degree by degree gives f1(v) = -m*x1 + m^2*x2 where v is the fixed point
# with classical coordinate -m, and the degree-2 products below for f2.
OMEGA_F1 = {
    "e": "0",
    "0": "-x1 + x2",
    "1-0": "x1 + x2",
    "0-1-0": "-2*x1 + 4*x2",
    "1-0-1-0": "2*x1 + 4*x2",
    "0-1-0-1-0": "-3*x1 + 9*x2",
}
OMEGA_F2 = {
    "e": "0",
    "0": "0",
    "1-0": "x1^2 + x1*x2",
    "0-1-0": "x1^2 - 5*x1*x2 + 6*x2^2",
    "1-0-1-0": "3*x1^2 + 9*x1*x2 + 6*x2^2",
}


def test_omega_su2_generators_match_hand_computation():
    g = build_preset("omega-su2", 5)
    basis = canonical_generators(g, 5)
    f1 = basis.generator("0")
    for vid, text in OMEGA_F1.items():
        assert f1.values[vid] == poly2(text), vid
    f2 = basis.generator("1-0")
    g4 = build_preset("omega-su2", 4)
    basis4 = canonical_generators(g4, 4)
    f2 = basis4.generator("1-0")
    for vid, text in OMEGA_F2.items():
        assert f2.values[vid] == poly2(text), vid


# generator conditions 1-4 by check name, in order, worded as a basis load
# words its refusal
_CONDITION_TEXT = {
    "homogeneous": "every value homogeneous of degree {} or zero",
    "vanish_below": "zero on lower-dimensional vertices",
    "vanish_beside": "zero on other vertices of equal dimension",
    "diagonal_value": "f_v(v) is the product of down-edge weights",
}


def generator_failures(basis):
    """``(generator, check, detail)`` for each of conditions 1-4 and GKM
    membership that a generator of ``basis`` breaks, the conditions in
    order, each detail naming the first vertex in canonical order that
    breaks it.  ``P(v)`` is multiplied out here from the down-edge weights,
    so nothing is read from the solver's own condition checks."""
    g, out = basis.graph, []
    for vid, cls in basis.generators.items():
        dim = g.vertex(vid).cell_dim
        first = {}
        for w in g.vertices:
            p = cls.values[w.id]
            if p.is_zero():
                continue
            if not p.is_homogeneous(dim // 2):
                first.setdefault("homogeneous", w.id)
            if w.cell_dim < dim:
                first.setdefault("vanish_below", w.id)
            elif w.cell_dim == dim and w.id != vid:
                first.setdefault("vanish_beside", w.id)
        product = Polynomial.one(g.rank)
        for e in g.down_edges(vid):
            product = product * e.weight.to_polynomial()
        if cls.values[vid] != product:
            first["diagonal_value"] = vid
        for check, text in _CONDITION_TEXT.items():
            if check in first:
                out.append((vid, check, f"{text.format(dim // 2)}; fails at {first[check]!r}"))
        if not is_gkm_class(g, cls):
            out.append((vid, "gkm_membership", "divisibility across every edge"))
    return out


def test_verify_conditions_pass_on_solver_output():
    for name in ("A2-flag", "omega-su2", "A1-4-twisted"):
        g = build_preset(name)
        basis = canonical_generators(g, 4)
        assert generator_failures(basis) == []


def test_perturbed_basis_fails_conditions_or_membership():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    rng = random.Random(5)
    for _ in range(25):
        vid = rng.choice(list(basis.generators))
        wid = rng.choice(g.vertex_ids)
        down = g.down_edges(wid)
        if not down:
            continue
        alpha = rng.choice(down).weight.to_polynomial()
        cls = basis.generator(vid)
        perturbed = CohClass(
            {u: (p + alpha if u == wid else p) for u, p in cls.values.items()}
        )
        tampered = GeneratorBasis(
            g, basis.degree, basis.mode, {**basis.generators, vid: perturbed}
        )
        assert generator_failures(tampered)


def test_empty_graph_vacuously_fine():
    g = GkmGraph(2, "Z", [], [])
    basis = canonical_generators(g, 3)
    assert basis.generators == {}


def test_solver_refuses_invalid_graph():
    bad = GkmGraph(2, "Z", [Vertex("a", 0), Vertex("b", 0)], [])
    with pytest.raises(ValidationFailureError):
        canonical_generators(bad, 1)


def _count_validations(monkeypatch):
    """The graphs validated from now on, one entry per ``validate`` run
    (each makes one report of its graph), and the graphs whose
    connectivity was walked, one entry per ``is_connected`` run."""
    runs, walks = [], []
    init, connected = ValidationReport.__init__, GkmGraph.is_connected

    def report(self, graph, failed):
        runs.append(graph)
        init(self, graph, failed)

    monkeypatch.setattr(ValidationReport, "__init__", report)
    monkeypatch.setattr(GkmGraph, "is_connected", lambda graph: walks.append(graph) or connected(graph))
    return runs, walks


def test_a_passing_verdict_is_not_checked_again(monkeypatch):
    calls, walks = _count_validations(monkeypatch)
    for use in (canonical_generators, ring_ops.poincare_series):
        g = build_preset("omega-su2", 7)
        assert validate(g).ok
        use(g, 7)
        use(g, 7)
        assert calls == [g]
        calls.clear()
    # with no verdict stored, the first call validates
    g = build_preset("omega-su2", 7)
    canonical_generators(g, 7)
    ring_ops.poincare_series(g, 7)
    assert calls == [g]
    # every vertex descends to the one bottom vertex: no walk is due
    assert walks == []


def test_a_failing_verdict_raises_the_full_report_every_time(monkeypatch):
    calls, walks = _count_validations(monkeypatch)
    bad = GkmGraph(2, "Z", [Vertex("a", 0), Vertex("b", 0)], [])
    report = validate(bad)
    assert not report.ok
    for _ in range(2):
        with pytest.raises(ValidationFailureError) as err:
            canonical_generators(bad, 1)
        assert err.value.report.format_text() == report.format_text()
    assert len(calls) == 3
    # two bottom vertices leave connectivity open: each run walks once
    assert walks == [bad] * 3


def test_derived_graphs_are_validated_again(monkeypatch):
    calls, walks = _count_validations(monkeypatch)
    g = build_preset("omega-su2", 7)
    assert validate(g).ok
    for derived in (g.induced(g.vertex_ids[:4]), g.with_positions({})):
        calls.clear()
        canonical_generators(derived, 3)
        assert calls == [derived]
    assert walks == []


def test_uniqueness_under_vertex_relabeling():
    # renaming vertices within a dimension permutes the processing order
    g = build_preset("A2-flag")
    swap = {"0": "1", "1": "0", "0-1": "1-0", "1-0": "0-1"}
    relabeled = GkmGraph(
        g.rank,
        g.mode,
        [Vertex(swap.get(v.id, v.id), v.cell_dim, v.position, v.label) for v in g.vertices],
        [Edge(swap.get(e.u, e.u), swap.get(e.v, e.v), e.weight) for e in g.edges],
    )
    basis = canonical_generators(g, 3)
    rebased = canonical_generators(relabeled, 3)
    for vid, cls in basis.generators.items():
        image = rebased.generator(swap.get(vid, vid))
        for wid in g.vertex_ids:
            assert cls.values[wid] == image.values[swap.get(wid, wid)]


def test_expand_generator_is_delta():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    coeffs = expand_in_basis(basis.generator("0-1"), basis)
    for vid, c in coeffs.items():
        assert c == (Polynomial.one(2) if vid == "0-1" else Polynomial.zero(2))


def test_expand_constant_one():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    one = CohClass({vid: Polynomial.one(2) for vid in g.vertex_ids})
    coeffs = expand_in_basis(one, basis)
    assert coeffs["e"] == Polynomial.one(2)
    assert all(c.is_zero() for vid, c in coeffs.items() if vid != "e")


def test_expand_square_of_degree_one_generator():
    # the diagonal structure constant of f_{s} * f_{s} is the simple root
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    f = basis.generator("0")
    coeffs = expand_in_basis(f * f, basis)
    assert coeffs["0"] == poly2("x1")


def _expand_round_trip(basis, seed, rounds):
    """Sums of generators with random polynomial coefficients (total degree
    at most the basis degree) expand back to those coefficients."""
    g, k, top = basis.graph, basis.graph.rank, basis.degree
    rng = random.Random(seed)
    for _ in range(rounds):
        chosen = {}
        total = {vid: Polynomial.zero(k) for vid in g.vertex_ids}
        for vid, cls in basis.generators.items():
            d = g.vertex(vid).cell_dim // 2
            deg = rng.choice(range(0, top + 1 - d)) if d < top else 0
            c = Polynomial(k, {m: rng.randrange(-3, 4) for m in monomials(k, deg)})
            chosen[vid] = c
            for wid in g.vertex_ids:
                total[wid] = total[wid] + c * cls.values[wid]
        coeffs = expand_in_basis(CohClass(total), basis)
        for vid in basis.generators:
            assert coeffs[vid] == chosen[vid]


def test_expand_random_combinations_round_trip():
    _expand_round_trip(canonical_generators(build_preset("omega-su2", 4), 3), 17, 25)


def test_expand_random_combinations_round_trip_rank3_flag():
    _expand_round_trip(canonical_generators(build_flag_graph(type_a(3), (), 4), 4), 19, 10)


def test_expand_leaves_inputs_unchanged():
    g = build_preset("A2-flag")
    basis, cut = canonical_generators(g, 3), canonical_generators(g, 1)
    one = CohClass({vid: Polynomial.one(2) for vid in g.vertex_ids})
    off = CohClass({vid: poly2("x1") if vid == "1-0-1" else Polynomial.zero(2) for vid in g.vertex_ids})
    f = basis.generator("0")
    # 1 divides nothing: its coefficient is the bottom vertex's residual itself;
    # 1 + off fails at 1-0-1 after residuals were updated; with the degree-2
    # generators cut off, f * f leaves a residual after the last vertex
    cases = [(one, basis, True), (f * f, basis, True), (one + off, basis, False), (f * f, cut, False)]

    def snapshot(cls, b):
        return copy.deepcopy(
            ({v: p.terms for v, p in cls.values.items()},
             {u: {v: p.terms for v, p in gen.values.items()} for u, gen in b.generators.items()})
        )

    for cls, b, in_span in cases:
        before = snapshot(cls, b)
        if in_span:
            expand_in_basis(cls, b)
        else:
            with pytest.raises(NotInSpanError):
                expand_in_basis(cls, b)
        assert snapshot(cls, b) == before


def test_expand_shares_one_zero_coefficient():
    basis = canonical_generators(build_flag_graph(type_a(3), (), 4), 4)
    f = basis.generator("0")
    coeffs = expand_in_basis(f * basis.generator("1"), basis)
    zeros = [c for c in coeffs.values() if c.is_zero()]
    assert len(zeros) > 1
    assert all(c is zeros[0] for c in zeros)
    assert zeros[0] == Polynomial.zero(3)


def test_expand_rejects_non_class():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    junk = CohClass(
        {vid: (poly2("x1") if vid == "1-0-1" else Polynomial.zero(2)) for vid in g.vertex_ids}
    )
    with pytest.raises(NotInSpanError) as err:
        expand_in_basis(junk, basis)
    assert err.value.vertex == "1-0-1"
    assert err.value.edge in g.down_edges("1-0-1")


def test_expand_refuses_values_off_the_graph_or_of_another_rank():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    f = basis.generator("0")
    for extra in (poly2("x1"), Polynomial.zero(2)):
        with pytest.raises(ValueError, match="^class has a value at 'zzz', which is not a vertex$"):
            expand_in_basis(CohClass({**f.values, "zzz": extra}), basis)
    with pytest.raises(MissingVertexValueError, match="'1-0-1'"):
        expand_in_basis(CohClass({w: p for w, p in f.values.items() if w != "1-0-1"}), basis)
    rank3 = CohClass({w: Polynomial.one(3) if w == "0-1" else Polynomial.zero(3) for w in g.vertex_ids})
    with pytest.raises(ValueError, match="^polynomials live in different rings$"):
        expand_in_basis(rank3, basis)
    with pytest.raises(ValueError, match="^polynomials live in different rings$"):
        rank3 + f
    # zeros of another rank are zeros: only nonzero values are read
    zeros3 = CohClass({w: p if p.terms else Polynomial.zero(3) for w, p in f.values.items()})
    assert expand_in_basis(zeros3, basis) == expand_in_basis(f, basis)


def test_expansions_compute_no_diagonal(monkeypatch):
    # a basis load checks condition 4 against P(v), the product of the
    # down-edge weights, computed once per generator; an expansion divides
    # by each generator's own f_v(v) and computes no P(v)
    b3 = GCM(((2, -1, 0), (-1, 2, -1), (0, -2, 2)))
    data = json.loads(canonical_generators(build_flag_graph(b3, (), 3), 3).dumps())
    made = []
    to_polynomial = Weight.to_polynomial
    monkeypatch.setattr(Weight, "to_polynomial", lambda w: made.append(w) or to_polynomial(w))
    basis = GeneratorBasis.from_dict(data)
    g, gens = basis.graph, basis.generators
    assert len(made) == sum(len(g.down_edges(vid)) for vid in gens)
    made.clear()
    deg = {vid: g.vertex(vid).cell_dim // 2 for vid in gens}
    for u in gens:
        for v in gens:
            if deg[u] + deg[v] <= basis.degree:
                expand_in_basis(gens[u] * gens[v], basis)
    assert made == []


def non_integral_graph():
    """Valid over Z by the letter of the rules, but the degree-1 generator
    picks up a denominator of 2 at the top vertex."""
    return GkmGraph(
        2,
        "Z",
        [Vertex("e", 0), Vertex("a", 2), Vertex("t", 4)],
        [
            Edge("e", "a", Weight((1, 0))),
            Edge("t", "a", Weight((0, 1))),
            Edge("t", "e", Weight((2, -1))),
        ],
    )


def test_non_integral_is_reported_with_witness():
    g = non_integral_graph()
    with pytest.raises(NonIntegralError) as err:
        canonical_generators(g, 2, mode="Z")
    assert err.value.vertex == "t"
    assert err.value.generator == "a"
    basis = canonical_generators(g, 2, mode="Q")
    fa = basis.generator("a")
    assert fa.values["t"] == poly2("x1") - Fraction(1, 2) * poly2("x2")
    assert is_gkm_class(g, fa).ok


def no_solution_graph():
    """Rank-3 torus where the degree-1 congruences at the top are inconsistent."""
    return GkmGraph(
        3,
        "Z",
        [Vertex("e", 0), Vertex("a", 2), Vertex("b", 2), Vertex("t", 4)],
        [
            Edge("e", "a", Weight((0, 0, 1))),
            Edge("e", "b", Weight((1, 1, 1))),
            Edge("t", "a", Weight((1, 0, 0))),
            Edge("t", "b", Weight((0, 1, 0))),
        ],
    )


def test_no_solution_reports_vertex():
    with pytest.raises(NoSolutionError) as err:
        canonical_generators(no_solution_graph(), 2)
    assert err.value.vertex == "t"
    assert err.value.generator == "a"


def test_generator_support_invariant():
    for name in ("A2-flag", "B2-flag", "omega-su2"):
        g = build_preset(name)
        basis = canonical_generators(g, 4)
        for vid, cls in basis.generators.items():
            dv = g.vertex(vid).cell_dim
            for wid, p in cls.values.items():
                if not p.is_zero():
                    dw = g.vertex(wid).cell_dim
                    assert dw > dv or wid == vid


def test_rank_counts_match_claimed_free_module_structure():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    for d in range(4):
        gens = [v for v in basis.generators if g.vertex(v).cell_dim == 2 * d]
        cells = [v for v in g.vertices if v.cell_dim == 2 * d]
        assert len(gens) == len(cells)


def test_basis_serialization_round_trip(tmp_path):
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    path = tmp_path / "basis.json"
    basis.save(path)
    again = GeneratorBasis.load(path)
    assert again.degree == basis.degree and again.mode == basis.mode
    for vid, cls in basis.generators.items():
        assert again.generator(vid).values == cls.values
    assert again.dumps() == basis.dumps()
    # a lowercase mode is read as Z-mode, so expansion still checks integrality
    data = json.loads(basis.dumps())
    lower = GeneratorBasis.from_dict({**data, "mode": "z"})
    assert lower.mode == "Z"
    f0 = basis.generator("0")
    half = CohClass({vid: Fraction(1, 2) * p for vid, p in f0.values.items()})
    with pytest.raises(NonIntegralError):
        expand_in_basis(half, lower)
    with pytest.raises(ValueError, match="mode must be"):
        GeneratorBasis.from_dict({**data, "mode": "X"})
    point = GkmGraph(2, "Z", [Vertex("e", 0)], [])
    assert canonical_generators(point, 0, mode="q").mode == "Q"
    with pytest.raises(ValueError, match="mode must be"):
        canonical_generators(point, 0, mode="X")


def test_basis_rejects_non_integer_degree():
    data = json.loads(canonical_generators(build_preset("A2-flag"), 3).dumps())
    for bad in ("3", 2.9, 3.0, True):
        with pytest.raises(ValueError, match=re.escape(f"basis degree must be an int, not {bad!r}")):
            GeneratorBasis.from_dict({**data, "degree": bad})


def test_solving_uses_no_matrix_elimination(monkeypatch):
    graphs = [build_flag_graph(type_a(3), (), 4), build_preset("omega-su2", 7)]

    def refuse(*args, **kwargs):
        raise AssertionError("the congruence solver eliminated a matrix")

    monkeypatch.setattr(oracle, "_rref", refuse)
    with pytest.raises(AssertionError, match="eliminated"):  # the one elimination is guarded
        oracle.nullspace_basis([[1, 1]], 2)
    for g in graphs:
        basis = canonical_generators(g, max(v.cell_dim // 2 for v in g.vertices))
        assert len(basis.generators) == len(g.vertices)


def test_basis_degree_is_checked():
    g = build_preset("A2-flag")
    for bad in (-1, True):
        with pytest.raises(ValueError, match="basis degree"):
            canonical_generators(g, bad)
    data = json.loads(canonical_generators(g, 3).dumps())
    # the generators must be exactly the vertices of cell dimension <= 2 * degree
    for degree in (1, -5):
        with pytest.raises(ValueError, match="basis"):
            GeneratorBasis.from_dict({**data, "degree": degree})
    gens = dict(data["generators"])
    del gens["0-1"]
    with pytest.raises(ValueError, match="basis generators"):
        GeneratorBasis.from_dict({**data, "generators": gens})
    low = canonical_generators(g, 1)
    assert GeneratorBasis.from_dict(json.loads(low.dumps())).dumps() == low.dumps()


def test_basis_values_must_sit_at_the_vertices():
    data = json.loads(canonical_generators(build_preset("B2-flag"), 4).dumps())
    extra = copy.deepcopy(data)
    extra["generators"]["0"]["zz"] = "x1"
    with pytest.raises(ValueError, match="generator '0' has a value at 'zz', which is not a vertex"):
        GeneratorBasis.from_dict(extra)
    missing = copy.deepcopy(data)
    del missing["generators"]["0"]["1-0"]
    with pytest.raises(ValueError, match="generator '0' has no value at vertex '1-0'"):
        GeneratorBasis.from_dict(missing)


@pytest.mark.parametrize(
    "edit, message",
    [
        ("list", "generator '0' must map vertex ids to polynomial strings, got a list"),
        ("number", "generator '0' has value 5 at vertex 'e', not a polynomial string"),
        ("null", "generator '0' has value None at vertex 'e', not a polynomial string"),
    ],
)
def test_basis_values_must_be_an_object_of_strings(edit, message):
    data = json.loads(canonical_generators(build_preset("B2-flag"), 4).dumps())
    if edit == "list":
        data["generators"]["0"] = list(data["generators"]["0"])
    else:
        data["generators"]["0"]["e"] = 5 if edit == "number" else None
    with pytest.raises(ValueError, match=message):
        GeneratorBasis.from_dict(data)
    with pytest.raises(ValueError, match="must be an object"):
        GeneratorBasis.from_dict({**data, "generators": list(data["generators"])})


# First 16 hex digits of sha256(dumps()) for Z-mode bases of G/P built to
# the first degree and solved to the second.  Only omega-su2-8-cut-5 is cut
# below the graph's top, so it alone is solved by lifting.
BASIS_HASHES = {
    "A3-flag-6": (type_a(3), (), 6, 6, "a7567be36696bf0a"),
    "G2-flag-6": (GCM(((2, -1), (-3, 2))), (), 6, 6, "4a5082715ef39f07"),
    "omega-su2-30": (affine_type_a(1), (1,), 30, 30, "6d51fcdc85eb0b0c"),
    "B3-flag-9": (GCM(((2, -1, 0), (-1, 2, -1), (0, -2, 2))), (), 9, 9, "d159aedc28450efb"),
    "A4-flag-10": (type_a(4), (), 10, 10, "33ce8a38e8064b7a"),
    "hyperbolic-9": (GCM(((2, -3), (-3, 2))), (), 9, 9, "0b1613a143d0b93a"),
    "affine-A2-flag-6": (affine_type_a(2), (), 6, 6, "d6fbc3dfc75f8a6b"),
    "twisted-30": (TWISTED_A1_4, (1,), 30, 30, "902650c54606569c"),
    "omega-su3-12": (affine_type_a(2), (1, 2), 12, 12, "be8f6bb41b197aaa"),
    "omega-su2-8-cut-5": (affine_type_a(1), (1,), 8, 5, "5a68eb1627f3b3d1"),
}


@pytest.mark.parametrize("case", sorted(BASIS_HASHES))
def test_basis_output_is_pinned(case):
    gcm, parabolic, size, degree, digest = BASIS_HASHES[case]
    basis = canonical_generators(build_flag_graph(gcm, parabolic, size), degree)
    text = basis.dumps()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert GeneratorBasis.from_dict(json.loads(text)).dumps() == text


# First 16 hex digits of sha256 over the expansions of every product f_u * f_v
# (u at or before v in canonical order, deg u + deg v <= cutoff) in the
# Z-mode basis of the full flag variety built and solved to the cutoff and
# read back from its JSON: per product, the str of each coefficient and of
# its ordinary reduction, in canonical order.
EXPANSION_HASHES = {
    "A3-flag-4": (type_a(3), 4, "6d769a688aa397b6"),
    "B3-flag-3": (GCM(((2, -1, 0), (-1, 2, -1), (0, -2, 2))), 3, "a60daa84a5f77759"),
    "G2-flag-6": (GCM(((2, -1), (-3, 2))), 6, "f7683d72b6d42ccd"),
}


def _expansion_digest(gcm, degree):
    solved = canonical_generators(build_flag_graph(gcm, (), degree), degree)
    basis = GeneratorBasis.from_dict(json.loads(solved.dumps()))
    graph = basis.graph
    deg = {v.id: v.cell_dim // 2 for v in graph.vertices}
    ids = list(basis.generators)
    digest = hashlib.sha256()
    for i, u in enumerate(ids):
        for v in ids[i:]:
            if deg[u] + deg[v] > degree:
                continue
            coeffs = expand_in_basis(basis.generator(u) * basis.generator(v), basis)
            reduction = ring_ops.ordinary_reduction(coeffs)
            assert list(coeffs) == list(reduction) == ids
            digest.update(f"{u}*{v}\n".encode())
            digest.update("".join(f"{w} {coeffs[w]}; {reduction[w]}\n" for w in ids).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(EXPANSION_HASHES))
def test_expansions_are_pinned(case):
    gcm, degree, digest = EXPANSION_HASHES[case]
    assert _expansion_digest(gcm, degree) == digest


def _expansion_outcome(cls, basis):
    """The nonzero coefficients as text, or the error's type, vertex and edge."""
    try:
        return {w: str(c) for w, c in expand_in_basis(cls, basis).items() if c.terms}
    except (NonIntegralError, NotInSpanError) as err:
        edge = getattr(err, "edge", None)
        return type(err).__name__, err.vertex, edge and (edge.u, edge.v)


def _a3_basis_with_diagonal(mode, scale):
    """The A3 basis of degree 4 and its generator ``f = f_{1-0}``, built
    directly with ``f(1-0)`` times ``scale`` (``from_dict`` refuses it)."""
    basis = canonical_generators(build_flag_graph(type_a(3), (), 4), 4)
    f = basis.generator("1-0")
    scaled = CohClass({**f.values, "1-0": scale * f.values["1-0"]}, f.degree)
    return GeneratorBasis(basis.graph, basis.degree, mode, {**basis.generators, "1-0": scaled}), f, scaled


@pytest.mark.parametrize("mode", ["Z", "Q"])
def test_expansion_in_a_basis_with_a_doubled_diagonal(mode):
    # each coefficient is the residual divided by the generator's own
    # f_v(v): the doubled generator and its product with f_0 expand, while
    # f and f * f_0 take half a coefficient at 1-0, not integral in Z-mode
    # and in Q-mode leaving a residual above 1-0 that does not divide
    tampered, f, doubled = _a3_basis_with_diagonal(mode, 2)
    f0 = tampered.generator("0")
    outcomes = [_expansion_outcome(c, tampered) for c in (doubled, f, doubled * f0, f * f0)]
    half = ("NonIntegralError", "1-0", None) if mode == "Z" else ("NotInSpanError", "1-0-1", ("1-0", "1-0-1"))
    assert outcomes == [{"1-0": "1"}, half, {"1-0": "x1 + x2", "2-1-0": "1"}, half]


def test_a_diagonal_clears_the_residual_at_its_vertex():
    # the coefficient at 1-0 times the doubled f_{1-0}(1-0) is the residual
    # there, so nothing is left at 1-0 and the expansion sums back to the
    # class; with f_{1-0}(1-0) = 0 the residual divides by every down-edge
    # weight but not by f_v(v), and the error names the vertex alone
    tampered, f, doubled = _a3_basis_with_diagonal("Q", 2)
    product = doubled * tampered.generator("0")
    coeffs = expand_in_basis(product, tampered)
    assert coeffs["1-0"] * doubled.value("1-0") == product.value("1-0")
    gens, zero = tampered.generators, Polynomial.zero(3)
    rebuilt = {w: sum((c * gens[v].values[w] for v, c in coeffs.items()), zero) for w in product.values}
    assert rebuilt == product.values
    vanished, f, _ = _a3_basis_with_diagonal("Q", 0)
    with pytest.raises(NotInSpanError) as err:
        expand_in_basis(f, vanished)
    assert (err.value.vertex, err.value.edge) == ("1-0", None)
    assert str(err.value).startswith("residual at '1-0' is not divisible by f_v(v);")


_B2_BASIS = json.loads(canonical_generators(build_preset("B2-flag"), 4).dumps())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_basis_load_decides_conditions_as_the_report_does(data):
    # one value of one generator replaced: the load passes exactly when
    # generator_failures finds no broken condition, and else names the
    # first broken one with its detail
    doc = copy.deepcopy(_B2_BASIS)
    gens = doc["generators"]
    vid = data.draw(st.sampled_from(sorted(gens)))
    wid = data.draw(st.one_of(st.just(vid), st.sampled_from(sorted(gens["e"]))))
    diag = gens[vid][vid]
    twice = parse_polynomial(diag, 2) * 2
    text = data.draw(st.sampled_from(
        ["0", "x1", "x1*x2", f"{diag} + x1", f"{diag} + 1", str(twice), str(twice * Fraction(-1, 2))]
        + list(gens[vid].values()) + [gens[u][u] for u in gens]
    ))
    gens[vid][wid] = text
    graph = GkmGraph.from_dict(doc["graph"])
    values = {w: parse_polynomial(t, 2) for w, t in gens[vid].items()}
    failures = generator_failures(GeneratorBasis(graph, 4, "Z", {vid: CohClass(values)}))
    bad = [(check, detail) for _, check, detail in failures if check != "gkm_membership"]
    if not bad:
        assert GeneratorBasis.from_dict(doc).generator(vid).values == values
        return
    with pytest.raises(ValueError) as err:
        GeneratorBasis.from_dict(doc)
    assert str(err.value) == f"generator {vid!r} breaks condition {bad[0][0]} ({bad[0][1]})"


@pytest.mark.parametrize(
    "text, edited, message",
    [
        ("x1^3", ("1", "0"), "vanish_below (zero on lower-dimensional vertices; fails at '0')"),
        ("x1", ("1-0-1-0", "0-1-0"), "homogeneous (every value homogeneous of degree 3 or zero; fails at '0-1-0')"),
    ],
)
def test_basis_load_names_the_first_vertex_breaking_a_condition(text, edited, message):
    # two values of f_1-0-1 break one condition: the message names the
    # first of them in canonical vertex order
    doc = copy.deepcopy(_B2_BASIS)
    for wid in edited:
        doc["generators"]["1-0-1"][wid] = text
    with pytest.raises(ValueError) as err:
        GeneratorBasis.from_dict(doc)
    assert str(err.value) == f"generator '1-0-1' breaks condition {message}"


@settings(deadline=None)
@given(st.lists(_TEXT, min_size=2, max_size=2, unique=True))
@example(["\x00\x1f\n\t", "\ud800"])
@example(["\"quoted\"", "back\\slash\u2028😀"])
def test_basis_dumps_matches_json_dumps(ids):
    # the basis writer quotes ids as the graph writer does, whatever the
    # text; the reader takes back exactly the ids that are XML text
    bottom, top = ids
    g = GkmGraph(1, "Z", [Vertex(bottom, 0), Vertex(top, 2)], [Edge(bottom, top, Weight((1,)))])
    basis = canonical_generators(g, 1)
    text = basis.dumps()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    if not all(map(_xml_text, ids)):
        with pytest.raises(ValueError, match="not an XML character"):
            GeneratorBasis.from_dict(json.loads(text))
        return
    loaded = GeneratorBasis.from_dict(json.loads(text))
    assert loaded.graph == g and loaded.generators == basis.generators
    assert loaded.dumps() == text


def test_basis_from_dict_refuses_unknown_keys():
    data = json.loads(canonical_generators(build_preset("A2-flag"), 3).dumps())
    del data["mode"]
    assert GeneratorBasis.from_dict(data).mode == "Z"
    with pytest.raises(ValueError, match="a basis has unknown key 'degre'"):
        GeneratorBasis.from_dict({**data, "degre": 5})


def test_threads_share_the_exponent_tables():
    """Four threads solve B3 at once from empty tables, each to the pinned basis."""
    gcm, parabolic, size, degree, digest = BASIS_HASHES["B3-flag-9"]
    graph = build_flag_graph(gcm, parabolic, size)
    polyring._VECTORS.clear()
    polyring._SHIFTS.clear()
    start = threading.Barrier(4, timeout=60)

    def solve():
        start.wait()
        return canonical_generators(graph, degree).dumps()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that misses race
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve) for _ in range(4)]
            texts = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts] == [digest] * 4


def test_unknown_generator_is_named():
    basis = canonical_generators(build_preset("A2-flag"), 2)
    with pytest.raises(ValueError, match="'1-0-1'.*degree 2"):
        basis.generator("1-0-1")


def _lifted(graph, degree, mode):
    """The basis lifted generator by generator, as the reference."""
    gens = {v.id: solver._lift(graph, v.id, mode) for v in graph.vertices if v.cell_dim <= 2 * degree}
    return GeneratorBasis(graph, degree, mode, gens)


def _outcome(solve):
    """The basis text, or the error's type, generator, vertex and witness."""
    try:
        return solve().dumps()
    except (NoSolutionError, NonIntegralError) as err:
        return type(err), err.generator, err.vertex, str(getattr(err, "witness", None))


@st.composite
def _flag_cases(draw):
    n = draw(st.integers(1, 3))
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = draw(st.integers(-3, 0))
            rows[i][j] = a
            rows[j][i] = draw(st.integers(-3, -1)) if a else 0
    parabolic = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return GCM(tuple(map(tuple, rows))), parabolic, draw(st.integers(1, 4)), draw(st.sampled_from("ZQ"))


@settings(max_examples=120, deadline=None)
@given(_flag_cases(), st.booleans())
def test_recursion_matches_lifting(case, embed):
    # finite and affine builds with embed carry positions, which seed the
    # recursion; the others seed it from the lifted degree-1 generators
    gcm, parabolic, degree, mode = case
    g = build_flag_graph(gcm, parabolic, degree, mode=mode, embed=embed)
    if not validate(g).ok:
        return
    assert _outcome(lambda: canonical_generators(g, degree)) == _outcome(lambda: _lifted(g, degree, mode))


def _three_remainder_constant(graph, vid, edge):
    """The reference cover constant: ``k`` with ``k * P == f_v(v) (mod
    beta)``, ``P = f_u(u) / beta``, read at one monomial of the remainders
    of ``P`` and ``f_v(v)`` by ``beta``."""
    u, beta = edge.other(vid), edge.weight
    p = polyring._divmod_weight(solver._down_weight_product(graph, u).terms, beta)[0]
    rp = polyring._divmod_weight(p, beta)[1]
    e0 = next(iter(rp))
    return Fraction(polyring._divmod_weight(solver._down_weight_product(graph, vid).terms, beta)[1].get(e0, 0), rp[e0])


def _covers(graph):
    """``(v, edge)`` for every edge from ``v`` up to a cover."""
    dims = {v.id: v.cell_dim for v in graph.vertices}
    return [(e.u, e) for e in graph.edges if dims[e.v] == dims[e.u] + 2]


def _check_cover_table(graph):
    """The Chevalley table of ``graph`` has one row ``(u, edge, c)`` per
    edge from a vertex up to a cover ``u``, with ``c = t * k`` for the
    reference constant ``k`` and the slope ``t`` of the graph's ``Phi``
    across the edge.  On a graph with positions, ``Phi`` is the positions
    scaled by the lcm of their denominators, so ``t`` comes from them."""
    phi = solver._phi_of(graph)
    if graph.vertices[0].position is not None:
        den = math.lcm(*(c.denominator for v in graph.vertices for c in v.position))
        assert phi == {v.id: tuple(den * c for c in v.position) for v in graph.vertices}
    rows = [(vid, u, e, c) for vid in graph.vertex_ids for u, e, c in solver._covers_of(graph, vid)]
    assert len(rows) == len(_covers(graph))
    assert {(vid, e) for vid, _, e, _ in rows} == set(_covers(graph))
    for vid, u, e, c in rows:
        assert u == e.other(vid)
        j, bj = e.weight._plan[:2]
        t = Fraction(phi[u][j] - phi[vid][j], bj)
        assert c == t * _three_remainder_constant(graph, vid, e), (vid, e)


def test_cover_constant_matches_three_remainders_on_presets():
    for name in sorted(PRESETS):
        _check_cover_table(build_preset(name))


@settings(max_examples=40, deadline=None)
@given(_flag_cases().filter(lambda case: case[0].n == 3))
def test_cover_constant_matches_three_remainders_on_rank3_flags(case):
    gcm, parabolic, degree, mode = case
    g = build_flag_graph(gcm, parabolic, degree, mode=mode, embed=False)
    if not validate(g).ok:
        return
    _check_cover_table(g)


def test_cover_constant_refuses_parallel_down_weights():
    # the down-weights x1 and 2*x1 at u are parallel, so no point of the
    # hyperplane x1 = 0 separates them
    g = GkmGraph(
        2,
        "Q",
        [Vertex("e", 0), Vertex("a", 2), Vertex("b", 2), Vertex("u", 4)],
        [
            Edge("e", "a", Weight((1, 1))),
            Edge("e", "b", Weight((1, -1))),
            Edge("a", "u", Weight((1, 0))),
            Edge("b", "u", Weight((2, 0))),
        ],
    )
    assert not validate(g).ok
    edge = next(e for e in g.edges if (e.u, e.v) == ("a", "u"))
    with pytest.raises(ValueError, match="'u'"):
        solver._evaluate_cover(g, "a", edge)


def _position_graph(positions, down, mode="Q", embed=False):
    """A rank-3 graph whose vertex ``x`` (besides ``e`` at the origin and
    ``a`` at ``(1, 0, 0)``) sits at ``positions[x]`` and has down-edges to
    ``down[x]``, each labelled by the difference of positions (made
    primitive in Z-mode).  ``f_a`` is then ``x -> position(x)``, but the
    higher generators need the down-edges of a vertex and of its covers to
    agree modulo the edge between them, which positions alone do not give.
    With ``embed`` the vertices carry their positions."""
    pos = {"e": (0, 0, 0), "a": (1, 0, 0), **positions}
    down = {"a": ["e"], **down}
    edges = []
    for x, ys in down.items():
        for y in ys:
            w = tuple(p - q for p, q in zip(pos[x], pos[y]))
            if mode == "Z":
                w = tuple(c // math.gcd(*w) for c in w)
            edges.append(Edge(y, x, Weight(w)))
    vertices = [Vertex("e", 0)] + [Vertex(x, 2 * len(ys)) for x, ys in down.items()]
    return GkmGraph(3, mode, vertices, edges).with_positions(pos if embed else {})


def test_failed_certificates_are_reported_as_lifting_reports_them():
    for embed in (False, True):  # the lifted seed, then the position seed
        # f_v has no value at its cover u, and none at t above its covers
        cover = _position_graph(
            {"v": (-1, 2, -2), "w": (0, -2, 1), "u": (1, 1, 1)},
            {"v": ["e", "a"], "w": ["e", "a"], "u": ["e", "v", "w"]},
            embed=embed,
        )
        above = _position_graph(
            {"v": (0, -1, 2), "w": (-2, -2, 2), "u1": (-1, 2, 2), "u2": (1, 2, 2), "t": (-1, -2, 2)},
            {
                "v": ["e", "a"],
                "w": ["e", "a"],
                "u1": ["e", "a", "v"],
                "u2": ["e", "a", "w"],
                "t": ["e", "a", "u1", "u2"],
            },
            "Z",
            embed,
        )
        # f_v(u1) has a denominator of 2
        fraction = _position_graph(
            {"v": (0, -2, 2), "w": (1, 0, -2), "u1": (-1, 2, 0), "u2": (0, -1, 1)},
            {"v": ["e", "a"], "w": ["e", "a"], "u1": ["a", "v", "w"], "u2": ["a", "v", "w"]},
            "Z",
            embed,
        )
        cases = ((cover, NoSolutionError, "u"), (above, NoSolutionError, "t"), (fraction, NonIntegralError, "u1"))
        for g, error, vertex in cases:
            top = max(v.cell_dim for v in g.vertices) // 2
            assert (solver._position_form(g) is not None) == embed
            assert solver._chevalley(g, g.mode) is None
            with pytest.raises(error) as err:
                canonical_generators(g, top)
            assert (err.value.generator, err.value.vertex) == ("v", vertex)


def test_a_lifted_seed_with_no_phi_is_reported_as_lifting_reports_it():
    # over Q, f_a has no value at u, so the lifted seed makes no Phi; over Z
    # lifting stops earlier, at the fraction f_a(w), and that is reported
    g = _position_graph(
        {"b": (2, 3, 3), "v": (0, 3, -1), "w": (-2, -1, -1), "u": (-3, -1, 0)},
        {"b": ["e"], "v": ["a", "e"], "w": ["a", "b"], "u": ["b", "v", "e"]},
        "Z",
    )
    assert validate(g).ok
    with pytest.raises(NoSolutionError) as err:
        solver._phi_of(g)
    assert (err.value.generator, err.value.vertex) == ("a", "u")
    got = _outcome(lambda: canonical_generators(g, 3))
    assert got == _outcome(lambda: _lifted(g, 3, "Z"))
    assert got[:3] == (NonIntegralError, "a", "w")


def test_a_cover_value_off_its_congruence_stops_the_recursion_at_once(monkeypatch):
    # f_w(u) = g(u) / D(u) divides exactly, but differs from f_w(w) by a
    # non-multiple of the label of (u, w): the certificate refuses it at
    # w's step, before any lower generator is solved
    steps, step = [], solver._chevalley_generator
    monkeypatch.setattr(solver, "_chevalley_generator", lambda *args: steps.append(args[2]) or step(*args))
    for embed in (False, True):
        g = _position_graph(
            {"v": (-1, 2, -2), "w": (0, -2, 1), "u": (1, 1, 1)},
            {"v": ["e", "a"], "w": ["e", "a"], "u": ["e", "v", "w"]},
            embed=embed,
        )
        steps.clear()
        assert solver._chevalley(g, g.mode) is None
        assert steps == ["u", "w"]


_point = st.tuples(*[st.integers(-2, 2)] * 3)


@settings(max_examples=120, deadline=None)
@given(st.fixed_dictionaries({"v": _point, "w": _point, "u": _point}), st.sampled_from("ZQ"), st.booleans())
def test_recursion_matches_lifting_on_position_graphs(positions, mode, embed):
    if len({(0, 0, 0), (1, 0, 0), *positions.values()}) < 5:
        return
    g = _position_graph(positions, {"v": ["e", "a"], "w": ["e", "a"], "u": ["e", "v", "w"]}, mode, embed)
    if not validate(g).ok:
        return
    assert _outcome(lambda: canonical_generators(g, 3)) == _outcome(lambda: _lifted(g, 3, mode))


def _zero_form(graph, *_):
    return {v: (0,) * graph.rank for v in graph.vertex_ids}


def test_zero_moment_form_falls_back_to_lifting(monkeypatch):
    graphs = (build_flag_graph(type_a(3), (), 6), build_preset("omega-su2", 7))
    # all-zero positions are refused, so Phi comes from the lifted seed
    monkeypatch.setattr(solver, "_moment_form", _zero_form)
    for g in graphs:
        g = g.with_positions({v: (0,) * g.rank for v in g.vertex_ids})
        top = max(v.cell_dim for v in g.vertices) // 2
        assert solver._position_form(g) is None
        assert solver._chevalley(g, g.mode) is None
        assert canonical_generators(g, top).dumps() == _lifted(g, top, g.mode).dumps()
    # and with the builder's positions, from the position seed
    monkeypatch.setattr(solver, "_position_form", _zero_form)
    for g in graphs:
        top = max(v.cell_dim for v in g.vertices) // 2
        assert solver._chevalley(g, g.mode) is None
        assert canonical_generators(g, top).dumps() == _lifted(g, top, g.mode).dumps()


_EMBEDDED = {
    "omega-su2-7": lambda **kw: build_flag_graph(affine_type_a(1), (1,), 7, **kw),
    "twisted-7": lambda **kw: build_flag_graph(TWISTED_A1_4, (1,), 7, **kw),
    "A3-flag": lambda **kw: build_flag_graph(type_a(3), (), 6, **kw),
    "B3-flag": lambda **kw: build_flag_graph(GCM(((2, -1, 0), (-1, 2, -1), (0, -2, 2))), (), 9, **kw),
}


def _solve_counting_lifts(monkeypatch, g):
    """The basis of ``g`` at its top and the number of ``_lift`` calls."""
    calls = []
    lift = solver._lift
    monkeypatch.setattr(solver, "_lift", lambda *args: calls.append(args[1]) or lift(*args))
    basis = canonical_generators(g, max(v.cell_dim for v in g.vertices) // 2)
    monkeypatch.undo()
    return basis, len(calls)


@pytest.mark.parametrize("case", sorted(_EMBEDDED))
def test_embedded_builds_lift_no_generator(monkeypatch, case):
    g = _EMBEDDED[case]()
    basis, lifts = _solve_counting_lifts(monkeypatch, g)
    assert lifts == 0
    degree1 = sum(v.cell_dim == 2 for v in g.vertices)
    # positions moved off an edge line, coinciding or absent: Phi is lifted
    top = g.vertices[-1]
    off = {top.id: tuple(p + Fraction(1, q) for p, q in zip(top.position, (7, 11, 13)))}
    same = {top.id: g.vertices[-2].position}
    for h in (g.with_positions(off), g.with_positions(same), _EMBEDDED[case](embed=False)):
        assert solver._position_form(h) is None
        other, lifts = _solve_counting_lifts(monkeypatch, h)
        assert lifts == degree1
        assert other.generators == basis.generators


def test_recursion_failing_at_a_degree1_generator_falls_back_to_lifting(monkeypatch):
    # the lifted seed lifts the degree-1 generators to make Phi only; when
    # the recursion then fails at one of them, every generator is lifted
    g = _EMBEDDED["A3-flag"](embed=False)
    step = solver._chevalley_generator

    def failing(graph, mode, vid, *rest):
        return None if graph.vertex(vid).cell_dim == 2 else step(graph, mode, vid, *rest)

    monkeypatch.setattr(solver, "_chevalley_generator", failing)
    basis, lifts = _solve_counting_lifts(monkeypatch, g)
    assert lifts == sum(v.cell_dim == 2 for v in g.vertices) + len(g.vertices)
    assert basis.dumps() == _lifted(g, 6, g.mode).dumps()


@pytest.mark.parametrize("name", ["B2-flag", "A2-flag", "omega-su2"])
@pytest.mark.parametrize("factors", [(2,), (3,), (2, 3), (3, 2)])
def test_recursion_with_fractional_chain_constants_matches_lifting(monkeypatch, name, factors):
    # every label doubled or tripled, in turn along the edge list: the
    # positions still form a class, and the chain constants t * k become
    # fractions such as -3/2 and 1/3
    g = build_preset(name)
    edges = [
        Edge(e.u, e.v, Weight(tuple(factors[i % len(factors)] * c for c in e.weight.coeffs)))
        for i, e in enumerate(g.edges)
    ]
    g = GkmGraph(g.rank, "Q", g.vertices, edges)
    assert validate(g).ok
    constants = set()
    for vid, e in _covers(g):
        u, (j, bj) = e.other(vid), e.weight._plan[:2]
        t = Fraction(g.vertex(u).position[j] - g.vertex(vid).position[j], bj)
        constants.add(t * _three_remainder_constant(g, vid, e))
    assert any(c.denominator != 1 for c in constants)
    basis, lifts = _solve_counting_lifts(monkeypatch, g)
    assert lifts == 0
    top = max(v.cell_dim for v in g.vertices) // 2
    assert basis.dumps() == _lifted(g, top, "Q").dumps()


def test_chevalley_recursion_makes_no_weight(monkeypatch):
    # D(w) = Phi(w) - Phi(v) is divided as a bare integer form: no Weight
    # for any of the 78 vertex pairs.  The solve runs against an emptied
    # weight table, so that any weight made in it, even one equal to a
    # label of the graph, would enter the table.
    g = build_preset("omega-su2", 12)
    polyring._WEIGHTS.clear()
    basis, lifts = _solve_counting_lifts(monkeypatch, g)
    assert lifts == 0 and not polyring._WEIGHTS
    assert basis.generators == {vid: solver._lift(g, vid, "Z") for vid in g.vertex_ids}


def _expand_by_division(cls, basis):
    """The reference expansion: by increasing cell dimension, each
    coefficient is the residual divided by the down-edge weights one at a
    time, and ``c_v * f_v`` is subtracted from the residual.  Returns the
    coefficients, or the error's type, vertex and edge or witness."""
    g = basis.graph
    residual = dict(cls.values)
    coeffs = {}
    for vid in g.vertex_ids:
        gen = basis.generators.get(vid)
        if gen is None:
            continue
        c = residual[vid]
        for e in g.down_edges(vid):
            try:
                c = polyring.divide_by_weight(c, e.weight)
            except NotDivisibleError:
                return NotInSpanError, vid, e
        if basis.mode == "Z" and not c.is_integral():
            return NonIntegralError, vid, c
        coeffs[vid] = c
        residual = {w: p - c * gen.values[w] for w, p in residual.items()}
    bad = next((vid for vid in g.vertex_ids if not residual[vid].is_zero()), None)
    return coeffs if bad is None else (NotInSpanError, bad, None)


def _expansion(cls, basis):
    """``expand_in_basis``, or its error in the reference's form."""
    try:
        return expand_in_basis(cls, basis)
    except NotInSpanError as err:
        return NotInSpanError, err.vertex, err.edge
    except NonIntegralError as err:
        return NonIntegralError, err.vertex, err.witness


@settings(max_examples=40, deadline=None)
@given(_flag_cases(), st.randoms(use_true_random=False))
def test_expansion_of_products_matches_division(case, rng):
    gcm, parabolic, degree, mode = case
    g = build_flag_graph(gcm, parabolic, degree, mode=mode, embed=False)
    if not validate(g).ok:
        return
    try:
        basis = canonical_generators(g, degree)
    except (NoSolutionError, NonIntegralError):
        return
    gens = basis.generators
    deg = {vid: g.vertex(vid).cell_dim // 2 for vid in gens}
    pairs = [(u, v) for u in gens for v in gens if deg[u] + deg[v] <= degree]
    total = None
    for _ in range(rng.randint(1, 4)):
        u, v = rng.choice(pairs)
        term = gens[u] * gens[v] * rng.randint(-3, 3)
        total = term if total is None else total + term
    coeffs = expand_in_basis(total, basis)
    assert coeffs == _expand_by_division(total, basis)
    zero = Polynomial.zero(g.rank)
    rebuilt = {w: sum((c * gens[v].values[w] for v, c in coeffs.items()), zero) for w in g.vertex_ids}
    assert rebuilt == total.values


def _perturbed_product_expands_as_division(case, rng):
    """One value of a random product, perturbed at a random vertex, expands
    or fails as the reference does: the same type, vertex and edge."""
    gcm, parabolic, degree, mode = case
    g = build_flag_graph(gcm, parabolic, degree, mode=mode, embed=False)
    if not validate(g).ok:
        return
    try:
        basis = canonical_generators(g, degree)
    except (NoSolutionError, NonIntegralError):
        return
    gens = basis.generators
    deg = {vid: g.vertex(vid).cell_dim // 2 for vid in gens}
    u, v = rng.choice([(u, v) for u in gens for v in gens if deg[u] + deg[v] <= degree])
    d, w = deg[u] + deg[v], rng.choice(g.vertex_ids)
    m = rng.choice(monomials(g.rank, rng.choice([d, d, max(d - 1, 0), d + 1])))
    values = dict((gens[u] * gens[v]).values)
    values[w] = values[w] + Polynomial(g.rank, {m: rng.choice([-2, -1, 1, 3, Fraction(1, 2)])})
    tampered = CohClass(values)
    assert _expansion(tampered, basis) == _expand_by_division(tampered, basis)


@settings(max_examples=40, deadline=None)
@given(_flag_cases(), st.randoms(use_true_random=False))
def test_expansion_errors_match_division(case, rng):
    _perturbed_product_expands_as_division(case, rng)
    g = build_preset("B2-flag")
    basis = canonical_generators(g, 4)
    top = g.vertex_ids[-1]
    product = basis.generator("0-1") * basis.generator("1-0")
    for extra in ("x1^4", "x2^4", "x1^3*x2 + 1"):
        values = dict(product.values)
        values[top] = values[top] + poly2(extra)
        tampered = CohClass(values)
        err = _expansion(tampered, basis)
        assert err == _expand_by_division(tampered, basis)
        assert err[:2] == (NotInSpanError, top) and err[2] in g.down_edges(top)
    rational = GeneratorBasis(g, 4, "Q", basis.generators)
    for vid, f in basis.generators.items():
        half = f * Fraction(1, 2)
        err = _expansion(half, basis)
        assert err == _expand_by_division(half, basis)
        assert err == (NonIntegralError, vid, Polynomial.constant(Fraction(1, 2), 2))
        coeffs = expand_in_basis(half, rational)
        assert coeffs == {u: Polynomial.constant(Fraction(int(u == vid), 2), 2) for u in basis.generators}


def test_basis_load_shares_one_polynomial_per_text():
    basis = canonical_generators(build_flag_graph(GCM(((2, -1, 0), (-1, 2, -1), (0, -2, 2))), (), 3), 3)
    data = json.loads(basis.dumps())
    texts = [t for values in data["generators"].values() for t in values.values()]
    assert texts.count("0") > len(texts) // 2
    loaded = GeneratorBasis.from_dict(data)
    assert loaded.generators == basis.generators
    assert loaded.dumps() == basis.dumps()
    values = [p for cls in loaded.generators.values() for p in cls.values.values()]
    assert len({id(p) for p in values}) == len(set(texts))


def test_basis_load_reads_each_term_text_once(monkeypatch):
    basis = canonical_generators(build_flag_graph(GCM(((2, -1), (-3, 2))), (), 6), 6)
    data = json.loads(basis.dumps())
    texts = {t for values in data["generators"].values() for t in values.values()}
    terms = {term for t in texts for _, term in polyring._SIGNED_TERM.findall(t)}
    reads = []
    read = polyring._read_term
    monkeypatch.setattr(polyring, "_read_term", lambda term, nvars: reads.append(term) or read(term, nvars))
    for _ in range(2):  # the term cache lives for one load, so the second reads them again
        reads.clear()
        assert GeneratorBasis.from_dict(data).dumps() == basis.dumps()
        assert sorted(reads) == sorted(terms)


@pytest.mark.parametrize("first, second", [("3x1", "x9"), ("x9", "3x1"), ("x1 +", "x1 +"), ("1/0", "x1 ^ x2")])
def test_basis_load_reports_the_first_malformed_text(first, second):
    data = json.loads(canonical_generators(build_preset("B2-flag"), 4).dumps())
    *_, earlier, later = data["generators"]
    for vid, text in ((earlier, first), (later, second)):
        data["generators"][vid] = {w: text for w in data["generators"][vid]}
    with pytest.raises(PolynomialParseError) as want:
        parse_polynomial(first, 2)
    with pytest.raises(PolynomialParseError) as err:
        GeneratorBasis.from_dict(data)
    assert str(err.value) == str(want.value)
