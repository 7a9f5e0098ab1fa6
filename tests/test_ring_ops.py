"""Products, rank series, ordinary reduction, and divided-powers laws."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc import solver
from gkmcalc.builders import build_flag_graph, build_preset, type_a
from gkmcalc.coxeter import GCM
from gkmcalc.errors import (
    CutoffTooSmallError,
    GkmError,
    NonIntegralError,
    ValidationFailureError,
)
from gkmcalc.graph import CohClass, Edge, GkmGraph, Vertex, is_gkm_class, validate
from gkmcalc.polyring import Polynomial, Weight
from gkmcalc.ring_ops import ordinary_reduction, poincare_series, power_coefficient
from gkmcalc.solver import GeneratorBasis, canonical_generators, expand_in_basis


def test_multiply_identity_and_zero():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    f = basis.generator("0")
    one = CohClass({v: Polynomial.one(2) for v in g.vertex_ids}, 0)
    zero = CohClass({v: Polynomial.zero(2) for v in g.vertex_ids}, 0)
    assert (f * one).values == f.values
    assert (zero * f).is_zero()


def test_multiply_degrees_add_and_stay_gkm():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    prod = basis.generator("0") * basis.generator("1")
    assert prod.degree == 2
    assert is_gkm_class(g, prod).ok


def test_poincare_examples():
    assert poincare_series(build_preset("A2-flag"), 3) == [1, 2, 2, 1]
    point = GkmGraph(2, "Z", [Vertex("pt", 0)], [])
    assert poincare_series(point, 0) == [1]
    assert poincare_series(build_preset("omega-su2", 4), 4) == [1, 1, 1, 1, 1]


def test_poincare_respects_cutoff():
    assert poincare_series(build_preset("A2-flag"), 1) == [1, 2]


def test_poincare_refuses_an_invalid_graph():
    # an odd cell would be filed in degree cell_dim // 2, and a negative
    # one in the last entry, so the series is refused, as the solver refuses
    odd = GkmGraph.loads((Path(__file__).parent / "fixtures" / "odd_cell.json").read_text())
    negative = GkmGraph(1, "Z", [Vertex("e", 0), Vertex("n", -2)], [])
    for g, degree in ((odd, 2), (negative, 3)):
        with pytest.raises(ValidationFailureError) as err:
            poincare_series(g, degree)
        assert "even_cell_dim" in err.value.report.failing_checks()
        with pytest.raises(ValueError, match="non-negative"):  # the degree is checked first
            poincare_series(g, -1)


def test_reduction_of_generator_expansion():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    red = ordinary_reduction(expand_in_basis(basis.generator("0-1"), basis))
    assert red["0-1"] == 1
    assert all(v == 0 for k, v in red.items() if k != "0-1")


def test_reduction_kills_positive_degree_coefficients():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    f = basis.generator("0")
    scaled = CohClass({v: Polynomial.variable(0, 2) * p for v, p in f.values.items()})
    red = ordinary_reduction(expand_in_basis(scaled, basis))
    assert all(v == 0 for v in red.values())


def test_power_coefficient_trivial():
    g = build_preset("omega-su2", 3)
    basis = canonical_generators(g, 3)
    assert power_coefficient(g, basis, 1) == 1


def test_divided_powers_small():
    g = build_preset("omega-su2", 3)
    basis = canonical_generators(g, 3)
    assert power_coefficient(g, basis, 2) == 2
    assert power_coefficient(g, basis, 3) == 6
    tw = build_preset("A1-4-twisted", 2)
    tb = canonical_generators(tw, 2)
    assert power_coefficient(tw, tb, 2) == 4


def test_ordinary_reduction_is_ring_like_on_loop_space():
    # f1 * fn expands with top ordinary coefficient n + 1
    g = build_preset("omega-su2", 5)
    basis = canonical_generators(g, 5)
    by_dim = {g.vertex(v).cell_dim // 2: v for v in basis.generators}
    f1 = basis.generator(by_dim[1])
    for n in range(1, 5):
        prod = f1 * basis.generator(by_dim[n])
        red = ordinary_reduction(expand_in_basis(prod, basis))
        assert red[by_dim[n + 1]] == n + 1


def test_power_coefficients_are_positive_integers():
    for name, top in (("omega-su2", 4), ("A1-4-twisted", 4)):
        g = build_preset(name, top)
        basis = canonical_generators(g, top)
        for n in range(1, top + 1):
            c = power_coefficient(g, basis, n)
            assert c == int(c) and c > 0


def parabola_complete_graph(top):
    """Complete graph on the characters m*x1 + m^2*x2: the projective-space
    pattern with the same moment image as the SU(2) loop space.  Edge labels
    (i-j)*(1, i+j) are imprimitive, so it is a Q-only graph."""
    vertices = [Vertex(f"p{m}", 2 * m) for m in range(top + 1)]
    edges = [
        Edge(f"p{j}", f"p{i}", Weight((i - j, i * i - j * j)))
        for i in range(top + 1)
        for j in range(i)
    ]
    return GkmGraph(2, "Q", vertices, edges)


def test_projective_pattern_contrasts_with_divided_powers():
    # over Q the degree-2 class generates a polynomial algebra: every power
    # coefficient is 1, against n! for the loop space with the same image
    g = parabola_complete_graph(4)
    assert validate(g).ok
    basis = canonical_generators(g, 4)
    for n in (2, 3, 4):
        assert power_coefficient(g, basis, n) == 1
    # the same labels fail primitivity over Z and the solver refuses them
    gz = GkmGraph(2, "Z", g.vertices, list(g.edges))
    with pytest.raises(ValidationFailureError):
        canonical_generators(gz, 2)


def test_power_refuses_an_n_that_is_not_an_int():
    g = build_preset("omega-su2", 3)
    basis = canonical_generators(g, 3)
    for n in ("3", 2.0, True):
        with pytest.raises(ValueError, match=re.escape(f"power n must be an int, not {n!r}")):
            power_coefficient(g, basis, n)
    assert power_coefficient(g, basis, 1) == 1


def test_power_cutoff_errors():
    g = build_preset("omega-su2", 2)
    basis = canonical_generators(g, 2)
    with pytest.raises(CutoffTooSmallError):
        power_coefficient(g, basis, 3)
    a2 = build_preset("A2-flag")
    a2basis = canonical_generators(a2, 3)
    with pytest.raises(ValueError):
        power_coefficient(a2, a2basis, 2)  # two degree-2 generators


def _only_vertex(g, cell_dim):
    hits = [v.id for v in g.vertices if v.cell_dim == cell_dim]
    if len(hits) != 1:
        raise ValueError("not unique") if hits else CutoffTooSmallError("no vertex")
    return hits[0]


def _expanded_power(g, basis, n):
    """The reference: ``f1^n`` multiplied out, expanded in the basis and
    reduced, refusing the inputs that ``power_coefficient`` refuses."""
    if n < 1:
        raise ValueError("power must be >= 1")
    if basis.degree < n:
        raise CutoffTooSmallError("basis below the power")
    v1, vn = _only_vertex(g, 2), _only_vertex(g, 2 * n)
    f1 = power = basis.generator(v1)
    for _ in range(n - 1):
        power = power * f1
    return ordinary_reduction(expand_in_basis(power, basis))[vn]


def _outcome(compute, *args):
    try:
        return compute(*args)
    except (GkmError, ValueError) as err:
        return type(err)


@st.composite
def _one_row_parabolics(draw):
    """Rank-2 matrices ``((2, -a), (-b, 2))`` with a one-node parabolic, and
    rank-3 matrices with a two-node one, at small degree."""
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        gcm = GCM(((2, -a), (-b, 2)))
        parabolic = {draw(st.integers(0, 1))}
    else:
        rows = [[2] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                a = draw(st.integers(-3, 0))
                rows[i][j] = a
                rows[j][i] = draw(st.integers(-3, -1)) if a else 0
        gcm = GCM(tuple(map(tuple, rows)))
        parabolic = set(range(3)) - {draw(st.integers(0, 2))}
    return gcm, parabolic, draw(st.integers(1, 5)), draw(st.sampled_from("ZQ"))


@settings(max_examples=60, deadline=None)
@given(_one_row_parabolics())
def test_power_coefficient_matches_expanded_power(case):
    gcm, parabolic, degree, mode = case
    g = build_flag_graph(gcm, parabolic, degree, mode=mode, embed=False)
    if not validate(g).ok:
        return
    try:
        basis = canonical_generators(g, degree)
    except GkmError:
        return
    for n in range(degree + 2):
        assert _outcome(power_coefficient, g, basis, n) == _outcome(_expanded_power, g, basis, n)


@pytest.mark.parametrize(
    "name, law",
    [("omega-su2", math.factorial), ("A1-4-twisted", lambda n: math.factorial(n) * 2 ** (n // 2))],
)
def test_cover_constants_are_evaluated_once_per_graph(monkeypatch, name, law):
    # the recursion evaluates each k; the seven power sums read them back
    g = build_preset(name, 7)
    calls = []
    evaluate = solver._evaluate_cover
    monkeypatch.setattr(solver, "_evaluate_cover", lambda *args: calls.append(args[1:]) or evaluate(*args))
    basis = canonical_generators(g, 7)
    assert [power_coefficient(g, basis, n) for n in range(1, 8)] == [law(n) for n in range(1, 8)]
    covers = [(e.u, e) for e in g.edges if g.vertex(e.v).cell_dim == g.vertex(e.u).cell_dim + 2]
    assert len(covers) == 7
    assert sorted(calls, key=lambda c: c[1].key()) == sorted(covers, key=lambda c: c[1].key())


def test_grassmannian_sums_over_two_chains():
    # Gr(2,4): the middle level has two Schubert cells, each on one chain
    g = build_flag_graph(type_a(3), (0, 2), 4)
    assert [v.cell_dim for v in g.vertices].count(4) == 2
    basis = canonical_generators(g, 4)
    assert power_coefficient(g, basis, 4) == 2


def test_power_coefficient_refuses_a_basis_of_another_graph():
    # the two graphs share their vertex ids: read on the omega-su2 graph,
    # the twisted basis gave 4 at n = 2 and no value at n = 3
    g, h = build_preset("omega-su2", 6), build_preset("A1-4-twisted", 6)
    assert g.vertex_ids == h.vertex_ids
    other = canonical_generators(h, 6)
    for n in (2, 3):
        with pytest.raises(ValueError, match="another graph"):
            power_coefficient(g, other, n)
    # a graph equal to the basis's own, built apart, is accepted
    assert power_coefficient(build_preset("omega-su2", 6), canonical_generators(g, 6), 2) == 2


def _tampered(vid, wid, edit):
    """The omega-su2 basis of degree 4 through ``dumps`` and ``from_dict``,
    with ``f_vid(wid)`` replaced by ``edit`` of it."""
    g = build_preset("omega-su2", 4)
    basis = canonical_generators(g, 4)
    data = json.loads(basis.dumps())
    data["generators"][vid][wid] = str(edit(basis.generator(vid).values[wid]))
    return g, GeneratorBasis.from_dict(data)


def test_tampered_f1_leaves_power_coefficients_unchanged():
    # the power sums read the graph's Chevalley table, not the basis: f1
    # moved off the line of the edge into u, which is no longer a class,
    # gives the same coefficients as the canonical basis
    x1 = Polynomial.variable(0, 2)
    g, basis = _tampered("0", "0-1-0", lambda p: p + x1)
    assert not is_gkm_class(g, basis.generator("0"))
    assert [power_coefficient(g, basis, n) for n in range(1, 5)] == [1, 2, 6, 24]
    # a doubled f_u(u) no longer loads
    with pytest.raises(ValueError, match="'0-1-0'.*diagonal_value"):
        _tampered("0-1-0", "0-1-0", lambda p: 2 * p)


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 3), (3, 2)])
def test_z_mode_names_the_first_non_integral_chain_constant(factors):
    # omega-su2 with every label doubled or tripled in turn along the edge
    # list, a Q-only graph: the ratio of successive power coefficients is
    # the chain constant into the next vertex, and a Z-mode basis of the
    # same values raises NonIntegralError naming the first vertex whose
    # constant is not an integer, with that constant
    g = build_preset("omega-su2")
    edges = [
        Edge(e.u, e.v, Weight(tuple(factors[i % len(factors)] * c for c in e.weight.coeffs)))
        for i, e in enumerate(g.edges)
    ]
    g = GkmGraph(g.rank, "Q", g.vertices, edges)
    top = max(v.cell_dim for v in g.vertices) // 2
    basis = canonical_generators(g, top)
    zbasis = GeneratorBasis(g, top, "Z", basis.generators)
    powers = [_expanded_power(g, basis, n) for n in range(1, top + 1)]
    assert [power_coefficient(g, basis, n) for n in range(1, top + 1)] == powers
    first = None  # the vertex and constant of the first fraction on the chain
    for n in range(2, top + 1):
        q = Fraction(powers[n - 1]) / powers[n - 2]
        if first is None and q.denominator != 1:
            first = (_only_vertex(g, 2 * n), q)
        try:
            got = power_coefficient(g, zbasis, n)
        except NonIntegralError as err:
            got = (err.vertex, err.witness)
        want = first or powers[n - 1]
        assert (got, type(got)) == (want, type(want))  # an integral constant is an int
    assert (first is not None) == (factors == (2, 3))


def _omega_su2_without_positions(degree):
    """The ``omega-su2`` graph of ``degree`` read from its file with every
    ``"position"`` taken out, so ``Phi`` comes from the lifted seed."""
    data = json.loads(build_preset("omega-su2", degree).dumps())
    for v in data["vertices"]:
        del v["position"]
    return GkmGraph.from_dict(data)


def test_lifted_seed_runs_once_per_graph(monkeypatch):
    # two solves, in either mode, and seven power sums on a graph file with
    # no positions lift the degree-1 generator once, to make Phi
    g = _omega_su2_without_positions(7)
    calls = []
    lift = solver._lift
    monkeypatch.setattr(solver, "_lift", lambda *args: calls.append(args[1:]) or lift(*args))
    bases = [canonical_generators(g, 7, mode) for mode in "ZQ"]
    assert bases[0].generators == bases[1].generators
    assert [power_coefficient(g, bases[0], n) for n in range(1, 8)] == [math.factorial(n) for n in range(1, 8)]
    assert calls == [(v.id, "Q") for v in g.vertices if v.cell_dim == 2]


def test_power_coefficient_validates_its_graph():
    # a vertex z of cell dimension 10 with no edge fails down_edge_count
    # and connectivity, yet the basis file loads, being 0 there; the power
    # sum refuses the graph, as the solver does, instead of returning 6
    data = json.loads(canonical_generators(build_preset("omega-su2", 4), 4).dumps())
    data["graph"]["vertices"].append({"id": "z", "cell_dim": 10})
    for values in data["generators"].values():
        values["z"] = "0"
    basis = GeneratorBasis.from_dict(data)
    with pytest.raises(ValidationFailureError) as err:
        power_coefficient(basis.graph, basis, 3)
    assert {"down_edge_count", "connectivity"} <= err.value.report.failing_checks()
