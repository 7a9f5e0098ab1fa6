"""Brute-force cohomology, sphere-lemma checks, and Schubert restrictions."""

import random
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkmcalc import oracle
from gkmcalc.builders import (
    TWISTED_A1_4,
    affine_type_a,
    build_flag_graph,
    build_preset,
    type_a,
    type_b2,
    word_from_id,
)
from gkmcalc.coxeter import GCM, CosetRep
from gkmcalc.errors import CoprimalityViolatedError, NotFiniteTypeError
from gkmcalc.graph import Edge, GkmGraph, Vertex, is_gkm_class, validate
from gkmcalc.oracle import (
    brute_force_classes,
    divided_difference_schubert,
    expected_gkm_dimension,
    reflection_edges,
    s2n_relative_image,
    schubert_restrictions,
)
from gkmcalc.polyring import Polynomial, Weight, monomials, parse_polynomial
from gkmcalc.solver import canonical_generators, expand_in_basis


def sphere_graph():
    return GkmGraph(
        2, "Z", [Vertex("n", 0), Vertex("s", 2)], [Edge("n", "s", Weight((1, 0)))]
    )


def test_sphere_dimensions():
    g = sphere_graph()
    for d, expected in enumerate((1, 3, 5, 7)):
        basis = brute_force_classes(g, d)
        assert len(basis) == expected == expected_gkm_dimension(g, d)
        for cls in basis:
            assert is_gkm_class(g, cls).ok


def test_single_point_dimension():
    point = GkmGraph(2, "Z", [Vertex("pt", 0)], [])
    for d in range(4):
        assert len(brute_force_classes(point, d)) == len(monomials(2, d))


def test_free_module_count_equals_the_listed_monomials():
    # the count is a binomial, read against the monomials it counts,
    # at rank 0 and below degree 0 too
    for rank in range(5):
        cells = [Vertex("e", 0), Vertex("a", 2), Vertex("b", 6)]
        g = GkmGraph(rank, "Z", cells, [])
        for d in range(-2, 6):
            want = sum(len(monomials(rank, d - v.cell_dim // 2)) for v in cells)
            assert expected_gkm_dimension(g, d) == want
    # a wide point is counted without listing a monomial
    assert expected_gkm_dimension(GkmGraph(2000, "Z", [Vertex("e", 0)], []), 2) == 2001000


def test_brute_force_counts_its_unknowns_before_listing_them():
    # a wide point in degree 2 has 2,001,000 unknowns: refused from the
    # count, with nothing listed
    wide = GkmGraph(2000, "Z", [Vertex("e", 0)], [])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^brute force in degree 2: 2001000 unknowns, above the bound of 200$"):
            brute_force_classes(wide, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert len(brute_force_classes(wide, 0)) == 1
    # the bound is on vertex and edge-witness unknowns together: 200 is solved
    points = [Vertex(f"p{i}", 0) for i in range(200)]
    assert len(brute_force_classes(GkmGraph(1, "Z", points, []), 0)) == 200
    message = re.escape("brute force in degree 0: 201 unknowns, above the bound of 200")
    with pytest.raises(ValueError, match=message):
        brute_force_classes(GkmGraph(1, "Z", [*points, Vertex("q", 0)], []), 0)
    sphere = sphere_graph()  # 2 vertex and 1 witness unknowns per monomial
    assert len(brute_force_classes(sphere, 1)) == 3
    assert len(brute_force_classes(sphere, 66)) == 67 + 66  # 2 * 67 + 66 = 200 unknowns
    with pytest.raises(ValueError, match=re.escape("brute force in degree 67: 203 unknowns")):
        brute_force_classes(sphere, 67)


def test_a2_degree_one_dimension():
    g = build_preset("A2-flag")
    assert len(brute_force_classes(g, 1)) == 4 == expected_gkm_dimension(g, 1)


def test_preset_dimensions_match_rank_formula_small():
    for name in ("A2-flag", "omega-su2"):
        g = build_preset(name, 3)
        for d in range(3):
            assert len(brute_force_classes(g, d)) == expected_gkm_dimension(g, d)


def test_brute_basis_elements_expand_exactly():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    for d in range(3):
        for cls in brute_force_classes(g, d):
            coeffs = expand_in_basis(cls, basis)
            rebuilt = {
                vid: sum(
                    (coeffs[w] * basis.generator(w).values[vid] for w in coeffs),
                    Polynomial.zero(2),
                )
                for vid in g.vertex_ids
            }
            assert rebuilt == cls.values


def test_canonical_generators_lie_in_brute_space():
    g = build_preset("omega-su2", 3)
    basis = canonical_generators(g, 3)
    for vid, cls in basis.generators.items():
        assert is_gkm_class(g, cls).ok


def test_s2n_examples():
    x, y = Weight((1, 0)), Weight((0, 1))
    xy = parse_polynomial("x1*x2", 2)
    assert s2n_relative_image([x, y], xy)
    assert not s2n_relative_image([x, y], parse_polynomial("x1", 2))
    assert s2n_relative_image([x, y], Polynomial.zero(2))
    with pytest.raises(CoprimalityViolatedError):
        s2n_relative_image([x, Weight((2, 0))], xy)


def test_s2n_random_agreement():
    rng = random.Random(23)
    for _ in range(100):
        rank = rng.choice((2, 3))
        ws = []
        while len(ws) < rng.choice((2, 3)):
            w = Weight(tuple(rng.randrange(-3, 4) for _ in range(rank)))
            if w.is_zero() or any(w.proportional(u) for u in ws):
                continue
            ws.append(w)
        beta = Polynomial(rank, {m: rng.randrange(-3, 4) for m in monomials(rank, rng.randrange(0, 3))})
        g = beta
        for w in ws:
            g = g * w.to_polynomial()
        assert s2n_relative_image(ws, g)
        probe = Polynomial(rank, {m: rng.randrange(-3, 4) for m in monomials(rank, 3)})
        s2n_relative_image(ws, probe)  # raises if the two criteria ever disagree


def test_schubert_identity_is_one():
    cls = divided_difference_schubert(type_a(2), CosetRep(()))
    assert all(p == Polynomial.one(2) for p in cls.values.values())


def test_schubert_table_is_computed_once_per_matrix(monkeypatch):
    b3 = GCM(((2, -1, 0), (-1, 2, -1), (0, -2, 2)))
    calls = []
    table = oracle.schubert_restrictions
    monkeypatch.setattr(oracle, "schubert_restrictions", lambda *a: calls.append(a) or table(*a))
    oracle._full_flag.cache_clear()
    graph = build_flag_graph(b3, (), 9)
    classes = {vid: divided_difference_schubert(b3, CosetRep(word_from_id(vid))) for vid in graph.vertex_ids}
    assert len(calls) == 1
    assert classes == table(b3, (), 9)


def test_schubert_classes_are_fresh():
    a2 = type_a(2)
    first = divided_difference_schubert(a2, CosetRep((0,)))
    kept = dict(first.values)
    first.values["e"] = Polynomial.one(2)
    first.values.pop("0")
    again = divided_difference_schubert(a2, CosetRep((0,)))
    assert again.values == kept and again is not first


def test_schubert_top_class_a2():
    # either reduced word of the longest element gives the same class
    for word in ((0, 1, 0), (1, 0, 1)):
        cls = divided_difference_schubert(type_a(2), CosetRep(word))
        expected = parse_polynomial("x1^2*x2 + x1*x2^2", 2)  # product of positive roots
        top = max(cls.values, key=lambda vid: len(vid))
        assert cls.values[top] == expected
        assert all(p.is_zero() for vid, p in cls.values.items() if vid != top)


# G/P with a root height at which the reflection search finds every edge
GP_CASES = {
    "A3": (type_a(3), (), 6, 3),
    "G2": (GCM(((2, -1), (-3, 2))), (), 6, 5),
    "Gr(2,4)": (type_a(3), (0, 2), 4, 3),
    "omega-su2": (affine_type_a(1), (1,), 8, 16),
    "twisted": (TWISTED_A1_4, (1,), 6, 18),
    "omega-su3": (affine_type_a(2), (1, 2), 4, 6),
    "affine-A2": (affine_type_a(2), (), 3, 4),
    "hyperbolic": (GCM(((2, -3), (-3, 2))), (), 6, 200),
}

# the finite presets A2-flag and B2-flag, the G/P above, and A4 to its top
SCHUBERT_CASES = {
    "type_a-A2-flag": (type_a(2), (), 3),
    "type_b2-B2-flag": (type_b2(), (), 4),
    **{name: case[:3] for name, case in GP_CASES.items()},
    "A4": (type_a(4), (), 10),
}


def _assert_schubert_agrees(gcm, parabolic, degree):
    g = build_flag_graph(gcm, parabolic, degree, embed=False)
    basis = canonical_generators(g, degree)
    classes = schubert_restrictions(gcm, parabolic, degree)
    assert sorted(classes) == sorted(g.vertex_ids)
    for vid in g.vertex_ids:
        assert classes[vid].degree == g.vertex(vid).cell_dim // 2, vid
        assert classes[vid].values == basis.generator(vid).values, vid


@pytest.mark.parametrize("case", list(SCHUBERT_CASES))
def test_schubert_oracle_agrees_with_solver(case):
    _assert_schubert_agrees(*SCHUBERT_CASES[case])


@st.composite
def _small_flags(draw):
    n = draw(st.integers(2, 3))
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = draw(st.integers(-3, 0))
            rows[i][j] = a
            rows[j][i] = draw(st.integers(-3, -1)) if a else 0
    parabolic = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return GCM(tuple(map(tuple, rows))), parabolic, draw(st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(_small_flags())
def test_schubert_restrictions_match_generators(case):
    gcm, parabolic, degree = case
    assume(validate(build_flag_graph(gcm, parabolic, degree, embed=False)).ok)
    _assert_schubert_agrees(gcm, parabolic, degree)


def test_schubert_requires_finite_type():
    with pytest.raises(NotFiniteTypeError):
        divided_difference_schubert(GCM(((2, -2), (-2, 2))), CosetRep(()))


@pytest.mark.parametrize("case", list(GP_CASES))
def test_flag_graph_edges_match_reflection_search(case):
    gcm, parabolic, degree, height = GP_CASES[case]
    g = build_flag_graph(gcm, parabolic, degree, embed=False)
    ref = GkmGraph(g.rank, g.mode, g.vertices, reflection_edges(gcm, parabolic, degree, height))
    # the search is complete at this height: every vertex has all its down-edges
    for v in ref.vertices:
        assert len(ref.down_edges(v.id)) == v.cell_dim // 2, v.id
    assert ref.edges == g.edges
