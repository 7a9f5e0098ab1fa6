"""Builder outputs: counts, closure, positions, and truncation behavior."""

import hashlib
import json
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc import builders, coxeter, oracle
from gkmcalc.builders import (
    TWISTED_A1_4,
    PRESETS,
    _torus_basis,
    affine_type_a,
    build_chain_graph,
    build_flag_graph,
    build_preset,
    coset_id,
    moment_embedding,
    type_a,
    type_b2,
    word_from_id,
)
from gkmcalc.coxeter import (
    GCM,
    apply_word_dual,
    classify,
    coset_orbit,
    generic_dominant_vector,
    marks,
    real_roots,
    reflect,
    reflect_dual,
)
from gkmcalc.errors import InvalidParabolicError, UnsupportedTypeError
from gkmcalc.graph import CohClass, GkmGraph, Vertex, validate
from gkmcalc.polyring import Polynomial, Weight, monomials, parse_polynomial, solve_congruences
from gkmcalc.ring_ops import poincare_series, power_coefficient
from gkmcalc.solver import GeneratorBasis, canonical_generators
from test_coxeter import _gcm_and_parabolic, word_matrix
from test_graph import skeleton

PRESET_NAMES = ("A1-flag", "A2-flag", "B2-flag", "omega-su2", "omega-su3", "A1-4-twisted")


def test_a2_flag_counts():
    g = build_preset("A2-flag")
    assert len(g.vertices) == 6 and len(g.edges) == 9
    for v in g.vertices:
        assert len(g.edges_at(v.id)) == 3


def test_degree_zero_is_a_point():
    g = build_flag_graph(type_a(2), (), 0)
    assert len(g.vertices) == 1 and not g.edges


def test_omega_su2_structure():
    g = build_preset("omega-su2", 4)
    assert len(g.vertices) == 5
    for v in g.vertices:
        assert len(g.down_edges(v.id)) == v.cell_dim // 2
    assert validate(g).ok


def test_omega_su2_degree_one():
    g = build_preset("omega-su2", 1)
    assert len(g.vertices) == 2 and len(g.edges) == 1


def test_omega_su2_is_affine_flag_quotient():
    # the loop-space preset is the flag builder on the affine matrix
    assert build_preset("omega-su2", 3) == build_flag_graph(affine_type_a(1), (1,), 3)


def test_omega_su3_counts():
    g = build_preset("omega-su3", 2)
    dims = sorted(v.cell_dim for v in g.vertices)
    assert dims == [0, 2, 4, 4]
    assert validate(g).ok


def test_omega_su4_is_bott_loop_space():
    # Bott: the Poincare series of Omega SU(4) is prod_{i=1}^{3} 1/(1 - t^{2i})
    g = build_flag_graph(affine_type_a(3), (1, 2, 3), 6)
    assert len(g.vertices) == 23 and len(g.edges) == 97
    assert validate(g).ok
    assert poincare_series(g, 6) == [1, 1, 2, 3, 4, 5, 7]
    basis = canonical_generators(g, 6)
    schubert = oracle.schubert_restrictions(affine_type_a(3), (1, 2, 3), 6)
    assert sorted(schubert) == sorted(g.vertex_ids)
    for vid in g.vertex_ids:
        assert schubert[vid].values == basis.generator(vid).values, vid


def test_twisted_one_vertex_per_length():
    g = build_preset("A1-4-twisted", 4)
    assert sorted(v.cell_dim for v in g.vertices) == [0, 2, 4, 6, 8]
    rep = validate(g)
    assert rep.ok  # Z-mode: includes primitivity of all edge labels


def _edges_at_identity(g):
    return {e.weight.coeffs: e.other("e") for e in g.edges_at("e")}


def test_simple_root_edge_at_identity():
    assert _edges_at_identity(build_flag_graph(type_a(2), (), 3))[(1, 0)] == "0"


def test_highest_root_edge_at_identity_a2():
    g = build_flag_graph(type_a(2), (), 3)
    top = _edges_at_identity(g)[(1, 1)]
    assert g.vertex(top).cell_dim == 6
    assert word_matrix(type_a(2), word_from_id(top)) == word_matrix(type_a(2), (0, 1, 0))


def test_parabolic_root_labels_no_edge_at_identity():
    # r_{alpha_1} fixes the base coset of the affine Grassmannian; alpha_1
    # has torus weight (1, 0) and still labels edges higher up
    g = build_preset("omega-su2", 4)
    assert (1, 0) not in _edges_at_identity(g)
    assert any(e.weight.coeffs == (1, 0) and {e.u, e.v} == {"0", "1-0"} for e in g.edges)


def test_hyperbolic_build_validates():
    # the real-root search could not close this case; inversion roots can
    g = build_flag_graph(GCM(((2, -3), (-3, 2))), (), 9)
    assert len(g.vertices) == 19 and len(g.edges) == 90
    assert validate(g).ok


G2 = GCM(((2, -1), (-3, 2)))
B3 = GCM(((2, -1, 0), (-1, 2, -1), (0, -2, 2)))
C3 = GCM(((2, -1, 0), (-1, 2, -2), (0, -1, 2)))


# Independent references for the parent-word recurrence of build_flag_graph:
# every down-edge and position recomputed from the full coset word.

RECURRENCE_CASES = {
    "hyperbolic-9": (GCM(((2, -3), (-3, 2))), (), 9),
    "omega-su2-30": (affine_type_a(1), (1,), 30),
    "omega-su3-6": (affine_type_a(2), (1, 2), 6),
    "twisted-20": (TWISTED_A1_4, (1,), 20),
    "affine-A2-flag-5": (affine_type_a(2), (), 5),
    "A3-flag": (type_a(3), (), 6),
    "Gr(2,4)": (type_a(3), (0, 2), 4),
    # non-simply-laced: T(alpha_i) and the adjugate are not trivial
    "G2-flag": (G2, (), 6),
    "B3-flag": (B3, (), 9),
    "C3-flag": (C3, (), 9),
    "B3/P1": (B3, (1,), 8),
}


def _direct_down_edges(gcm, parabolic, degree):
    """Per vertex, the sorted (lower id, label) pairs of its letter deletions:
    deleting letter j of w = s_{a1}...s_{al} gives the coset of the deleted
    word, labeled s_{a1}...s_{a(j-1)}(alpha_{aj})."""
    reps, at, *_ = coset_orbit(gcm, parabolic, degree)
    tb = _torus_basis(gcm, frozenset(parabolic))
    mu = reps[0][1]
    down = {}
    for w, _ in reps:
        pairs = []
        for j, a in enumerate(w):
            beta = tuple(1 if t == a else 0 for t in range(gcm.n))
            for i in reversed(w[:j]):
                beta = reflect(gcm, i, beta)
            lower = reps[at[apply_word_dual(gcm, w[:j] + w[j + 1:], mu)]][0]
            pairs.append((coset_id(lower), tb.weight(beta).coeffs))
        down[coset_id(w)] = sorted(pairs)
    return down


@pytest.mark.parametrize("case", sorted(RECURRENCE_CASES))
def test_down_edges_match_letter_deletions(case):
    gcm, parabolic, degree = RECURRENCE_CASES[case]
    g = build_flag_graph(gcm, parabolic, degree, embed=False)
    built = {
        vid: sorted((e.other(vid), e.weight.coeffs) for e in g.down_edges(vid))
        for vid in g.vertex_ids
    }
    assert built == _direct_down_edges(gcm, parabolic, degree)


def _base_point(gcm, parabolic):
    # -Lambda_z for an affine Grassmannian (only the delta node z outside
    # the parabolic), else the generic dominant vector
    tb = _torus_basis(gcm, frozenset(parabolic))
    if tb.kind == "affine" and set(range(gcm.n)) - set(parabolic) == {tb.z}:
        return tuple(-1 if i == tb.z else 0 for i in range(gcm.n))
    ints, scale = generic_dominant_vector(gcm, parabolic)
    return tuple(Fraction(x, scale) for x in ints)


def _check_positions(gcm, parabolic, degree):
    # A position p of the word w satisfies A' p' = (w lambda)' on the
    # classical nodes (all nodes for a finite matrix; A' is invertible there),
    # and in affine cases its last slot is the delta-dual energy: the sum of
    # -(u lambda)_z over the suffixes s_z u of w.
    tb = _torus_basis(gcm, frozenset(parabolic))
    lam = _base_point(gcm, parabolic)
    others = [i for i in range(gcm.n) if i != tb.z]
    g = build_flag_graph(gcm, parabolic, degree)
    for v in g.vertices:
        w = word_from_id(v.id)
        mu = apply_word_dual(gcm, w, lam)
        p = v.position
        for i in others:
            assert sum(gcm.a(i, j) * p[c] for c, j in enumerate(others)) == mu[i], v.id
        if tb.kind == "affine":
            suffixes = [w[t + 1:] for t in range(len(w)) if w[t] == tb.z]
            assert p[-1] == sum(-apply_word_dual(gcm, u, lam)[tb.z] for u in suffixes), v.id
    bare = build_flag_graph(gcm, parabolic, degree, embed=False)
    assert moment_embedding(bare, gcm, parabolic) == g


EMBEDDED_CASES = sorted(set(RECURRENCE_CASES) - {"hyperbolic-9"})


@pytest.mark.parametrize("case", EMBEDDED_CASES)
def test_positions_match_full_word_action(case):
    _check_positions(*RECURRENCE_CASES[case])


# First 16 hex digits of sha256(dumps()) for Z-mode builds with the default
# embedding; any change to labels, positions or serialization shows here.
BUILD_HASHES = {
    "omega-su2-30": (affine_type_a(1), (1,), 30, "88770d8933b8deae"),
    "twisted-20": (TWISTED_A1_4, (1,), 20, "2ad3fc13b40745e5"),
    "omega-su3-8": (affine_type_a(2), (1, 2), 8, "56ebea70ffcc5bdf"),
    "affine-A2-flag-6": (affine_type_a(2), (), 6, "3cfc0a96fbacab14"),
    "hyperbolic-9": (GCM(((2, -3), (-3, 2))), (), 9, "7a197b789a0ebff5"),
    "A3-flag-6": (type_a(3), (), 6, "d3d365dade7482c3"),
    "Gr(2,4)-4": (type_a(3), (0, 2), 4, "f7b640b848efe87d"),
    "B3-flag-9": (B3, (), 9, "ed5d65acffec2d52"),
    "C3-flag-9": (C3, (), 9, "f82cad659a9b4f36"),
    "G2-flag-6": (G2, (), 6, "4634581d72c4a8e4"),
    "empty-3": (GCM(()), (), 3, "901fd0565e22966f"),  # one vertex, torus rank 0
}


@pytest.mark.parametrize("case", sorted(BUILD_HASHES))
def test_build_output_is_pinned(case):
    gcm, parabolic, degree, digest = BUILD_HASHES[case]
    text = build_flag_graph(gcm, parabolic, degree).dumps()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert GkmGraph.loads(text).dumps() == text


def test_truncation_monotonicity():
    for name in PRESET_NAMES:
        small = build_preset(name, 2)
        large = build_preset(name, 3)
        assert skeleton(large, 2) == small


def test_finite_builds_saturate_at_full_orbit():
    a2 = build_flag_graph(type_a(2), (), 12)
    assert len(a2.vertices) == 6
    b2 = build_flag_graph(type_b2(), (), 12)
    assert len(b2.vertices) == 8
    # partial flag: Weyl group of B2 modulo one node
    gr = build_flag_graph(type_b2(), (0,), 12)
    assert len(gr.vertices) == 4


def test_every_preset_validates():
    for name in PRESET_NAMES:
        assert validate(build_preset(name)).ok, name


def test_edge_direction_matches_label():
    for name in PRESET_NAMES:
        g = build_preset(name)
        for e in g.edges:
            pu, pv = g.vertex(e.u).position, g.vertex(e.v).position
            assert pu is not None and pv is not None
            diff = [a - b for a, b in zip(pu, pv)]
            w = e.weight.coeffs
            for i in range(len(w)):
                for j in range(i + 1, len(w)):
                    assert diff[i] * w[j] == diff[j] * w[i]
            assert any(diff)


def test_identity_position_is_base_point():
    # the identity vertex sits at the fixed base point: A' * position(e) is
    # lambda on the classical nodes, and the energy of e is 0
    for gcm, parabolic in [(type_a(2), ()), (affine_type_a(1), (1,)), (affine_type_a(2), ())]:
        tb = _torus_basis(gcm, frozenset(parabolic))
        others = [i for i in range(gcm.n) if i != tb.z]
        lam = _base_point(gcm, parabolic)
        pos = build_flag_graph(gcm, parabolic, 2).vertex("e").position
        recovered = tuple(sum(gcm.a(i, j) * pos[c] for c, j in enumerate(others)) for i in others)
        assert recovered == tuple(lam[i] for i in others)
        assert pos[len(others):] in ((), (0,))
    # A2: lambda = (1/2, 1/3) and A^-1 = [[2, 1], [1, 2]] / 3
    assert build_flag_graph(type_a(2), (), 1).vertex("e").position == (
        Fraction(4, 9),
        Fraction(7, 18),
    )


def test_a2_positions_form_hexagon():
    g = build_preset("A2-flag")
    points = {g.vertex(v.id).position for v in g.vertices}
    assert len(points) == 6


def test_omega_su2_parabola():
    g = build_preset("omega-su2", 6)
    points = {v.position for v in g.vertices}
    # symmetric under negating the classical coordinate
    assert {(-b, s) for b, s in points} == points
    # convex profile: energy is the square of the classical coordinate
    for b, s in points:
        assert s == b * b


def test_moment_embedding_recompute():
    # positions are recomputed from the orbit, whatever the graph carried
    for name, (gcm, parabolic, _) in sorted(PRESETS.items()):
        g = build_preset(name)
        moved = g.with_positions({v.id: tuple(c + 1 for c in v.position) for v in g.vertices})
        assert moved != g
        assert moment_embedding(moved, gcm, parabolic) == g, name


@pytest.mark.parametrize("bad", ["7", "0-0"])
def test_moment_embedding_rejects_ids_that_are_not_coset_words(bad):
    g = build_flag_graph(type_a(2), (), 3, embed=False)
    renamed = GkmGraph(
        g.rank,
        g.mode,
        [Vertex(bad if v.id == "0" else v.id, v.cell_dim) for v in g.vertices],
        [],
    )
    with pytest.raises(ValueError, match=f"vertex '{bad}' is not a coset word"):
        moment_embedding(renamed, type_a(2), ())


def test_moment_embedding_needs_finite_or_affine():
    g = build_flag_graph(GCM(((2, -3), (-3, 2))), (), 3)
    with pytest.raises(UnsupportedTypeError, match="finite or affine"):
        moment_embedding(g, GCM(((2, -3), (-3, 2))), ())


def test_building_uses_no_matrix_elimination(monkeypatch):
    # torus bases, marks and positions come from integer determinants; the
    # Fraction elimination is left to the oracle
    cases = list(PRESETS.values()) + [
        (B3, (), 9),
        (affine_type_a(2), (), 4),
        (TWISTED_A1_4, (1,), 20),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("building eliminated a matrix")

    monkeypatch.setattr(oracle, "_rref", refuse)
    with pytest.raises(AssertionError, match="eliminated"):  # the one elimination is guarded
        oracle.nullspace_basis([[1, 1]], 2)
    for gcm, parabolic, degree in cases:
        g = build_flag_graph(gcm, parabolic, degree)
        bare = build_flag_graph(gcm, parabolic, degree, embed=False)
        assert moment_embedding(bare, gcm, parabolic) == g
        if classify(gcm) == "affine":
            assert all(m > 0 for m in marks(gcm))


def test_build_and_embedding_walk_the_orbit_once(monkeypatch):
    # the traced ``coxeter.coset_orbit`` span wraps this name, so a build
    # that reached the orbit another way would time nothing there
    calls = []

    def counting(*args):
        calls.append(args)
        return coxeter.coset_orbit(*args)

    monkeypatch.setattr(builders, "coset_orbit", counting)
    g = build_flag_graph(affine_type_a(2), (), 4, embed=False)
    assert len(calls) == 1
    moment_embedding(g, affine_type_a(2), ())
    assert len(calls) == 2


@pytest.mark.parametrize(
    "gcm, parabolic, degree, want",
    [
        (affine_type_a(1), (1,), 30, 60),
        (affine_type_a(2), (), 6, 138),
        (type_a(3), (), 6, 69),
    ],
    ids=["omega-su2-30", "affine-A2-flag-6", "A3-flag-6"],
)
def test_no_down_edge_reflects_an_orbit_vector_again(monkeypatch, gcm, parabolic, degree, want):
    # the walk reflects each vector shorter than the cutoff by each of the
    # n letters; the down-edges read those images instead of reflecting
    calls = []

    def counting(*args):
        calls.append(args)
        return reflect_dual(*args)

    reps = coset_orbit(gcm, parabolic, degree)[0]
    for module in (coxeter, builders):
        if hasattr(module, "reflect_dual"):
            monkeypatch.setattr(module, "reflect_dual", counting)
    build_flag_graph(gcm, parabolic, degree)
    assert len(calls) == want == gcm.n * sum(len(w) < degree for w, _ in reps)


@settings(deadline=None, max_examples=150)
@given(_gcm_and_parabolic(), st.integers(0, 3))
def test_parent_step_matches_the_full_words(case, degree):
    gcm, parabolic = case
    reps, at, parent, up = coset_orbit(gcm, parabolic, degree)
    assert len(parent) == len(reps) == len(at)
    for k, ((w, vec), p) in enumerate(zip(reps, parent)):
        assert type(w) is tuple and at[vec] == k
        assert (p is None) == (w == ())
        if p is not None:
            assert reps[p][0] == w[1:]
    assert len(up) == sum(len(w) < degree for w, _ in reps)
    for (_, vec), ups in zip(reps, up):
        assert [reps[c][1] for c in ups] == [reflect_dual(gcm, i, vec) for i in range(gcm.n)]
    g = build_flag_graph(gcm, parabolic, degree, embed=False)
    assert all(not e.weight.is_zero() for e in g.edges)
    built = {
        vid: sorted((e.other(vid), e.weight.coeffs) for e in g.down_edges(vid))
        for vid in g.vertex_ids
    }
    assert built == _direct_down_edges(gcm, parabolic, degree)
    # labels spelled out here, apart from the builder's parent step
    assert {v.id: v.label for v in g.vertices} == {
        coset_id(w): " ".join(f"s{i}" for i in w) if w else "e" for w, _ in reps
    }
    if classify(gcm) != "indefinite":
        _check_positions(gcm, parabolic, degree)


def test_chain_graph_shape():
    g = build_chain_graph([Weight((1, 0)), Weight((1, 1)), Weight((1, 2))])
    assert [v.cell_dim for v in g.vertices] == [0, 2, 4, 6]
    assert len(g.edges) == 3
    rep = validate(g)
    # a 2i-cell needs i down-edges, so the chain fails beyond the first cell
    assert not rep.ok and "down_edge_count" in {e.check for e in rep.entries if not e.ok}


def test_unknown_preset():
    with pytest.raises(UnsupportedTypeError):
        build_preset("E8-flag")


def test_twisted_gcm_kernel_orientation():
    # the short-root node carries mark 2, the delta node mark 1
    g = build_preset("A1-4-twisted", 2)
    assert g.rank == 2
    labels = {str(e.weight) for e in g.edges}
    assert "x1" in labels  # the finite simple root alpha_1


def test_builder_inputs_are_refused_with_their_messages():
    refused = [
        (lambda: type_a(0), ValueError, "type A rank must be >= 1, got 0"),
        (lambda: affine_type_a(0), ValueError, "affine type A rank must be >= 1, got 0"),
        (lambda: build_flag_graph(type_a(2), (), True), ValueError, "degree cutoff must be an int, not True"),
        (lambda: build_flag_graph(type_a(2), (), 1.0), ValueError, r"degree cutoff must be an int, not 1\.0"),
        (lambda: build_flag_graph(type_a(2), (), "3"), ValueError, "degree cutoff must be an int, not '3'"),
        (lambda: build_flag_graph(type_a(2), (), None), ValueError, "degree cutoff must be an int, not None"),
        (lambda: build_preset("omega-su2", True), ValueError, "degree cutoff must be an int, not True"),
        (lambda: build_preset("omega-su2", "3"), ValueError, "degree cutoff must be an int, not '3'"),
        (lambda: oracle.schubert_restrictions(type_a(2), (), True), ValueError, "degree cutoff must be an int, not True"),
        (lambda: oracle.schubert_restrictions(type_a(2), (), "3"), ValueError, "degree cutoff must be an int, not '3'"),
        (lambda: oracle.schubert_restrictions(type_a(2), (), None), ValueError, "degree cutoff must be an int, not None"),
        (lambda: build_flag_graph(type_a(2), (True,), 2), InvalidParabolicError, "parabolic node must be an int, not True"),
        (lambda: build_flag_graph(type_a(2), (1.0,), 2), InvalidParabolicError, r"parabolic node must be an int, not 1\.0"),
        (lambda: build_chain_graph([]), ValueError, "a chain needs at least one weight"),
    ]
    for make, error, message in refused:
        with pytest.raises(error, match=message):
            make()


_CONGRUENCES = [(Weight((1, 0)), Polynomial.zero(2)), (Weight((0, 1)), Polynomial.zero(2))]
_NOT_INTS = [
    (type_a, (True,), "type A rank must be an int, not True"),
    (type_a, ("3",), "type A rank must be an int, not '3'"),
    (affine_type_a, (True,), "affine type A rank must be an int, not True"),
    (affine_type_a, ("2",), "affine type A rank must be an int, not '2'"),
    (Polynomial.variable, (True, 2), "variable index must be an int, not True"),
    (monomials, (True, 1), "nvars must be an int, not True"),
    (monomials, (2, True), "monomial degree must be an int, not True"),
    (solve_congruences, (_CONGRUENCES, True), "degree must be an int, not True"),
    (solve_congruences, (_CONGRUENCES, 1.0), "degree must be an int, not 1.0"),
]


@pytest.mark.parametrize("make, args, message", _NOT_INTS, ids=[m for *_, m in _NOT_INTS])
def test_integer_arguments_are_refused_not_coerced(make, args, message):
    # a bool, a float or a string is no int: each ends in ValueError, never
    # in a rank-1 matrix, x2, a degree-1 solve or a bare TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(*args)


# Every public entry point with an integer parameter, as (name, call, what,
# rule): ``call`` passes the drawn value as that parameter, ``what`` is the
# name its refusal gives it, and ``rule`` is its range beyond the int type:
# "int" (any), "count" (>= 0), "size" (a count below sys.maxsize) or
# "positive" (>= 1).  Each refusal is checked before any work, on A1's full
# flag and its basis.
_A1 = build_preset("A1-flag")
_A1_BASIS = canonical_generators(_A1, 1)
_A1_BASIS_DATA = json.loads(_A1_BASIS.dumps())
_A2 = type_a(2)
_INT_PARAMETERS = [
    ("type_a", type_a, "type A rank", "positive"),
    ("affine_type_a", affine_type_a, "affine type A rank", "positive"),
    ("build_flag_graph", lambda d: build_flag_graph(_A2, (), d), "degree cutoff", "count"),
    ("build_preset", lambda d: build_preset("A2-flag", d), "degree cutoff", "count"),
    ("coset_orbit", lambda d: coset_orbit(_A2, (), d), "length cutoff", "count"),
    ("real_roots", lambda h: real_roots(_A2, h), "height cutoff", "int"),
    ("reflection_edges degree", lambda d: oracle.reflection_edges(_A2, (), d, 2), "degree cutoff", "count"),
    ("reflection_edges height", lambda h: oracle.reflection_edges(_A2, (), 1, h), "height cutoff", "int"),
    ("Polynomial", lambda n: Polynomial(n, {}), "nvars", "size"),
    ("Polynomial.zero", Polynomial.zero, "nvars", "size"),
    ("Polynomial.one", Polynomial.one, "nvars", "size"),
    ("Polynomial.constant", lambda n: Polynomial.constant(3, n), "nvars", "size"),
    ("Polynomial.variable index", lambda i: Polynomial.variable(i, 2), "variable index", "count"),
    ("Polynomial.variable nvars", lambda n: Polynomial.variable(0, n), "nvars", "size"),
    ("monomials nvars", lambda n: monomials(n, 2), "nvars", "size"),
    ("monomials nvars at degree 0", lambda n: monomials(n, 0), "nvars", "size"),
    ("monomials degree", lambda d: monomials(2, d), "monomial degree", "int"),
    ("parse_polynomial", lambda n: parse_polynomial("0", n), "nvars", "size"),
    ("parse_polynomial x1", lambda n: parse_polynomial("x1", n), "nvars", "size"),
    ("solve_congruences", lambda d: solve_congruences(_CONGRUENCES, d), "degree", "count"),
    ("GkmGraph", lambda r: GkmGraph(r, "Z", [Vertex("e", 0)], []), "rank", "size"),
    ("Vertex", lambda c: Vertex("a", c), "cell_dim of 'a'", "int"),
    ("CohClass", lambda d: CohClass({"e": Polynomial.zero(1)}, d), "class degree", "count"),
    ("CohClass.from_dict", lambda d: CohClass.from_dict({"values": {"e": "0", "0": "x1"}, "degree": d}, _A1),
     "class degree", "count"),
    ("canonical_generators", lambda d: canonical_generators(_A1, d), "basis degree", "count"),
    ("GeneratorBasis.from_dict", lambda d: GeneratorBasis.from_dict({**_A1_BASIS_DATA, "degree": d}),
     "basis degree", "count"),
    ("poincare_series", lambda d: poincare_series(_A1, d), "degree", "size"),
    ("power_coefficient", lambda n: power_coefficient(_A1, _A1_BASIS, n), "power n", "positive"),
    ("schubert_restrictions", lambda d: oracle.schubert_restrictions(_A2, (), d), "degree cutoff", "count"),
    ("brute_force_classes", lambda d: oracle.brute_force_classes(_A1, d), "degree", "int"),
    ("expected_gkm_dimension", lambda d: oracle.expected_gkm_dimension(_A1, d), "degree", "int"),
]
# where None means "no value": the preset's default degree, a class of no set degree
_NONE_IS_ABSENT = {"build_preset", "CohClass", "CohClass.from_dict"}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_each_entry_point_refuses_its_own_integer_argument_in_one_wording(data):
    name, call, what, rule = data.draw(st.sampled_from(_INT_PARAMETERS), label="entry point")
    bad = [True, 1.0, "1", Fraction(1)] + ([] if name in _NONE_IS_ABSENT else [None])
    bad += {"int": [], "count": [-1], "size": [-1, 10**30], "positive": [0, -1]}[rule]
    value = data.draw(st.sampled_from(bad), label="value")
    if type(value) is not int:
        message = f"{what} must be an int, not {value!r}"
    elif rule == "positive":
        message = f"{what} must be >= 1, got {value}"
    elif value < 0:
        message = f"{what} must be non-negative, got {value}"
    else:
        message = f"{what} must be below {sys.maxsize}, got {value}"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, (name, value, peak)  # nothing sized by the value
