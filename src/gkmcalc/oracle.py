"""Independent verifiers: brute-force graph cohomology, the sphere lemmas,
root-product Schubert restrictions, and flag-graph edges by root search.

Everything here is quarantined from the solver module: the only shared
code is the base polynomial ring, so agreement between an oracle and the
solver is evidence, not tautology.
"""

from __future__ import annotations

from itertools import combinations

from .coxeter import (
    GCM,
    CosetRep,
    apply_word_dual,
    classify,
    coset_orbit,
    enumerate_cosets,
    generic_dominant_vector,
    real_roots,
    reflect,
    reflection_word,
)
from .errors import CoprimalityViolatedError, NotFiniteTypeError
from .graph import CohClass, Edge, GkmGraph
from .polyring import (
    Polynomial,
    Weight,
    divide_by_weight,
    monomials,
    nullspace_basis,
    pairwise_coprime,
    NotDivisibleError,
)

__all__ = [
    "brute_force_classes",
    "expected_gkm_dimension",
    "s2n_relative_image",
    "divided_difference_schubert",
    "reflection_edges",
]


def _divides(w: Weight, p: Polynomial) -> bool:
    try:
        divide_by_weight(p, w)
    except NotDivisibleError:
        return False
    return True


def brute_force_classes(graph: GkmGraph, degree: int) -> list[CohClass]:
    """A basis of the space of degree-``degree`` classes, solved directly.

    Sets up the full linear system over Q in the monomial coefficients of
    every vertex value and every edge witness -- one block of equations
    per edge stating ``f(p) - f(q) = weight * g_e`` -- and reads a basis
    of its nullspace.  The witness coordinates are determined by the
    vertex values, so projecting nullspace vectors to the vertex blocks
    loses nothing.
    """
    nvars = graph.rank
    mons_f = monomials(nvars, degree)
    mons_g = monomials(nvars, degree - 1)
    nf, ng = len(mons_f), len(mons_g)
    ids = graph.vertex_ids
    f_base = {vid: i * nf for i, vid in enumerate(ids)}
    ncols = nf * len(ids) + ng * len(graph.edges)

    rows = []
    for ei, e in enumerate(graph.edges):
        g_base = nf * len(ids) + ei * ng
        for mi, m in enumerate(mons_f):
            row = [0] * ncols
            row[f_base[e.u] + mi] = 1
            row[f_base[e.v] + mi] = -1
            for t, wc in enumerate(e.weight.coeffs):
                if wc == 0 or m[t] == 0:
                    continue
                gm = list(m)
                gm[t] -= 1
                row[g_base + mons_g.index(tuple(gm))] = -wc
            rows.append(row)

    basis = []
    for vec in nullspace_basis(rows, ncols):
        values = {
            vid: Polynomial(nvars, {m: vec[f_base[vid] + mi] for mi, m in enumerate(mons_f)})
            for vid in ids
        }
        cls = CohClass(values, degree)
        if not cls.is_zero():
            basis.append(cls)
    return basis


def expected_gkm_dimension(graph: GkmGraph, degree: int) -> int:
    """Free-module dimension count: one generator per cell, each carrying
    the monomials of the complementary degree."""
    return sum(
        len(monomials(graph.rank, degree - v.cell_dim // 2)) for v in graph.vertices
    )


def s2n_relative_image(weights, g: Polynomial) -> bool:
    """Membership test for the relative cohomology image of a 2n-sphere.

    For pairwise coprime weights the image is both ``{g : a_i | g for all
    i}`` and ``{g : prod a_i | g}``; the two criteria are computed
    independently and must agree (coprimality is exactly what makes
    divisibility by each factor imply divisibility by the product).
    """
    ws = list(weights)
    if not pairwise_coprime(ws, "Q"):
        raise CoprimalityViolatedError("weights are not pairwise coprime")
    each = all(_divides(w, g) for w in ws)
    whole = g.is_zero() or _product_divides(ws, g)
    if each != whole:
        raise AssertionError(
            "divisibility by each weight and by the product disagree; "
            "this contradicts pairwise coprimality"
        )
    return each


def _product_divides(ws, g: Polynomial) -> bool:
    q = g
    for w in ws:
        try:
            q = divide_by_weight(q, w)
        except NotDivisibleError:
            return False
    return True


def divided_difference_schubert(gcm: GCM, w: CosetRep) -> CohClass:
    """Equivariant Schubert class of ``w`` restricted to all fixed points.

    Finite type, full flag only.  The restriction at ``v`` with reduced
    word ``(a_1, ..., a_l)`` is the root-product sum over the reduced
    subwords of ``v`` equal to ``w``::

        sum over {j_1 < ... < j_m : s_{a_{j_1}} ... s_{a_{j_m}} = w}
            of  prod_t  r(j_t),   r(j) = s_{a_1} ... s_{a_{j-1}} (alpha_{a_j})

    which is the closed form of the descent recursion on fixed-point
    restrictions.  Entirely independent of the congruence solver.
    """
    if classify(gcm) != "finite":
        raise NotFiniteTypeError("Schubert restrictions require a finite Cartan matrix")
    from .builders import coset_id

    n = gcm.n
    mu = generic_dominant_vector(gcm, ())
    target = apply_word_dual(gcm, w.word, mu)
    m = w.length

    # enumerate the whole Weyl group (finite type terminates)
    cutoff = 1
    elements = enumerate_cosets(gcm, (), cutoff)
    while True:
        bigger = enumerate_cosets(gcm, (), cutoff + 1)
        if len(bigger) == len(elements):
            break
        elements = bigger
        cutoff += 1

    values: dict[str, Polynomial] = {}
    for v in elements:
        word = v.word
        # inversion roots r(j) along the reduced word of v
        roots = []
        for j, a in enumerate(word):
            alpha = tuple(1 if t == a else 0 for t in range(n))
            for i in reversed(word[:j]):
                alpha = reflect(gcm, i, alpha)
            roots.append(Weight(alpha).to_polynomial())
        total = Polynomial.zero(n)
        for positions in combinations(range(len(word)), m):
            sub = tuple(word[j] for j in positions)
            if apply_word_dual(gcm, sub, mu) != target:
                continue
            term = Polynomial.one(n)
            for j in positions:
                term = term * roots[j]
            total = total + term
        values[coset_id(word)] = total
    return CohClass(values, m)


def reflection_edges(gcm: GCM, parabolic, degree: int, height: int) -> list[Edge]:
    """Edges of the truncated graph of G/P, found by searching real roots.

    Applies a reflection word for every positive real root of height at
    most ``height`` to every retained coset, and keeps each move onto
    another retained coset, labeled by the root in torus coordinates.
    The result is complete only when ``height`` is large enough; a caller
    checks that by counting each vertex's down-edges against its length.
    Independent of the builder's inversion-root rule.
    """
    from .builders import _torus_basis, coset_id

    J = frozenset(parabolic)
    reps, table = coset_orbit(gcm, J, degree)
    tb = _torus_basis(gcm, J)
    words = {root: reflection_word(gcm, root) for root in real_roots(gcm, height)}
    found: dict[tuple[str, str, tuple[int, ...]], Edge] = {}
    for rep, vec in reps:
        uid = coset_id(rep.word)
        for root, rword in words.items():
            v2 = apply_word_dual(gcm, rword, vec)
            other = table.get(v2)
            if v2 == vec or other is None:
                continue
            oid = coset_id(other.word)
            key = (min(uid, oid), max(uid, oid), root.coords)
            if key not in found:
                found[key] = Edge(uid, oid, tb.weight(root))
    return list(found.values())
