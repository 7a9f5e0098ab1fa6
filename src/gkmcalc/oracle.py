"""Independent verifiers: brute-force graph cohomology, the sphere lemmas,
root-product Schubert restrictions, and flag-graph edges by root search.
The brute-force solver reads a kernel basis from ``nullspace_basis``, by
a Fraction elimination that the pipeline never uses.

Everything here is quarantined from the solver module: the shared code is
the base polynomial ring, ``coxeter``, the graph model of ``graph`` and
the builder's torus coordinates (``_torus_basis``), so agreement between
an oracle and the solver is evidence, not tautology.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache

from .builders import _torus_basis, coset_id
from .coxeter import (
    GCM,
    CosetRep,
    apply_word_dual,
    classify,
    coset_orbit,
    generic_dominant_vector,
    real_roots,
    reflect,
    reflect_dual,
    reflection_word,
)
from .errors import CoprimalityViolatedError, NotFiniteTypeError
from .graph import CohClass, Edge, GkmGraph
from .polyring import (
    Polynomial,
    Weight,
    _coeff,
    divide_by_weight,
    monomials,
    pairwise_coprime,
    NotDivisibleError,
)

__all__ = [
    "brute_force_classes",
    "nullspace_basis",
    "expected_gkm_dimension",
    "s2n_relative_image",
    "schubert_restrictions",
    "divided_difference_schubert",
    "reflection_edges",
]


def _divides(w: Weight, p: Polynomial) -> bool:
    try:
        divide_by_weight(p, w)
    except NotDivisibleError:
        return False
    return True


def _rref(rows: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def nullspace_basis(rows, ncols):
    """Deterministic basis of the nullspace of ``rows * x = 0`` over Q: one
    vector per free column of the reduced row echelon form (the identity
    when there are no rows)."""
    m = [[Fraction(_coeff(v)) for v in row] for row in rows]
    pivots = _rref(m)
    null = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][fc]
        null.append(vec)
    return null


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
    if not pairwise_coprime(ws):
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


def schubert_restrictions(gcm: GCM, parabolic, degree: int) -> dict[str, CohClass]:
    """Every Schubert class of G/P of length at most ``degree`` at every
    fixed point, by coset id, for the triple of ``build_flag_graph``.

    A minimal representative ``w`` pulls back to its own class on G/B, so
    its value at ``v = s_{a_1} ... s_{a_l}`` (reduced) is the sum over the
    reduced subwords with product ``w`` of ``prod r(j)`` over the letters
    taken, ``r(j) = s_{a_1} ... s_{a_{j-1}} (alpha_{a_j})`` (Billey, Duke
    1999; Andersen-Jantzen-Soergel; Kumar ch. 11 for any Kac-Moody G/P).
    One right-to-left pass over ``v``'s word sums them all: a state maps
    ``u.mu``, ``mu`` regular dominant, to the sum over the subwords so far
    with product ``u``.  Letter ``j`` may be prepended exactly when
    ``(u.mu)[a_j] > 0``, that is when it keeps the subword reduced; taking
    it reflects the state and multiplies by ``r(j)``.  The end states at
    the coset words' vectors are ``v``'s values of every class.  Inversion
    roots come from :func:`reflect`, not the builder's edge rule.
    Raises ``ValueError`` for a ``degree`` that is not an ``int``.
    """
    if type(degree) is not int:
        raise ValueError(f"degree cutoff must be an int, not {degree!r}")
    J = frozenset(parabolic)
    reps, *_ = coset_orbit(gcm, J, degree)
    tb = _torus_basis(gcm, J)
    n = gcm.n
    mu, _ = generic_dominant_vector(gcm, ())
    words = [rep.word for rep, _ in reps]
    at = {apply_word_dual(gcm, w, mu): coset_id(w) for w in words}
    values = {wid: {} for wid in at.values()}  # class -> vertex -> value
    for v in words:
        states = {mu: Polynomial.one(n)}
        for j in reversed(range(len(v))):
            a = v[j]
            root = tuple(int(t == a) for t in range(n))
            for i in reversed(v[:j]):
                root = reflect(gcm, i, root)
            r = tb.weight(root).to_polynomial()
            for vec, p in list(states.items()):
                if vec[a] > 0:
                    up = reflect_dual(gcm, a, vec)
                    states[up] = states[up] + p * r if up in states else p * r
        for vec, p in states.items():
            if vec in at:
                values[at[vec]][coset_id(v)] = p
    zero = Polynomial.zero(n)
    return {
        coset_id(w): CohClass({vid: values[coset_id(w)].get(vid, zero) for vid in values}, len(w))
        for w in words
    }


@lru_cache(maxsize=4)
def _full_flag(gcm: GCM):
    """The coset orbit of a finite ``gcm``'s full flag variety, as
    ``(reps, table)``, and every Schubert class on it, by coset id."""
    # a finite orbit ends at its first empty shell, below any cutoff
    reps, table, *_ = coset_orbit(gcm, (), sys.maxsize)
    return reps, table, schubert_restrictions(gcm, (), reps[-1][0].length)


def divided_difference_schubert(gcm: GCM, w: CosetRep) -> CohClass:
    """The :func:`schubert_restrictions` class of ``w``, given by any
    reduced word, on the full flag variety of a finite Cartan matrix.
    The table of classes is computed once per matrix; each call returns a
    fresh class.  Raises :class:`NotFiniteTypeError` outside finite type."""
    if classify(gcm) != "finite":
        raise NotFiniteTypeError("Schubert restrictions require a finite Cartan matrix")
    reps, table, classes = _full_flag(gcm)
    canonical = table[apply_word_dual(gcm, w.word, reps[0][1])].word
    cls = classes[coset_id(canonical)]
    return CohClass._make(dict(cls.values), cls.degree)


def reflection_edges(gcm: GCM, parabolic, degree: int, height: int) -> list[Edge]:
    """Edges of the truncated graph of G/P, found by searching real roots.

    Applies a reflection word for every positive real root of height at
    most ``height`` to every retained coset, and keeps each move onto
    another retained coset, labeled by the root in torus coordinates.
    The result is complete only when ``height`` is large enough; a caller
    checks that by counting each vertex's down-edges against its length.
    Independent of the builder's inversion-root rule.
    """
    J = frozenset(parabolic)
    reps, table, *_ = coset_orbit(gcm, J, degree)
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
                found[key] = Edge(uid, oid, tb.weight(root.coords))
    return list(found.values())
