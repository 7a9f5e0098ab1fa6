"""Builders for the decorated graphs of Kac-Moody homogeneous spaces G/P.

Vertices are the minimal-length coset representatives of ``W_G/W_P`` with
cell dimension twice the length; an edge joins ``[w]`` and ``[r_beta w]``
for every positive real root ``beta`` that moves the coset, labeled by
``beta`` written in torus coordinates.

Parent step
    Every vertex ``w = s_i w'`` other than ``e`` is built from its parent
    ``w'``, the coset whose expansion named ``w`` in the orbit walk of
    :func:`coset_orbit`: its id, label, down-edges and position each take
    one step from the parent's.  The walk returns each parent, and the
    ``n`` reflections of every coset it expanded, by index into the orbit,
    so no vertex reflects an orbit vector again or looks one up.

Torus coordinates
    For a finite Cartan matrix the acting torus is the adjoint torus and
    a root's coordinate vector is just its simple-root coordinates.  For
    an affine matrix the torus is (adjoint torus) x (loop rotation): with
    ``delta = sum_i m_i alpha_i`` the null root and ``z`` a node of mark
    ``m_z = 1``, a root ``beta = c`` splits as
    ``beta = (c_z) * delta + sum_{i != z} (c_i - c_z m_i) alpha_i`` and
    its coordinates are those classical components followed by the delta
    coefficient.  This change of basis is unimodular, so primitivity is
    preserved.  Indefinite matrices fall back to raw root coordinates.

Moment embedding
    The orbit starts at ``lambda = S * mu``, the integer vector that
    ``generic_dominant_vector`` returns with ``S``: ``mu`` is the rational
    generic dominant vector of prime reciprocals, and ``S`` the product of
    those primes.  The torus sends the fixed point ``w`` to ``w lambda``,
    so ``p(w) = T(lambda - w lambda)``, in the torus coordinates ``T``
    above, grows one letter at a time: ``p(e) = 0`` and
    ``p(s_i w') = p(w') - (w lambda)_i * T(alpha_i)``.  Then ``w`` sits at
    ``base - p(w) / q``.  The base point is ``lambda / S`` (``q = S``), or
    ``-Lambda_z`` (``q = -1``) for an affine Grassmannian so that energy
    points upward; its classical coordinates are ``adj * lambda / (q * det)``
    from the integer adjugate of the classical Cartan matrix, its energy 0.
    Edge directions equal edge labels exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .coxeter import (
    GCM,
    _adjugate,
    classify,
    coset_orbit,
    generic_dominant_vector,
    marks,
    reflect,
)
from .errors import UnsupportedTypeError
from .graph import Edge, GkmGraph, Vertex
from .polyring import Weight, _count, _int_arg, _weight

__all__ = [
    "type_a",
    "type_b2",
    "affine_type_a",
    "TWISTED_A1_4",
    "build_flag_graph",
    "build_chain_graph",
    "moment_embedding",
    "build_preset",
    "PRESETS",
    "coset_id",
    "word_from_id",
]

def type_a(n: int) -> GCM:
    """Cartan matrix of type A_n (n >= 1)."""
    if _int_arg(n, "type A rank") < 1:
        raise ValueError(f"type A rank must be >= 1, got {n}")
    return GCM(
        tuple(
            tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
            for i in range(n)
        )
    )


def type_b2() -> GCM:
    return GCM(((2, -1), (-2, 2)))


def affine_type_a(n: int) -> GCM:
    """Untwisted affine Cartan matrix of type A_n^(1); node 0 is affine."""
    if _int_arg(n, "affine type A rank") < 1:
        raise ValueError(f"affine type A rank must be >= 1, got {n}")
    if n == 1:
        return GCM(((2, -2), (-2, 2)))
    size = n + 1
    return GCM(
        tuple(
            tuple(
                2 if i == j else (-1 if (abs(i - j) in (1, size - 1)) else 0)
                for j in range(size)
            )
            for i in range(size)
        )
    )


TWISTED_A1_4 = GCM(((2, -1), (-4, 2)))


def coset_id(word) -> str:
    return "-".join(str(i) for i in word) if word else "e"


def word_from_id(vid: str) -> tuple[int, ...]:
    if vid == "e":
        return ()
    return tuple(int(p) for p in vid.split("-"))


@dataclass(frozen=True)
class _TorusBasis:
    kind: str  # "finite" | "affine" | "root"
    z: int | None = None
    mark_vec: tuple[int, ...] | None = None

    def weight(self, c: tuple[int, ...]) -> Weight:
        """The label of the root with simple-root coordinates ``c``.  It is
        never zero for a real root: a real root is a Weyl image of a simple
        root, so ``c`` is nonzero, and this map is the identity or the
        unimodular change of basis of the module docstring.  ``c`` is a
        tuple of ints, so the interned weight is read unchecked."""
        if self.kind == "affine":
            m = c[self.z]
            coords = [c[i] - m * self.mark_vec[i] for i in range(len(c)) if i != self.z]
            coords.append(m)
            return _weight(tuple(coords))
        return _weight(c)


def _torus_basis(gcm: GCM, parabolic) -> _TorusBasis:
    """How root coordinates become edge labels.  An affine matrix carries
    the delta coordinate at its first node of mark 1 outside the parabolic
    set, or else at its first node of mark 1.  Such a node always exists:
    ``classify`` calls a matrix affine only when its kernel is spanned by a
    strictly positive vector, so it is an indecomposable affine matrix, and
    every one in Kac's Tables Aff 1-3 (*Infinite-dimensional Lie algebras*,
    ch. 4) has a mark 1, whichever side's kernel gives the marks: the
    labels and the dual labels both have ``a_0 = 1``, except that the
    labels of ``A_{2l}^{(2)}`` have ``a_0 = 2`` and a last label of 1."""
    kind = classify(gcm)
    if kind == "finite":
        return _TorusBasis("finite")
    if kind == "affine":
        mk = marks(gcm)
        J = set(parabolic)
        candidates = [i for i in range(gcm.n) if mk[i] == 1 and i not in J]
        if not candidates:
            candidates = [i for i in range(gcm.n) if mk[i] == 1]
        return _TorusBasis("affine", z=candidates[0], mark_vec=mk)
    # indefinite: raw root coordinates still give a faithful integral basis
    return _TorusBasis("root")


def _positions(gcm: GCM, J: frozenset, tb: _TorusBasis, reps, parent) -> list[tuple[Fraction, ...]]:
    """Positions of the coset words of ``reps``, in order, from the
    ``parent`` indices of :func:`coset_orbit`: ``num(w) / (q * det)`` with
    ``num(w) = b - det * p(w)``, ``b = adj * vec(e)`` (0 in the energy
    slot), ``p(e) = 0`` and ``p(s_i w') = p(w') - vec(w)_i * T(alpha_i)``.
    Each distinct numerator is made a ``Fraction`` once."""
    others = [i for i in range(gcm.n) if i != tb.z]
    det, adj = _adjugate([[gcm.a(i, j) for j in others] for i in others])
    start, q = generic_dominant_vector(gcm, J)
    if tb.kind == "affine" and set(range(gcm.n)) - J == {tb.z}:
        q = -1
    units = [tuple(int(i == j) for j in range(gcm.n)) for i in range(gcm.n)]
    steps = [[det * t for t in tb.weight(u).coeffs] for u in units]  # det * T(alpha_i)
    b = [sum(a * start[j] for a, j in zip(row, others)) for row in adj]
    num = [b + [0] * (tb.kind == "affine")]
    for k in range(1, len(reps)):
        word, vec = reps[k]
        i = word[0]
        num.append([x + vec[i] * t for x, t in zip(num[parent[k]], steps[i])])
    d = q * det
    frac = cache(lambda x: Fraction(x, d))
    return [tuple(map(frac, nk)) for nk in num]


def build_flag_graph(
    gcm: GCM, parabolic, degree: int, mode: str = "Z", embed: bool = True
) -> GkmGraph:
    """The decorated graph of G/P truncated at cell dimension ``2*degree``.

    Every edge is a down-edge of its upper endpoint, and the down-edges of
    a vertex with reduced word ``w = s_{a1}...s_{al}`` are its ``l`` letter
    deletions: deleting letter ``j`` gives ``r_beta w`` for the inversion
    root ``beta = s_{a1}...s_{a(j-1)}(alpha_{aj})``, which labels the edge
    (subword property).  Each retained vertex thus carries all of its
    down-edges, so truncations are induced subgraphs of the full graph.

    Every vertex ``w = s_i w'`` is built from its parent ``w'``, built
    first: its id and label put the letter ``i`` in front of the parent's,
    and its down-edges are the edge to ``w'`` labeled ``alpha_i`` followed
    by ``s_i`` applied to each down-edge of ``w'``: the edge from ``w'`` to
    ``u`` labeled ``beta`` gives the edge from ``w`` to ``s_i u`` labeled
    ``s_i(beta)``.  The orbit walk already reflected ``u`` by ``s_i``, so
    ``s_i u`` is read from its ``up`` indices; roots are numbered as they
    appear, and each distinct root is reflected once per letter and
    labeled once.

    With ``embed``, vertices of a finite or affine matrix get their
    positions from the same parents (see the module docstring).  Raises
    ``ValueError`` for a ``degree`` that is not a non-negative ``int``.

    >>> g = build_flag_graph(GCM(((2, -1), (-1, 2))), (), 3)
    >>> len(g.vertices), len(g.edges)
    (6, 9)
    >>> [(e.other("0-1"), str(e.weight)) for e in g.down_edges("0-1")]
    [('0', 'x1 + x2'), ('1', 'x1')]
    """
    _count(degree, "degree cutoff")
    J = frozenset(parabolic)
    reps, _, parent, up = coset_orbit(gcm, J, degree)
    tb = _torus_basis(gcm, J)
    if embed and tb.kind in ("finite", "affine"):
        positions = _positions(gcm, J, tb, reps, parent)
    else:
        positions = [None] * len(reps)
    n = gcm.n
    # label roots by index, the simple roots first; moved[i] maps a root's
    # index to the index of its reflection by s_i
    roots = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    root_at = {beta: r for r, beta in enumerate(roots)}
    labels = [tb.weight(beta) for beta in roots]
    moved = [{} for _ in range(n)]
    # unchecked records: positions are Fractions made from integers, every
    # lower endpoint is a shorter word than its upper one, and no label is
    # zero (see ``_TorusBasis.weight``)
    new = tuple.__new__
    ids, names = ["e"], ["e"]
    down = [()]  # per vertex, its down-edges as (lower vertex index, root index)
    vertices = [new(Vertex, ("e", 0, positions[0], "e"))]
    edges = []
    for k in range(1, len(reps)):
        p, w = parent[k], reps[k][0]
        i = w[0]
        if p:
            uid, name = f"{i}-{ids[p]}", f"s{i} {names[p]}"
        else:
            uid, name = str(i), f"s{i}"
        ids.append(uid)
        names.append(name)
        vertices.append(new(Vertex, (uid, 2 * len(w), positions[k], name)))
        mi = moved[i]
        dk = [(p, i)]
        for u, r in down[p]:
            s = mi.get(r)
            if s is None:
                beta = reflect(gcm, i, roots[r])
                s = root_at.get(beta)
                if s is None:
                    s = root_at[beta] = len(roots)
                    roots.append(beta)
                    labels.append(tb.weight(beta))
                mi[r] = s
            dk.append((up[u][i], s))
        down.append(dk)
        edges += [new(Edge, (ids[low], uid, labels[r])) for low, r in dk]  # lower endpoint first
    return GkmGraph(n, mode, vertices, edges)


def moment_embedding(graph: GkmGraph, gcm: GCM, parabolic) -> GkmGraph:
    """Recompute the positions ``build_flag_graph`` gives with ``embed``.

    Raises ``ValueError`` naming the first vertex whose id is not a coset
    word of the orbit, and :class:`UnsupportedTypeError` for an indefinite
    Cartan matrix.
    """
    J = frozenset(parabolic)
    tb = _torus_basis(gcm, J)
    if tb.kind not in ("finite", "affine"):
        raise UnsupportedTypeError("moment embedding needs a finite or affine Cartan matrix")
    top = max((v.cell_dim for v in graph.vertices), default=0) // 2
    reps, _, parent, _ = coset_orbit(gcm, J, top)
    positions = dict(zip([coset_id(w) for w, _ in reps], _positions(gcm, J, tb, reps, parent)))
    for v in graph.vertices:
        if v.id not in positions:
            raise ValueError(f"vertex {v.id!r} is not a coset word of the orbit")
    return graph.with_positions(positions)


def build_chain_graph(weights, mode: str = "Q") -> GkmGraph:
    """A chain of cells with user-supplied edge labels.

    Vertex ``c<i>`` has cell dimension ``2i`` and one edge to its
    predecessor labeled ``weights[i-1]``.  No claim is made about which
    labels make this the graph of an actual torus action; beyond the
    first cell the validator rejects it (a 2i-cell needs i down-edges),
    so it is a fixture for membership testing, not for the solver.  The
    torus rank is the first weight's; an empty chain is refused.
    """
    ws = [w if isinstance(w, Weight) else Weight(tuple(w)) for w in weights]
    if not ws:
        raise ValueError("a chain needs at least one weight")
    vertices = [Vertex(f"c{i}", 2 * i) for i in range(len(ws) + 1)]
    edges = [Edge(f"c{i}", f"c{i + 1}", ws[i]) for i in range(len(ws))]
    return GkmGraph(ws[0].rank, mode, vertices, edges)


# name -> (Cartan matrix, parabolic, default degree)
PRESETS = {
    "A1-flag": (type_a(1), frozenset(), 1),
    "A2-flag": (type_a(2), frozenset(), 3),
    "B2-flag": (type_b2(), frozenset(), 4),
    "omega-su2": (affine_type_a(1), frozenset({1}), 4),
    "omega-su3": (affine_type_a(2), frozenset({1, 2}), 2),
    "A1-4-twisted": (TWISTED_A1_4, frozenset({1}), 4),
}


def build_preset(name: str, degree: int | None = None, mode: str = "Z") -> GkmGraph:
    """Build a named preset graph; ``degree`` defaults per preset."""
    try:
        gcm, parabolic, default_degree = PRESETS[name]
    except KeyError:
        raise UnsupportedTypeError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return build_flag_graph(
        gcm, parabolic, degree if degree is not None else default_degree, mode=mode
    )
