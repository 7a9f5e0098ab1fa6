"""Builders for the decorated graphs of Kac-Moody homogeneous spaces G/P.

Vertices are the minimal-length coset representatives of ``W_G/W_P`` with
cell dimension twice the length; an edge joins ``[w]`` and ``[r_beta w]``
for every positive real root ``beta`` that moves the coset, labeled by
``beta`` written in torus coordinates.

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
    Positions come from the orbit of a base point with stabilizer exactly
    ``W_P``, tracked in dual coordinates together with the energy slot
    (the delta-dual coordinate) in affine cases; normalization constants
    are set to 1.  Edge directions then equal edge labels exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coxeter import (
    GCM,
    Root,
    _integral,
    classify,
    coset_orbit,
    generic_dominant_vector,
    marks,
    reflect,
    reflect_dual,
)
from .errors import BadBasePointError, UnsupportedTypeError
from .graph import Edge, GkmGraph, Vertex
from .polyring import Weight, solve_linear_system

__all__ = [
    "type_a",
    "type_b2",
    "affine_type_a",
    "TWISTED_A1_4",
    "build_flag_graph",
    "build_omega_k",
    "build_twisted_example",
    "build_chain_graph",
    "moment_embedding",
    "build_preset",
    "PRESETS",
    "coset_id",
    "word_from_id",
]

def type_a(n: int) -> GCM:
    """Cartan matrix of type A_n (n >= 1)."""
    if n < 1:
        raise ValueError("type A rank must be >= 1")
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
    if n < 1:
        raise ValueError("affine type A rank must be >= 1")
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
    k: int
    z: int | None = None
    mark_vec: tuple[int, ...] | None = None

    def weight(self, root: Root) -> Weight:
        c = root.coords
        if self.kind == "affine":
            m = c[self.z]
            coords = [c[i] - m * self.mark_vec[i] for i in range(len(c)) if i != self.z]
            coords.append(m)
            return Weight(tuple(coords))
        return Weight(c)


def _torus_basis(gcm: GCM, parabolic) -> _TorusBasis:
    kind = classify(gcm)
    if kind == "finite":
        return _TorusBasis("finite", gcm.n)
    if kind == "affine":
        mk = marks(gcm)
        J = set(parabolic)
        candidates = [i for i in range(gcm.n) if mk[i] == 1 and i not in J]
        if not candidates:
            candidates = [i for i in range(gcm.n) if mk[i] == 1]
        if not candidates:
            raise UnsupportedTypeError(
                "affine matrix has no node of mark 1 to carry the delta coordinate"
            )
        return _TorusBasis("affine", gcm.n, z=candidates[0], mark_vec=mk)
    # indefinite: raw root coordinates still give a faithful integral basis
    return _TorusBasis("root", gcm.n)


def _invert(rows) -> list[list[Fraction]]:
    n = len(rows)
    cols = []
    for j in range(n):
        rhs = [Fraction(1 if i == j else 0) for i in range(n)]
        sol, null = solve_linear_system([list(map(Fraction, r)) for r in rows], rhs)
        if null:
            raise ValueError("matrix is singular")
        cols.append(sol)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _default_base_point(gcm: GCM, parabolic, tb: _TorusBasis):
    """Dominant prime reciprocals off the parabolic; a negative fundamental
    weight at the delta node for affine quotients so that the energy axis
    of the embedding points upward."""
    J = set(parabolic)
    if tb.kind == "affine" and set(range(gcm.n)) - J == {tb.z}:
        lam = [Fraction(0)] * gcm.n
        lam[tb.z] = Fraction(-1)
        return tuple(lam)
    return generic_dominant_vector(gcm, parabolic)


def _orbit_positions(gcm, parabolic, tb, words, base_point):
    """Map each coset word to its moment-image coordinates.

    A word ``w = s_i w'`` moves the base point to ``s_i(w' lambda)``, so its
    dual vector and energy slot (the delta-dual coordinate, tracked only in
    affine cases) are one reflection from those of its suffix ``w'``; both
    are memoized per suffix.  The orbit runs on ``int`` vectors: the base
    point scaled by the lcm of its denominators.  Dual vectors map to torus
    coordinates through the inverse of the (classical) Cartan matrix, kept
    as an integer matrix over one common denominator, so each coordinate
    costs one division, made when the position is written out.
    """
    lam = tuple(base_point)
    for x in lam:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise BadBasePointError(
                f"base point entries must be int or Fraction, got {x!r}"
            )
    if len(lam) != gcm.n:
        raise BadBasePointError(f"base point must have {gcm.n} coordinates")
    J = set(parabolic)
    for i in range(gcm.n):
        fixes = reflect_dual(gcm, i, lam) == lam
        if i in J and not fixes:
            raise BadBasePointError(f"base point is moved by the parabolic generator s{i}")
        if i not in J and fixes:
            raise BadBasePointError(f"base point is fixed by s{i} outside the parabolic")
    if tb.kind not in ("finite", "affine"):
        raise UnsupportedTypeError("moment embedding needs a finite or affine Cartan matrix")

    lam, scale = _integral(lam)
    others = [i for i in range(gcm.n) if i != tb.z]
    inv = _invert([[gcm.a(i, j) for j in others] for i in others])
    flat, den = _integral([x for row in inv for x in row])
    adj = [flat[r:r + len(others)] for r in range(0, len(flat), len(others))]
    den *= scale  # inv = adj / den and lam = (scaled lam) / scale
    orbit = {(): (lam, 0)}  # suffix -> (scaled dual vector, scaled energy slot)

    def position(word):
        k = 0
        while word[k:] not in orbit:
            k += 1
        mu, s = orbit[word[k:]]
        for t in reversed(range(k)):
            i = word[t]
            if i == tb.z:
                s = s - mu[i]
            mu = reflect_dual(gcm, i, mu)
            orbit[word[t:]] = (mu, s)
        classical = [mu[j] for j in others]
        pos = [Fraction(sum(a * c for a, c in zip(row, classical)), den) for row in adj]
        if tb.kind == "affine":
            pos.append(Fraction(s, scale))
        return tuple(pos)

    return {coset_id(w): position(w) for w in words}


def build_flag_graph(
    gcm: GCM,
    parabolic,
    degree: int,
    mode: str = "Z",
    embed: bool = True,
    base_point=None,
) -> GkmGraph:
    """The decorated graph of G/P truncated at cell dimension ``2*degree``.

    Every edge is a down-edge of its upper endpoint, and the down-edges of
    a vertex with reduced word ``w = s_{a1}...s_{al}`` are its ``l`` letter
    deletions: deleting letter ``j`` gives ``r_beta w`` for the inversion
    root ``beta = s_{a1}...s_{a(j-1)}(alpha_{aj})``, which labels the edge
    (subword property).  Each retained vertex thus carries all of its
    down-edges, so truncations are induced subgraphs of the full graph.

    Every word is ``w = s_i w'`` with its parent ``w'`` built first, so the
    down-edges of ``w`` are the edge to ``w'`` labeled ``alpha_i`` followed
    by ``s_i`` applied to each down-edge of ``w'``: the edge from ``w'`` to
    ``u`` labeled ``beta`` gives the edge from ``w`` to ``s_i u`` labeled
    ``s_i(beta)``.

    >>> g = build_flag_graph(GCM(((2, -1), (-1, 2))), (), 3)
    >>> len(g.vertices), len(g.edges)
    (6, 9)
    >>> [(e.other("0-1"), str(e.weight)) for e in g.down_edges("0-1")]
    [('0', 'x1 + x2'), ('1', 'x1')]
    """
    if degree < 0:
        raise ValueError("degree cutoff must be non-negative")
    J = frozenset(parabolic)
    reps, _ = coset_orbit(gcm, J, degree)
    tb = _torus_basis(gcm, J)
    positions = {}
    if embed and tb.kind in ("finite", "affine"):
        base = base_point if base_point is not None else _default_base_point(gcm, J, tb)
        positions = _orbit_positions(gcm, J, tb, [rep.word for rep, _ in reps], base)

    ids = {vec: coset_id(rep.word) for rep, vec in reps}
    down = {(): ()}  # word -> its down-edges as (lower orbit vector, label root)
    labels = {}  # label root -> its torus weight; affine labels repeat heavily
    vertices = []
    edges = []
    for rep, vec in reps:
        w = rep.word
        uid = ids[vec]
        vertices.append(Vertex(uid, 2 * rep.length, positions.get(uid), rep.label()))
        if not w:
            continue
        i = w[0]
        simple = tuple(1 if t == i else 0 for t in range(gcm.n))
        down[w] = ((reflect_dual(gcm, i, vec), simple),) + tuple(
            (reflect_dual(gcm, i, low), reflect(gcm, i, beta)) for low, beta in down[w[1:]]
        )
        for low, beta in down[w]:
            label = labels.get(beta)
            if label is None:
                label = labels[beta] = tb.weight(Root(beta))
            edges.append(Edge(ids[low], uid, label))  # lower endpoint first
    return GkmGraph(tb.k, mode, vertices, edges)


def moment_embedding(graph: GkmGraph, gcm: GCM, parabolic, base_point=None) -> GkmGraph:
    """Recompute vertex positions from the orbit of ``base_point``.

    The graph must come from :func:`build_flag_graph` (vertex ids encode
    the coset words).  Raises :class:`BadBasePointError` when an entry of
    the base point is not an ``int`` or ``Fraction`` (a ``bool`` is
    refused too), or when its stabilizer is not exactly ``W_P``.
    """
    J = frozenset(parabolic)
    tb = _torus_basis(gcm, J)
    words = [word_from_id(v.id) for v in graph.vertices]
    base = base_point if base_point is not None else _default_base_point(gcm, J, tb)
    positions = _orbit_positions(gcm, J, tb, words, base)
    return graph.with_positions(positions)


def build_omega_k(type_name: str, degree: int, mode: str = "Z") -> GkmGraph:
    """The based-loop-space graph for a compact type, as the flag graph of
    the untwisted affine matrix with the finite nodes as parabolic.

    Supported names: ``SU(n)`` for n >= 2 (also accepted as ``su2``,
    ``SU3``, ...).
    """
    name = type_name.strip().upper().replace("(", "").replace(")", "")
    if not name.startswith("SU"):
        raise UnsupportedTypeError(f"unsupported compact type {type_name!r}")
    try:
        n = int(name[2:])
    except ValueError:
        raise UnsupportedTypeError(f"unsupported compact type {type_name!r}") from None
    if n < 2:
        raise UnsupportedTypeError("SU(n) needs n >= 2")
    gcm = affine_type_a(n - 1)
    J = frozenset(range(1, n))
    return build_flag_graph(gcm, J, degree, mode=mode)


def build_twisted_example(degree: int, mode: str = "Z") -> GkmGraph:
    """The homogeneous space of the twisted affine matrix [[2,-1],[-4,2]]
    with the short-root node as parabolic."""
    return build_flag_graph(TWISTED_A1_4, frozenset({1}), degree, mode=mode)


def build_chain_graph(weights, mode: str = "Q", rank: int | None = None) -> GkmGraph:
    """A chain of cells with user-supplied edge labels.

    Vertex ``c<i>`` has cell dimension ``2i`` and one edge to its
    predecessor labeled ``weights[i-1]``.  No claim is made about which
    labels make this the graph of an actual torus action; beyond the
    first cell the validator rejects it (a 2i-cell needs i down-edges),
    so it is a fixture for membership testing, not for the solver.
    """
    ws = [w if isinstance(w, Weight) else Weight(tuple(w)) for w in weights]
    if rank is None:
        if not ws:
            raise ValueError("rank is required for an edgeless chain")
        rank = ws[0].rank
    vertices = [Vertex(f"c{i}", 2 * i) for i in range(len(ws) + 1)]
    edges = [Edge(f"c{i}", f"c{i + 1}", ws[i]) for i in range(len(ws))]
    return GkmGraph(rank, mode, vertices, edges)


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
