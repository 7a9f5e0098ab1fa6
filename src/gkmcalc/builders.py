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
from functools import cache, partial

from .coxeter import (
    GCM,
    _adjugate,
    classify,
    coset_orbit,
    generic_dominant_vector,
    marks,
    reflect,
    reflect_dual,
)
from .errors import UnsupportedTypeError
from .graph import Edge, GkmGraph, Vertex
from .polyring import Weight

__all__ = [
    "type_a",
    "type_b2",
    "affine_type_a",
    "TWISTED_A1_4",
    "build_flag_graph",
    "build_omega_k",
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
    z: int | None = None
    mark_vec: tuple[int, ...] | None = None

    def weight(self, c: tuple[int, ...]) -> Weight:
        """The label of the root with simple-root coordinates ``c``."""
        if self.kind == "affine":
            m = c[self.z]
            coords = [c[i] - m * self.mark_vec[i] for i in range(len(c)) if i != self.z]
            coords.append(m)
            return Weight(tuple(coords))
        return Weight(c)


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


def _positions(gcm: GCM, J: frozenset, tb: _TorusBasis, reps) -> dict[str, tuple[Fraction, ...]]:
    """Positions of the coset words of ``reps`` (from :func:`coset_orbit`)
    by vertex id: ``num(w) / (q * det)`` with ``num(w) = b - det * p(w)``,
    ``b = adj * vec(e)`` (0 in the energy slot), ``p(e) = 0`` and
    ``p(s_i w') = p(w') - vec(w)_i * T(alpha_i)``."""
    others = [i for i in range(gcm.n) if i != tb.z]
    det, adj = _adjugate([[gcm.a(i, j) for j in others] for i in others])
    start, q = generic_dominant_vector(gcm, J)
    if tb.kind == "affine" and set(range(gcm.n)) - J == {tb.z}:
        q = -1
    units = [tuple(int(i == j) for j in range(gcm.n)) for i in range(gcm.n)]
    steps = [[det * t for t in tb.weight(u).coeffs] for u in units]  # det * T(alpha_i)
    b = [sum(a * start[j] for a, j in zip(row, others)) for row in adj]
    num = {(): b + [0] * (tb.kind == "affine")}
    out = {}
    for rep, vec in reps:
        w = rep.word
        if w:
            num[w] = [x + vec[w[0]] * t for x, t in zip(num[w[1:]], steps[w[0]])]
        out[coset_id(w)] = tuple([Fraction(x, q * det) for x in num[w]])
    return out


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

    Every word is ``w = s_i w'`` with its parent ``w'`` built first, so the
    down-edges of ``w`` are the edge to ``w'`` labeled ``alpha_i`` followed
    by ``s_i`` applied to each down-edge of ``w'``: the edge from ``w'`` to
    ``u`` labeled ``beta`` gives the edge from ``w`` to ``s_i u`` labeled
    ``s_i(beta)``.

    With ``embed``, vertices of a finite or affine matrix get their
    positions from the same orbit (see the module docstring).

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
        positions = _positions(gcm, J, tb, reps)

    ids = {vec: coset_id(rep.word) for rep, vec in reps}
    down = {(): ()}  # word -> its down-edges as (lower orbit vector, label root)
    # memoised for this build: affine labels repeat heavily, and sibling
    # and parent-to-child down-edge sets reflect the same vectors and roots
    weight = cache(partial(_label, tb))
    s_dual = [cache(partial(reflect_dual, gcm, i)) for i in range(gcm.n)]
    s_root = [cache(partial(reflect, gcm, i)) for i in range(gcm.n)]
    # unchecked records: positions are Fractions made from integers, every
    # lower endpoint is a shorter word than its upper one, and ``_label``
    # refuses a zero label once per distinct root
    make_vertex, make_edge = Vertex._make, Edge._make
    vertices = []
    edges = []
    for rep, vec in reps:
        w = rep.word
        uid = ids[vec]
        vertices.append(make_vertex((uid, 2 * rep.length, positions.get(uid), rep.label())))
        if not w:
            continue
        i = w[0]
        simple = tuple(1 if t == i else 0 for t in range(gcm.n))
        down[w] = ((s_dual[i](vec), simple),) + tuple(
            (s_dual[i](low), s_root[i](beta)) for low, beta in down[w[1:]]
        )
        edges += [make_edge((ids[low], uid, weight(beta))) for low, beta in down[w]]  # lower endpoint first
    return GkmGraph(gcm.n, mode, vertices, edges)


def _label(tb: _TorusBasis, beta: tuple[int, ...]) -> Weight:
    """The edge label of the root ``beta``, refused if zero as ``Edge``
    refuses it (no real root has the zero label)."""
    w = tb.weight(beta)
    if w.is_zero():
        raise ValueError(f"root {beta} has the zero label")
    return w


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
    reps, _ = coset_orbit(gcm, J, top)
    positions = _positions(gcm, J, tb, reps)
    for v in graph.vertices:
        if v.id not in positions:
            raise ValueError(f"vertex {v.id!r} is not a coset word of the orbit")
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
