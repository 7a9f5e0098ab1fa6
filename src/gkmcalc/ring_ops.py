"""Ring-level computations: products, ranks, and divided-powers checks.

Power coefficients come from chain constants (the equivariant Chevalley
formula; Kostant-Kumar, Goldin-Tolman): by the identity in the
:mod:`solver` docstring, ``Phi*f_v - Phi(v)*f_v = sum c(v,u) f_u`` over
the covers ``u`` of ``v``, with the ``c(v,u)`` of the graph's Chevalley
table (see :func:`solver._covers_of`).  On a graph with one degree-2
vertex ``v1``, ``Phi = Phi(e) + lambda * f1``, ``f1`` the degree-2
generator and ``lambda`` the ``c`` of the bottom vertex ``e``'s row into
``v1`` (where ``k = 1``).  In ordinary cohomology ``Phi(e)`` and ``f1(v)``
vanish, so the coefficient of ``f_vn`` in ``f1^n`` is ``A[vn]`` with
``A[v1] = 1`` and ``A[u] = sum_v A[v] * c(v,u) / lambda``, level by level
up the table; no generator value is read.  After the recursion has solved
a basis of the same graph, or after an earlier power sum, no ``c`` is made
again.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CutoffTooSmallError, NonIntegralError
from .graph import GkmGraph, _count, _require_valid, _size
from .polyring import Polynomial, _quo
from .solver import GeneratorBasis, _covers_of

__all__ = [
    "poincare_series",
    "ordinary_reduction",
    "power_coefficient",
]


def poincare_series(graph: GkmGraph, degree: int) -> list[int]:
    """Free-module rank per cohomological degree ``2d`` for ``d <= degree``.

    Entry ``d`` counts the vertices of cell dimension ``2d`` (one
    generator per cell); all odd cohomological degrees have rank zero.
    A negative ``degree`` raises :class:`ValueError`, then an invalid
    graph :class:`ValidationFailureError` with its full report (a graph
    that :func:`validate` has passed is not checked again), and then a
    ``degree`` of ``sys.maxsize`` or more :class:`ValueError`.
    """
    _count(degree, "degree")
    _require_valid(graph)
    ranks = [0] * (_size(degree, "degree") + 1)
    for v in graph.vertices:
        d = v.cell_dim // 2
        if d <= degree:
            ranks[d] += 1
    return ranks


def ordinary_reduction(expansion: dict[str, Polynomial]) -> dict[str, int | Fraction]:
    """Set all torus variables to zero in an expansion's coefficients.

    This recovers the ordinary cohomology coefficients from equivariant
    ones (tensoring out the coefficient ring of a point): exact rationals,
    an ``int`` when integral and a ``Fraction`` otherwise.  The
    coefficients share one rank, so one zero exponent key reads them all.
    """
    zero = (0,) * next(iter(expansion.values())).nvars if expansion else ()
    return {vid: c.terms.get(zero, 0) if c.terms else 0 for vid, c in expansion.items()}


def _unique_vertex_of_dim(graph: GkmGraph, cell_dim: int) -> str:
    hits = [v.id for v in graph.vertices if v.cell_dim == cell_dim]
    if not hits:
        raise CutoffTooSmallError(f"no vertex of cell dimension {cell_dim} in the graph")
    if len(hits) > 1:
        raise ValueError(
            f"power coefficient needs a unique vertex of cell dimension {cell_dim}, "
            f"found {hits}"
        )
    return hits[0]


def power_coefficient(graph: GkmGraph, basis: GeneratorBasis, n: int) -> int | Fraction:
    """Ordinary coefficient of the degree-2n generator in (degree-2 gen)^n,
    an ``int`` when integral and a ``Fraction`` otherwise.

    For the loop-space presets this realizes the divided-powers law: the
    value is n! for loops in SU(2) and n! * 2^(n // 2) for the twisted
    example.  It is summed level by level up the graph's Chevalley table,
    from the degree-2 vertex to the degree-2n one, with the chain constants
    ``c(v,u) / lambda`` (see the module docstring).

    Raises :class:`ValueError` for an ``n`` that is not an ``int`` or is
    below 1, then :class:`ValidationFailureError` with the full report on
    an invalid graph (a graph that :func:`validate` has passed is not
    checked again), then :class:`ValueError` for a basis solved on another
    graph, or when the vertex of cell dimension 2 or 2n is not unique,
    :class:`CutoffTooSmallError` when the basis or graph stops below degree
    ``n``, :class:`NoSolutionError` from the lifted seed when the graph
    has no degree-1 generator to make ``Phi`` from, and in Z-mode
    :class:`NonIntegralError` naming ``u`` for a constant that is not an
    integer.
    """
    if type(n) is not int:
        raise ValueError(f"power n must be an int, not {n!r}")
    if n < 1:
        raise ValueError("power must be >= 1")
    _require_valid(graph)
    if basis.graph is not graph and basis.graph != graph:
        raise ValueError("power coefficient: the basis was solved on another graph")
    if basis.degree < n:
        raise CutoffTooSmallError(f"basis degree {basis.degree} is below the requested power {n}")
    v1 = _unique_vertex_of_dim(graph, 2)
    vn = _unique_vertex_of_dim(graph, 2 * n)
    bottom = graph.down_edges(v1)[0].other(v1)
    lam = next(c for u, _, c in _covers_of(graph, bottom) if u == v1)
    level = {v1: 1}  # the nonzero A[v] at one cell dimension
    for _ in range(n - 1):
        up: dict = {}
        for v, a in level.items():
            for u, _, c in _covers_of(graph, v):
                c = _quo(c, lam)
                if basis.mode == "Z" and type(c) is not int:
                    raise NonIntegralError(
                        f"chain constant from {v!r} to {u!r} is not integral: {c}",
                        witness=c,
                        vertex=u,
                    )
                up[u] = up.get(u, 0) + a * c
        level = {u: a for u, a in up.items() if a}
    return _quo(level.get(vn, 0), 1)
