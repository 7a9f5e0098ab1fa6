"""Ring-level computations: products, ranks, and divided-powers checks.

Power coefficients come from chain constants (the equivariant Chevalley
formula; Kostant-Kumar, Goldin-Tolman).  Let ``f1`` be the degree-2
generator.  For ``v`` of cell dimension ``2k`` the class ``f1*f_v -
f1(v)*f_v`` vanishes at every vertex of cell dimension ``2k`` or less, so
it is ``sum c(v,u) f_u`` over the ``u`` of cell dimension ``2k+2``, each
``c(v,u)`` a constant.  At ``u`` only ``f_u`` of that dimension is
nonzero, which gives ``c(v,u) = (f1(u) - f1(v)) * f_v(u) / f_u(u)``.
In ordinary cohomology ``f1(v)`` vanishes, so the coefficient of ``f_vn``
in ``f1^n`` is ``A[vn]`` with ``A[v1] = 1`` and ``A[u] = sum_v A[v] *
c(v,u)``, level by level.

Each constant is read off as a ratio at one monomial and certified by
comparing ``(f1(u) - f1(v)) * f_v(u)`` with ``c(v,u) * f_u(u)`` in full,
skipping the ``v`` with ``f_v(u) = 0``.  A basis that fails (one loaded
with a tampered value, say) raises :class:`NotInSpanError` naming ``u``;
in Z-mode a constant that is not an integer raises
:class:`NonIntegralError` naming ``u``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CutoffTooSmallError, NonIntegralError, NotInSpanError
from .graph import GkmGraph
from .polyring import Polynomial, _normal
from .solver import GeneratorBasis

__all__ = [
    "poincare_series",
    "ordinary_reduction",
    "power_coefficient",
]


def poincare_series(graph: GkmGraph, degree: int) -> list[int]:
    """Free-module rank per cohomological degree ``2d`` for ``d <= degree``.

    Entry ``d`` counts the vertices of cell dimension ``2d`` (one
    generator per cell); all odd cohomological degrees have rank zero.
    """
    ranks = [0] * (degree + 1)
    for v in graph.vertices:
        d = v.cell_dim // 2
        if d <= degree:
            ranks[d] += 1
    return ranks


def ordinary_reduction(expansion: dict[str, Polynomial]) -> dict[str, int | Fraction]:
    """Set all torus variables to zero in an expansion's coefficients.

    This recovers the ordinary cohomology coefficients from equivariant
    ones (tensoring out the coefficient ring of a point): exact rationals,
    an ``int`` when integral and a ``Fraction`` otherwise.
    """
    return {vid: c.constant_term() for vid, c in expansion.items()}


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
    example.  It is summed over the chains of covers from the degree-2
    vertex to the degree-2n one, each weighted by the product of its
    chain constants ``c(v,u) = (f1(u) - f1(v)) * f_v(u) / f_u(u)`` (see the
    module docstring).

    Raises :class:`ValueError` for ``n < 1`` or when the vertex of cell
    dimension 2 or 2n is not unique, :class:`CutoffTooSmallError` when the
    basis or graph stops below degree ``n``, :class:`NotInSpanError` naming
    the vertex ``u`` where a constant fails its certificate, and in Z-mode
    :class:`NonIntegralError` for a constant that is not an integer.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    if basis.degree < n:
        raise CutoffTooSmallError(
            f"basis degree {basis.degree} is below the requested power {n}"
        )
    v1 = _unique_vertex_of_dim(graph, 2)
    vn = _unique_vertex_of_dim(graph, 2 * n)
    levels: dict[int, list[str]] = {}
    for w in graph.vertices:
        levels.setdefault(w.cell_dim, []).append(w.id)
    f1 = basis.generator(v1).values
    chain = {v1: 1}  # A[v] over the vertices v of one level
    for dim in range(4, 2 * n + 1, 2):
        step = {}
        for u in levels.get(dim, ()):
            fuu = basis.generator(u).values[u]
            a = 0
            for v, av in chain.items():
                fvu = basis.generator(v).values[u]
                if fvu.terms:
                    a += av * _chain_constant(v, u, (f1[u] - f1[v]) * fvu, fuu, basis.mode)
            if a:
                step[u] = a
        chain = step
    coeff = chain.get(vn, 0)
    return coeff if type(coeff) is int else _normal(coeff)


def _chain_constant(v: str, u: str, num: Polynomial, fuu: Polynomial, mode: str) -> int | Fraction:
    """``c`` with ``num = c * f_u(u)``: the ratio at one monomial, certified
    on every term."""
    if not num.terms:
        return 0
    e, a = next(iter(num.terms.items()))
    c = _normal(Fraction(a, fuu.terms[e])) if e in fuu.terms else None
    if c is None or num.terms != {x: c * y for x, y in fuu.terms.items()}:
        raise NotInSpanError(
            f"(f1({u!r}) - f1({v!r})) * f_{v}({u!r}) = {num} is not a constant multiple "
            f"of f_{u}({u!r}) = {fuu}; the basis is not canonical",
            vertex=u,
        )
    if mode == "Z" and type(c) is not int:
        raise NonIntegralError(
            f"chain constant from {v!r} to {u!r} is not integral: {c}",
            witness=c,
            vertex=u,
        )
    return c
