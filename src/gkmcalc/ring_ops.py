"""Ring-level computations: products, ranks, and divided-powers checks."""

from __future__ import annotations

from fractions import Fraction

from .errors import CutoffTooSmallError
from .graph import GkmGraph
from .polyring import Polynomial
from .solver import GeneratorBasis, expand_in_basis

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
    example.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    if basis.degree < n:
        raise CutoffTooSmallError(
            f"basis degree {basis.degree} is below the requested power {n}"
        )
    v1 = _unique_vertex_of_dim(graph, 2)
    vn = _unique_vertex_of_dim(graph, 2 * n)
    f1 = basis.generator(v1)
    power = f1
    for _ in range(n - 1):
        power = power * f1
    coeffs = expand_in_basis(power, basis)
    return ordinary_reduction(coeffs)[vn]
