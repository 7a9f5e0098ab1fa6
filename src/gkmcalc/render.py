"""Deterministic DOT and SVG emission, including bouquet views of generators.

A generator restriction that factors as (scalar) * (product of weights) is
drawn as a bouquet of arrows at its vertex, one arrow per weight factor,
with the scalar printed beside it; vertices where the generator vanishes
get no arrows.  Restrictions that do not factor fall back to raw
polynomial text with a warning marker.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .errors import NotDivisibleError, NotFactorableError
from .graph import GkmGraph
from .polyring import Polynomial, Weight, divide_by_weight

__all__ = ["factor_restriction", "bouquet_text", "to_dot", "to_svg"]


def factor_restriction(graph: GkmGraph, vid: str, value: Polynomial):
    """Write ``value`` as (rational scalar, list of weight factors).

    Factors are pulled out greedily: first the down-edge weights at the
    vertex, then any other incident edge weight, each as often as it
    divides.  One pass over the candidates suffices, since a weight that
    does not divide a polynomial divides none of its quotients.  Raises
    :class:`NotFactorableError` when a non-constant residual remains.
    """
    if value.is_zero():
        return Fraction(0), []
    candidates = [e.weight for e in graph.down_edges(vid)]
    candidates += [e.weight for e in graph.edges_at(vid) if e.weight not in candidates]
    factors: list[Weight] = []
    current = value
    for w in candidates:
        while current.degree() > 0:
            try:
                current = divide_by_weight(current, w)
            except NotDivisibleError:
                break
            factors.append(w)
    if current.degree() > 0:
        raise NotFactorableError(f"restriction {value} at {vid!r} is not an elementary tensor")
    return current.constant_term(), factors


def bouquet_text(graph: GkmGraph, vid: str, value: Polynomial) -> str:
    """One-line bouquet description, falling back to raw text."""
    try:
        scalar, factors = factor_restriction(graph, vid, value)
    except NotFactorableError:
        return f"!{value}"
    if scalar == 0:
        return "0"
    parts = [] if scalar == 1 and factors else [str(scalar)]
    parts += [f"({w})" for w in factors]
    return "*".join(parts)


def _xml_text(text: str) -> str:
    """``text`` as XML character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _dot_text(text: str) -> str:
    """``text`` inside a DOT double-quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _layout(graph: GkmGraph) -> dict[str, tuple[float, float]]:
    """2D coordinates: stored positions projected to (first, last) slots,
    else layered by cell dimension.  A coordinate beyond a float's range
    raises :class:`ValueError` naming the vertex."""
    pos = {}
    if all(v.position is not None for v in graph.vertices) and graph.rank >= 1:
        for v in graph.vertices:
            try:
                x = float(v.position[0])
                y = float(v.position[-1]) if graph.rank >= 2 else 0.0
            except OverflowError:
                raise ValueError(f"render: the position of {v.id!r} is beyond a float's range") from None
            pos[v.id] = (x, y)
        return pos
    by_dim: dict[int, list[str]] = {}
    for v in graph.vertices:
        by_dim.setdefault(v.cell_dim, []).append(v.id)
    for dim in sorted(by_dim):
        row = by_dim[dim]
        try:
            y = float(dim // 2)
        except OverflowError:
            raise ValueError(f"render: the cell_dim of {row[0]!r} is beyond a float's range") from None
        for i, vid in enumerate(row):
            pos[vid] = (float(i - (len(row) - 1) / 2), y)
    return pos


def _weight_direction(w: Weight, rank: int) -> tuple[float, float]:
    x = float(w.coeffs[0])
    y = float(w.coeffs[-1]) if rank >= 2 else 0.0
    norm = (x * x + y * y) ** 0.5
    if norm == 0.0:
        return (1.0, 0.0)
    return (x / norm, y / norm)


def _edge_labels(graph: GkmGraph) -> list[str]:
    """The label text of each edge, as its interned weight stores it: each
    distinct label is formatted once per process."""
    return [e.weight._text for e in graph.edges]


def to_dot(graph: GkmGraph, basis=None, vertex: str | None = None) -> str:
    """Graphviz text; with a basis and vertex, node labels carry the
    factored restrictions of that generator."""
    cls = basis.generator(vertex) if basis is not None and vertex is not None else None
    pos = _layout(graph)
    ids = {vid: _dot_text(vid) for vid in graph.vertex_ids}
    lines = ["graph gkm {", "  node [shape=circle fontsize=10];"]
    for v in graph.vertices:
        x, y = pos[v.id]
        label = _dot_text(v.label) if v.label else ids[v.id]
        if cls is not None:
            label += "\\n" + bouquet_text(graph, v.id, cls.values[v.id])
        lines.append(f'  "{ids[v.id]}" [label="{label}" pos="{x:.3f},{y:.3f}!"];')
    for e, text in zip(graph.edges, _edge_labels(graph)):
        lines.append(f'  "{ids[e.u]}" -- "{ids[e.v]}" [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_svg(graph: GkmGraph, basis=None, vertex: str | None = None) -> str:
    """SVG of the layout scaled to a 480-pixel square; with a basis and
    vertex, each vertex carries the bouquet of that generator.  A layout
    whose span is beyond a float's range, though every coordinate fits one,
    raises :class:`ValueError` naming the span (scaling it gave ``nan``)."""
    cls = basis.generator(vertex) if basis is not None and vertex is not None else None
    pos = _layout(graph)
    xs = [p[0] for p in pos.values()] or [0.0]
    ys = [p[1] for p in pos.values()] or [0.0]
    pad = 1.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    if x1 - x0 == inf or y1 - y0 == inf:
        raise ValueError(
            f"render: the layout spans ({min(xs)!r}, {min(ys)!r}) to ({max(xs)!r}, {max(ys)!r}),"
            " beyond a float's range"
        )
    size = 480.0
    sx = size / (x1 - x0) if x1 > x0 else 1.0
    sy = size / (y1 - y0) if y1 > y0 else 1.0
    s = min(sx, sy)

    def tx(p):
        return ((p[0] - x0) * s, size - (p[1] - y0) * s)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        "<defs><marker id=\"arrow\" markerWidth=\"8\" markerHeight=\"8\" refX=\"6\" refY=\"3\" "
        "orient=\"auto\"><path d=\"M0,0 L6,3 L0,6 z\"/></marker></defs>",
    ]
    screen = {vid: tx(p) for vid, p in pos.items()}
    # each vertex's coordinates as line-start and line-end attribute text
    ends = {
        vid: (f'x1="{x:.2f}" y1="{y:.2f}"', f'x2="{x:.2f}" y2="{y:.2f}"') for vid, (x, y) in screen.items()
    }
    for e, text in zip(graph.edges, _edge_labels(graph)):
        ax, ay = screen[e.u]
        bx, by = screen[e.v]
        out.append(f'<line {ends[e.u][0]} {ends[e.v][1]} stroke="gray" stroke-width="1"/>')
        mx, my = (ax + bx) / 2, (ay + by) / 2
        out.append(f'<text x="{mx:.2f}" y="{my:.2f}" font-size="9" fill="gray">{text}</text>')
    arrow_len = 0.35 * s
    for v in graph.vertices:
        cx, cy = screen[v.id]
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="black"/>')
        name = _xml_text(v.label or v.id)
        out.append(f'<text x="{cx + 6:.2f}" y="{cy - 6:.2f}" font-size="10">{name}</text>')
        if cls is None:
            continue
        value = cls.values[v.id]
        if value.is_zero():
            continue
        try:
            scalar, factors = factor_restriction(graph, v.id, value)
            for w in factors:
                dx, dy = _weight_direction(w, graph.rank)
                ex, ey = cx + dx * arrow_len, cy - dy * arrow_len
                out.append(
                    f'<line x1="{cx:.2f}" y1="{cy:.2f}" x2="{ex:.2f}" y2="{ey:.2f}" '
                    'stroke="black" stroke-width="1.2" marker-end="url(#arrow)"/>'
                )
            if scalar != 1:
                out.append(
                    f'<text x="{cx + 6:.2f}" y="{cy + 12:.2f}" font-size="10">{scalar}</text>'
                )
        except NotFactorableError:
            out.append(
                f'<text x="{cx + 6:.2f}" y="{cy + 12:.2f}" font-size="10">!{value}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
