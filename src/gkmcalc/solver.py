"""Canonical module generators of the graph cohomology.

For a validated graph there is one generator ``f_v`` per vertex ``v``,
uniquely characterized by four conditions:

1. ``f_v`` is homogeneous of polynomial degree ``cell_dim(v) / 2``;
2. ``f_v(w) = 0`` when ``cell_dim(w) < cell_dim(v)``;
3. ``f_v(w) = 0`` when ``cell_dim(w) = cell_dim(v)`` and ``w != v``;
4. ``f_v(v)`` is the product of the down-edge weights at ``v``.

Values above ``v`` are forced: processing vertices ``w`` by increasing
cell dimension, ``f_v(w)`` is the unique homogeneous solution of the
congruences ``f_v(w) == f_v(u) (mod weight)`` over the down-edges
``(w, u)`` -- unique because the down-edge weights at ``w`` are pairwise
coprime and their count exceeds the degree of ``f_v``.  Within one
dimension the processing order is irrelevant (constraints only reach
strictly lower vertices); it is fixed to the canonical vertex order for
reproducible logs.

Generators depend on the stored sign of the edge labels only through
condition 4, i.e. up to one overall sign each; graphs from the builder
module use positive-root representatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import add

from .errors import (
    NoSolutionError,
    NonIntegralError,
    NotInSpanError,
    ValidationFailureError,
)
from .graph import (
    CohClass,
    GkmGraph,
    ValidationEntry,
    ValidationReport,
    _json_int,
    _json_text,
    is_gkm_class,
    validate,
)
from .polyring import (
    Polynomial,
    _divmod_weight,
    _normal,
    _normalize_mode,
    parse_polynomial,
    solve_congruences,
)

__all__ = [
    "GeneratorBasis",
    "canonical_generators",
    "verify_generator_conditions",
    "expand_in_basis",
]


@dataclass
class GeneratorBasis:
    """The canonical generators of a graph, up to a degree cutoff."""

    graph: GkmGraph
    degree: int
    mode: str
    generators: dict[str, CohClass]

    def generator(self, vid: str) -> CohClass:
        if vid not in self.generators:
            raise ValueError(f"no generator {vid!r} in the basis of degree {self.degree}")
        return self.generators[vid]

    def items(self):
        return self.generators.items()

    def to_dict(self) -> dict:
        gens = {}
        for vid in sorted(self.generators, key=lambda v: (self.graph.vertex(v).cell_dim, v)):
            cls = self.generators[vid]
            gens[vid] = {w: str(cls.values[w]) for w in self.graph.vertex_ids}
        return {
            "degree": self.degree,
            "mode": self.mode,
            "graph": self.graph.to_dict(),
            "generators": gens,
        }

    def dumps(self) -> str:
        return _json_text(self.to_dict()) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorBasis":
        graph = GkmGraph.from_dict(data["graph"])
        degree = _check_degree(data["degree"])
        mode = _normalize_mode(data.get("mode", graph.mode))
        generators = data["generators"]
        if type(generators) is not dict:
            raise ValueError("basis generators must be an object of generators")
        if set(generators) != {v.id for v in graph.vertices if v.cell_dim <= 2 * degree}:
            raise ValueError(f"basis generators must be the vertices of cell dim <= {2 * degree}")
        vertex_ids = set(graph.vertex_ids)
        gens = {}
        for vid, values in generators.items():
            if type(values) is not dict:
                raise ValueError(
                    f"generator {vid!r} must map vertex ids to polynomial strings, got a {type(values).__name__}"
                )
            bad = next((w for w, t in values.items() if type(t) is not str), None)
            if bad is not None:
                raise ValueError(
                    f"generator {vid!r} has value {values[bad]!r} at vertex {bad!r}, not a polynomial string"
                )
            stray = set(values) - vertex_ids
            if stray:
                raise ValueError(
                    f"generator {vid!r} has a value at {min(stray)!r}, which is not a vertex"
                )
            missing = next((w for w in graph.vertex_ids if w not in values), None)
            if missing is not None:
                raise ValueError(f"generator {vid!r} has no value at vertex {missing!r}")
            parsed = {w: parse_polynomial(t, graph.rank) for w, t in values.items()}
            gens[vid] = CohClass(parsed, graph.vertex(vid).cell_dim // 2)
        return cls(graph, degree, mode, gens)

    @classmethod
    def load(cls, path) -> "GeneratorBasis":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _check_degree(degree) -> int:
    if _json_int(degree, "basis degree") < 0:
        raise ValueError(f"basis degree must be non-negative, got {degree}")
    return degree


def _down_weight_product(graph: GkmGraph, vid: str) -> Polynomial:
    prod = Polynomial.one(graph.rank)
    for e in graph.down_edges(vid):
        prod = prod * e.weight.to_polynomial()
    return prod


def canonical_generators(graph: GkmGraph, degree: int, mode: str | None = None) -> GeneratorBasis:
    """Solve for every generator ``f_v`` with ``cell_dim(v)/2 <= degree``.

    Raises :class:`ValueError` unless ``degree`` is a non-negative ``int``,
    :class:`ValidationFailureError` on an invalid graph,
    :class:`NoSolutionError` (with the offending generator and vertex) when
    some congruence system is unsolvable, and in Z-mode
    :class:`NonIntegralError` with the generator, witness vertex and value.
    """
    _check_degree(degree)
    mode = _normalize_mode(mode or graph.mode)
    report = validate(graph)
    if not report.ok:
        raise ValidationFailureError(report)

    order = graph.vertex_ids  # canonical: by (cell_dim, id)
    dims = {vid: graph.vertex(vid).cell_dim for vid in order}
    generators: dict[str, CohClass] = {}
    for vid in order:
        d = dims[vid] // 2
        if d > degree:
            continue
        values: dict[str, Polynomial] = {}
        for wid in order:
            if dims[wid] < dims[vid] or (dims[wid] == dims[vid] and wid != vid):
                values[wid] = Polynomial.zero(graph.rank)
            elif wid == vid:
                values[wid] = _down_weight_product(graph, vid)
            else:
                constraints = [
                    (e.weight, values[e.other(wid)]) for e in graph.down_edges(wid)
                ]
                try:
                    values[wid] = solve_congruences(constraints, d, mode)
                except NoSolutionError:
                    raise NoSolutionError(
                        f"no value for generator {vid!r} at vertex {wid!r}: "
                        "the decorated graph is not realizable as a cell complex",
                        vertex=wid,
                        generator=vid,
                    ) from None
                except NonIntegralError as err:
                    raise NonIntegralError(
                        f"generator {vid!r} is not integral at vertex {wid!r}: {err.witness}",
                        witness=err.witness,
                        vertex=wid,
                        generator=vid,
                    ) from None
        generators[vid] = CohClass(values, d)
    return GeneratorBasis(graph, degree, mode, generators)


def verify_generator_conditions(basis: GeneratorBasis) -> ValidationReport:
    """Re-check conditions 1-4 and GKM membership for every generator."""
    graph = basis.graph
    rep = ValidationReport()
    add = rep.entries.append
    for vid, cls in basis.items():
        dim = graph.vertex(vid).cell_dim
        d = dim // 2
        ok1 = all(p.is_homogeneous(d) for p in cls.values.values())
        add(ValidationEntry(vid, "homogeneous", ok1, f"every value homogeneous of degree {d} or zero"))
        zero = {w: p.is_zero() for w, p in cls.values.items()}
        ok2 = all(zero[w.id] for w in graph.vertices if w.cell_dim < dim)
        add(ValidationEntry(vid, "vanish_below", ok2, "zero on lower-dimensional vertices"))
        ok3 = all(zero[w.id] for w in graph.vertices if w.cell_dim == dim and w.id != vid)
        add(ValidationEntry(vid, "vanish_beside", ok3, "zero on other vertices of equal dimension"))
        ok4 = cls.values[vid] == _down_weight_product(graph, vid)
        add(ValidationEntry(vid, "diagonal_value", ok4, "f_v(v) is the product of down-edge weights"))
        okg = bool(is_gkm_class(graph, cls))
        add(ValidationEntry(vid, "gkm_membership", okg, "divisibility across every edge"))
    return rep


def expand_in_basis(cls: CohClass, basis: GeneratorBasis) -> dict[str, Polynomial]:
    """Coefficients ``c_v`` with ``cls = sum c_v f_v``.

    Greedy by increasing cell dimension over one residual term dict per
    vertex, copied from ``cls`` once.  At each vertex the residual is divided
    by its down-edge weights one at a time, giving ``c_v`` (zero when the
    residual is empty); then ``c_v * f_v(w)`` is subtracted in place from the
    residual at each ``w`` with ``f_v(w) != 0``, one term pair at a time.  A
    residual that a down-edge weight does not divide, or nonzero after the
    last vertex, raises :class:`NotInSpanError` with the vertex (and edge).
    In Z-mode every coefficient must be integral.  Inputs are left unchanged.
    """
    graph, nvars = basis.graph, basis.graph.rank
    residual = {vid: dict(cls.value(vid).terms) for vid in graph.vertex_ids}
    coeffs: dict[str, Polynomial] = {}
    for vid in graph.vertex_ids:
        gen = basis.generators.get(vid)
        if gen is None:
            continue
        c = residual[vid]
        if not c:
            coeffs[vid] = Polynomial._make(nvars, {})
            continue
        for e in graph.down_edges(vid):
            c, rem = _divmod_weight(c, e.weight)
            if rem:
                raise NotInSpanError(
                    f"residual at {vid!r} is not divisible by its down-edge weights; "
                    "the class is not in the span of the basis within the cutoff",
                    vertex=vid,
                    edge=e,
                )
        # with no down-edges c is still the residual, which the loop below changes
        coeff = coeffs[vid] = Polynomial._make(nvars, dict(c) if c is residual[vid] else c)
        if basis.mode == "Z" and not coeff.is_integral():
            raise NonIntegralError(
                f"expansion coefficient at {vid!r} is not integral: {coeff}",
                witness=coeff,
                vertex=vid,
            )
        for wid in graph.vertex_ids:
            value = gen.values[wid].terms
            if not value:  # most generator values are zero
                continue
            res = residual[wid]
            for e1, c1 in coeff.terms.items():
                for e2, c2 in value.items():
                    t = tuple(map(add, e1, e2))
                    s = res.get(t, 0) - c1 * c2
                    if not s:
                        del res[t]  # c1 * c2 != 0, so t was present
                    else:
                        res[t] = s if type(s) is int else _normal(s)
    for vid in graph.vertex_ids:
        if residual[vid]:
            raise NotInSpanError(
                f"nonzero residual {Polynomial._make(nvars, residual[vid])} at {vid!r} "
                "after expansion; increase the degree cutoff or check the class",
                vertex=vid,
            )
    return coeffs
