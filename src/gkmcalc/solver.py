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
coprime and their count exceeds the degree of ``f_v``.  Solving them so,
one vertex at a time with :func:`solve_congruences`, is *lifting*; a value
costs O(degree^2) exact divisions.

When the cutoff reaches the graph's top cell dimension, the generators
come instead from the equivariant Chevalley recursion (Kostant-Kumar;
Goldin-Tolman), one exact division per value:

* The recursion is driven by a degree-2 class ``Phi``, scaled to integer
  linear forms, made once per graph and kept on it, from one of two
  seeds.  The *position seed* is the moment map, read from the vertex
  positions when every vertex has one, no two share one (so ``D(w)``
  below is never 0), and across every edge the position difference is a
  multiple of the edge's label.  That last check makes ``Phi`` a class,
  which the certificates below rely on.  Graphs the builder module embeds
  pass, and then no congruence is solved.  Otherwise (no embedding, or positions that are missing or do
  not form a class) the *lifted seed* lifts the degree-1 generators and
  takes ``Phi = sum lambda_i f_i`` over them, ``lambda`` the primes from
  2 up.  ``Phi`` does not depend on the mode (its scale aside, it is the
  same class over Z and Q), so the lifted seed lifts in Q-mode, once per
  graph whatever the modes of later solves.  The seed supplies ``Phi``
  alone: the recursion solves every generator, degree 1 included.
* Generators are solved from the top dimension down.  For ``v`` write
  ``D(w) = Phi(w) - Phi(v)``.  The identity: ``D * f_v = g = sum c(v,u)
  f_u`` over the covers ``u`` of ``v`` (``cell_dim(u) = cell_dim(v) +
  2``) joined to it by ``beta``, with ``c(v,u) = t * k`` for ``D(u) = t *
  beta`` and ``k = prod alpha / prod alpha'`` on ``beta = 0``: the
  ``alpha`` are the down-weights of ``v``, the ``alpha'`` those of ``u``
  but ``beta``.  So every value above ``v`` is ``f_v(w) = g(w) / D(w)``,
  covers included: at a cover ``u`` only ``u``'s own term survives, which
  gives ``k * f_u(u) / beta``, and a cover not joined to ``v`` gets 0.
* The covers of a vertex and their ``c(v,u)`` depend on the graph and its
  ``Phi`` alone, so they form one Chevalley table on the graph, a row
  ``(u, edge, c)`` per cover, the rows of a vertex made on first use:
  the recursion fills it, and the power sums of :mod:`ring_ops` on the
  same graph read it back.  ``t`` comes from one slope rule, which also
  decides the position seed's class check, and ``k`` from a closed form.
  The ``c(v,u)`` are summed as they are, fractions included.  ``D(w)`` is
  kept as a bare integer tuple, with no ``Weight`` built per pair: it is
  divided through a plan made from the tuple, and its direction is read
  with the same gcd as a ``Weight``'s line.
* Each value is certified.  ``g`` and ``Phi`` are classes, so the weight
  ``alpha`` of a down-edge ``(w, x)`` divides ``D(w) * (f_v(w) -
  f_v(x))``, hence ``f_v(w) - f_v(x)`` unless ``alpha`` is parallel to
  ``D(w)``.  The recursion checks that ``D(w) != 0``, that every division
  leaves no remainder, the congruence across the down-edge parallel to
  ``D(w)`` where there is one (always ``(u, v)`` at a cover ``u``), and in
  Z-mode that every value is integral.  Values that pass meet every
  congruence above ``v``, so they are the lifting solution.
* When a check fails, the recursion is discarded and every generator is
  lifted, which returns the basis or raises the error naming the failing
  generator, vertex and witness.

Below the top, the recursion would need the generators above the cutoff,
so every generator is lifted.

The basis is triangular by cell dimension, so a class expands in it by a
triangular solve: each coefficient is the residual at its vertex divided
by the generator's own value there (:func:`expand_in_basis`).

Generators depend on the stored sign of the edge labels only through
condition 4, i.e. up to one overall sign each; graphs from the builder
module use positive-root representatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm, prod
from operator import sub

from .errors import (
    NoSolutionError,
    NonIntegralError,
    NotInSpanError,
)
from .graph import (
    CohClass,
    GkmGraph,
    _graph_text,
    _json_block,
    _json_of,
    _json_values,
    _known_keys,
    _require_valid,
    _same_vertices,
)
from .polyring import (
    Polynomial,
    _add_multiple,
    _add_product,
    _constant_terms,
    _count,
    _divide_exact,
    _divmod_plan,
    _divmod_weight,
    _line_of,
    _linear_coeffs,
    _normalize_mode,
    _plan_of,
    _primes,
    _quo,
    solve_congruences,
)

__all__ = [
    "GeneratorBasis",
    "canonical_generators",
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

    def dumps(self) -> str:
        """The basis file as ``json.dumps(indent=2)`` lays it out: the graph
        by the writer of ``GkmGraph.dumps``, then one block per generator in
        (cell_dim, id) order, with one ``"w": "value"`` line per vertex."""
        quote, graph = encode_basestring_ascii, self.graph
        keys = [quote(w) + ": " for w in graph.vertex_ids]
        gens = []
        for vid in graph.vertex_ids:  # in (cell_dim, id) order
            cls = self.generators.get(vid)
            if cls is not None:
                lines = [k + quote(str(cls.values[w])) for k, w in zip(keys, graph.vertex_ids)]
                gens.append(f"{quote(vid)}: {_json_block(lines, '    ', '{}')}")
        fields = [f'"degree": {int.__repr__(self.degree)}', f'"mode": {quote(self.mode)}']
        fields.append(f'"graph": {_graph_text(graph, "  ")}')
        fields.append(f'"generators": {_json_block(gens, "  ", "{}")}')
        return _json_block(fields, "", "{}") + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorBasis":
        """The basis of the file ``dumps`` writes, with generator conditions
        1-4 checked and every unknown key refused.  Each distinct value
        text is parsed once, and each distinct term text read once, through
        caches that live for this load only."""
        graph = GkmGraph.from_dict(_json_of(dict, data, "a basis")["graph"])
        degree = _count(data["degree"], "basis degree")
        mode = _normalize_mode(data.get("mode", graph.mode))
        generators = _json_of(dict, data["generators"], "basis generators")
        if len(data) != 3 + ("mode" in data):
            _known_keys(data, ("degree", "mode", "graph", "generators"), "a basis")
        if set(generators) != {v.id for v in graph.vertices if v.cell_dim <= 2 * degree}:
            raise ValueError(f"basis generators must be the vertices of cell dim <= {2 * degree}")
        # one immutable Polynomial per distinct text, most values being "0",
        # and one reading per distinct term text, for this load only
        polys: dict[str, Polynomial] = {}
        terms: dict = {}
        degrees: dict[int, set] = {}
        gens = {}
        for vid, values in generators.items():
            values = _json_values(values, graph, f"generator {vid!r}", polys, terms)
            broken = _broken_conditions(graph, vid, values, degrees)
            if broken:
                check = next(c for c in _CONDITIONS if c in broken)
                detail = _CONDITIONS[check].format(graph.vertex(vid).cell_dim // 2)
                raise ValueError(f"generator {vid!r} breaks condition {check} ({detail}; fails at {broken[check]!r})")
            gens[vid] = CohClass._make(values, graph.vertex(vid).cell_dim // 2)
        return cls(graph, degree, mode, gens)

    @classmethod
    def load(cls, path) -> "GeneratorBasis":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _down_weight_product(graph: GkmGraph, vid: str) -> Polynomial:
    """``f_vid(vid)``, the product of the down-edge weights at ``vid``, made
    where it is read: lifting, the recursion and the condition-4 check of a
    basis load each read it once per vertex.  Expansions do not read it:
    they divide by each generator's own ``f_v(v)``."""
    t = _constant_terms(1, graph.rank)
    for e in graph.down_edges(vid):
        t, q = {}, t
        _add_product(t, q, e.weight.to_polynomial().terms)
    return Polynomial._make(graph.rank, t)


def canonical_generators(graph: GkmGraph, degree: int, mode: str | None = None) -> GeneratorBasis:
    """Solve for every generator ``f_v`` with ``cell_dim(v)/2 <= degree``.

    When the cutoff reaches the graph's top cell dimension the generators
    come from the Chevalley recursion; otherwise, or when the recursion
    cannot certify a value, every generator is lifted vertex by vertex.

    The graph is validated first, unless :func:`validate` has already
    passed it (its verdict is stored on the graph).  Raises
    :class:`ValueError` unless ``degree`` is a non-negative ``int``,
    :class:`ValidationFailureError` with the full report on an invalid
    graph, on every call,
    :class:`NoSolutionError` (with the offending generator and vertex) when
    some congruence system is unsolvable, and in Z-mode
    :class:`NonIntegralError` with the generator, witness vertex and value.
    """
    _count(degree, "basis degree")
    mode = _normalize_mode(mode or graph.mode)
    _require_valid(graph)

    wanted = [v.id for v in graph.vertices if v.cell_dim <= 2 * degree]
    generators = None
    if len(wanted) == len(graph.vertices):  # the cutoff reaches the top
        generators = _chevalley(graph, mode)
    if generators is None:
        generators = {vid: _lift(graph, vid, mode) for vid in wanted}
    return GeneratorBasis(graph, degree, mode, generators)


def _lift(graph: GkmGraph, vid: str, mode: str) -> CohClass:
    """``f_vid``, its values above ``vid`` solved from the down-edge
    congruences vertex by vertex in canonical order."""
    dim = graph.vertex(vid).cell_dim
    d = dim // 2
    values: dict[str, Polynomial] = {}
    for w in graph.vertices:
        wid = w.id
        if w.cell_dim < dim or (w.cell_dim == dim and wid != vid):
            values[wid] = Polynomial.zero(graph.rank)
        elif wid == vid:
            values[wid] = _down_weight_product(graph, vid)
        else:
            constraints = [(e.weight, values[e.other(wid)]) for e in graph.down_edges(wid)]
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
    return CohClass(values, d)


def _phi_of(graph: GkmGraph) -> dict[str, tuple[int, ...]]:
    """The graph's ``Phi``, made once per graph on first use and kept on
    it: the position seed when the positions form a class, else the lifted
    seed.  The lifted seed's :class:`NoSolutionError` is raised by every
    call that meets it, and nothing is stored."""
    if graph._phi is None:
        graph._phi = _position_form(graph) or _moment_form(graph)
    return graph._phi


def _moment_form(graph: GkmGraph) -> dict[str, tuple[int, ...]]:
    """``Phi = sum lambda_i f_i`` over the degree-1 generators, lifted in
    Q-mode (``Phi`` does not depend on the mode), ``lambda`` the primes 2,
    3, 5, ... in canonical order, scaled to integers by the lcm of its
    denominators: per vertex, the coefficient vector of a linear form."""
    phi = {wid: [0] * graph.rank for wid in graph.vertex_ids}
    linear = (v.id for v in graph.vertices if v.cell_dim == 2)
    for lam, vid in zip(_primes(), linear):
        for wid, p in _lift(graph, vid, "Q").values.items():
            phi[wid] = [a + lam * c for a, c in zip(phi[wid], _linear_coeffs(p.terms, graph.rank))]
    den = lcm(*(c.denominator for row in phi.values() for c in row))
    return {wid: tuple(int(c * den) for c in row) for wid, row in phi.items()}


def _position_form(graph: GkmGraph) -> dict[str, tuple[int, ...]] | None:
    """The vertex positions as ``Phi``, scaled to integers by the lcm of
    their denominators, or None unless every vertex has a position, no two
    share one and the difference across every edge is a multiple of its
    label (nonzero, the positions being distinct)."""
    if any(v.position is None for v in graph.vertices):
        return None
    den = lcm(*(c.denominator for v in graph.vertices for c in v.position))
    phi = {v.id: tuple([c.numerator * (den // c.denominator) for c in v.position]) for v in graph.vertices}
    if len(set(phi.values())) < len(phi):
        return None
    for e in graph.edges:
        if _slope(phi[e.v], phi[e.u], e.weight) is None:
            return None
    return phi


def _chevalley(graph: GkmGraph, mode: str) -> dict[str, CohClass] | None:
    """Every generator by the Chevalley recursion, or None when a value
    fails its certificate or the lifted seed has no ``Phi`` (see the
    module docstring)."""
    nvars = graph.rank
    try:
        phi = _phi_of(graph)
    except NoSolutionError:  # lifting names the generator in the graph's mode
        return None
    values: dict[str, dict] = {}  # the nonzero values of each f_v as term dicts
    # down-edges by direction; no two at a vertex are parallel
    down = {v.id: {e.weight._line[1]: e for e in graph.down_edges(v.id)} for v in graph.vertices}
    for v in reversed(graph.vertices):
        values[v.id] = _chevalley_generator(graph, mode, v.id, phi, values, down)
        if values[v.id] is None:
            return None
    zero = Polynomial._make(nvars, {})
    return {
        v.id: CohClass(
            {w: Polynomial._make(nvars, values[v.id][w]) if w in values[v.id] else zero for w in graph.vertex_ids},
            v.cell_dim // 2,
        )
        for v in graph.vertices
    }


def _covers_of(graph, vid) -> tuple:
    """The row of ``vid`` in the graph's Chevalley table: ``(u, edge, c)``
    for each cover ``u`` of ``vid``, joined to it by ``edge``, with ``c =
    c(v,u) = t * k`` for the graph's ``Phi`` (a class, so ``t`` exists).
    The row is made once per graph, on first use, so the recursion and
    every later power sum on the graph share it.  An error of the lifted
    seed or of parallel down-edges is raised by every call that meets it,
    and nothing is stored for ``vid``."""
    covers = graph._covers.get(vid)
    if covers is None:
        phi, dim = _phi_of(graph), graph.vertex(vid).cell_dim + 2
        covers = graph._covers[vid] = tuple(
            (u, e, _slope(phi[u], phi[vid], e.weight) * _evaluate_cover(graph, vid, e))
            for e in graph.edges_at(vid)
            if graph.vertex(u := e.other(vid)).cell_dim == dim
        )
    return covers


def _slope(fu, fv, beta) -> int | Fraction | None:
    """``t`` with ``fu - fv = t * beta``, for linear forms given by their
    coefficient vectors, read at the pivot of ``beta``'s division plan; None
    when the difference is not a multiple of ``beta``."""
    j, bj = beta._plan[:2]
    t = _quo(fu[j] - fv[j], bj)
    return t if all(x - y == t * b for x, y, b in zip(fu, fv, beta.coeffs)) else None


def _evaluate_cover(graph, vid, edge) -> int | Fraction:
    """``k = prod alpha / prod alpha'`` across ``edge`` from ``v = vid`` up
    to its cover ``u``, in closed form.  On ``beta = 0`` a form ``a`` is
    ``(beta_j a - a_j beta) / beta_j`` (``beta_j`` the pivot of ``beta``'s
    division plan, its first nonzero entry), and both sides have as many
    forms on a valid graph, so ``beta_j`` cancels.  The restricted forms
    lack ``x_j``, and the ratio of their products is the constant ``k``, so
    it is the ratio of their lex-leading coefficients: the products of each
    restricted form's first nonzero entry.  An ``alpha'`` parallel to
    ``beta`` restricts to 0, and :class:`ValueError` names ``u``."""
    u, beta = edge.other(vid), edge.weight.coeffs
    j = edge.weight._plan[0]

    def lead(edges):
        return prod(
            next(filter(None, (beta[j] * x - e.weight.coeffs[j] * b for x, b in zip(e.weight.coeffs, beta))), 0)
            for e in edges
        )

    den = lead(e for e in graph.down_edges(u) if e is not edge)
    if not den:
        raise ValueError(f"down-edge weights at {u!r} are parallel: no cover constant from {vid!r}")
    return _quo(lead(graph.down_edges(vid)), den)


def _chevalley_generator(graph, mode, vid, phi, values, down) -> dict | None:
    """The nonzero values of ``f_vid``, from ``phi`` and the generators of
    the vertices above ``vid``, or None when one is not certified."""
    dim, phi_v = graph.vertex(vid).cell_dim, phi[vid]
    fv = {vid: _down_weight_product(graph, vid).terms}
    chev = [(values[u], c) for u, _, c in _covers_of(graph, vid) if c]  # (f_u, c(v,u)), c != 0
    for w in graph.vertices:
        if w.cell_dim <= dim:
            continue
        wid = w.id
        d = tuple(map(sub, phi[wid], phi_v))  # D(w), read as a bare integer form
        if not any(d):
            return None
        g: dict = {}  # sum c(v,u) f_u(w) = D(w) * f_v(w)
        for fu, c in chev:
            _add_multiple(g, fu.get(wid, {}), c)
        if g:
            fv[wid], rem = _divmod_plan(g, _plan_of(d))
            if rem:
                return None
        value = fv.get(wid, {})
        if mode == "Z" and any(type(a) is not int for a in value.values()):
            return None
        # the weight of a down-edge (w, x) divides D(w) * (f_v(w) - f_v(x));
        # only one parallel to D(w) leaves the difference to be checked
        e = down[wid].get(_line_of(d)[1])
        if e is not None:
            diff = dict(value)
            _add_multiple(diff, fv.get(e.other(wid), {}), -1)
            if _divmod_weight(diff, e.weight)[1]:
                return None
    return fv


# generator conditions 1-4 by check name, in order, with their details
_CONDITIONS = {
    "homogeneous": "every value homogeneous of degree {} or zero",
    "vanish_below": "zero on lower-dimensional vertices",
    "vanish_beside": "zero on other vertices of equal dimension",
    "diagonal_value": "f_v(v) is the product of down-edge weights",
}


def _broken_conditions(graph: GkmGraph, vid: str, values: dict, degrees: dict) -> dict[str, str]:
    """The conditions 1-4 that ``values`` breaks as ``f_vid``, each with
    the first vertex in canonical order that breaks it: one walk over the
    vertices, empty when every condition holds.  ``degrees`` holds the set
    of term degrees of each distinct nonzero value read so far, keyed by
    ``id`` (the values outlive it)."""
    dim = graph.vertex(vid).cell_dim
    want = {dim // 2}
    first: dict[str, str] = {}
    for w in graph.vertices:
        p = values[w.id]
        if p.terms:
            degs = degrees.get(id(p))
            if degs is None:
                degs = degrees[id(p)] = {sum(e) for e in p.terms}
            if degs != want:
                first.setdefault("homogeneous", w.id)
            if w.cell_dim <= dim and w.id != vid:
                first.setdefault("vanish_below" if w.cell_dim < dim else "vanish_beside", w.id)
    if values[vid] != _down_weight_product(graph, vid):
        first["diagonal_value"] = vid
    return first


def expand_in_basis(cls: CohClass, basis: GeneratorBasis) -> dict[str, Polynomial]:
    """Coefficients ``c_v`` with ``cls = sum c_v f_v``.

    The basis is triangular by cell dimension, so the expansion is a
    triangular solve over residual term dicts, one per nonzero value of
    ``cls`` and one made on the first subtraction into a vertex.  By
    increasing cell dimension, the coefficient at each vertex ``v`` is its
    residual divided by the generator's own ``f_v(v)`` (zero when the
    residual is empty); that clears the residual at ``v``, and ``c_v *
    f_v(w)`` is subtracted from the residual at each other ``w`` with
    ``f_v(w) != 0``.  A constant coefficient, as at every vertex whose
    degree is that of a homogeneous class, is found in one step by a
    certified ratio: ``k`` is read at one monomial of ``f_v(v)``, and
    ``c_v = k`` when the residual equals ``k * f_v(v)`` term by term; any
    other is one exact division.  When ``f_v(v)`` does not divide the
    residual, :class:`NotInSpanError` names the vertex and the first
    down-edge whose weight leaves a remainder, or the vertex alone when
    every weight divides it; a residual nonzero after the last vertex
    raises it with the vertex.  In Z-mode every coefficient must be
    integral.  A value of another rank, or at a vertex the basis graph
    lacks, raises :class:`ValueError`, and a missing one
    :class:`MissingVertexValueError`.  Inputs are left unchanged.  Every
    zero coefficient of one call is one shared zero polynomial, so only
    the nonzero ones are allocated.
    """
    graph, nvars, values = basis.graph, basis.graph.rank, cls.values
    residual = {}  # copies of the nonzero values; cls.value raises for a missing one
    for vid in graph.vertex_ids:
        p = values.get(vid) or cls.value(vid)
        if p.terms:
            if p.nvars != nvars:
                raise ValueError("polynomials live in different rings")
            residual[vid] = dict(p.terms)
    if len(values) != len(graph.vertex_ids):  # a value at no vertex
        _same_vertices(graph, values, "class")
    coeffs: dict[str, Polynomial] = {}
    zero = Polynomial._make(nvars, {})
    for vid in graph.vertex_ids:
        gen = basis.generators.get(vid)
        if gen is None:
            continue
        c = residual.pop(vid, None)  # c_v * f_v(v) clears it
        if not c:
            coeffs[vid] = zero
            continue
        diag = gen.values[vid].terms
        e0 = next(iter(diag), None)
        k = _quo(c[e0], diag[e0]) if e0 in c else 0
        constant = k and c == {x: k * a for x, a in diag.items()}
        if constant:
            c = _constant_terms(k, nvars)
        else:
            q = _divide_exact(c, diag) if diag else None
            if q is None:  # name the first down-edge weight that leaves a remainder
                edge = next((e for e in graph.down_edges(vid) if _divmod_weight(c, e.weight)[1]), None)
                raise NotInSpanError(
                    f"residual at {vid!r} is not divisible by {'its down-edge weights' if edge else 'f_v(v)'}; "
                    "the class is not in the span of the basis within the cutoff",
                    vertex=vid,
                    edge=edge,
                )
            c = q
        coeff = coeffs[vid] = Polynomial._make(nvars, c)
        if basis.mode == "Z" and not coeff.is_integral():
            raise NonIntegralError(
                f"expansion coefficient at {vid!r} is not integral: {coeff}",
                witness=coeff,
                vertex=vid,
            )
        for wid, p in gen.values.items():
            value = p.terms
            if not value or wid == vid:
                continue
            res = residual.setdefault(wid, {})
            if constant:
                _add_multiple(res, value, -k)
            else:
                _add_product(res, value, c, -1)
    for vid in graph.vertex_ids:
        if residual.get(vid):
            raise NotInSpanError(
                f"nonzero residual {Polynomial._make(nvars, residual[vid])} at {vid!r} "
                "after expansion; increase the degree cutoff or check the class",
                vertex=vid,
            )
    return coeffs
