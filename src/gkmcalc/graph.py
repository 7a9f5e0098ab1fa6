"""The decorated graph model and graph-cohomology membership testing.

A :class:`GkmGraph` is a finite graph whose vertices carry even cell
dimensions and whose edges carry nonzero integer weights.  A cohomology
class assigns a polynomial to every vertex; it belongs to the graph
cohomology when the difference across every edge is divisible by that
edge's weight.

Vertices and edges are checked ``NamedTuple`` records: ``Vertex(...)`` and
``Edge(...)`` refuse a bad position entry, a self-loop and the zero weight.
The graph reader and the builder make those checks themselves and build the
records unchecked, with ``tuple.__new__(Vertex, fields)`` and
``tuple.__new__(Edge, fields)``, so each check runs once per path and no
Python-level constructor (``_make`` is one) runs per record.  A
:class:`GkmGraph` makes its incidence and down-edge tables only when they
are first read.

JSON interchange schema (canonical ordering: vertices by (cell_dim, id),
edges by endpoint pair; round-trips are byte-stable)::

    {"rank": k, "mode": "Z"|"Q",
     "vertices": [{"id": str, "cell_dim": int, "position"?: [rationals],
                   "label"?: str}, ...],
     "edges": [{"from": str, "to": str, "weight": [ints]}, ...]}

Rational position entries are serialized as strings like ``"3/2"``.  On
load a position entry must be an integer or a string that
:class:`fractions.Fraction` parses (``"3/2"``, ``"-4"``); floats, booleans
and other types are rejected rather than coerced.  A key outside this
schema is refused, so a misspelt optional key is never dropped, and so is
an id or label with a character that XML 1.0 cannot hold (SVG output
could not carry it).
Edge weights are stored with an arbitrary sign representative; every
consumer uses them only through divisibility or products that are fixed
by the builders' positive-root convention.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple

from .errors import MissingVertexValueError, NotDivisibleError, ValidationFailureError
from .polyring import Polynomial, Weight, _add_multiple, _add_product, _coeff, _normalize_mode
from .polyring import divide_by_weight, parse_polynomial

# outside the Char production of XML 1.0
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

_INT = frozenset((int,))  # the one type of a weight entry read from JSON

__all__ = [
    "Vertex",
    "Edge",
    "GkmGraph",
    "CohClass",
    "ValidationEntry",
    "ValidationReport",
    "GkmMembership",
    "validate",
    "is_gkm_class",
]


def _replace_checked(self, /, **changes):
    """A copy with ``changes``, made by the checked constructor, where the
    ``NamedTuple`` ``_replace`` (and ``copy.replace``) would go through the
    unchecked ``_make``."""
    out = type(self)(*map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return out


class Vertex(
    NamedTuple(
        "Vertex",
        [("id", str), ("cell_dim", int), ("position", tuple[Fraction, ...] | None), ("label", str | None)],
    )
):
    """A fixed point: its id, cell dimension, optional position (one
    ``Fraction`` per torus coordinate) and optional display label.

    A checked ``NamedTuple``: ``Vertex(...)`` and ``_replace`` refuse a
    position entry that is not an ``int`` or ``Fraction`` (``bool`` and
    ``float`` included) and store the position as a tuple of ``Fraction``.
    ``tuple.__new__(Vertex, fields)`` skips that check; only the graph
    reader and the builder make vertices that way, after making the same
    check themselves, so each check runs once per path.  A vertex compares
    equal to, and hashes as, the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, id: str, cell_dim: int, position: tuple | None = None, label: str | None = None):
        if position is not None:
            pos = tuple(position)
            for p in pos:
                if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
                    raise ValueError(f"position of {id!r} has entry {p!r}; entries must be int or Fraction")
            position = tuple(p if type(p) is Fraction else Fraction(p) for p in pos)
        return tuple.__new__(cls, (id, cell_dim, position, label))

    _replace = __replace__ = _replace_checked  # __replace__: copy.replace, Python 3.13+


class Edge(NamedTuple("Edge", [("u", str), ("v", str), ("weight", Weight)])):
    """An edge between two distinct vertices, labelled by a nonzero weight.

    A checked ``NamedTuple``: ``Edge(...)`` and ``_replace`` refuse equal
    endpoints and the zero weight.  ``tuple.__new__(Edge, fields)`` skips
    those checks; only the graph reader, the builder and the graph
    constructor (reversing an edge it was given) make edges that way,
    after making the same checks, so each check runs once per path.  An
    edge compares equal to, and hashes as, the plain tuple
    ``(u, v, weight)``.
    """

    __slots__ = ()

    def __new__(cls, u: str, v: str, weight: Weight):
        if u == v:
            raise ValueError(f"edge endpoints must be distinct, got {u!r} twice")
        if weight.is_zero():
            raise ValueError(f"edge ({u}, {v}) has zero weight")
        return tuple.__new__(cls, (u, v, weight))

    _replace = __replace__ = _replace_checked  # __replace__: copy.replace, Python 3.13+

    def other(self, vid: str) -> str:
        if vid == self.u:
            return self.v
        if vid == self.v:
            return self.u
        raise ValueError(f"{vid!r} is not an endpoint of this edge")

    def key(self) -> tuple[str, str]:
        return (self.u, self.v)


def _json_int(value, what: str) -> int:
    """An integer read from JSON; floats, strings and booleans are rejected,
    never truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _count(value, what: str) -> int:
    """A non-negative integer, checked as by ``_json_int``."""
    if _json_int(value, what) < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    return value


def _size(value, what: str) -> int:
    """A count that sizes a list or tuple, checked as by ``_count`` and
    below ``sys.maxsize``, so that ``value + 1`` items still have an
    index: ``10**30`` is refused naming ``what``, where it would end in an
    ``OverflowError``.  Below the bound a list of ``value`` items is still
    asked for."""
    if _count(value, what) >= sys.maxsize:
        raise ValueError(f"{what} must be below {sys.maxsize}, got {value}")
    return value


def _json_of(kind: type, value, what: str):
    """``value`` read from JSON, whose type must be exactly ``kind``
    (``dict``, ``list`` or ``str``); nothing is coerced."""
    if type(value) is not kind:
        name = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ValueError(f"{what} must be {name}, got {reprlib.repr(value)}")
    return value


def _known_keys(data: dict, keys: tuple[str, ...], what: str):
    """Refuse an object read from JSON with a key other than ``keys``,
    naming it, so that a misspelt optional key is not dropped.  Readers
    call it only when the object holds more keys than they read, which
    costs one ``len`` per object."""
    stray = data.keys() - set(keys)
    if stray:
        raise ValueError(f"{what} has unknown key {min(stray)!r}; the known keys are {', '.join(keys)}")


def _json_values(values, graph: "GkmGraph", what: str, texts: dict, terms: dict) -> dict[str, Polynomial]:
    """A class's values read from JSON, an object of polynomial strings
    keyed by exactly the vertex ids of ``graph``; each distinct text is
    parsed once, into ``texts``, and each distinct term text read once, into
    ``terms`` (``parse_polynomial``'s cache).  Both live for one load."""
    if type(values) is not dict:
        raise ValueError(f"{what} must map vertex ids to polynomial strings, got a {type(values).__name__}")
    _same_vertices(graph, values, what)
    out = {}
    for w, t in values.items():
        if type(t) is not str:
            raise ValueError(f"{what} has value {t!r} at vertex {w!r}, not a polynomial string")
        p = texts.get(t)
        if p is None:
            p = texts[t] = parse_polynomial(t, graph.rank, terms)
        out[w] = p
    return out


def _same_vertices(graph: "GkmGraph", values: dict, what: str):
    """Refuse ``values`` read from JSON unless its keys are exactly the
    graph's vertex ids, naming the first stray or missing vertex."""
    stray = values.keys() - graph.vertex_ids
    if stray:
        raise ValueError(f"{what} has a value at {min(stray)!r}, which is not a vertex")
    missing = next((w for w in graph.vertex_ids if w not in values), None)
    if missing is not None:
        raise ValueError(f"{what} has no value at vertex {missing!r}")


def _json_position(value, vid: str, fracs: dict) -> tuple[Fraction, ...]:
    """A position read from JSON: a list of ints and strings that
    ``Fraction`` parses.  Each distinct entry is parsed once, into
    ``fracs``; its type is checked before the lookup, since ``True`` and
    ``1.0`` equal ``1`` as dict keys."""
    out = []
    for p in _json_of(list, value, f"position of {vid!r}"):
        if type(p) is not int and type(p) is not str:
            raise ValueError(
                f"position of {vid!r} has entry {p!r}; entries must be integers or strings like '3/2'"
            )
        f = fracs.get(p)
        if f is None:
            try:
                f = fracs[p] = Fraction(p)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"position of {vid!r} has entry {p!r}, which is not a rational") from None
        out.append(f)
    return tuple(out)


def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON list (or, with ``brackets="{}"``, object) of already written
    ``items`` at indentation ``pad``, laid out as ``json.dumps(indent=2)``
    lays it out."""
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _graph_text(graph: "GkmGraph", pad: str = "") -> str:
    """The graph file as ``json.dumps(indent=2)`` lays it out at ``pad``, one
    vertex and one edge block at a time from the graph's tuples, each vertex
    id quoted once and each distinct weight's text formatted once;
    ``int.__repr__`` refuses floats."""
    quote = encode_basestring_ascii
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    ids = {v.id: quote(v.id) for v in graph.vertices}
    verts = []
    for v in graph.vertices:
        fields = [f'"id": {ids[v.id]}', f'"cell_dim": {int.__repr__(v.cell_dim)}']
        if v.position is not None:
            fields.append('"position": ' + _json_block([f'"{p}"' for p in v.position], p3))
        if v.label is not None:
            fields.append(f'"label": {quote(v.label)}')
        verts.append(_json_block(fields, p2, "{}"))
    weight = cache(lambda coeffs: _json_block(list(map(int.__repr__, coeffs)), p3))
    edges = [
        f'{{\n{p3}"from": {ids[e.u]},\n{p3}"to": {ids[e.v]},\n{p3}"weight": {weight(e.weight.coeffs)}'
        f"\n{p2}}}"
        for e in graph.edges
    ]
    fields = [f'"rank": {int.__repr__(graph.rank)}', f'"mode": {quote(graph.mode)}']
    fields += [f'"vertices": {_json_block(verts, p1)}', f'"edges": {_json_block(edges, p1)}']
    return _json_block(fields, pad, "{}")


def _vertex_key(v: Vertex) -> tuple[int, str]:
    return (v.cell_dim, v.id)


class GkmGraph:
    """Immutable decorated graph with a torus rank and coefficient mode.

    The constructor checks and orders the vertices and edges and builds no
    other table.  The incidence table, which ``edges_at`` and
    ``is_connected`` read, and the down-edge table, which ``down_edges``
    and :func:`validate` read, are each made on first read and kept: a
    graph that is only written or rendered makes neither.
    """

    def __init__(self, rank: int, mode: str, vertices, edges):
        mode = _normalize_mode(mode)
        vs = sorted(vertices, key=_vertex_key)
        index: dict[str, Vertex] = {}
        at: dict[str, int] = {}  # id -> place in (cell_dim, id) order
        for n, v in enumerate(vs):
            if v.id in index:
                raise ValueError(f"duplicate vertex id {v.id!r}")
            if v.position is not None and len(v.position) != rank:
                raise ValueError(f"position of {v.id!r} has length != rank {rank}")
            index[v.id] = v
            at[v.id] = n
        # edges run from the endpoint earlier in (cell_dim, id) order; one
        # given the other way round is the only one rebuilt, unchecked, as
        # reversing keeps its endpoints distinct and its weight nonzero
        new = tuple.__new__
        norm_edges = []
        for e in edges:
            a, b = at.get(e.u), at.get(e.v)
            if a is None or b is None:
                raise ValueError(f"edge ({e.u}, {e.v}) references a missing vertex")
            if len(e.weight.coeffs) != rank:
                raise ValueError(f"edge ({e.u}, {e.v}) weight has rank != {rank}")
            if b < a:
                e = new(Edge, (e.v, e.u, e.weight))
            norm_edges.append(e)
        norm_edges.sort(key=attrgetter("u", "v", "weight.coeffs"))
        self._rank = rank
        self._mode = mode
        self._index = index
        self._vertices = tuple(vs)
        self._vertex_ids = tuple(at)
        self._edges = tuple(norm_edges)
        # facts derived from the immutable graph alone: whether it passed
        # ``validate``, the solver's ``Phi`` and its Chevalley and diagonal
        # tables by vertex
        self._valid = False
        self._phi = None
        self._covers: dict = {}
        self._diagonals: dict = {}

    @cached_property
    def _incidence(self) -> dict[str, tuple[Edge, ...]]:
        """Each vertex's edges, in edge order; made on first read."""
        inc: dict[str, list[Edge]] = {vid: [] for vid in self._vertex_ids}
        for e in self._edges:
            inc[e.u].append(e)
            inc[e.v].append(e)
        return {vid: tuple(es) for vid, es in inc.items()}

    @cached_property
    def _down(self) -> dict[str, tuple[Edge, ...]]:
        """Each vertex's down-edges, in edge order: the edges whose other
        end has a smaller cell dimension; made on first read."""
        dims = {v.id: v.cell_dim for v in self._vertices}
        down: dict[str, list[Edge]] = {vid: [] for vid in self._vertex_ids}
        for e in self._edges:
            u, v = e.u, e.v
            if dims[u] < dims[v]:
                down[v].append(e)
        return {vid: tuple(es) for vid, es in down.items()}

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return self._vertex_ids

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def vertex(self, vid: str) -> Vertex:
        return self._index[vid]

    def edges_at(self, vid: str) -> tuple[Edge, ...]:
        return self._incidence[vid]

    def down_edges(self, vid: str) -> tuple[Edge, ...]:
        return self._down[vid]

    def is_connected(self) -> bool:
        ids = self.vertex_ids
        if len(ids) <= 1:
            return True
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            vid = stack.pop()
            for e in self._incidence[vid]:
                o = e.other(vid)
                if o not in seen:
                    seen.add(o)
                    stack.append(o)
        return len(seen) == len(ids)

    def induced(self, ids) -> "GkmGraph":
        keep = set(ids)
        vs = [v for v in self.vertices if v.id in keep]
        es = [e for e in self._edges if e.u in keep and e.v in keep]
        return GkmGraph(self._rank, self._mode, vs, es)

    def with_positions(self, positions: dict[str, tuple]) -> "GkmGraph":
        vs = [Vertex(v.id, v.cell_dim, positions.get(v.id, v.position), v.label) for v in self.vertices]
        return GkmGraph(self._rank, self._mode, vs, self._edges)

    def __eq__(self, other):
        if not isinstance(other, GkmGraph):
            return NotImplemented
        return (
            self._rank == other._rank
            and self._mode == other._mode
            and self.vertices == other.vertices
            and self._edges == other._edges
        )

    def __repr__(self):
        return f"GkmGraph(rank={self._rank}, mode={self._mode}, |V|={len(self._index)}, |E|={len(self._edges)})"

    # -- JSON interchange ---------------------------------------------------

    def dumps(self) -> str:
        """The graph's JSON file, written by ``_graph_text`` (the standard
        library runs ``json.dumps(indent=2)`` in its slow pure-Python
        encoder); ``GeneratorBasis.dumps`` writes its ``"graph"`` with it."""
        return _graph_text(self) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_dict(cls, data: dict) -> "GkmGraph":
        """The graph of the file ``dumps`` writes, every field checked and
        every unknown key refused.  Vertices and edges are made with
        ``tuple.__new__``: the reader makes the checks of ``Vertex`` and
        ``Edge`` itself, a zero label once per distinct label, with their
        messages."""
        _json_of(dict, data, "a graph")
        rank = _size(data["rank"], "rank")
        if len(data) != 3 + ("mode" in data):
            _known_keys(data, ("rank", "mode", "vertices", "edges"), "a graph")
        fracs: dict[int | str, Fraction] = {}
        new = tuple.__new__
        vs = []
        for vd in _json_of(list, data["vertices"], "graph vertices"):
            if type(vd) is not dict or type(vd.get("id")) is not str:
                raise ValueError(f"a vertex must be an object with a string id, got {reprlib.repr(vd)}")
            vid, pos, label = vd["id"], vd.get("position"), vd.get("label")
            if len(vd) != 2 + (pos is not None) + (label is not None):  # null counts as absent
                _known_keys(vd, ("id", "cell_dim", "position", "label"), f"vertex {vid!r}")
            if label is not None:
                _json_of(str, label, f"label of {vid!r}")
            bad = _NOT_XML_CHAR.search(vid) or label is not None and _NOT_XML_CHAR.search(label)
            if bad:
                raise ValueError(
                    f"vertex {vid!r}: id and label cannot hold {bad.group()!r} (not an XML character)"
                )
            cell_dim = _json_int(vd["cell_dim"], f"cell_dim of {vid!r}")
            position = _json_position(pos, vid, fracs) if pos is not None else None
            vs.append(new(Vertex, (vid, cell_dim, position, label)))
        # one Weight per distinct label, refused once if zero; entries are
        # type-checked before the lookup, since (True, 0) and (1.0, 0) equal
        # (1, 0) as dict keys
        weights: dict[tuple[int, ...], Weight] = {}
        es = []
        for ed in _json_of(list, data["edges"], "graph edges"):
            if type(ed) is not dict or type(ed.get("from")) is not str or type(ed.get("to")) is not str:
                raise ValueError(f"an edge must be an object with string endpoints, got {reprlib.repr(ed)}")
            u, v, coeffs = ed["from"], ed["to"], ed["weight"]
            if len(ed) != 3:
                _known_keys(ed, ("from", "to", "weight"), f"edge ({u}, {v})")
            if type(coeffs) is not list or not coeffs or not _INT.issuperset(map(type, coeffs)):
                raise ValueError(
                    f"weight of edge ({u}, {v}) must be an integer vector, got {coeffs!r}"
                )
            if u == v:
                raise ValueError(f"edge endpoints must be distinct, got {u!r} twice")
            coeffs = tuple(coeffs)
            weight = weights.get(coeffs)
            if weight is None:
                if not any(coeffs):
                    raise ValueError(f"edge ({u}, {v}) has zero weight")
                weight = weights[coeffs] = Weight(coeffs)
            es.append(new(Edge, (u, v, weight)))
        return cls(rank, data.get("mode", "Z"), vs, es)

    @classmethod
    def loads(cls, text: str) -> "GkmGraph":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "GkmGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _ring(p: Polynomial, q: Polynomial) -> int:
    """The rank that ``p`` and ``q`` share, or :class:`ValueError`."""
    if p.nvars != q.nvars:
        raise ValueError("polynomials live in different rings")
    return p.nvars


@dataclass
class CohClass:
    """An assignment of a polynomial to each vertex.

    When ``degree`` is set, every value must be homogeneous of that degree
    (the zero polynomial counts for every degree).

    Sums and products work on the nonzero values only: at a vertex where an
    operand is zero, the result takes that zero value (or, in a sum, the
    other operand's value) without arithmetic, so values are shared between
    classes; polynomials are immutable, which makes this safe.  Products by
    a class, an ``int`` or a ``Fraction``, and sums, call the term-dict
    kernels of :mod:`polyring` with the checks of the ``Polynomial``
    operators: values of different rank raise :class:`ValueError`, a
    ``bool`` scalar :class:`TypeError`.  A sum keeps a shared ``degree``, a
    product of classes adds two set degrees, and a product by an ``int`` or
    ``Fraction`` (zero gives zero values) keeps ``degree``; one by a
    polynomial drops it.
    """

    values: dict[str, Polynomial]
    degree: int | None = None

    def __post_init__(self):
        if self.degree is not None:
            for vid, p in self.values.items():
                if p.terms and not p.is_homogeneous(self.degree):
                    raise ValueError(
                        f"value at {vid!r} is not homogeneous of degree {self.degree}"
                    )

    @classmethod
    def _make(cls, values: dict[str, Polynomial], degree: int | None) -> "CohClass":
        """Unchecked constructor for sums, products and restrictions, whose
        values are homogeneous of ``degree`` by construction."""
        out = cls.__new__(cls)
        out.values, out.degree = values, degree
        return out

    def value(self, vid: str) -> Polynomial:
        try:
            return self.values[vid]
        except KeyError:
            raise MissingVertexValueError(f"class has no value at vertex {vid!r}") from None

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.values.values())

    def __add__(self, other: "CohClass") -> "CohClass":
        if self.values.keys() != other.values.keys():
            raise ValueError("classes are defined on different vertex sets")
        deg = self.degree if self.degree == other.degree else None
        values = {}
        for v, p in self.values.items():
            q = other.values[v]
            if p.terms and q.terms:
                n, t = _ring(p, q), dict(p.terms)
                _add_multiple(t, q.terms, 1)
                values[v] = Polynomial._make(n, t)
            else:
                values[v] = p if p.terms else q
        return CohClass._make(values, deg)

    def __mul__(self, other):
        if isinstance(other, CohClass):
            if self.values.keys() != other.values.keys():
                raise ValueError("classes are defined on different vertex sets")
            deg = (
                self.degree + other.degree
                if self.degree is not None and other.degree is not None
                else None
            )
            values = {}
            for v, p in self.values.items():
                q = other.values[v]
                if p.terms and q.terms:
                    n, t = _ring(p, q), {}
                    _add_product(t, p.terms, q.terms)
                    values[v] = Polynomial._make(n, t)
                else:
                    values[v] = q if p.terms else p
            return CohClass._make(values, deg)
        if isinstance(other, Polynomial):
            return CohClass._make({v: p * other if p.terms else p for v, p in self.values.items()}, None)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        k, values = _coeff(other), {}
        for v, p in self.values.items():
            if p.terms:
                t = {}
                if k:
                    _add_multiple(t, p.terms, k)
                p = Polynomial._make(p.nvars, t)
            values[v] = p
        return CohClass._make(values, self.degree)

    @classmethod
    def from_dict(cls, data: dict, graph: GkmGraph) -> "CohClass":
        """A class on ``graph`` read from ``{"values": {vertex id: polynomial
        string}, "degree"?: int}``, with a value at every vertex and no other."""
        degree = _json_of(dict, data, "a class").get("degree")
        if degree is not None:
            _json_int(degree, "class degree")
        if len(data) != 1 + (degree is not None):
            _known_keys(data, ("values", "degree"), "a class")
        return cls(_json_values(data["values"], graph, "class", {}, {}), degree)


class ValidationEntry(NamedTuple):
    vertex: str | None
    check: str
    ok: bool
    detail: str


class ValidationReport:
    """The checks of a validation and their outcomes.

    A report of :func:`validate` holds the graph and the failures its walk
    recorded: ``ok`` and ``bool`` read those alone.  Its ``entries``, which
    ``failures``, ``failing_checks`` and ``format_text`` read, are written
    from the graph and that record when first read, passing checks
    included, and kept.  Any other report is given its entries.
    """

    def __init__(self, entries=None, graph=None, failed=None):
        self._graph, self._failed = graph, failed
        if graph is None:
            self.entries = [] if entries is None else entries

    @cached_property
    def entries(self) -> list[ValidationEntry]:
        return _entries(self._graph, self._failed)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries) if self._graph is None else not self._failed

    def failures(self) -> list[ValidationEntry]:
        return [e for e in self.entries if not e.ok]

    def failing_checks(self) -> set[str]:
        return {e.check for e in self.failures()}

    def format_text(self) -> str:
        lines = []
        for e in self.entries:
            where = e.vertex if e.vertex is not None else "-"
            lines.append(f"[{'ok' if e.ok else 'FAIL'}] {e.check:<18} {where:<12} {e.detail}")
        lines.append(f"overall: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)

    def __bool__(self):
        return self.ok


def validate(graph: GkmGraph) -> ValidationReport:
    """Check the cell-complex rules the solver relies on.

    Per vertex: even cell dimension, down-edge count equal to half the
    cell dimension, and pairwise coprime down-edge weights (with
    primitivity as a separate entry in Z-mode).  Per edge: no edge may
    join vertices of equal cell dimension.  Globally: one bottom vertex
    and a connected graph.  Failures are reported, never raised.

    One walk over the vertices, reading the graph's down-edge table,
    decides the checks and writes no text: it records only the failures,
    each keyed by its check and its vertex or edge, with the numbers its
    detail needs.  Connectivity is implied, and not walked, when every
    cell dimension is even and non-negative, every vertex has its
    ``dim / 2`` down-edges and exactly one vertex has cell dimension 0:
    each down-edge drops the cell dimension, so every vertex descends to
    that bottom vertex.  Otherwise :meth:`GkmGraph.is_connected` walks the
    graph, reading its incidence table.  The report's ``ok`` reads the
    record, and its entries are written from it on first read.  Whether
    the graph passed is stored on it as ``_valid``: the graph is
    immutable, so :func:`_require_valid` trusts a stored pass, and a graph
    made from it by ``induced`` or ``with_positions`` starts with none.
    """
    failed = {}
    z, bottoms, downs, descends = graph.mode == "Z", 0, 0, True
    table = graph._down
    for v in graph.vertices:
        vid, dim = v.id, v.cell_dim
        if dim < 0 or dim % 2:
            failed["even_cell_dim", vid] = None
            descends = False
            continue
        bottoms += not dim
        down = table[vid]
        downs += len(down)
        if len(down) != dim // 2:
            failed["down_edge_count", vid] = len(down)
            descends = False
        if down:
            # each weight's stored (content, direction); Edge refuses the
            # zero weight and the constructor a weight of another rank, so
            # pairwise_coprime's re-checks are not needed here
            contents, directions = zip(*[e.weight._line for e in down])
            if len(set(directions)) != len(down):
                failed["coprimality", vid] = None
            if z and contents.count(1) != len(down):
                failed["primitivity", vid] = [e.weight for e, c in zip(down, contents) if c != 1]
    # an edge is a down-edge of at most one vertex, and of none when it
    # joins equal dims; so when every edge is one, none joins equal dims
    if downs != len(graph.edges):
        dims = {v.id: v.cell_dim for v in graph.vertices}
        for e in graph.edges:
            if dims[e.u] == dims[e.v]:
                failed["equal_dim_edge", (e.u, e.v)] = None
    if graph.vertex_ids:
        if bottoms != 1:
            failed["bottom_vertex", None] = bottoms
        # every vertex descends to a bottom vertex: one makes it connected
        implied = descends and bottoms == 1
        if not implied and not graph.is_connected():
            failed["connectivity", None] = None
    graph._valid = not failed
    return ValidationReport(graph=graph, failed=failed)


def _entries(graph: GkmGraph, failed: dict) -> list[ValidationEntry]:
    """The entries of :func:`validate`'s report on ``graph``, in its check
    order; an entry is ok unless ``failed`` records it, and a count that
    ``failed`` does not hold is the one the check wants."""
    out = []
    add = out.append
    for v in graph.vertices:
        vid, dim = v.id, v.cell_dim
        if ("even_cell_dim", vid) in failed:
            add(ValidationEntry(vid, "even_cell_dim", False, f"cell_dim {dim} is not even and non-negative"))
            continue
        add(ValidationEntry(vid, "even_cell_dim", True, f"cell_dim {dim}"))
        n, ok = failed.get(("down_edge_count", vid), dim // 2), ("down_edge_count", vid) not in failed
        add(ValidationEntry(vid, "down_edge_count", ok, f"{n} down-edges, expected {dim // 2}"))
        if n:
            ok = ("coprimality", vid) not in failed
            detail = "down-edge weights pairwise non-collinear" if ok else "collinear down-edge weights"
            add(ValidationEntry(vid, "coprimality", ok, detail))
            if graph.mode == "Z":
                bad = failed.get(("primitivity", vid))
                detail = f"imprimitive: {', '.join(map(str, bad))}" if bad else "all down-edge weights primitive"
                add(ValidationEntry(vid, "primitivity", not bad, detail))
    dims = {v.id: v.cell_dim for v in graph.vertices}
    for e in graph.edges:
        ok = ("equal_dim_edge", (e.u, e.v)) not in failed
        add(ValidationEntry(None, "equal_dim_edge", ok, f"edge ({e.u}, {e.v}) joins dims {dims[e.u]} and {dims[e.v]}"))
    if graph.vertex_ids:
        n, ok = failed.get(("bottom_vertex", None), 1), ("bottom_vertex", None) not in failed
        add(ValidationEntry(None, "bottom_vertex", ok, f"{n} vertices of cell_dim 0"))
        ok = ("connectivity", None) not in failed
        add(ValidationEntry(None, "connectivity", ok, "graph connected" if ok else "graph disconnected"))
    return out


def _require_valid(graph: GkmGraph):
    """Raise :class:`ValidationFailureError` with the full report unless
    ``graph`` passes :func:`validate`; a pass that ``validate`` has stored
    on the graph skips the checks, a stored failure does not."""
    if not graph._valid:
        report = validate(graph)
        if not report.ok:
            raise ValidationFailureError(report)


@dataclass
class GkmMembership:
    ok: bool
    witnesses: dict[tuple[str, str], Polynomial]
    failing_edge: Edge | None = None

    def __bool__(self):
        return self.ok


def is_gkm_class(graph: GkmGraph, cls: CohClass) -> GkmMembership:
    """Membership test with certificate.

    True when across every edge ``(p, q)`` the difference ``f(p) - f(q)``
    is exactly divisible by the edge weight; the certificate maps each
    edge to the witness quotient, or records the first failing edge.
    """
    for vid in graph.vertex_ids:
        if vid not in cls.values:
            raise MissingVertexValueError(f"class has no value at vertex {vid!r}")
    witnesses: dict[tuple[str, str], Polynomial] = {}
    for e in graph.edges:
        diff = cls.values[e.u] - cls.values[e.v]
        try:
            witnesses[e.key()] = divide_by_weight(diff, e.weight)
        except NotDivisibleError:
            return GkmMembership(False, witnesses, failing_edge=e)
    return GkmMembership(True, witnesses)
