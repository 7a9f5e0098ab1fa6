"""Graph model, validation, membership, skeleta, and JSON round-trips."""

import hashlib
import json
import math
import random
import re
import sys
from dataclasses import make_dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkmcalc.graph as graph_module
from gkmcalc.builders import affine_type_a, build_flag_graph, build_preset, type_a
from gkmcalc.coxeter import GCM
from gkmcalc.errors import MissingVertexValueError
from gkmcalc.graph import (
    CohClass,
    Edge,
    GkmGraph,
    Vertex,
    is_gkm_class,
    validate,
)
from gkmcalc.polyring import Polynomial, Weight, monomials
from gkmcalc.render import to_svg
from gkmcalc.solver import canonical_generators

FIXTURES = Path(__file__).parent / "fixtures"

X = Polynomial.variable(0, 2)
Y = Polynomial.variable(1, 2)


def sphere_graph():
    """Two fixed points joined by one edge of weight x1, over a rank-2 torus."""
    return GkmGraph(
        2,
        "Z",
        [Vertex("n", 0), Vertex("s", 2)],
        [Edge("n", "s", Weight((1, 0)))],
    )


def test_edge_invariants():
    with pytest.raises(ValueError):
        Edge("a", "a", Weight((1, 0)))
    with pytest.raises(ValueError):
        Edge("a", "b", Weight((0, 0)))


def test_sphere_validates():
    assert validate(sphere_graph()).ok


def test_collinear_down_weights_fail():
    g = GkmGraph(
        2,
        "Z",
        [Vertex("e", 0), Vertex("a", 2), Vertex("t", 4)],
        [
            Edge("e", "a", Weight((0, 1))),
            Edge("e", "t", Weight((1, 0))),
            Edge("a", "t", Weight((2, 0))),
        ],
    )
    rep = validate(g)
    assert not rep.ok and "coprimality" in rep.failing_checks()


def test_builder_graph_validates():
    assert validate(build_preset("A2-flag")).ok


@pytest.mark.parametrize(
    "name, check",
    [
        ("odd_cell", "even_cell_dim"),
        ("collinear_weights", "coprimality"),
        ("wrong_down_count", "down_edge_count"),
        ("two_components", "connectivity"),
    ],
)
def test_corrupted_fixtures(name, check):
    rep = validate(GkmGraph.load(FIXTURES / f"{name}.json"))
    assert not rep.ok
    assert check in rep.failing_checks()
    # the report carries a readable line for the failure
    assert any(check in line and "FAIL" in line for line in rep.format_text().splitlines())


def test_disconnected_and_multi_bottom_fail():
    g = GkmGraph(2, "Z", [Vertex("a", 0), Vertex("b", 0)], [])
    rep = validate(g)
    assert {"bottom_vertex", "connectivity"} <= rep.failing_checks()


def test_empty_graph_validates():
    assert validate(GkmGraph(2, "Z", [], [])).ok


def test_constant_class_is_gkm():
    g = sphere_graph()
    cls = CohClass({"n": Polynomial.constant(5, 2), "s": Polynomial.constant(5, 2)})
    assert is_gkm_class(g, cls).ok


def test_sphere_membership_examples():
    g = sphere_graph()
    good = CohClass({"n": Polynomial.zero(2), "s": X})
    res = is_gkm_class(g, good)
    assert res.ok and res.witnesses[("n", "s")] == -Polynomial.one(2)
    bad = CohClass({"n": Polynomial.zero(2), "s": Y})
    res = is_gkm_class(g, bad)
    assert not res.ok and res.failing_edge.key() == ("n", "s")


def test_membership_requires_all_vertices():
    with pytest.raises(MissingVertexValueError):
        is_gkm_class(sphere_graph(), CohClass({"n": X}))


def test_solver_output_rechecked_independently():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    for _, cls in basis.items():
        assert is_gkm_class(g, cls).ok


def skeleton(graph, k):
    """The k-skeleton: the induced subgraph on the vertices of cell dimension at most ``2k``."""
    return graph.induced(v.id for v in graph.vertices if v.cell_dim <= 2 * k)


def is_relative_class(graph, cls, k):
    """True when the class vanishes on every vertex of the k-skeleton."""
    return all(cls.value(v.id).is_zero() for v in graph.vertices if v.cell_dim <= 2 * k)


def restrict(cls, ids):
    """The class with its values at ``ids`` alone, of the same degree."""
    keep = set(ids)
    return CohClass._make({v: p for v, p in cls.values.items() if v in keep}, cls.degree)


def test_skeleton_examples():
    g = build_preset("A2-flag")
    bottom = skeleton(g, 0)
    assert [v.id for v in bottom.vertices] == ["e"] and not bottom.edges
    one = skeleton(g, 1)
    assert len(one.vertices) == 3 and len(one.edges) == 2
    assert sorted(str(e.weight) for e in one.edges) == ["x1", "x2"]
    assert skeleton(g, 99) == g


def test_skeleton_idempotence():
    g = build_preset("omega-su2", 4)
    for k in range(5):
        for j in range(5):
            assert skeleton(skeleton(g, k), j) == skeleton(g, min(j, k))


def test_skeleton_of_valid_graph_is_valid():
    g = build_preset("A2-flag")
    for k in range(4):
        assert validate(skeleton(g, k)).ok


def test_relative_class_examples():
    g = build_preset("A2-flag")
    zero = CohClass({v.id: Polynomial.zero(2) for v in g.vertices})
    assert is_relative_class(g, zero, 3)
    one = CohClass({v.id: Polynomial.one(2) for v in g.vertices})
    assert not is_relative_class(g, one, 0)
    basis = canonical_generators(g, 3)
    for vid, cls in basis.items():
        d = g.vertex(vid).cell_dim // 2
        if d > 0:
            assert is_relative_class(g, cls, d - 1)


def test_gkm_classes_closed_under_ring_ops():
    g = build_preset("A2-flag")
    basis = canonical_generators(g, 3)
    rng = random.Random(11)
    gens = [cls for _, cls in basis.items()]
    for _ in range(20):
        f = rng.choice(gens)
        h = rng.choice(gens)
        coeff = Polynomial(2, {(1, 0): rng.randrange(-3, 4), (0, 1): rng.randrange(-3, 4)})
        combo = CohClass({v: f.values[v] * coeff + h.values[v] for v in f.values})
        assert is_gkm_class(g, combo).ok
        prod = CohClass({v: f.values[v] * h.values[v] for v in f.values})
        assert is_gkm_class(g, prod).ok


def test_restriction_to_skeleton_stays_gkm():
    g = build_preset("omega-su2", 4)
    basis = canonical_generators(g, 4)
    sub = skeleton(g, 2)
    for _, cls in basis.items():
        assert is_gkm_class(sub, restrict(cls, sub.vertex_ids)).ok


def test_json_round_trip_byte_stable():
    g = build_preset("omega-su2", 3)
    text = g.dumps()
    again = GkmGraph.loads(text)
    assert again == g and again.dumps() == text


def test_json_canonical_ordering_independent_of_input_order():
    g = sphere_graph()
    shuffled = GkmGraph(
        2,
        "Z",
        [Vertex("s", 2), Vertex("n", 0)],
        [Edge("s", "n", Weight((1, 0)))],
    )
    assert shuffled.dumps() == g.dumps()


def test_json_schema_keys(tmp_path):
    g = build_preset("A2-flag")
    path = tmp_path / "g.json"
    g.save(path)
    data = json.loads(path.read_text())
    assert set(data) == {"rank", "mode", "vertices", "edges"}
    assert set(data["edges"][0]) == {"from", "to", "weight"}
    assert GkmGraph.load(path) == g


@pytest.mark.parametrize(
    "field, value",
    [
        ("weight", [1.5, 0]),
        ("weight", ["1", 0]),
        ("weight", 5),
        ("weight", None),
        ("weight", "1,0"),
        ("cell_dim", 2.0),
        ("cell_dim", True),
    ],
)
def test_from_dict_rejects_non_integers(field, value):
    data = {
        "rank": 2,
        "mode": "Z",
        "vertices": [{"id": "n", "cell_dim": 0}, {"id": "s", "cell_dim": 2}],
        "edges": [{"from": "n", "to": "s", "weight": [1, 0]}],
    }
    if field == "weight":
        data["edges"][0]["weight"] = value
    else:
        data["vertices"][1]["cell_dim"] = value
    with pytest.raises(ValueError, match="must be an integer"):
        GkmGraph.from_dict(data)


def _b2_flag_data():
    data = json.loads(build_preset("B2-flag").dumps())
    return data, data["vertices"][1]["id"]


@pytest.mark.parametrize("entry", [0.1, True, None, [1], "1/0", "x", "1/2/3"])
def test_from_dict_rejects_bad_position_entries(entry):
    # a float or bool is rejected, not coerced; a string Fraction cannot
    # parse (a zero denominator included) is a ValueError, not a traceback
    data, vid = _b2_flag_data()
    data["vertices"][1]["position"][0] = entry
    with pytest.raises(ValueError, match=re.escape(f"position of {vid!r}")):
        GkmGraph.from_dict(data)


@pytest.mark.parametrize("label", [1.5, True, 7, [0.5], {"a": "b"}])
def test_from_dict_rejects_label_that_is_not_a_string(label):
    data, vid = _b2_flag_data()
    data["vertices"][1]["label"] = label
    with pytest.raises(ValueError, match=re.escape(f"label of {vid!r} must be a string")):
        GkmGraph.from_dict(data)


@pytest.mark.parametrize("field", ["id", "label"])
@pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"])
def test_from_dict_rejects_ids_and_labels_xml_cannot_hold(field, char):
    # refused, not replaced: SVG output could not carry these characters
    data, vid = _b2_flag_data()
    data["vertices"][1][field] = "a" + char + "b"
    name = "a" + char + "b" if field == "id" else vid
    with pytest.raises(ValueError, match=re.escape(f"vertex {name!r}: id and label cannot hold {char!r}")):
        GkmGraph.from_dict(data)


def test_from_dict_rejects_position_that_is_not_a_list():
    data, vid = _b2_flag_data()
    data["vertices"][1]["position"] = "12"
    with pytest.raises(ValueError, match=re.escape(f"position of {vid!r} must be a list")):
        GkmGraph.from_dict(data)


@pytest.mark.parametrize(
    "bad",
    [(0.5, 1), (0.1, 1), (True, 2), ("1", "2"), (Fraction(1, 2), 1.0)],
    ids=["float", "inexact-float", "bool", "str", "fraction-and-float"],
)
def test_vertex_position_entries_must_be_int_or_fraction(bad):
    # floats, bools and strings are refused rather than coerced, also when
    # positions are replaced on a built graph
    with pytest.raises(ValueError, match=re.escape("position of 'a' has entry")):
        Vertex("a", 0, bad)
    g = build_preset("A2-flag")
    with pytest.raises(ValueError, match=re.escape("position of '0' has entry")):
        g.with_positions({"0": bad})
    v = Vertex("a", 0, (3, Fraction(1, 2)))
    assert v.position == (Fraction(3), Fraction(1, 2))
    assert all(type(p) is Fraction for p in v.position)


def test_from_dict_position_entries_are_ints_or_rational_strings():
    data = {
        "rank": 2,
        "vertices": [
            {"id": "n", "cell_dim": 0, "position": [-4, "3/2"]},
            {"id": "s", "cell_dim": 2, "position": ["-4", "6/4"]},
        ],
        "edges": [{"from": "n", "to": "s", "weight": [1, 0]}],
    }
    g = GkmGraph.from_dict(data)
    assert g.vertex("n").position == g.vertex("s").position == (Fraction(-4), Fraction(3, 2))
    assert all(type(p) is Fraction for p in g.vertex("n").position)


@pytest.mark.parametrize("twin", [[True, 0], [1.0, 0]])
def test_from_dict_checks_weights_before_sharing_them(twin):
    # (True, 0) and (1.0, 0) equal (1, 0) as dict keys, so a lookup among
    # the labels seen so far must not let them through
    data = {
        "rank": 2,
        "vertices": [{"id": "n", "cell_dim": 0}, {"id": "s", "cell_dim": 2}, {"id": "t", "cell_dim": 2}],
        "edges": [
            {"from": "n", "to": "s", "weight": [1, 0]},
            {"from": "n", "to": "t", "weight": twin},
        ],
    }
    with pytest.raises(ValueError, match=re.escape("weight of edge (n, t)")):
        GkmGraph.from_dict(data)


@pytest.mark.parametrize("weight", [[], [1, "0"], [1, None], [[1], 0], "10", None, {"0": 1}])
def test_from_dict_refuses_a_weight_that_is_not_an_integer_vector(weight):
    # the empty list included: it is refused as no vector, not as the zero weight
    data = {
        "rank": 2,
        "vertices": [{"id": "n", "cell_dim": 0}, {"id": "s", "cell_dim": 2}],
        "edges": [{"from": "n", "to": "s", "weight": weight}],
    }
    message = f"weight of edge (n, s) must be an integer vector, got {weight!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        GkmGraph.from_dict(data)


def test_from_dict_shares_one_weight_per_label():
    g = GkmGraph.loads(build_preset("omega-su2", 6).dumps())
    distinct = {e.weight.coeffs for e in g.edges}
    assert len(distinct) < len(g.edges)
    assert len({id(e.weight) for e in g.edges}) == len(distinct)


def test_builder_edges_are_made_once(monkeypatch):
    # the builder makes each vertex and edge once, unchecked, with
    # tuple.__new__ (a call the profiler sees), and never through the
    # checked Edge.__new__ or the Python-level Edge._make
    made, checked = [], []
    new = Edge.__new__
    monkeypatch.setattr(Edge, "__new__", lambda cls, *fields: checked.append(new(cls, *fields)) or checked[-1])
    monkeypatch.setattr(Edge, "_make", classmethod(lambda cls, fields: checked.append(fields)))

    def profile(frame, event, arg):
        if event == "c_call" and arg is tuple.__new__:
            made.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        g = build_preset("B2-flag")
    finally:
        sys.setprofile(None)
    assert len(made) == len(g.vertices) + len(g.edges) and not checked
    assert g.edges and all(type(e) is Edge for e in g.edges)


def _dataclass_edge_post_init(self):
    if self.u == self.v:
        raise ValueError(f"edge endpoints must be distinct, got {self.u!r} twice")
    if self.weight.is_zero():
        raise ValueError(f"edge ({self.u}, {self.v}) has zero weight")


def _dataclass_vertex_post_init(self):
    if self.position is not None:
        pos = tuple(self.position)
        for p in pos:
            if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
                raise ValueError(f"position of {self.id!r} has entry {p!r}; entries must be int or Fraction")
        object.__setattr__(self, "position", tuple(p if type(p) is Fraction else Fraction(p) for p in pos))


# the frozen dataclasses that Edge and Vertex were, as the reference for
# equality, hashing, repr and the constructors' refusals
_DataclassEdge = make_dataclass(
    "Edge",
    [("u", str), ("v", str), ("weight", Weight)],
    frozen=True,
    namespace={"__post_init__": _dataclass_edge_post_init},
)
_DataclassVertex = make_dataclass(
    "Vertex",
    [("id", str), ("cell_dim", int), ("position", object, None), ("label", object, None)],
    frozen=True,
    namespace={"__post_init__": _dataclass_vertex_post_init},
)

_IDS = st.sampled_from(["a", "b", "é'\\"])
_EDGE_FIELDS = st.tuples(_IDS, _IDS, st.builds(Weight, st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
_POSITION_ENTRIES = st.integers(-2, 2) | st.fractions(max_denominator=3) | st.booleans() | st.sampled_from([0.5, 1.0])
_VERTEX_FIELDS = st.tuples(
    _IDS, st.integers(0, 4), st.none() | st.lists(_POSITION_ENTRIES, max_size=2).map(tuple), st.none() | _IDS
)


def _outcome(make):
    """What ``make()`` gives: the record's class name, fields, ``repr`` and
    ``hash``, or the message of the ``ValueError`` it raises."""
    try:
        rec = make()
    except ValueError as err:
        return str(err)
    fields = tuple(getattr(rec, f) for f in rec.__match_args__)
    return type(rec).__qualname__, fields, repr(rec), hash(rec)


@settings(deadline=None, max_examples=300)
@given(_EDGE_FIELDS, _EDGE_FIELDS, _VERTEX_FIELDS, _VERTEX_FIELDS)
def test_records_behave_as_the_dataclasses_did(e1, e2, v1, v2):
    # Edge and Vertex refuse what the dataclasses refused, with the same
    # message, and agree with them on fields, ==, hash and repr
    for cls, old, fields, other in ((Edge, _DataclassEdge, e1, e2), (Vertex, _DataclassVertex, v1, v2)):
        assert _outcome(lambda: cls(*fields)) == _outcome(lambda: old(*fields))
        try:
            rec, old_rec = cls(*fields), old(*fields)
        except ValueError:
            continue
        assert type(rec) is cls and hash(rec) == hash(tuple(rec))
        try:
            assert (rec == cls(*other)) == (old_rec == old(*other))
        except ValueError:
            pass
        # _replace checks each field as the constructor does
        for name, value in zip(cls._fields, other):
            changed = [value if f == name else getattr(old_rec, f) for f in cls._fields]
            assert _outcome(lambda: rec._replace(**{name: value})) == _outcome(lambda: old(*changed))
    # a whole graph refuses a bad edge or position as the checked records do
    u, v, w = e1
    if w.is_zero() or u == v:
        data = {
            "rank": 2,
            "vertices": [{"id": x, "cell_dim": 2 * n} for n, x in enumerate(sorted({u, v}))],
            "edges": [{"from": u, "to": v, "weight": list(w.coeffs)}],
        }
        with pytest.raises(ValueError, match=re.escape(_outcome(lambda: _DataclassEdge(*e1)))):
            GkmGraph.from_dict(data)
    vid, _, position, _ = v1
    bad = [p for p in position or () if type(p) in (bool, float)]
    if bad:
        entries = [str(p) if type(p) is Fraction else p for p in position]
        data = {"rank": len(position), "vertices": [{"id": vid, "cell_dim": 0, "position": entries}], "edges": []}
        message = f"position of {vid!r} has entry {bad[0]!r}; entries must be integers or strings like '3/2'"
        with pytest.raises(ValueError, match=re.escape(message)):
            GkmGraph.from_dict(data)


_UNCHECKED_GRAPHS = {
    "B2-flag": lambda: build_preset("B2-flag"),
    "omega-su2-8": lambda: build_preset("omega-su2", 8),
    "A1-4-twisted-6": lambda: build_preset("A1-4-twisted", 6),
    "hyperbolic-5": lambda: build_flag_graph(GCM(((2, -3), (-3, 2))), (), 5),
    "affine-A2-flag-3": lambda: build_flag_graph(affine_type_a(2), (), 3),
}


@pytest.mark.parametrize("name", sorted(_UNCHECKED_GRAPHS))
@pytest.mark.parametrize("read", [False, True], ids=["built", "read"])
def test_unchecked_records_pass_their_checks(name, read):
    # the builder and the reader make records with tuple.__new__: each must equal
    # its checked reconstruction, with int cell dimensions and Fraction
    # position entries
    g = _UNCHECKED_GRAPHS[name]()
    if read:
        g = GkmGraph.loads(g.dumps())
    assert g.edges and all(type(e) is Edge and e == Edge(*e) for e in g.edges)
    for v in g.vertices:
        assert type(v) is Vertex and v == Vertex(*v) and type(v.cell_dim) is int
        assert all(type(p) is Fraction for p in v.position or ())


def test_a_reversed_edge_is_rebuilt_as_an_edge():
    g = GkmGraph(1, "Z", [Vertex("a", 0), Vertex("b", 2)], [Edge("b", "a", Weight((1,)))])
    (e,) = g.edges
    assert type(e) is Edge and e == Edge("a", "b", Weight((1,))) == ("a", "b", Weight((1,)))
    assert g.down_edges("b") == (e,) and g.edges_at("a") == (e,)


def test_validate_checks_connectivity_once(monkeypatch):
    # the vertex walk implies connectivity when every vertex descends to
    # the one bottom vertex; otherwise the graph is walked, once
    calls = []
    connected = GkmGraph.is_connected
    monkeypatch.setattr(GkmGraph, "is_connected", lambda g: calls.append(g) or connected(g))
    assert validate(build_preset("A2-flag")).ok
    assert calls == []
    for name, connects in [("two_components", False), ("wrong_down_count", True), ("odd_cell", True)]:
        g = GkmGraph.load(FIXTURES / f"{name}.json")
        assert ("connectivity" not in validate(g).failing_checks()) == connects
        assert calls == [g]
        calls.clear()


def _count_tables(monkeypatch):
    """The graphs whose incidence and down-edge tables are made from now
    on, by table."""
    made = {"_incidence": [], "_down": []}
    for name, graphs in made.items():
        table = vars(GkmGraph)[name]
        monkeypatch.setattr(table, "func", lambda g, make=table.func, graphs=graphs: graphs.append(g) or make(g))
    return made


def test_graph_tables_are_made_on_first_read(monkeypatch):
    made = _count_tables(monkeypatch)
    text = build_preset("omega-su2", 8).dumps()
    loaded = GkmGraph.loads(text)
    assert loaded.dumps() == text
    to_svg(loaded)
    assert made == {"_incidence": [], "_down": []}
    # validation reads the down-edge table alone, made once
    g = build_preset("A2-flag")
    assert validate(g).ok and validate(g).ok
    assert made == {"_incidence": [], "_down": [g]}
    assert len(g.edges_at("e")) == 3 and g.is_connected() and g.down_edges("e") == ()
    assert made == {"_incidence": [g], "_down": [g]}


# First 16 hex digits of sha256(validate(g).format_text()) for Z-mode builds
# with the default embedding, and for the corrupted fixtures, whose failing
# entries these pin.
VALIDATION_HASHES = {
    "omega-su2-30": (partial(build_flag_graph, affine_type_a(1), (1,), 30), "ace6113d7ee049a4"),
    "hyperbolic-9": (partial(build_flag_graph, GCM(((2, -3), (-3, 2))), (), 9), "a25f1a10a83ef996"),
    "A3-flag-6": (partial(build_flag_graph, type_a(3), (), 6), "13232253a4ced518"),
    "odd_cell": (partial(GkmGraph.load, FIXTURES / "odd_cell.json"), "c5ff04ef6fa4ce34"),
    "wrong_down_count": (partial(GkmGraph.load, FIXTURES / "wrong_down_count.json"), "59fbab6d62db9600"),
    "collinear_weights": (partial(GkmGraph.load, FIXTURES / "collinear_weights.json"), "c793ef22cad69b9b"),
    "two_components": (partial(GkmGraph.load, FIXTURES / "two_components.json"), "a10769fb497ef005"),
}


@pytest.mark.parametrize("case", sorted(VALIDATION_HASHES))
def test_validation_report_is_pinned(case):
    make, digest = VALIDATION_HASHES[case]
    text = validate(make()).format_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# every code point, control characters and lone surrogates included
_TEXT = st.text(st.characters(exclude_categories=()))


def _xml_text(s):
    """Whether every character of ``s`` is in the Char production of XML 1.0."""
    return all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
        for c in s
    )


@st.composite
def _graphs(draw):
    """Graphs of torus rank 0-3 with any text as ids and labels, and
    ``Fraction`` positions on some vertices."""
    rank = draw(st.integers(0, 3))
    ids = draw(st.lists(_TEXT, unique=True, max_size=6))
    vertices = [
        Vertex(
            vid,
            draw(st.integers(0, 8)),
            draw(st.none() | st.tuples(*[st.fractions()] * rank)),
            draw(st.none() | _TEXT),
        )
        for vid in ids
    ]
    edges = []
    if rank and len(ids) > 1:
        weights = st.tuples(*[st.integers(-(10**20), 10**20)] * rank).filter(any)
        for _ in range(draw(st.integers(0, 8))):
            u, v = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
            edges.append(Edge(u, v, Weight(draw(weights))))
    return GkmGraph(rank, draw(st.sampled_from(["Z", "Q"])), vertices, edges)


@settings(deadline=None)
@given(_graphs())
@example(GkmGraph(0, "Z", [], []))
@example(GkmGraph(2, "Q", [Vertex('"q"\\', 0, (Fraction(-3, 2), 0), "é\n😀")], []))
@example(GkmGraph(1, "Z", [Vertex("\x00\x1f\n\t", 0, None, "\u2028"), Vertex("\ud800", 2)], []))
@example(GkmGraph(1, "Z", [Vertex("\x7f\t\r\n", 0, None, "\ud7ff\ue000\U0010ffff"), Vertex("\ufffd\U00010000", 2)], []))
def test_graph_dumps_matches_json_dumps(g):
    # the writer takes any text; the reader takes it back exactly when every
    # id and label is XML text, and refuses the graph otherwise
    text = g.dumps()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    if all(_xml_text(t) for v in g.vertices for t in (v.id, v.label or "")):
        assert GkmGraph.loads(text) == g
    else:
        with pytest.raises(ValueError, match="not an XML character"):
            GkmGraph.loads(text)


def _collinear(a, b):
    """Whether two integer forms are parallel: every 2x2 minor vanishes."""
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(len(a)))


def _connected(g):
    """Whether ``g`` is connected, by merging the endpoint classes of every edge."""
    root = {v.id: v.id for v in g.vertices}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for e in g.edges:
        root[find(e.u)] = find(e.v)
    return len({find(v) for v in root}) <= 1


@settings(deadline=None)
@given(_graphs())
@example(GkmGraph(0, "Z", [], []))
@example(GkmGraph(1, "Z", [Vertex("a", -2), Vertex("b", 0), Vertex("c", 3)], [Edge("a", "b", Weight((2,)))]))
@example(
    GkmGraph(
        2,
        "Z",
        [Vertex("e", 0), Vertex("a", 2), Vertex("b", 2), Vertex("t", 4)],
        [
            Edge("e", "a", Weight((1, 0))),
            Edge("e", "b", Weight((0, 1))),
            Edge("a", "b", Weight((1, 1))),
            Edge("a", "t", Weight((2, 4))),
            Edge("b", "t", Weight((-1, -2))),
        ],
    )
)
def test_validation_entries_match_the_checks_recomputed_from_the_graph(g):
    rep = validate(g)
    verdict = rep.ok  # read before any entry is written
    dims = {v.id: v.cell_dim for v in g.vertices}
    want = {}
    for v in g.vertices:
        even = v.cell_dim >= 0 and v.cell_dim % 2 == 0
        want["even_cell_dim", v.id] = even
        if not even:
            continue
        down = [e.weight.coeffs for e in g.edges if v.id in (e.u, e.v) and dims[e.other(v.id)] < v.cell_dim]
        want["down_edge_count", v.id] = 2 * len(down) == v.cell_dim
        if down:
            want["coprimality", v.id] = not any(_collinear(a, b) for i, a in enumerate(down) for b in down[:i])
            if g.mode == "Z":
                want["primitivity", v.id] = all(math.gcd(*w) == 1 for w in down)
    if g.vertices:
        want["bottom_vertex", None] = list(dims.values()).count(0) == 1
        want["connectivity", None] = _connected(g)
    rest = [e for e in rep.entries if e.check != "equal_dim_edge"]
    assert {(e.check, e.vertex): e.ok for e in rest} == want and len(rest) == len(want)
    edge_entries = [e.ok for e in rep.entries if e.check == "equal_dim_edge"]
    assert edge_entries == [dims[e.u] != dims[e.v] for e in g.edges]
    assert verdict == rep.ok == all(e.ok for e in rep.entries) == bool(rep)
    assert rep.failing_checks() == {e.check for e in rep.entries if not e.ok}
    assert rep.failures() == [e for e in rep.entries if not e.ok]


def test_validate_writes_its_entries_once_and_only_when_read(monkeypatch):
    g = build_preset("omega-su2", 30)
    assert len(g.edges) == 465
    made = []
    entry = graph_module.ValidationEntry
    monkeypatch.setattr(graph_module, "ValidationEntry", lambda *fields: made.append(fields) or entry(*fields))
    rep = validate(g)
    assert rep.ok and rep and not made
    entries = rep.entries
    assert rep.entries is entries and len(made) == len(entries) > 465
    rep.format_text(), rep.failures(), rep.failing_checks()
    assert len(made) == len(entries)
    bad = validate(GkmGraph.load(FIXTURES / "odd_cell.json"))
    assert not bad.ok and not bad and len(made) == len(entries)
    # the stored pass lets the solver skip validation
    monkeypatch.setattr(graph_module, "validate", lambda graph: pytest.fail("validated again"))
    assert len(canonical_generators(g, 30).generators) == len(g.vertices)


def test_graph_dumps_writes_cell_dims_as_ints():
    # a bool, which only a Python caller can build, is written as the int
    # it equals; a float is refused, not written as JSON the reader refuses
    flag = GkmGraph(0, "Z", [Vertex("a", False), Vertex("b", True)], [])
    assert [v["cell_dim"] for v in json.loads(flag.dumps())["vertices"]] == [0, 1]
    with pytest.raises(TypeError):
        GkmGraph(0, "Z", [Vertex("a", 0.0)], []).dumps()


@pytest.mark.parametrize(
    "edit, message",
    [("stray", "class has a value at 'zz', which is not a vertex"), ("missing", "class has no value at vertex 's'")],
)
def test_cohclass_from_dict_refuses_values_off_the_vertices(edit, message):
    values = {"n": "0", "s": "x1"}
    assert CohClass.from_dict({"values": values}, sphere_graph()).values == {"n": Polynomial.zero(2), "s": X}
    if edit == "stray":
        values["zz"] = "x1"
    else:
        del values["s"]
    with pytest.raises(ValueError, match=re.escape(message)):
        CohClass.from_dict({"values": values}, sphere_graph())


@pytest.mark.parametrize(
    "where, key, message",
    [
        ("graph", "mdoe", "a graph has unknown key 'mdoe'"),
        ("vertex", "positon", "vertex 'e' has unknown key 'positon'"),
        ("edge", "wieght", "edge (0, 0-1) has unknown key 'wieght'"),
    ],
)
def test_graph_from_dict_refuses_unknown_keys(where, key, message):
    data = json.loads(build_preset("A2-flag").dumps())
    # an explicit null counts as an absent position or label
    data["vertices"][1].update(position=None, label=None)
    assert GkmGraph.from_dict(data).vertex(data["vertices"][1]["id"]).position is None
    target = {"graph": data, "vertex": data["vertices"][0], "edge": data["edges"][0]}[where]
    target[key] = [1, 2]
    with pytest.raises(ValueError, match=re.escape(message)):
        GkmGraph.from_dict(data)


def test_cohclass_from_dict_refuses_unknown_keys():
    values = {"n": "0", "s": "x1"}
    assert CohClass.from_dict({"values": values, "degree": None}, sphere_graph()).degree is None
    with pytest.raises(ValueError, match="a class has unknown key 'degre'"):
        CohClass.from_dict({"values": values, "degre": 1}, sphere_graph())


def test_cohclass_homogeneity_enforced():
    with pytest.raises(ValueError):
        CohClass({"n": X + Polynomial.one(2)}, degree=1)


def test_cohclass_scalar_product_keeps_degree():
    basis = canonical_generators(build_preset("B2-flag"), 4)
    f = basis.generator("0")
    assert f.degree == 1
    for c in (2, -1, 0, Fraction(1, 2)):
        scaled = f * c
        assert scaled.degree == 1
        assert scaled.values == {v: p * c for v, p in f.values.items()}
    assert (f * X).degree is None


def test_cohclass_ring_ops_share_zero_values():
    g = build_preset("B2-flag")
    basis = canonical_generators(g, 4)
    rng = random.Random(5)
    gens = list(basis.generators.values())
    for _ in range(30):
        f, h = rng.choice(gens), rng.choice(gens)
        total, prod = f + h, f * h
        assert total.values == {v: f.values[v] + h.values[v] for v in g.vertex_ids}
        assert prod.values == {v: f.values[v] * h.values[v] for v in g.vertex_ids}
        for v in g.vertex_ids:
            if f.values[v].is_zero():
                assert prod.values[v] is f.values[v] and total.values[v] is h.values[v]
            elif h.values[v].is_zero():
                assert prod.values[v] is h.values[v] and total.values[v] is f.values[v]
    with pytest.raises(ValueError, match="different vertex sets"):
        gens[0] * restrict(gens[0], ["e"])


_SCALARS = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def _polynomials(draw, n, degree):
    """Polynomials in ``n`` variables, homogeneous of ``degree`` when it is
    set, else of degree at most 2; zero often."""
    mons = monomials(n, degree) if degree is not None else [m for d in range(3) for m in monomials(n, d)]
    return Polynomial(n, draw(st.dictionaries(st.sampled_from(mons), _SCALARS, max_size=3)))


@st.composite
def _class_pairs(draw):
    """Two classes on the same vertices in the same rank, each of a degree
    or none, and a polynomial."""
    n = draw(st.integers(1, 3))
    ids = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    classes = []
    for _ in range(2):
        d = draw(st.one_of(st.none(), st.integers(0, 2)))
        classes.append(CohClass({v: draw(_polynomials(n, d)) for v in ids}, d))
    return (*classes, draw(_polynomials(n, None)))


def _in_normal_form(p, n):
    return p.nvars == n and all(
        len(e) == n and type(e) is tuple and c and (type(c) is int or type(c) is Fraction and c.denominator != 1)
        for e, c in p.terms.items()
    )


@settings(max_examples=200, deadline=None)
@given(_class_pairs(), st.builds(Fraction, st.integers(1, 6), st.integers(2, 4)))
def test_cohclass_arithmetic_is_per_vertex_polynomial_arithmetic(case, frac):
    a, b, p = case
    n, ids = p.nvars, list(a.values)
    both = a.degree is not None and b.degree is not None
    snapshot = [(dict(cls.values), {v: dict(q.terms) for v, q in cls.values.items()}) for cls in (a, b)]
    terms_of_p = dict(p.terms)
    cases = [
        (a + b, lambda v: a.values[v] + b.values[v], a.degree if a.degree == b.degree else None),
        (a * b, lambda v: a.values[v] * b.values[v], a.degree + b.degree if both else None),
        (a * 3, lambda v: a.values[v] * 3, a.degree),
        (a * -1, lambda v: -a.values[v], a.degree),
        (a * frac, lambda v: a.values[v] * frac, a.degree),
        (a * 0, lambda v: Polynomial.zero(n), a.degree),
        (a * p, lambda v: a.values[v] * p, None),
    ]
    for result, want, degree in cases:
        assert result.values == {v: want(v) for v in ids}
        assert all(_in_normal_form(q, n) for q in result.values.values())
        assert result.degree == degree
        CohClass(result.values, degree)  # homogeneous of the degree it claims
    assert [(dict(cls.values), {v: dict(q.terms) for v, q in cls.values.items()}) for cls in (a, b)] == snapshot
    assert p.terms == terms_of_p
    # a nonzero value meeting one of another rank raises, as in Polynomial
    other = CohClass({v: Polynomial.one(n + 1) for v in ids})
    if not a.is_zero():
        for op in (lambda: a + other, lambda: other + a, lambda: a * other, lambda: a * Polynomial.one(n + 1)):
            with pytest.raises(ValueError, match="different rings"):
                op()
    with pytest.raises(TypeError):
        a * True
    with pytest.raises(TypeError):
        a * 1.5


def test_cohclass_ring_ops_skip_the_homogeneity_scan(monkeypatch):
    basis = canonical_generators(build_preset("B2-flag"), 4)
    f, h = basis.generator("0"), basis.generator("1")
    scans = []
    scan = Polynomial.is_homogeneous
    monkeypatch.setattr(Polynomial, "is_homogeneous", lambda p, d=None: scans.append(d) or scan(p, d))
    assert (f + h).degree == 1 and (f * h).degree == 2 and (f * 3).degree == 1
    assert restrict(f, ["e", "0"]).degree == 1
    assert not scans
    CohClass(dict(f.values), 1)  # a class a caller makes is still checked
    assert scans


def test_record_and_class_refusals_with_their_messages():
    edge, vertex = Edge("n", "s", Weight((1, 0))), Vertex("n", 0)
    f = CohClass({"n": X, "s": Y})
    refused = [
        (lambda: edge.other("x"), ValueError, "'x' is not an endpoint of this edge"),
        (lambda: vertex._replace(cell=2), ValueError, r"Got unexpected field names: \['cell'\]"),
        (lambda: f.value("x"), MissingVertexValueError, "class has no value at vertex 'x'"),
        (lambda: f + CohClass({"n": X}), ValueError, "classes are defined on different vertex sets"),
    ]
    for make, error, message in refused:
        with pytest.raises(error, match=message):
            make()
