"""DOT/SVG emission: determinism, bouquet factoring, fallbacks."""

import hashlib
import re
from fractions import Fraction
from xml.dom import minidom

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmcalc.builders import affine_type_a, build_chain_graph, build_flag_graph, build_preset, type_a
from gkmcalc.coxeter import GCM
from gkmcalc.errors import NotFactorableError
from gkmcalc.graph import CohClass, Edge, GkmGraph, Vertex
from gkmcalc.polyring import Polynomial, Weight, parse_polynomial
from gkmcalc.render import bouquet_text, factor_restriction, to_dot, to_svg
from gkmcalc.solver import GeneratorBasis, canonical_generators


def sphere_graph():
    return GkmGraph(
        2, "Z", [Vertex("n", 0), Vertex("s", 2)], [Edge("n", "s", Weight((1, 0)))]
    )


GOLDEN_SPHERE_DOT = """\
graph gkm {
  node [shape=circle fontsize=10];
  "n" [label="n" pos="0.000,0.000!"];
  "s" [label="s" pos="0.000,1.000!"];
  "n" -- "s" [label="x1"];
}
"""


def test_sphere_dot_golden():
    assert to_dot(sphere_graph()) == GOLDEN_SPHERE_DOT


# XML 1.0 has no control characters but tab, newline and return
_MARKUP = st.text(st.characters(exclude_categories=("Cc", "Cs"), exclude_characters="\ufffe\uffff"))


@settings(deadline=None)
@given(st.lists(_MARKUP, min_size=2, max_size=2, unique=True), _MARKUP.filter(bool))
@example(["a<b & c", 'say "hi"\\'], "x > y")
def test_render_escapes_ids_and_labels(ids, label):
    bottom, top = ids
    g = GkmGraph(1, "Z", [Vertex(bottom, 0), Vertex(top, 2, None, label)], [Edge(bottom, top, Weight((1,)))])
    svg = minidom.parseString(to_svg(g))
    texts = [t.firstChild.data if t.firstChild else "" for t in svg.getElementsByTagName("text")]
    assert texts[-2:] == [bottom or "", label]
    # every double-quoted DOT string read back with its escapes undone
    strings = [re.sub(r"\\(.)", r"\1", m) for m in re.findall(r'"((?:[^"\\]|\\.)*)"', to_dot(g))]
    assert strings[:8] == [bottom, bottom, "0.000,0.000!", top, label, "0.000,1.000!", bottom, top]
    # the reader refuses only what XML cannot hold, so all of this loads back
    assert GkmGraph.loads(g.dumps()) == g


def test_rendering_is_deterministic():
    g = build_preset("omega-su2", 3)
    basis = canonical_generators(g, 3)
    assert to_dot(g) == to_dot(g)
    assert to_svg(g, basis, "0") == to_svg(g, basis, "0")
    rebuilt = build_preset("omega-su2", 3)
    assert to_svg(rebuilt) == to_svg(g)


def test_rendering_does_not_mutate_graph():
    g = build_preset("A2-flag")
    before = g.dumps()
    to_dot(g)
    to_svg(g)
    assert g.dumps() == before


def test_factor_restriction_scalar_times_weight():
    g = build_preset("omega-su2", 4)
    basis = canonical_generators(g, 4)
    value = basis.generator("0").values["0-1-0"]  # -2*x1 + 4*x2
    scalar, factors = factor_restriction(g, "0-1-0", value)
    assert scalar == 2
    assert [w.coeffs for w in factors] == [(-1, 2)]


def test_factor_restriction_repeats_a_factor_in_candidate_order():
    # at 0-1 the candidates are the down-edge weights x1 + x2 and x1, then
    # the up-edge weight x2; x1 divides twice before x2 is tried
    g = build_preset("A2-flag")
    x1, x2 = Weight((1, 0)).to_polynomial(), Weight((0, 1)).to_polynomial()
    value = 2 * x2 * x1 * (x1 + x2) * x1
    scalar, factors = factor_restriction(g, "0-1", value)
    assert scalar == 2
    assert [w.coeffs for w in factors] == [(1, 1), (1, 0), (1, 0), (0, 1)]
    assert bouquet_text(g, "0-1", value) == "2*(x1 + x2)*(x1)*(x1)*(x2)"


def test_factor_restriction_zero():
    g = sphere_graph()
    assert factor_restriction(g, "n", Polynomial.zero(2)) == (Fraction(0), [])


def test_factor_restriction_not_factorable():
    g = sphere_graph()
    with pytest.raises(NotFactorableError):
        factor_restriction(g, "s", parse_polynomial("x1^2 + x2^2", 2))
    assert bouquet_text(g, "s", parse_polynomial("x1^2 + x2^2", 2)).startswith("!")


def test_svg_writes_a_restriction_that_does_not_factor_as_text():
    g = sphere_graph()
    value = parse_polynomial("x1^2 + x2^2", 2)
    basis = GeneratorBasis(g, 1, "Z", {"s": CohClass({"n": Polynomial.zero(2), "s": value})})
    svg = to_svg(g, basis, "s")
    texts = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")]
    assert "!x1^2 + x2^2" in texts
    assert "marker-end" not in svg


def test_bouquet_text_forms():
    g = build_preset("omega-su2", 4)
    basis = canonical_generators(g, 4)
    f1 = basis.generator("0")
    assert bouquet_text(g, "e", f1.values["e"]) == "0"
    assert bouquet_text(g, "0", f1.values["0"]) == "(-x1 + x2)"
    assert bouquet_text(g, "0-1-0", f1.values["0-1-0"]) == "2*(-x1 + 2*x2)"


def test_svg_structure():
    g = build_preset("A2-flag")
    svg = to_svg(g)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 6
    assert svg.count("<line") == 9
    basis = canonical_generators(g, 3)
    decorated = to_svg(g, basis, "1-0-1")
    # exactly one vertex carries a bouquet: three arrows at the top cell
    assert decorated.count("marker-end") == 3


@pytest.mark.parametrize("rank", [1, 2])
def test_svg_refuses_a_layout_span_beyond_a_float(rank):
    # every position fits a float but their spread does not: scaling by it
    # wrote nan coordinates
    far = Fraction(10**308)
    g = GkmGraph(
        rank,
        "Z",
        [Vertex("e", 0, (0,) * rank), Vertex("a", 2, (-far,) * rank), Vertex("b", 2, (far,) * rank)],
        [Edge("e", "a", Weight((1,) * rank)), Edge("e", "b", Weight((1, -1)[:rank]))],
    )
    ys = "-1e+308, 1e+308" if rank == 2 else "0.0, 0.0"
    lo, hi = ys.split(", ")
    message = f"render: the layout spans (-1e+308, {lo}) to (1e+308, {hi}), beyond a float's range"
    with pytest.raises(ValueError, match=re.escape(message)):
        to_svg(g)
    assert "nan" not in to_dot(g)


def test_layered_layout_without_positions():
    g = GkmGraph(
        2,
        "Z",
        [Vertex("n", 0), Vertex("s", 2)],
        [Edge("n", "s", Weight((1, 0)))],
    )
    dot = to_dot(g)
    assert '"n"' in dot and '"s"' in dot


def test_dot_with_bouquet_labels():
    g = build_preset("omega-su2", 3)
    basis = canonical_generators(g, 3)
    dot = to_dot(g, basis, "0")
    assert "(-x1 + x2)" in dot


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# First 16 hex digits of sha256 of to_svg and to_dot for Z-mode builds with
# the default embedding, and for graphs without positions (the hyperbolic
# build, unembedded builds and a chain), drawn on the layered layout.
RENDER_HASHES = {
    "omega-su2-30": (
        lambda: build_flag_graph(affine_type_a(1), (1,), 30),
        "5773e305d9796675",
        "5b025bced9f5ec76",
    ),
    "hyperbolic-9": (
        lambda: build_flag_graph(GCM(((2, -3), (-3, 2))), (), 9),
        "d466ac412f7c825b",
        "1c6f63ce148c9640",
    ),
    "A3-flag-6": (lambda: build_flag_graph(type_a(3), (), 6), "d8c6127aea1575e4", "1cde630d6fb83441"),
    "A3-flag-6-unembedded": (
        lambda: build_flag_graph(type_a(3), (), 6, embed=False),
        "1155e9145e019d1f",
        "4d84356350547164",
    ),
    "omega-su2-12-unembedded": (
        lambda: build_flag_graph(affine_type_a(1), (1,), 12, embed=False),
        "53964914b4d4fee2",
        "fd0c1418f0ec9fa0",
    ),
    "chain": (
        lambda: build_chain_graph([(1, 0), (1, 1), (0, 1), (2, -1)]),
        "1ed0d802f5a81ac3",
        "6faba2b46a24eb71",
    ),
}


@pytest.mark.parametrize("case", sorted(RENDER_HASHES))
def test_render_output_is_pinned(case):
    make, svg, dot = RENDER_HASHES[case]
    g = make()
    assert _digest(to_svg(g)) == svg
    assert _digest(to_dot(g)) == dot


def test_bouquet_render_is_pinned():
    basis = canonical_generators(build_flag_graph(type_a(3), (), 6), 6)
    assert _digest(to_svg(basis.graph, basis, "1-0-1")) == "d3737662c0feb16c"
    assert _digest(to_dot(basis.graph, basis, "1-0-1")) == "ca402301d6d6673b"
