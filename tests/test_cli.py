"""Command-line behavior: pipelines, file round-trips, exit codes."""

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc import oracle, solver
from gkmcalc.cli import main
from gkmcalc.graph import GkmGraph
from gkmcalc.polyring import parse_polynomial

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_validate_round_trip(tmp_path, capsys):
    graph_path = tmp_path / "a2.json"
    code, _, _ = run(["build", "A2-flag", "-o", str(graph_path)], capsys)
    assert code == 0
    code, out, _ = run(["validate", str(graph_path)], capsys)
    assert code == 0
    assert "overall: pass" in out


def test_pipeline_build_then_poincare(capsys, monkeypatch):
    code, out, _ = run(["build", "omega-su2", "--degree", "4"], capsys)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, table, _ = run(["poincare"], capsys)
    assert code == 0
    ranks = [line.split("\t") for line in table.strip().splitlines()[1:]]
    assert [(int(d), int(r)) for d, r in ranks] == [(0, 1), (2, 1), (4, 1), (6, 1), (8, 1)]


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = {
        "rank": 2,
        "mode": "Z",
        "vertices": [{"id": "e", "cell_dim": 0}, {"id": "a", "cell_dim": 3}],
        "edges": [{"from": "e", "to": "a", "weight": [1, 0]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(["validate", str(path)], capsys)
    assert code == 1
    assert "overall: fail" in out


def test_generators_and_multiply(tmp_path, capsys):
    graph_path = tmp_path / "a2.json"
    basis_path = tmp_path / "basis.json"
    assert run(["build", "A2-flag", "-o", str(graph_path)], capsys)[0] == 0
    code, _, _ = run(
        ["generators", str(graph_path), "--degree", "3", "-o", str(basis_path)], capsys
    )
    assert code == 0
    code, out, _ = run(["multiply", str(basis_path), "0", "1"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert {(r[0], r[2]) for r in rows} == {("0-1", "1"), ("1-0", "1")}


def test_generators_non_integral_exit_code(tmp_path, capsys):
    graph = {
        "rank": 2,
        "mode": "Z",
        "vertices": [
            {"id": "e", "cell_dim": 0},
            {"id": "a", "cell_dim": 2},
            {"id": "t", "cell_dim": 4},
        ],
        "edges": [
            {"from": "e", "to": "a", "weight": [1, 0]},
            {"from": "t", "to": "a", "weight": [0, 1]},
            {"from": "t", "to": "e", "weight": [2, -1]},
        ],
    }
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(graph))
    code, _, err = run(["generators", str(path), "--degree", "2"], capsys)
    assert code == 3
    assert "non-integral" in err
    code, _, _ = run(["generators", str(path), "--degree", "2", "--mode", "Q"], capsys)
    assert code == 0


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(["validate", str(path)], capsys)
    assert code == 4


def test_power_preset(capsys):
    code, out, _ = run(["power", "--preset", "A1-4-twisted", "--n", "3"], capsys)
    assert code == 0
    assert out.strip() == "12"


def test_power_preset_below_its_default_degree_lifts_nothing(capsys, monkeypatch):
    # omega-su2 defaults to degree 4; built at degree 3 its cutoff reaches
    # the top, so the recursion solves every generator
    calls = []
    lift = solver._lift
    monkeypatch.setattr(solver, "_lift", lambda *args: calls.append(args[1]) or lift(*args))
    code, out, _ = run(["power", "--preset", "omega-su2", "--n", "3"], capsys)
    assert (code, out.strip(), calls) == (0, "6", [])
    code, out, err = run(["power", "--preset", "omega-su2", "--n", "-1"], capsys)
    assert code == 4
    assert not out and "degree cutoff must be non-negative" in err


def test_power_from_graph_file(tmp_path, capsys):
    path = tmp_path / "om.json"
    assert run(["build", "omega-su2", "--degree", "4", "-o", str(path)], capsys)[0] == 0
    code, out, _ = run(["power", str(path), "--n", "4"], capsys)
    assert code == 0
    assert out.strip() == "24"
    # below the graph's top the basis is lifted, and the power sum makes the
    # graph's cover table itself
    code, out, _ = run(["power", str(path), "--n", "3"], capsys)
    assert code == 0
    assert out.strip() == "6"
    # a graph cut below the power is invalid input, not a membership failure
    code, out, err = run(["power", str(path), "--n", "6"], capsys)
    assert code == 4
    assert not out and "no vertex of cell dimension 12" in err


def test_check_class(tmp_path, capsys):
    graph = {
        "rank": 2,
        "mode": "Z",
        "vertices": [{"id": "n", "cell_dim": 0}, {"id": "s", "cell_dim": 2}],
        "edges": [{"from": "n", "to": "s", "weight": [1, 0]}],
    }
    gpath = tmp_path / "s2.json"
    gpath.write_text(json.dumps(graph))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"values": {"n": "0", "s": "x1"}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"values": {"n": "0", "s": "x2"}}))
    assert run(["check", str(gpath), str(good)], capsys)[0] == 0
    assert run(["check", str(gpath), str(bad)], capsys)[0] == 1


def test_check_class_with_a_huge_power(tmp_path, capsys):
    # x1^(10**11) on the A1 flag: each edge divides by a one-coefficient
    # weight, a shift that walks no power; run with a timeout so a walk fails
    gpath = tmp_path / "a1.json"
    assert run(["build", "A1-flag", "-o", str(gpath)], capsys)[0] == 0
    cpath = tmp_path / "class.json"
    cpath.write_text(json.dumps({"values": {"e": "x1^100000000000", "0": "0"}}))
    src = str(Path(solver.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "gkmcalc.cli", "check", str(gpath), str(cpath)],
        capture_output=True,
        text=True,
        timeout=20,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("class: ok")


@pytest.mark.parametrize("edit", ["extra", "missing"])
def test_check_class_values_off_the_vertices_exit_code(tmp_path, capsys, edit):
    gpath = tmp_path / "b2.json"
    assert run(["build", "B2-flag", "-o", str(gpath)], capsys)[0] == 0
    values = {v["id"]: "0" for v in json.loads(gpath.read_text())["vertices"]}
    cpath = tmp_path / "zero.json"
    cpath.write_text(json.dumps({"values": values}))
    assert run(["check", str(gpath), str(cpath)], capsys)[0] == 0
    if edit == "extra":
        values["zz"] = "x1"
        where = "class has a value at 'zz', which is not a vertex"
    else:
        del values["1-0"]
        where = "class has no value at vertex '1-0'"
    cpath.write_text(json.dumps({"values": values}))
    code, out, err = run(["check", str(gpath), str(cpath)], capsys)
    assert code == 4
    assert not out and where in err


@pytest.mark.parametrize("what", ["graph", "basis", "class"])
def test_misspelt_key_exit_code(tmp_path, capsys, what):
    gpath, bpath, cpath = tmp_path / "b2.json", tmp_path / "basis.json", tmp_path / "class.json"
    assert run(["build", "B2-flag", "-o", str(gpath)], capsys)[0] == 0
    assert run(["generators", str(gpath), "-o", str(bpath)], capsys)[0] == 0
    values = {v["id"]: "0" for v in json.loads(gpath.read_text())["vertices"]}
    cpath.write_text(json.dumps({"values": values}))
    path, key, argv = {
        "graph": (gpath, "positon", ["validate", str(gpath)]),
        "basis": (bpath, "degre", ["multiply", str(bpath), "0", "0"]),
        "class": (cpath, "degre", ["check", str(gpath), str(cpath)]),
    }[what]
    data = json.loads(path.read_text())
    (data["vertices"][0] if what == "graph" else data)[key] = 1
    path.write_text(json.dumps(data))
    code, out, err = run(argv, capsys)
    assert code == 4
    assert not out and f"unknown key '{key}'" in err and "Traceback" not in err


def test_check_class_parse_error_exit_code(tmp_path, capsys):
    graph = {
        "rank": 2,
        "mode": "Z",
        "vertices": [{"id": "n", "cell_dim": 0}, {"id": "s", "cell_dim": 2}],
        "edges": [{"from": "n", "to": "s", "weight": [1, 0]}],
    }
    gpath = tmp_path / "s2.json"
    gpath.write_text(json.dumps(graph))
    for values in ({"n": "0", "s": "1/0"}, {"n": "0", "s": "3x1"}, {"n": "0", "s": "x1*"}, [], {"n": 0, "s": "x1"}):
        cpath = tmp_path / "bad.json"
        cpath.write_text(json.dumps({"values": values}))
        code, _, err = run(["check", str(gpath), str(cpath)], capsys)
        assert code == 4, values
        assert "Traceback" not in err


def test_render_to_file(tmp_path, capsys):
    gpath = tmp_path / "a2.json"
    out = tmp_path / "a2.dot"
    assert run(["build", "A2-flag", "-o", str(gpath)], capsys)[0] == 0
    code, _, _ = run(["render", str(gpath), "--format", "dot", "-o", str(out)], capsys)
    assert code == 0
    assert out.read_text().startswith("graph gkm {")
    svg = tmp_path / "a2.svg"
    code, _, _ = run(["render", str(gpath), "--format", "svg", "-o", str(svg)], capsys)
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_build_custom_gcm(tmp_path, capsys):
    gcm_path = tmp_path / "gcm.json"
    gcm_path.write_text(json.dumps({"gcm": [[2, -1], [-1, 2]]}))
    out_path = tmp_path / "custom.json"
    code, _, _ = run(
        [
            "build",
            "--gcm", str(gcm_path),
            "--parabolic", "1",
            "--degree", "2",
            "-o", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    g = GkmGraph.load(out_path)
    # A2 modulo one node: projective plane with cells in dimensions 0, 2, 4
    assert sorted(v.cell_dim for v in g.vertices) == [0, 2, 4]


def test_build_gcm_from_toml(tmp_path, capsys):
    pytest.importorskip("tomllib")
    graphs = []
    for name, text in (("gcm.toml", "gcm = [[2, -1], [-1, 2]]\n"), ("gcm.json", "[[2, -1], [-1, 2]]")):
        (tmp_path / name).write_text(text)
        out_path = tmp_path / (name + ".graph.json")
        assert run(["build", "--gcm", str(tmp_path / name), "--degree", "3", "-o", str(out_path)], capsys)[0] == 0
        graphs.append(out_path.read_text())
    assert graphs[0] == graphs[1]
    assert len(GkmGraph.loads(graphs[0]).vertices) == 6  # the A2 full flag


def test_oracle_subcommands(tmp_path, capsys):
    code, out, _ = run(["oracle", "schubert-compare", "--preset", "A2-flag"], capsys)
    assert code == 0 and "agree" in out
    gpath = tmp_path / "a2.json"
    assert run(["build", "A2-flag", "-o", str(gpath)], capsys)[0] == 0
    code, out, _ = run(["oracle", "brute-rank", str(gpath), "--degree", "2"], capsys)
    assert code == 0
    assert "[ok]" in out and "FAIL" not in out
    code, out, _ = run(["oracle", "s2n", "--trials", "25"], capsys)
    assert code == 0 and "0 failures" in out


def test_unknown_preset_exit(capsys):
    for name in ("E9-flag", "nosuch"):
        code, out, err = run(["build", name], capsys)
        assert code == 4
        assert not out and f"unknown preset {name!r}" in err


def test_build_chain_graph(capsys):
    code, out, _ = run(["build", "--chain", "1,0;1,1;1,2", "--mode", "Q"], capsys)
    assert code == 0
    g = GkmGraph.loads(out)
    assert [v.cell_dim for v in g.vertices] == [0, 2, 4, 6]
    assert g.mode == "Q"


def test_non_integral_weight_exit_code(tmp_path, capsys):
    graph = {
        "rank": 2,
        "mode": "Z",
        "vertices": [{"id": "n", "cell_dim": 0}, {"id": "s", "cell_dim": 2}],
        "edges": [{"from": "n", "to": "s", "weight": [1.5, 0]}],
    }
    path = tmp_path / "half.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 4
    assert "overall" not in out and "must be an integer" in err


def test_negative_degree_exit_code(tmp_path, capsys):
    path = tmp_path / "om.json"
    assert run(["build", "omega-su2", "--degree", "4", "-o", str(path)], capsys)[0] == 0
    for argv in (["build", "omega-su2"], ["poincare", str(path)], ["oracle", "brute-rank", str(path)]):
        code, out, err = run([*argv, "--degree", "-1"], capsys)
        assert code == 4, argv
        assert not out and "non-negative" in err, argv


def test_s2n_rank_below_two_exit_code(capsys):
    for rank in ("0", "1"):
        code, out, err = run(["oracle", "s2n", "--rank", rank, "--trials", "1"], capsys)
        assert code == 4
        assert not out and "--rank >= 2" in err
    code, out, err = run(["oracle", "s2n", "--trials", "-1"], capsys)
    assert code == 4
    assert not out and "--trials must be non-negative" in err


def test_schubert_compare_mismatch_exit_code(capsys, monkeypatch):
    # an oracle whose class of 0 is doubled disagrees with f_0 at vertex 0
    schubert = oracle.schubert_restrictions

    def doubled(gcm, parabolic, degree):
        classes = schubert(gcm, parabolic, degree)
        classes["0"] = classes["0"] * 2
        return classes

    monkeypatch.setattr(oracle, "schubert_restrictions", doubled)
    code, out, _ = run(["oracle", "schubert-compare", "--preset", "A2-flag"], capsys)
    assert code == 1
    assert out == "MISMATCH at generator 0, vertex 0: 2*x1 vs x1\n"


def test_multiply_and_poincare_json(tmp_path, capsys):
    gpath, bpath = tmp_path / "b2.json", tmp_path / "b2-basis.json"
    assert run(["build", "B2-flag", "-o", str(gpath)], capsys)[0] == 0
    assert run(["generators", str(gpath), "-o", str(bpath)], capsys)[0] == 0
    code, out, _ = run(["multiply", str(bpath), "0", "0", "--json"], capsys)
    assert code == 0 and json.loads(out) == {"0": "x1", "1-0": "2"}
    code, out, _ = run(["poincare", str(gpath), "--json"], capsys)
    assert code == 0 and json.loads(out) == {"ranks": [1, 2, 2, 2, 1]}


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([{"id": "e", "cell_dim": 0}, {"id": "e", "cell_dim": 2}], "duplicate vertex id 'e'"),
        ([{"id": "e", "cell_dim": 0, "position": [0, 1]}], "position of 'e' has length != rank 1"),
    ],
)
def test_graph_constructor_refusal_exit_code(tmp_path, capsys, vertices, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"rank": 1, "vertices": vertices, "edges": []}))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 4
    assert not out and message in err and "Traceback" not in err


def test_schubert_compare_affine_preset(capsys):
    code, out, _ = run(["oracle", "schubert-compare", "--preset", "omega-su2"], capsys)
    assert code == 0
    assert "5 generators agree on every vertex" in out


def test_schubert_compare_affine_gcm(tmp_path, capsys):
    gcm_path = tmp_path / "gcm.json"
    gcm_path.write_text(json.dumps([[2, -2], [-2, 2]]))
    code, out, _ = run(
        ["oracle", "schubert-compare", "--gcm", str(gcm_path), "--degree", "6"], capsys
    )
    assert code == 0
    assert "13 generators agree on every vertex" in out


def test_oracle_unknown_preset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "schubert-compare", "--preset", "nosuch"])
    assert err.value.code == 4
    out = capsys.readouterr()
    assert not out.out
    assert "invalid choice: 'nosuch'" in out.err and "'omega-su2'" in out.err


def test_non_integer_gcm_exit_code(tmp_path, capsys):
    gcm_path = tmp_path / "gcm.json"
    for bad, message in (
        ({"gcm": [[2, -1.5], [-1, 2]]}, "Cartan matrix entries must be integers"),
        ([[2, True], [-1, 2]], "Cartan matrix entries must be integers"),
        ({"gcm": 5}, "must be a list of rows"),
        ([2, -1], "must be a list of rows"),
    ):
        gcm_path.write_text(json.dumps(bad))
        code, out, err = run(["build", "--gcm", str(gcm_path)], capsys)
        assert code == 4
        assert not out and message in err


def test_parabolic_outside_diagram_exit_code(tmp_path, capsys):
    gcm_path = tmp_path / "gcm.json"
    gcm_path.write_text(json.dumps({"gcm": [[2, -1], [-1, 2]]}))
    code, out, err = run(["build", "--gcm", str(gcm_path), "--parabolic", "5"], capsys)
    assert code == 4
    assert not out and "not a subset" in err


def test_usage_error_exit_code(capsys):
    for argv in ([], ["power", "--preset", "omega-su2"], ["power", "--preset", "omega-su2", "--n", "3", "--mode", "Q"],
                 ["build", "--no-such-option"], ["nosuch"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 4, argv
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["power", "--help"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0, argv
        assert "usage:" in capsys.readouterr().out



def test_basis_non_integer_degree_exit_code(tmp_path, capsys):
    graph_path = tmp_path / "a2.json"
    basis_path = tmp_path / "basis.json"
    assert run(["build", "A2-flag", "-o", str(graph_path)], capsys)[0] == 0
    argv = ["generators", str(graph_path), "--degree", "3", "-o", str(basis_path)]
    assert run(argv, capsys)[0] == 0
    data = json.loads(basis_path.read_text())
    basis_path.write_text(json.dumps({**data, "degree": 2.9}))
    code, out, err = run(["multiply", str(basis_path), "0", "1"], capsys)
    assert code == 4
    assert not out and "must be an integer" in err


def test_generators_negative_degree_exit_code(tmp_path, capsys):
    graph_path = tmp_path / "a2.json"
    basis_path = tmp_path / "basis.json"
    assert run(["build", "A2-flag", "-o", str(graph_path)], capsys)[0] == 0
    argv = ["generators", str(graph_path), "--degree", "-2", "-o", str(basis_path)]
    code, out, err = run(argv, capsys)
    assert code == 4
    assert not out and "non-negative" in err
    assert not basis_path.exists()


def test_multiply_unknown_generator_exit_code(tmp_path, capsys):
    graph_path = tmp_path / "a2.json"
    basis_path = tmp_path / "basis.json"
    assert run(["build", "A2-flag", "-o", str(graph_path)], capsys)[0] == 0
    argv = ["generators", str(graph_path), "--degree", "3", "-o", str(basis_path)]
    assert run(argv, capsys)[0] == 0
    code, out, err = run(["multiply", str(basis_path), "nope", "0"], capsys)
    assert code == 4
    assert not out and "'nope'" in err and "degree 3" in err


@pytest.mark.parametrize("edit", ["extra", "missing"])
def test_multiply_basis_values_off_the_vertices_exit_code(tmp_path, capsys, edit):
    graph_path = tmp_path / "b2.json"
    basis_path = tmp_path / "basis.json"
    assert run(["build", "B2-flag", "-o", str(graph_path)], capsys)[0] == 0
    assert run(["generators", str(graph_path), "-o", str(basis_path)], capsys)[0] == 0
    data = json.loads(basis_path.read_text())
    if edit == "extra":
        data["generators"]["0"]["zz"] = "x1"
    else:
        del data["generators"]["0"]["1-0"]
    basis_path.write_text(json.dumps(data))
    code, out, err = run(["multiply", str(basis_path), "0", "0"], capsys)
    assert code == 4
    assert not out and "generator '0'" in err


@pytest.mark.parametrize(
    "edit, where",
    [
        ("float", "position of"),
        ("bool", "position of"),
        ("zero-denominator", "position of"),
        ("weight-number", "weight of edge"),
        ("label-float", "label of"),
        ("top-list", "a graph must be an object"),
        ("vertices-number", "graph vertices must be a list"),
        ("vertex-number", "a vertex must be an object"),
        ("edge-number", "an edge must be an object with string endpoints"),
        ("id-int", "a vertex must be an object with a string id, got {'cell_dim': 0, 'id': 3,"),
        ("id-list", "a vertex must be an object with a string id, got {'cell_dim': 0, 'id': ['e'],"),
        ("rank-negative", "rank must be non-negative"),
        # bad entries after good ones the reader has parsed and kept
        ("late-bool", "position of"),
        ("late-float", "position of"),
        ("late-zero-denominator", "position of"),
        ("int-then-bool", "position of"),
        ("half-then-float", "position of"),
    ],
)
def test_validate_bad_graph_entries_exit_code(tmp_path, capsys, edit, where):
    path = tmp_path / "b2.json"
    assert run(["build", "B2-flag", "-o", str(path)], capsys)[0] == 0
    data = json.loads(path.read_text())
    vertex, edge = data["vertices"][1], data["edges"][0]
    # wrong-shaped JSON, and ids or a rank that must not be coerced
    shapes = {
        "top-list": [],
        "vertices-number": {**data, "vertices": 5},
        "vertex-number": {**data, "vertices": [5]},
        "edge-number": {**data, "edges": [5]},
        "id-int": {**data, "vertices": [{**data["vertices"][0], "id": 3}, *data["vertices"][1:]]},
        "id-list": {**data, "vertices": [{**data["vertices"][0], "id": ["e"]}, *data["vertices"][1:]]},
        "rank-negative": {**data, "rank": -1},
    }
    if edit in shapes:
        data = shapes[edit]
    elif edit == "weight-number":
        edge["weight"] = 5
        where += f" ({edge['from']}, {edge['to']})"
    elif edit == "label-float":
        vertex["label"] = 1.5
        where += f" '{vertex['id']}'"
    elif edit.startswith("late-"):
        last = data["vertices"][-1]
        last["position"][-1] = {"bool": True, "float": 1.5, "zero-denominator": "1/0"}[edit[5:]]
        where += f" '{last['id']}'"
    elif edit in ("int-then-bool", "half-then-float"):
        after = data["vertices"][2]
        first, then = {"int-then-bool": (1, True), "half-then-float": ("1/2", 1.5)}[edit]
        vertex["position"][0], after["position"][0] = first, then
        where += f" '{after['id']}'"
    else:
        vertex["position"][0] = {"float": 0.1, "bool": True, "zero-denominator": "1/0"}[edit]
        where += f" '{vertex['id']}'"
    path.write_text(json.dumps(data))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 4
    assert not out and where in err


@pytest.mark.parametrize("edit", ["list", "number", "basis-list", "graph-number"])
def test_multiply_basis_values_not_strings_exit_code(tmp_path, capsys, edit):
    graph_path = tmp_path / "b2.json"
    basis_path = tmp_path / "basis.json"
    assert run(["build", "B2-flag", "-o", str(graph_path)], capsys)[0] == 0
    assert run(["generators", str(graph_path), "-o", str(basis_path)], capsys)[0] == 0
    data = json.loads(basis_path.read_text())
    if edit == "list":
        data["generators"]["0"] = list(data["generators"]["0"])
    elif edit == "number":
        data["generators"]["0"]["e"] = 5
    elif edit == "basis-list":
        data = []
    else:
        data["graph"] = 5
    basis_path.write_text(json.dumps(data))
    code, out, err = run(["multiply", str(basis_path), "0", "0"], capsys)
    assert code == 4
    want = {"basis-list": "a basis must be an object", "graph-number": "a graph must be an object"}
    assert not out and want.get(edit, "generator '0'") in err


def test_multiply_basis_malformed_later_text_exit_code(tmp_path, capsys):
    graph_path = tmp_path / "b2.json"
    basis_path = tmp_path / "basis.json"
    assert run(["build", "B2-flag", "-o", str(graph_path)], capsys)[0] == 0
    assert run(["generators", str(graph_path), "-o", str(basis_path)], capsys)[0] == 0
    data = json.loads(basis_path.read_text())
    later = list(data["generators"])[-1]
    # a dangling '*' is malformed text too, not an IndexError
    for text in ("3x1", "x1*"):
        data["generators"][later] = {w: text for w in data["generators"][later]}
        basis_path.write_text(json.dumps(data))
        code, out, err = run(["multiply", str(basis_path), "0", "0"], capsys)
        assert code == 4
        assert not out and repr(text) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, condition",
    [
        ("negated", "diagonal_value"),
        ("doubled", "diagonal_value"),
        ("below", "vanish_below"),
        ("inhomogeneous", "homogeneous"),
        ("beside", "vanish_beside"),
    ],
)
def test_multiply_basis_breaking_generator_conditions_exit_code(tmp_path, capsys, edit, condition):
    graph_path = tmp_path / "b2.json"
    basis_path = tmp_path / "basis.json"
    assert run(["build", "B2-flag", "-o", str(graph_path)], capsys)[0] == 0
    assert run(["generators", str(graph_path), "-o", str(basis_path)], capsys)[0] == 0
    data = json.loads(basis_path.read_text())
    # the top vertex has no other of its dimension; 1-0-1 has 0-1-0 beside it
    vid = "1-0-1" if edit == "beside" else "1-0-1-0"
    values = data["generators"][vid]
    top = parse_polynomial(values[vid], 2)
    if edit == "negated":
        values[vid] = str(-top)
    elif edit == "doubled":
        values[vid] = str(2 * top)
    elif edit == "inhomogeneous":
        values[vid] = "x1^3*x2 + x1"
    elif edit == "beside":
        values["0-1-0"] = str(top)  # homogeneous, at a vertex of equal dimension
    else:
        values["0-1-0"] = str(top)  # homogeneous, but below the generator
    basis_path.write_text(json.dumps(data))
    code, out, err = run(["multiply", str(basis_path), "1-0-1", "0"], capsys)
    assert code == 4
    assert not out and f"generator {vid!r}" in err and condition in err


def test_generators_on_an_invalid_graph_exit_code(capsys):
    # the solver validates first; its ValidationFailureError exits 1
    code, out, err = run(["generators", str(FIXTURES / "odd_cell.json")], capsys)
    assert code == 1
    assert not out
    assert err.rstrip().endswith("overall: fail")


def test_multiply_below_the_product_degree_exit_code(tmp_path, capsys):
    # f_0-1 * f_1-0 has degree 4; a basis cut at degree 2 cannot expand it
    graph_path = tmp_path / "b2.json"
    basis_path = tmp_path / "b2-low.json"
    assert run(["build", "B2-flag", "-o", str(graph_path)], capsys)[0] == 0
    assert run(["generators", str(graph_path), "--degree", "2", "-o", str(basis_path)], capsys)[0] == 0
    code, out, err = run(["multiply", str(basis_path), "0-1", "1-0"], capsys)
    assert code == 2
    assert not out
    assert "nonzero residual" in err and "at '0-1-0'" in err
    assert "Traceback" not in err


def test_render_with_basis_labels_vertices(tmp_path, capsys):
    graph_path = tmp_path / "b2.json"
    basis_path = tmp_path / "b2-basis.json"
    assert run(["build", "B2-flag", "-o", str(graph_path)], capsys)[0] == 0
    assert run(["generators", str(graph_path), "-o", str(basis_path)], capsys)[0] == 0
    code, out, _ = run(
        ["render", str(graph_path), "--basis", str(basis_path), "--vertex", "0", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert '"0-1-0" [label="s0 s1 s0\\n2*(x1 + x2)"' in out


def test_render_refuses_a_basis_of_another_graph(tmp_path, capsys):
    # a B2 generator drawn on the A2 flag would be mislabelled, not refused
    a2, b2, basis = tmp_path / "a2.json", tmp_path / "b2.json", tmp_path / "b2-basis.json"
    assert run(["build", "A2-flag", "-o", str(a2)], capsys)[0] == 0
    assert run(["build", "B2-flag", "-o", str(b2)], capsys)[0] == 0
    assert run(["generators", str(b2), "-o", str(basis)], capsys)[0] == 0
    code, out, err = run(["render", str(a2), "--basis", str(basis), "--vertex", "0"], capsys)
    assert code == 4
    assert not out and "another graph" in err and "Traceback" not in err


@pytest.mark.parametrize("given", ["--basis", "--vertex"])
def test_render_needs_basis_and_vertex_together(tmp_path, capsys, given):
    b2, basis = tmp_path / "b2.json", tmp_path / "b2-basis.json"
    assert run(["build", "B2-flag", "-o", str(b2)], capsys)[0] == 0
    assert run(["generators", str(b2), "-o", str(basis)], capsys)[0] == 0
    code, out, err = run(["render", str(b2), given, str(basis) if given == "--basis" else "0"], capsys)
    assert code == 4
    assert not out and "--basis and --vertex must be given together" in err


def test_poincare_on_an_invalid_graph_exit_code(capsys):
    # a 3-cell would be counted in degree 2; the report goes to stderr
    code, out, err = run(["poincare", str(FIXTURES / "odd_cell.json")], capsys)
    assert code == 1
    assert not out
    assert "cell_dim 3 is not even" in err and err.rstrip().endswith("overall: fail")


def test_poincare_validates_before_it_sizes_the_series(tmp_path, capsys):
    # the default degree comes from the top cell; a 10**30-cell with one
    # down-edge must fail validation before a list of that length is asked for
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "rank": 1,
        "vertices": [{"id": "e", "cell_dim": 0}, {"id": "s", "cell_dim": 10**30}],
        "edges": [{"from": "e", "to": "s", "weight": [1]}],
    }))
    code, out, err = run(["poincare", str(path)], capsys)
    assert code == 1
    assert not out and "Traceback" not in err
    assert "expected 500000000000000000000000000000" in err and err.rstrip().endswith("overall: fail")


def test_render_refuses_a_label_xml_cannot_hold(tmp_path, capsys):
    path, svg = tmp_path / "label.json", tmp_path / "label.svg"
    path.write_text(json.dumps({
        "rank": 1,
        "vertices": [{"id": "e", "cell_dim": 0}, {"id": "s", "cell_dim": 2, "label": "a\u0001b"}],
        "edges": [{"from": "e", "to": "s", "weight": [1]}],
    }))
    code, out, err = run(["render", str(path), "--format", "svg", "-o", str(svg)], capsys)
    assert code == 4
    assert not out and "vertex 's'" in err and "not an XML character" in err and "Traceback" not in err
    assert not svg.exists()


def test_build_from_the_empty_cartan_matrix(tmp_path, capsys):
    gcm, out = tmp_path / "empty.json", tmp_path / "point.json"
    gcm.write_text("[]")
    code, _, err = run(["build", "--gcm", str(gcm), "-o", str(out)], capsys)
    assert code == 0 and not err
    graph = GkmGraph.loads(out.read_text())
    assert graph.rank == 0 and graph.vertex_ids == ("e",) and not graph.edges


@pytest.mark.parametrize("argv", [["generators", "huge-rank.json"], ["poincare", "b2.json", "--degree", str(10**30)]])
def test_a_count_beyond_an_index_exit_code(tmp_path, capsys, monkeypatch, argv):
    # a rank or degree of 10**30 sizes a list of that length: refused by
    # name, where it ended in an OverflowError traceback
    monkeypatch.chdir(tmp_path)
    assert run(["build", "B2-flag", "-o", "b2.json"], capsys)[0] == 0
    Path("huge-rank.json").write_text(json.dumps({"rank": 10**30, "vertices": [{"id": "e", "cell_dim": 0}], "edges": []}))
    code, out, err = run(argv, capsys)
    field = "rank" if argv[0] == "generators" else "degree"
    assert code == 4
    assert not out and f"{field} must be below" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["svg", "dot"])
@pytest.mark.parametrize("where", ["cell_dim", "position"])
def test_render_beyond_a_float_exit_code(tmp_path, capsys, where, fmt):
    # a layout coordinate beyond a float's range ended in an OverflowError
    # traceback: a cell_dim of 10**400 (graph without positions) or a
    # position entry "1e400"
    top = {"id": "s", "cell_dim": 10**400 if where == "cell_dim" else 2}
    vertices = [{"id": "e", "cell_dim": 0}, top]
    if where == "position":
        vertices[0]["position"], top["position"] = [0], ["1e400"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"rank": 1, "vertices": vertices, "edges": [{"from": "e", "to": "s", "weight": [1]}]}))
    code, out, err = run(["render", str(path), "--format", fmt], capsys)
    assert code == 4
    assert not out and f"the {where} of 's' is beyond a float's range" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edge, message",
    [
        ({"from": "s", "to": "s", "weight": [1]}, "edge endpoints must be distinct, got 's' twice"),
        ({"from": "e", "to": "s", "weight": [0]}, "edge (e, s) has zero weight"),
    ],
    ids=["self-loop", "zero-weight"],
)
def test_bad_edge_exit_code(tmp_path, capsys, edge, message):
    # the reader makes the edge checks itself, before the unchecked tuple.__new__
    path = tmp_path / "edge.json"
    vertices = [{"id": "e", "cell_dim": 0}, {"id": "s", "cell_dim": 2}]
    path.write_text(json.dumps({"rank": 1, "vertices": vertices, "edges": [edge]}))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 4
    assert not out and message in err and "Traceback" not in err


def test_render_span_beyond_a_float_exit_code(tmp_path, capsys):
    # positions that each fit a float, spread beyond its range: the SVG had
    # nan coordinates and the exit code was 0
    vertices = [
        {"id": "e", "cell_dim": 0, "position": ["0"]},
        {"id": "a", "cell_dim": 2, "position": ["-1e308"]},
        {"id": "b", "cell_dim": 2, "position": ["1e308"]},
    ]
    edges = [{"from": "e", "to": "a", "weight": [1]}, {"from": "e", "to": "b", "weight": [1]}]
    path = tmp_path / "span.json"
    path.write_text(json.dumps({"rank": 1, "vertices": vertices, "edges": edges}))
    code, out, err = run(["render", str(path), "--format", "svg", "-o", str(tmp_path / "span.svg")], capsys)
    assert code == 4
    assert not out and "the layout spans (-1e+308, 0.0) to (1e+308, 0.0)" in err and "Traceback" not in err
    assert not (tmp_path / "span.svg").exists()


# the edits of the file mutations below: drop a key, add a list item, or
# set a value to one of these
_FUZZ_VALUES = [None, True, False, 1.5, "", "1/0", "\x01", "\u0663", 10**30, 10**400, "1e400", [], {}]


@pytest.fixture(scope="module")
def b2_files(tmp_path_factory):
    """The B2-flag graph, its basis and the class of its generator ``0``,
    as JSON documents, and a directory to write their mutations to."""
    from gkmcalc.builders import build_preset
    from gkmcalc.solver import canonical_generators

    graph = build_preset("B2-flag")
    basis = json.loads(canonical_generators(graph, 4).dumps())
    docs = {
        "graph": json.loads(graph.dumps()),
        "basis": basis,
        "class": {"values": basis["generators"]["0"], "degree": 1},
    }
    return docs, tmp_path_factory.mktemp("fuzz")


def _containers(doc):
    """Every object and list in a JSON document, the document included."""
    out = [doc]
    for child in doc.values() if isinstance(doc, dict) else doc:
        if isinstance(child, (dict, list)):
            out += _containers(child)
    return out


def _mutate(doc, data):
    """Drop a key, add a list item or set a value, somewhere in ``doc``."""
    nodes = _containers(doc)
    lists = [c for c in nodes if isinstance(c, list)]
    kind = data.draw(st.sampled_from(["drop", "add", "set"] if lists else ["drop", "set"]))
    if kind == "add":
        items = data.draw(st.sampled_from(lists))
        pool = _FUZZ_VALUES + items
        items.append(copy.deepcopy(data.draw(st.sampled_from(pool))))
        return
    nodes = [c for c in nodes if c]
    if not nodes:
        return
    node = data.draw(st.sampled_from(nodes))
    key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if kind == "drop" and isinstance(node, dict):
        del node[key]
    else:
        node[key] = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_VALUES)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_files_exit_with_a_code(b2_files, data):
    # one or two edits to one of the three files; every subcommand that
    # reads them exits 0-4 with no exception and a bounded stderr
    docs, folder = b2_files
    which = data.draw(st.sampled_from(sorted(docs)))
    docs = copy.deepcopy(docs)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(docs[which], data)
    paths = {name: str(folder / f"{name}.json") for name in docs}
    for name, doc in docs.items():
        Path(paths[name]).write_text(json.dumps(doc))
    g, b, c = paths["graph"], paths["basis"], paths["class"]
    for argv in (
        ["validate", g],
        ["generators", g],
        ["poincare", g],
        ["render", g, "--format", "svg"],
        ["render", g, "--basis", b, "--vertex", "0"],
        ["multiply", b, "0", "0"],
        ["check", g, c],
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in range(5), (argv, code, err.getvalue())
        assert len(err.getvalue()) < 20_000, argv


@pytest.mark.parametrize("argv", [["generators", "rank.json"], ["power", "rank.json", "--n", "1"]])
def test_a_rank_too_large_to_hold_exit_code(tmp_path, capsys, monkeypatch, argv):
    # a rank of 2**62 is below the index bound, and CPython refuses the
    # moment form's [0] * rank before it allocates anything: a MemoryError
    # traceback, where one line and exit 4 are wanted
    monkeypatch.chdir(tmp_path)
    Path("rank.json").write_text(json.dumps({"rank": 2**62, "vertices": [{"id": "e", "cell_dim": 0}], "edges": []}))
    code, out, err = run(argv, capsys)
    assert code == 4
    assert not out and err == "input error: the input is too large to hold in memory\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build"], "build: need a preset name, --gcm FILE, or --chain WEIGHTS"),
        (["build", "--chain", ""], "a chain needs at least one weight"),
        (["build", "--gcm", "square.json"], "Cartan matrix must be square"),
        (["validate", "missing.json"], "edge (e, x) references a missing vertex"),
    ],
    ids=["build-no-source", "build-empty-chain", "build-non-square-gcm", "validate-missing-vertex"],
)
def test_input_refusal_exit_code(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("square.json").write_text("[[2, -1], [-1]]")
    edges = [{"from": "e", "to": "x", "weight": [1]}]
    Path("missing.json").write_text(json.dumps({"rank": 1, "vertices": [{"id": "e", "cell_dim": 0}], "edges": edges}))
    code, out, err = run(argv, capsys)
    assert code == 4
    assert not out and message in err and "Traceback" not in err


def test_s2n_counted_failure_exit_code(capsys, monkeypatch):
    # an oracle that refuses every image counts one failure per trial
    monkeypatch.setattr(oracle, "s2n_relative_image", lambda ws, g: False)
    code, out, err = run(["oracle", "s2n", "--trials", "3"], capsys)
    assert code == 1
    assert out == "s2n: 3 trials, 3 failures\n" and not err


def test_package_error_fallback_exit_code(tmp_path, capsys, monkeypatch):
    # a package error that no other branch names exits 1 with its message
    from gkmcalc import ring_ops
    from gkmcalc.errors import GkmError

    def refuse(graph, degree):
        raise GkmError("no series for this graph")

    monkeypatch.setattr(ring_ops, "poincare_series", refuse)
    path = tmp_path / "sphere.json"
    vertices = [{"id": "e", "cell_dim": 0}, {"id": "s", "cell_dim": 2}]
    path.write_text(json.dumps({"rank": 1, "vertices": vertices, "edges": [{"from": "e", "to": "s", "weight": [1]}]}))
    code, out, err = run(["poincare", str(path)], capsys)
    assert code == 1
    assert not out and err == "error: no series for this graph\n"
