import json

import numpy as np
import pytest

import detgraph as dg
from detgraph.cli import main


def run(*argv):
    return main(list(argv))


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "g.json"
    assert run("gen-grid", "--rows", "3", "--cols", "3", "-o", str(path)) == 0
    return path


class TestGenGrid:
    def test_small_shapes(self, tmp_path):
        out = tmp_path / "g.json"
        run("gen-grid", "--rows", "1", "--cols", "2", "-o", str(out))
        g = dg.WeightedGraph.from_json(out.read_text())
        assert (g.num_vertices, g.num_edges) == (2, 1)
        run("gen-grid", "--rows", "2", "--cols", "2", "-o", str(out))
        g = dg.WeightedGraph.from_json(out.read_text())
        assert (g.num_vertices, g.num_edges) == (4, 4)

    def test_figure_scale_grid(self, tmp_path):
        out = tmp_path / "g.json"
        run("gen-grid", "--rows", "15", "--cols", "15", "-o", str(out))
        g = dg.WeightedGraph.from_json(out.read_text())
        assert (g.num_vertices, g.num_edges) == (225, 420)

    def test_edge_order_contract(self, tmp_path):
        # horizontal edges first, then vertical; tail is the smaller id
        out = tmp_path / "g.json"
        run("gen-grid", "--rows", "2", "--cols", "3", "-o", str(out))
        g = dg.WeightedGraph.from_json(out.read_text())
        assert g.edges[:4] == ((0, 1), (1, 2), (3, 4), (4, 5))
        assert g.edges[4:] == ((0, 3), (1, 4), (2, 5))
        assert all(t < h for t, h in g.edges)


class TestSample:
    def test_deterministic_and_ranked(self, grid_file, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        args = ("sample", "--graph", str(grid_file), "--measure", "connected",
                "--k", "2", "--seed", "11", "--count", "2")
        assert run(*args, "-o", str(out1)) == 0
        assert run(*args, "-o", str(out2)) == 0
        p1, p2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert p1 == p2
        assert p1["rank"] == 10  # |V| - 1 + k
        assert all(len(s) == 10 for s in p1["samples"])

    def test_forms_file_roundtrip(self, grid_file, tmp_path):
        from detgraph import measures
        g = dg.WeightedGraph.from_json(grid_file.read_text())
        theta = measures.random_theta(g, 1, 5)
        forms = tmp_path / "forms.json"
        forms.write_text(measures.forms_to_json(theta=theta))
        out = tmp_path / "s.json"
        assert run("sample", "--graph", str(grid_file), "--measure", "connected",
                   "--k", "1", "--forms", str(forms), "--seed", "0",
                   "-o", str(out)) == 0
        assert json.loads(out.read_text())["rank"] == 9

    def test_degenerate_forms_exit_code(self, grid_file, tmp_path):
        # requesting more independent cycles than the graph has
        code = run("sample", "--graph", str(grid_file), "--measure",
                   "connected", "--k", "7", "--seed", "0",
                   "-o", str(tmp_path / "s.json"))
        assert code == 3

    @pytest.mark.parametrize("measure", ["ust", "connected", "forest", "mixed"])
    def test_one_vertex_graph_samples_the_empty_set(self, measure, tmp_path):
        graph, out = tmp_path / "g.json", tmp_path / "s.json"
        graph.write_text(json.dumps({"num_vertices": 1, "edges": []}))
        assert run("sample", "--graph", str(graph), "--measure", measure, "-o", str(out)) == 0
        assert json.loads(out.read_text())["samples"] == [[]]

    def test_missing_file_exit_code(self, tmp_path):
        code = run("sample", "--graph", str(tmp_path / "nope.json"),
                   "--measure", "ust", "-o", str(tmp_path / "s.json"))
        assert code == 2


class TestKernel:
    def test_export_matches_library(self, grid_file, tmp_path):
        out = tmp_path / "k.json"
        assert run("kernel", "--graph", str(grid_file), "--measure", "ust",
                   "-o", str(out)) == 0
        k = dg.ProjectionKernel.from_json(out.read_text())
        g = dg.WeightedGraph.from_json(grid_file.read_text())
        expected = dg.build_kernel(g, dg.MeasureSpec.ust())
        assert k.rank == expected.rank
        assert np.abs(k.matrix - expected.matrix).max() < 1e-12


class TestPoly:
    def test_tree_polynomial_of_grid(self, grid_file, tmp_path):
        out = tmp_path / "v.json"
        assert run("poly", "--graph", str(grid_file), "--which", "T",
                   "-o", str(out)) == 0
        payload = json.loads(out.read_text())
        g = dg.WeightedGraph.from_json(grid_file.read_text())
        expected = len(dg.enumerate_spanning_trees(g, cap=12))
        assert payload["value"][0] == pytest.approx(expected)
        assert payload["method"] == "determinant"

    def test_psi2_needs_charge(self, grid_file):
        assert run("poly", "--graph", str(grid_file), "--which", "psi2") == 2

    def test_psi2_with_charge(self, grid_file, tmp_path):
        q = ",".join(["1", "-1"] + ["0"] * 7)
        out = tmp_path / "v.json"
        assert run("poly", "--graph", str(grid_file), "--which", "psi2",
                   "--q", q, "-o", str(out)) == 0
        assert json.loads(out.read_text())["value"][0] > 0

    def test_custom_weights(self, tmp_path):
        out = tmp_path / "g.json"
        run("gen-grid", "--rows", "1", "--cols", "3", "-o", str(out))
        val = tmp_path / "v.json"
        assert run("poly", "--graph", str(out), "--which", "T",
                   "--weights", "2.0,3.0", "-o", str(val)) == 0
        assert json.loads(val.read_text())["value"][0] == pytest.approx(6.0)


class TestVerify:
    def test_pass_exit_zero(self, tmp_path):
        g = tmp_path / "g.json"
        run("gen-grid", "--rows", "2", "--cols", "2", "-o", str(g))
        out = tmp_path / "r.json"
        assert run("verify", "--graph", str(g), "--measure", "ust",
                   "-o", str(out)) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_unmeetable_tolerance_exit_one(self, tmp_path):
        g = tmp_path / "g.json"
        run("gen-grid", "--rows", "2", "--cols", "2", "-o", str(g))
        assert run("verify", "--graph", str(g), "--measure", "ust",
                   "--tolerance", "-1", "-o", str(tmp_path / "r.json")) == 1

    def test_connected_measure_verifies(self, tmp_path):
        g = tmp_path / "g.json"
        run("gen-grid", "--rows", "2", "--cols", "3", "-o", str(g))
        assert run("verify", "--graph", str(g), "--measure", "forest",
                   "--k", "1", "--seed", "4", "-o", str(tmp_path / "r.json")) == 0


class TestRender:
    def test_tree_sample_has_no_thick_edges(self, grid_file, tmp_path):
        s = tmp_path / "s.json"
        run("sample", "--graph", str(grid_file), "--measure", "ust",
            "--seed", "1", "-o", str(s))
        out = tmp_path / "t.svg"
        assert run("render", "--graph", str(grid_file), "--sample", str(s),
                   "--rows", "3", "--cols", "3", "-o", str(out)) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "#cc0000" not in svg  # trees prune to nothing

    def test_connected_sample_has_thick_core(self, grid_file, tmp_path):
        s = tmp_path / "s.json"
        run("sample", "--graph", str(grid_file), "--measure", "connected",
            "--k", "2", "--seed", "1", "-o", str(s))
        out = tmp_path / "c.svg"
        assert run("render", "--graph", str(grid_file), "--sample", str(s),
                   "--rows", "3", "--cols", "3", "-o", str(out)) == 0
        assert "#cc0000" in out.read_text()  # positive cycle rank forces a 2-core

    def test_deterministic_output(self, grid_file, tmp_path):
        s = tmp_path / "s.json"
        run("sample", "--graph", str(grid_file), "--measure", "crsf",
            "--seed", "2", "-o", str(s))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            run("render", "--graph", str(grid_file), "--sample", str(s),
                "--style", "cycles", "-o", str(out))
        assert a.read_text() == b.read_text()


# sample files that are not lists of integer edge indices
RENDER_PAYLOADS = {
    "render-number": 5,
    "render-samples-number": {"samples": 5},
    "render-sample-number": {"samples": [5]},
    "render-samples-object": {"samples": {"a": 1}},
    "render-float-index": {"samples": [[0.7, 1]]},
    "render-bool-index": {"samples": [[True, 2]]},
}


@pytest.mark.parametrize("case", ["render-index", "graph-without-edges", "forms-not-pairs",
                                  *RENDER_PAYLOADS])
def test_malformed_input_exits_2_without_traceback(case, grid_file, tmp_path, capsys):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps(RENDER_PAYLOADS.get(
        case, {"samples": [[0, 1]], "seed": 0, "rank": 2})))
    bad_graph = tmp_path / "bad.json"
    bad_graph.write_text(json.dumps({"num_vertices": 3}))
    forms = tmp_path / "f.json"
    forms.write_text(json.dumps({"theta": 5}))
    render = ("render", "--graph", str(grid_file), "--sample", str(samples))
    argv = {
        "render-index": (*render, "--index", "5"),
        "graph-without-edges": ("sample", "--graph", str(bad_graph), "--measure", "ust"),
        "forms-not-pairs": ("sample", "--graph", str(grid_file), "--measure", "connected",
                            "--k", "1", "--forms", str(forms)),
    }.get(case, render)
    assert run(*argv, "-o", str(tmp_path / "out")) == 2
    assert "Traceback" not in capsys.readouterr().err


class TestFigureScaleRoundTrip:
    def test_fifteen_grid_all_measures(self, tmp_path):
        import time
        g = tmp_path / "grid.json"
        assert run("gen-grid", "--rows", "15", "--cols", "15", "-o", str(g)) == 0
        for measure, k in [("ust", 0), ("connected", 4), ("forest", 4), ("crsf", 0)]:
            s = tmp_path / f"{measure}.json"
            start = time.monotonic()
            assert run("sample", "--graph", str(g), "--measure", measure,
                       "--k", str(k), "--seed", "1", "-o", str(s)) == 0
            assert time.monotonic() - start < 10.0, measure
            out = tmp_path / f"{measure}.svg"
            start = time.monotonic()
            assert run("render", "--graph", str(g), "--sample", str(s),
                       "--rows", "15", "--cols", "15", "-o", str(out)) == 0
            assert time.monotonic() - start < 10.0
            assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("edges", [[0, 99], [0, -1]])
def test_render_with_out_of_range_edge_exits_2(edges, tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert run("gen-grid", "--rows", "2", "--cols", "2", "-o", str(graph)) == 0
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"samples": [edges]}))
    assert run("render", "--graph", str(graph), "--sample", str(samples),
               "-o", str(tmp_path / "out.svg")) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("num_vertices", "3"), ("num_vertices", 3.0), ("num_vertices", True),
    ("tail", "0"), ("head", None), ("weight", "heavy"), ("weight", [1.0]),
])
def test_graph_json_with_non_integer_fields_exits_2(field, value, tmp_path, capsys):
    payload = {"num_vertices": 3, "edges": [{"tail": 0, "head": 1, "weight": 1.0},
                                            {"tail": 1, "head": 2, "weight": 2.0}]}
    if field == "num_vertices":
        payload[field] = value
    else:
        payload["edges"][0][field] = value
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(payload))
    assert run("sample", "--graph", str(graph), "--measure", "ust",
               "-o", str(tmp_path / "out.json")) == 2
    assert "Traceback" not in capsys.readouterr().err
