import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detgraph as dg
from detgraph import measures, oracle
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("measure", ["connected", "forest", "mixed"])
    def test_forms_near_the_float_maximum(self, measure, tmp_path):
        # one entry of 1e300 scales a column, not its span
        graph, forms, out = tmp_path / "g.json", tmp_path / "f.json", tmp_path / "s.json"
        graph.write_text(dg.grid_graph(2, 2).to_json())
        column = [[1e300, 0.0], [1.0, 0.0], [0.5, 0.0], [2.0, 0.0]]
        forms.write_text(json.dumps({"theta": [column], "phi": [column]}))
        assert run("sample", "--graph", str(graph), "--measure", measure,
                   "--forms", str(forms), "-o", str(out)) == 0
        assert json.loads(out.read_text())["rank"] == {"connected": 4, "forest": 2,
                                                       "mixed": 3}[measure]

    def test_degenerate_forms_exit_code(self, grid_file, tmp_path):
        # requesting more independent cycles than the graph has
        code = run("sample", "--graph", str(grid_file), "--measure",
                   "connected", "--k", "7", "--seed", "0",
                   "-o", str(tmp_path / "s.json"))
        assert code == 3

    def test_projector_drift_exit_code(self, grid_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(dg.dpp, "PROB_FLOOR", 1.5)
        code = run("sample", "--graph", str(grid_file), "--measure", "ust",
                   "-o", str(tmp_path / "s.json"))
        assert code == 3
        assert "projector drift exhausted the diagonal" in capsys.readouterr().err

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
        expected = len(oracle.enumerate_family(g, "ust"))
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

    # non-finite inputs are refused (exit 2); no `poly` route divides by the
    # weights, so a zero weight is a valid point of every polynomial
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("which, weights, q, code", [
        ("T", "nan,1,1,1", None, 2), ("T", "inf,1,1,1", None, 2),
        ("psi2", "1,1,1,1", "nan,-1,0,0", 2), ("psi1", "0,1,1,1", None, 0),
        ("psi2", "0,1,1,1", "1,-1,0,0", 0), ("A", "0,1,1,1", None, 0),
        ("T", "0,1,1,1", None, 0), ("C", "0,1,1,1", None, 0),
    ])
    def test_weights_it_cannot_evaluate(self, which, weights, q, code, tmp_path, capsys):
        graph, out = tmp_path / "g.json", tmp_path / "v.json"
        run("gen-grid", "--rows", "2", "--cols", "2", "-o", str(graph))
        charge = () if q is None else (f"--q={q}",)
        assert run("poly", "--graph", str(graph), "--which", which,
                   "--weights", weights, *charge, "-o", str(out)) == code
        assert "Traceback" not in capsys.readouterr().err
        if code != 0:
            assert not out.exists()
            return
        value = json.loads(out.read_text())["value"]
        assert np.all(np.isfinite(value))
        if which != "C":  # C's forms are drawn from the seed
            g = dg.WeightedGraph.from_json(graph.read_text())
            inputs = [np.array(v.split(","), dtype=float) for v in (weights, q) if v]
            if which == "A":  # the chains of --k 1 at --seed 0, the defaults
                inputs.append(measures.random_spec(g, "forest", 1, 0, 0).phi)
            assert value[0] == pytest.approx(
                oracle.POLYNOMIALS[which].defining_sum(g, *inputs), rel=1e-12)

    # psi1 and psi2 are homogeneous of degree b1 = 196 and b1 + 1 on a 15x15
    # grid, and A with k = 1 of degree |V| - 2 = 223; their values at uniform
    # weights span hundreds of decades
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("which, degree, weight", [
        ("psi1", 196, 0.1), ("psi1", 196, 10.0), ("psi2", 197, 0.1), ("psi2", 197, 10.0),
        ("A", 223, 0.1)])
    def test_symanzik_at_uniform_weights_far_from_one(self, which, degree, weight, tmp_path):
        graph = tmp_path / "g.json"
        run("gen-grid", "--rows", "15", "--cols", "15", "-o", str(graph))
        charge = ("--q=" + ",".join(["1", "-1"] + ["0"] * 223),) if which == "psi2" else ()
        values = []
        for w in (weight, 0.5):
            out = tmp_path / f"{w}.json"
            assert run("poly", "--graph", str(graph), "--which", which, *charge,
                       "--weights", ",".join([repr(w)] * 420), "-o", str(out)) == 0
            values.append(json.loads(out.read_text())["value"][0])
        assert np.all(np.isfinite(values))
        assert values[0] / values[1] == pytest.approx((weight / 0.5) ** degree, rel=1e-9, abs=0)

    # the determinant overflows (numpy warns); the value is refused, not printed
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("which, weights", [("T", "1e200"), ("psi1", "1e308")])
    def test_value_that_overflows_exits_3(self, which, weights, tmp_path, capsys):
        graph, out = tmp_path / "g.json", tmp_path / "v.json"
        run("gen-grid", "--rows", "2", "--cols", "2", "-o", str(graph))
        assert run("poly", "--graph", str(graph), "--which", which,
                   "--weights", ",".join([weights] * 4), "-o", str(out)) == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-inf"])
    def test_non_finite_tolerance_refused(self, tolerance, tmp_path, capsys):
        g = tmp_path / "g.json"
        run("gen-grid", "--rows", "2", "--cols", "2", "-o", str(g))
        out = tmp_path / "r.json"
        assert run("verify", "--graph", str(g), "--measure", "ust",
                   f"--tolerance={tolerance}", "-o", str(out)) == 2
        assert "--tolerance" in capsys.readouterr().err and not out.exists()

    def test_weights_that_underflow_exit_three(self, tmp_path, capsys):
        # every tree monomial is 1e-330, which is 0: nothing can be compared
        g = tmp_path / "g.json"
        run("gen-grid", "--rows", "2", "--cols", "2", "--weight", "1e-110", "-o", str(g))
        out = tmp_path / "r.json"
        assert run("verify", "--graph", str(g), "--measure", "ust", "-o", str(out)) == 3
        assert "sum to 0.0" in capsys.readouterr().err and not out.exists()

    def test_connected_measure_verifies(self, tmp_path):
        g = tmp_path / "g.json"
        run("gen-grid", "--rows", "2", "--cols", "3", "-o", str(g))
        assert run("verify", "--graph", str(g), "--measure", "forest",
                   "--k", "1", "--seed", "4", "-o", str(tmp_path / "r.json")) == 0

    def test_mixed_measure_verifies(self, tmp_path):
        # mixed has a closed-form weight, so verify compares it like the others
        g, out = tmp_path / "g.json", tmp_path / "r.json"
        run("gen-grid", "--rows", "3", "--cols", "3", "-o", str(g))
        assert run("verify", "--graph", str(g), "--measure", "mixed",
                   "--k", "1", "--l", "1", "-o", str(out)) == 0
        assert json.loads(out.read_text())["passed"] is True


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
                                  "negative-count", *RENDER_PAYLOADS])
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
        "negative-count": ("sample", "--graph", str(grid_file), "--measure", "ust",
                           "--count", "-2"),
    }.get(case, render)
    assert run(*argv, "-o", str(tmp_path / "out")) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "verify", "kernel", "poly"])
def test_forms_of_the_wrong_length_exit_2(command, grid_file, tmp_path, capsys):
    # one theta of 5 rows for the 12 edges of the grid
    forms = tmp_path / "f.json"
    forms.write_text(measures.forms_to_json(theta=np.ones((5, 1))))
    which = ("--which", "C") if command == "poly" else ("--measure", "connected")
    assert run(command, "--graph", str(grid_file), *which, "--k", "1", "--forms", str(forms),
               "-o", str(tmp_path / "out")) == 2
    assert "'theta'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("sample", "--measure", "forest", "--k", "-1"),
    ("sample", "--measure", "mixed", "--k", "1", "--l", "-1"),
    ("poly", "--which", "A", "--k", "-1"),
], ids=["sample-k", "sample-l", "poly-k"])
def test_negative_form_count_exits_2(argv, grid_file, tmp_path, capsys):
    assert run(*argv, "--graph", str(grid_file), "-o", str(tmp_path / "out")) == 2
    assert "nonnegative" in capsys.readouterr().err


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


def test_vertex_count_beyond_memory_exits_2_at_once(tmp_path):
    # too few edges to connect 10^12 vertices: refused before the union-find
    # allocates per vertex; the child runs with 2 GB of address space
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"num_vertices": 10 ** 12, "edges": []}))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))

    proc = subprocess.run(
        [sys.executable, "-m", "detgraph.cli", "sample", "--graph", str(graph),
         "--measure", "ust"], capture_output=True, text=True, timeout=60,
        preexec_fn=limit_memory, env={**os.environ, "PYTHONPATH": str(Path(dg.__file__).parents[1])})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "connected" in proc.stderr


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
