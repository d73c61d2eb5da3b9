"""Fuzz of the CLI's JSON inputs: every file ends in exit code 0, 2 or 3.

Inputs mix well-formed documents, documents with wrong leaves and arbitrary
JSON.  Integers stay within [-1, 6], so no input allocates a large graph.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from detgraph import measures
from detgraph.cli import main
from detgraph.graph import grid_graph

FUZZ = settings(derandomize=True, deadline=None, max_examples=250)
EXIT_CODES = {0, 2, 3}

small = st.integers(-1, 6)
# finite floats stay small: entries near the float maximum overflow the frame
# norms and are refused as degenerate forms, a known limitation
number = small | st.floats(-6.0, 6.0) | st.sampled_from(
    [0.0, -0.0, 1e-300, float("nan"), float("inf")])
leaf = st.none() | st.booleans() | number | st.text(max_size=3)
json_value = st.recursive(
    leaf,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8) | st.sampled_from(
                       ["num_vertices", "edges", "tail", "head", "weight",
                        "samples", "theta", "phi", "connection"]), inner, max_size=4)),
    max_leaves=12)


def mostly(good, otherwise=leaf, odds=40):
    """`good` odds - 1 times in odds, else `otherwise` (by default any JSON leaf)."""
    return st.sampled_from(range(odds)).flatmap(lambda i: good if i else otherwise)


def graph(n):
    """Graph documents on n vertices, connected or not."""
    vertex = mostly(st.integers(0, n - 1))
    edge = st.fixed_dictionaries({"tail": vertex, "head": vertex},
                                 optional={"weight": mostly(st.floats(0.1, 6.0))})
    return st.fixed_dictionaries({"num_vertices": mostly(st.just(n)),
                                  "edges": mostly(st.lists(edge, min_size=n - 1, max_size=8))})


graph_doc = mostly(st.integers(1, 4).flatmap(graph), json_value, 4)

edge_index = mostly(st.integers(0, 3))  # the fixed graph below has 4 edges
sample_doc = mostly(st.lists(edge_index, max_size=6) | st.fixed_dictionaries(
    {"samples": mostly(st.lists(mostly(st.lists(edge_index, max_size=6)), max_size=3))}),
    json_value, 4)

pair = mostly(st.lists(mostly(number), min_size=2, max_size=2))
form = mostly(st.lists(pair, min_size=4, max_size=4), st.lists(pair, max_size=6), 10)
forms_doc = mostly(st.fixed_dictionaries(
    {}, optional={"theta": mostly(st.lists(form, max_size=2)),
                  "phi": mostly(st.lists(form, max_size=2)),
                  "connection": form}), json_value, 4)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    grid = root / "grid.json"
    grid.write_text(grid_graph(2, 2).to_json())  # 4 vertices, 4 edges, one cycle
    return {"grid": grid, "input": root / "input.json", "out": root / "out"}


def _run(files, doc, *argv) -> None:
    files["input"].write_text(json.dumps(doc))
    assert main([*argv, "-o", str(files["out"])]) in EXIT_CODES


@FUZZ
@given(doc=sample_doc)
def test_render_sample_file(files, doc):
    _run(files, doc, "render", "--graph", str(files["grid"]), "--sample", str(files["input"]))


@FUZZ
@given(doc=graph_doc, measure=st.sampled_from(measures.VARIANTS))
def test_sample_graph_file(files, doc, measure):
    _run(files, doc, "sample", "--graph", str(files["input"]), "--measure", measure,
         "--k", "1", "--l", "1")


@FUZZ
@given(doc=forms_doc, measure=st.sampled_from(["connected", "crsf", "mixed"]))
def test_sample_forms_file(files, doc, measure):
    _run(files, doc, "sample", "--graph", str(files["grid"]), "--measure", measure,
         "--forms", str(files["input"]))
