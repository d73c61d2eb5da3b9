"""Command-line front end.

Subcommands: gen-grid, sample, kernel, poly, verify, render.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 numeric degeneracy.
Forms omitted on the command line are drawn from the seed on dedicated
random streams, so figures are reproducible from (graph, measure, seed).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dpp, measures, oracle
from .errors import (DegenerateForms, DetgraphError, ImpossibleCondition,
                     MalformedInput, NumericDegeneracy, RankDeficient)
from .graph import WeightedGraph, grid_graph
from .measures import MeasureSpec
from .render import RenderStyle, render_svg

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _read_graph(path: str) -> WeightedGraph:
    return WeightedGraph.from_json(Path(path).read_text())


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _forms(args) -> dict[str, np.ndarray] | None:
    return measures.forms_from_json(Path(args.forms).read_text()) if args.forms else None


def _spec_from_args(g: WeightedGraph, args) -> MeasureSpec:
    return measures.random_spec(g, args.measure, args.k, args.l, args.seed, _forms(args))


def _cmd_gen_grid(args) -> int:
    g = grid_graph(args.rows, args.cols, args.weight)
    _write(args.output, g.to_json())
    return EXIT_OK


def _cmd_sample(args) -> int:
    g = _read_graph(args.graph)
    spec = _spec_from_args(g, args)
    kernel = measures.build_kernel(g, spec)
    samples = [sorted(dpp.sample(kernel, args.seed + i)) for i in range(args.count)]
    _write(args.output, json.dumps(
        {"samples": samples, "seed": args.seed, "rank": kernel.rank}))
    return EXIT_OK


def _cmd_kernel(args) -> int:
    g = _read_graph(args.graph)
    spec = _spec_from_args(g, args)
    kernel = measures.build_kernel(g, spec)
    _write(args.output, kernel.to_json())
    return EXIT_OK


def _parse_vector(text: str | None, size: int, name: str) -> np.ndarray | None:
    if text is None:
        return None
    vals = [float(v) for v in text.split(",")]
    if len(vals) != size:
        raise DetgraphError(f"{name} needs {size} comma-separated values")
    if not all(map(math.isfinite, vals)):
        raise MalformedInput(f"{name} needs finite values")
    return np.array(vals)


def _charge(g: WeightedGraph, args) -> np.ndarray:
    q = _parse_vector(args.q, g.num_vertices, "--q")
    if q is None:
        raise DetgraphError(f"{args.which} needs --q")
    return q


# how `poly` obtains each extra input named in oracle.POLYNOMIALS; forms and
# chains come from --forms, else from the seed
_POLY_INPUTS = {
    "q": _charge,
    "theta": lambda g, args: measures.random_spec(
        g, "connected", args.k, 0, args.seed, _forms(args)).theta,
    "phi": lambda g, args: measures.random_spec(
        g, "forest", args.k, 0, args.seed, _forms(args)).phi,
}


def _cmd_poly(args) -> int:
    g = _read_graph(args.graph)
    x = _parse_vector(args.weights, g.num_edges, "--weights")
    poly = oracle.POLYNOMIALS[args.which]
    extra = () if poly.extra is None else (_POLY_INPUTS[poly.extra](g, args),)
    value = complex(poly.route(g, g.weights if x is None else x, *extra))
    if not cmath.isfinite(value):  # JSON has no NaN or infinity
        raise NumericDegeneracy(f"{args.which} is not finite at these weights: {value}")
    _write(args.output, json.dumps(
        {"which": args.which, "value": [value.real, value.imag], "method": "determinant"}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    spec = _spec_from_args(g, args)
    report = oracle.compare_measure(g, spec, tolerance=args.tolerance)
    _write(args.output, json.dumps(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_render(args) -> int:
    g = _read_graph(args.graph)
    payload = json.loads(Path(args.sample).read_text())
    samples = payload.get("samples") if isinstance(payload, dict) else [payload]
    # exact JSON types, as for graphs: a bool or a float is not an edge index
    if not (isinstance(samples, list) and all(
            isinstance(s, list) and all(type(i) is int for i in s) for s in samples)):
        raise MalformedInput("sample JSON needs lists of integer edge indices")
    try:
        edges = samples[args.index]
    except IndexError:
        raise MalformedInput(
            f"--index {args.index} is out of range for {len(samples)} samples") from None
    style = RenderStyle(thicken=args.style)
    svg = render_svg(g, edges, style, rows=args.rows, cols=args.cols)
    _write(args.output, svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detgraph",
        description="Sample and verify determinantal random subgraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", help="write a grid graph as JSON")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen_grid)

    def add_measure_flags(p):
        p.add_argument("--graph", required=True)
        p.add_argument("--measure", required=True,
                       choices=measures.VARIANTS)
        p.add_argument("--k", type=int, default=0)
        p.add_argument("--l", type=int, default=0)
        p.add_argument("--forms", default=None,
                       help="forms JSON; omitted forms are drawn from the seed")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sample", help="draw exact samples of a measure")
    add_measure_flags(p)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("kernel", help="export the projection kernel as JSON")
    add_measure_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("poly", help="evaluate a partition-function polynomial")
    p.add_argument("--graph", required=True)
    p.add_argument("--which", required=True, choices=list(oracle.POLYNOMIALS))
    p.add_argument("--weights", default=None,
                   help="comma-separated edge weights overriding the graph's")
    p.add_argument("--q", default=None, help="comma-separated vertex charge for psi2")
    p.add_argument("--forms", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("verify", help="brute-force check of a measure")
    add_measure_flags(p)
    p.add_argument("--tolerance", type=float, default=oracle.DENSITY_TOL)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render one sample as SVG")
    p.add_argument("--graph", required=True)
    p.add_argument("--sample", required=True, help="sample JSON from `detgraph sample`")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--style", default="2-core", choices=["2-core", "cycles", "none"])
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_render)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateForms, RankDeficient, NumericDegeneracy, ImpossibleCondition) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (DetgraphError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
