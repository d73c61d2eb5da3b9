"""The benchmark's four workloads: inputs, requests and output checks.

Every workload is a closed loop with one client.  Its requests come in
cycles: a cycle is a fixed list of request kinds (and input sizes), so every
run, whatever its seed, measures the same mix.  Inputs are drawn from the
workload seed and the cycle number and are made fresh for every cycle, so no
request sees an object whose cached properties an earlier request filled.
A request's `call` is what the benchmark times; its `check` runs afterwards,
off the clock, and returns whether the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from detgraph import cli, dpp, matroid, measures, oracle, polynomials
from detgraph.graph import WeightedGraph, grid_graph

IDENTITY_RTOL = 1e-9
WEIGHT_RANGE = (0.5, 2.0)


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    items: int = 1   # exact outputs a successful request delivers


def request_seed(seed: int, index: int) -> int:
    """Distinct sampler seed per request, reproducible from the workload seed."""
    return (seed << 32) + index


def weighted_grid(rows: int, cols: int, gen: np.random.Generator) -> WeightedGraph:
    g = grid_graph(rows, cols)
    return WeightedGraph(g.num_vertices, g.edges, gen.uniform(*WEIGHT_RANGE, g.num_edges))


def random_multigraph(gen: np.random.Generator, num_vertices: int,
                      num_edges: int) -> WeightedGraph:
    """Connected loop-free multigraph: a random tree plus random extra edges."""
    edges = [(int(gen.integers(0, v)), v) for v in range(1, num_vertices)]
    while len(edges) < num_edges:
        u, w = (int(a) for a in gen.integers(0, num_vertices, 2))
        if u != w:
            edges.append((u, w))
    edges = [(h, t) if flip else (t, h)
             for (t, h), flip in zip(edges, gen.random(num_edges) < 0.5)]
    return WeightedGraph(num_vertices, edges, gen.uniform(*WEIGHT_RANGE, num_edges))


def balanced_charge(gen: np.random.Generator, num_vertices: int) -> np.ndarray:
    q = gen.standard_normal(num_vertices)
    return q - q.mean()


def samples_ok(g: WeightedGraph, spec: measures.MeasureSpec, samples) -> bool:
    """Every sample has rank-many distinct edges and lies in the measure's support."""
    rank = spec.expected_rank(g)
    for edges in samples:
        edges = [int(e) for e in edges]
        if len(edges) != rank or len(set(edges)) != rank:
            return False
        if not all(0 <= e < g.num_edges for e in edges):
            return False
        if not measures.sample_in_support(spec, g.mask(edges)):
            return False
    return True


def rel_error(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def identity_ok(lhs: float, rhs: float) -> bool:
    return bool(np.isfinite(lhs) and np.isfinite(rhs)) and rel_error(lhs, rhs) < IDENTITY_RTOL


def positive_real(value) -> bool:
    z = complex(value)
    return bool(np.isfinite(z.real) and z.imag == 0.0 and z.real > 0.0)


# -- figure-15x15 ---------------------------------------------------------------

class Figure:
    """`detgraph sample --count 3` on a seeded-weight grid, through `cli.main`."""

    name = "figure-15x15"
    KINDS = (("ust", 0, 0), ("connected", 4, 0), ("forest", 4, 0),
             ("crsf", 0, 0), ("mixed", 2, 2))
    COUNT = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        side = 4 if tiny else 15
        g = weighted_grid(side, side, np.random.default_rng((seed, 1)))
        self.graph_path = workdir / "graph.json"
        self.graph_path.write_text(g.to_json())
        self.graph = WeightedGraph.from_json(self.graph_path.read_text())
        self.out_path = workdir / "samples.json"
        warm = workdir / "warm.json"
        warm.write_text(grid_graph(3, 3).to_json())
        if cli.main(["sample", "--graph", str(warm), "--measure", "ust",
                     "-o", str(self.out_path)]) != 0:
            raise RuntimeError("warm-up sample failed")

    def cycle(self, c: int) -> list[Request]:
        reqs = []
        for j, (variant, k, l) in enumerate(self.KINDS):
            s = request_seed(self.seed, c * len(self.KINDS) + j)
            argv = ["sample", "--graph", str(self.graph_path), "--measure", variant,
                    "--k", str(k), "--l", str(l), "--seed", str(s),
                    "--count", str(self.COUNT), "-o", str(self.out_path)]
            reqs.append(Request(variant, lambda argv=argv: cli.main(argv),
                                self._check(variant, k, l, s), self.COUNT))
        return reqs

    def _check(self, variant, k, l, s):
        def check(code) -> bool:
            payload = json.loads(self.out_path.read_text())
            self.out_path.unlink()
            spec = measures.random_spec(self.graph, variant, k, l, s)
            return (code == 0 and payload["seed"] == s
                    and payload["rank"] == spec.expected_rank(self.graph)
                    and len(payload["samples"]) == self.COUNT
                    and samples_ok(self.graph, spec, payload["samples"]))
        return check


# -- mc-small -------------------------------------------------------------------

class MonteCarlo:
    """`dpp.sample_batch` on kernels of a 3x3 grid (ust) and a 4x4 grid (all five)."""

    name = "mc-small"
    KINDS_4X4 = (("ust", 0, 0), ("connected", 2, 0), ("forest", 2, 0),
                 ("crsf", 0, 0), ("mixed", 2, 2))
    PREFIX = 4   # leading samples of each batch compared with dpp.sample

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.count = 20 if tiny else 500
        gen = np.random.default_rng((seed, 2))
        g3, g4 = weighted_grid(3, 3, gen), weighted_grid(4, 4, gen)
        specs = [("3x3-ust", g3, measures.MeasureSpec.ust())]
        for variant, k, l in self.KINDS_4X4:
            specs.append((f"4x4-{variant}", g4,
                          measures.random_spec(g4, variant, k, l, int(gen.integers(2 ** 31)))))
        self.kernels = [(kind, g, spec, measures.build_kernel(g, spec))
                        for kind, g, spec in specs]
        for *_, kernel in self.kernels:
            dpp.sample_batch(kernel, seed, 8)

    def cycle(self, c: int) -> list[Request]:
        reqs = []
        for j, (kind, g, spec, kernel) in enumerate(self.kernels):
            s = request_seed(self.seed, (c * len(self.kernels) + j) * self.count)
            reqs.append(Request(kind, lambda kernel=kernel, s=s: dpp.sample_batch(
                kernel, s, self.count), self._check(g, spec, kernel, s), self.count))
        return reqs

    def _check(self, g, spec, kernel, s):
        def check(batch) -> bool:
            if len(batch) != self.count:
                return False
            if any(batch[i] != dpp.sample(kernel, s + i) for i in range(self.PREFIX)):
                return False
            return samples_ok(g, spec, batch)
        return check


# -- verify-small ---------------------------------------------------------------

class Verify:
    """Oracle comparisons on seeded random multigraphs with 12-16 edges.

    A graph with E edges has E // 3 + 1 vertices, so the enumerations stay
    short enough for several cycles per run.
    """

    name = "verify-small"
    KINDS = (("measure", "ust", 0), ("measure", "connected", 1), ("measure", "connected", 2),
             ("measure", "forest", 1), ("measure", "forest", 2), ("measure", "crsf", 0),
             ("poly", "T", 0), ("poly", "psi1", 0), ("poly", "psi2", 0),
             ("poly", "C", 2), ("poly", "A", 2),
             ("matroid", "real", 0), ("matroid", "complex", 0))
    EDGES = (12, 13, 14, 15, 16)
    GROUND = (8, 9, 10)
    # 13 kinds x 5 edge counts: every kind meets every size once per cycle
    CYCLE = len(KINDS) * len(EDGES)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.edges = tuple(e - 6 for e in self.EDGES) if tiny else self.EDGES
        warm = random_multigraph(np.random.default_rng((seed, 30)), 5, 7)
        if not oracle.compare_measure(warm, measures.MeasureSpec.ust()).passed:
            raise RuntimeError("warm-up comparison failed")

    def cycle(self, c: int) -> list[Request]:
        gen = np.random.default_rng((self.seed, 3, c))
        reqs = []
        for j in range(self.CYCLE):
            family, which, k = self.KINDS[j % len(self.KINDS)]
            num_edges = self.edges[j % len(self.edges)]
            s = int(gen.integers(2 ** 31))
            if family == "matroid":
                reqs.append(self._matroid(gen, which, self.GROUND[j % len(self.GROUND)]))
                continue
            g = random_multigraph(gen, num_edges // 3 + 1, num_edges)
            if family == "measure":
                spec = measures.random_spec(g, which, k, 0, s)
                reqs.append(Request(f"measure-{which}-{k}" if k else f"measure-{which}",
                                    lambda g=g, spec=spec: oracle.compare_measure(g, spec),
                                    _passed))
            else:
                kwargs = {}
                if which == "C":
                    kwargs["theta"] = measures.random_theta(g, k, s)
                elif which == "A":
                    kwargs["phi"] = measures.random_phi(g, k, s)
                elif which == "psi2":
                    kwargs["q"] = balanced_charge(gen, g.num_vertices)
                reqs.append(Request(f"poly-{which}", lambda g=g, which=which, kwargs=kwargs:
                                    oracle.compare_polynomial(g, which, **kwargs), _passed))
        return reqs

    def _matroid(self, gen, which, ground) -> Request:
        r = gen.standard_normal((ground // 2, ground))
        if which == "complex":
            r = r + 1j * gen.standard_normal(r.shape)
        m = matroid.from_matrix(r, gen.uniform(*WEIGHT_RANGE, ground))

        def call():
            return oracle.matroid_basis_sums(m), matroid.partition_functions(m)
        return Request(f"matroid-{which}", call, _matroid_ok)


def _passed(report) -> bool:
    return report.passed


def _matroid_ok(out) -> bool:
    sums, pf = out
    return all(identity_ok(pf[key], sums[key]) for key in ("B", "K"))


# -- poly-grid ------------------------------------------------------------------

class PolyGrid:
    """Polynomial evaluators and identities on seeded 8x8 to 15x15 grids."""

    name = "poly-grid"
    GRID_KINDS = ("T", "psi1", "psi2", "C", "A", "ratio-connected", "ratio-forest",
                  "green", "torus")
    STABILITY_KINDS = ("stability-T", "stability-C", "stability-A")
    SIDES = tuple(range(8, 16))
    STABILITY_SIDE = 5
    STABILITY_TRIALS = 200
    K = 2

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.sides = (3, 4) if tiny else self.SIDES
        self.stability_side = 3 if tiny else self.STABILITY_SIDE
        self.trials = 10 if tiny else self.STABILITY_TRIALS
        g = weighted_grid(3, 3, np.random.default_rng((seed, 40)))
        if not positive_real(polynomials.generalized_C(g, None, measures.random_theta(g, 1, seed))):
            raise RuntimeError("warm-up evaluation failed")

    def cycle(self, c: int) -> list[Request]:
        """9 kinds at each of the 8 grid sizes, then the 3 stability checks."""
        gen = np.random.default_rng((self.seed, 4, c))
        jobs = [(kind, side) for side in self.sides for kind in self.GRID_KINDS]
        jobs += [(kind, self.stability_side) for kind in self.STABILITY_KINDS]
        reqs = []
        for kind, side in jobs:
            s = int(gen.integers(2 ** 31))
            g = weighted_grid(side, side, gen)
            call, check = self._request(kind, g, gen, s)
            reqs.append(Request(f"{kind}-{side}x{side}", call, check))
        return reqs

    def _request(self, kind, g, gen, s):
        x = g.weights
        theta = measures.random_theta(g, self.K, s)
        phi = measures.random_phi(g, self.K, s)
        q = balanced_charge(gen, g.num_vertices)
        if kind == "T":
            return lambda: polynomials.kirchhoff_T(g), positive_real
        if kind == "psi1":
            return lambda: polynomials.symanzik_psi1(g), positive_real
        if kind == "psi2":
            return lambda: polynomials.symanzik_psi2(g, x, q), positive_real
        if kind == "C":
            return lambda: polynomials.generalized_C(g, None, theta), positive_real
        if kind == "A":
            return lambda: polynomials.generalized_A(g, None, phi), positive_real
        if kind == "ratio-connected":
            return lambda: polynomials.ratio_identity_connected(g, None, theta), _ratio_ok
        if kind == "ratio-forest":
            return lambda: polynomials.ratio_identity_forest(g, None, phi), _ratio_ok
        if kind == "green":
            def green():
                return (polynomials.green_height_pairing(g, x, q),
                        polynomials.symanzik_psi2(g, x, q).real
                        / polynomials.symanzik_psi1(g, x).real)
            return green, _pair_ok
        if kind == "torus":
            def torus():
                return (polynomials.torus_volume(g),
                        float(np.prod(x)) ** -0.5 * polynomials.kirchhoff_T(g).real)
            return torus, _pair_ok
        evaluate = {
            "stability-T": lambda z: polynomials.kirchhoff_T(g, z),
            "stability-C": lambda z: polynomials.generalized_C(g, z, theta),
            "stability-A": lambda z: polynomials.generalized_A(g, z, phi),
        }[kind]
        return (lambda: polynomials.stability_spot_check(evaluate, g.num_edges, self.trials, s),
                _passed)


def _ratio_ok(report) -> bool:
    return identity_ok(report.lhs, report.rhs)


def _pair_ok(pair) -> bool:
    return identity_ok(*pair)


WORKLOADS = {w.name: w for w in (Figure, MonteCarlo, Verify, PolyGrid)}
