"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and asserts at its stated tolerance.  Random
instances are seeded, so runs are reproducible.
"""

import itertools
import time

import numpy as np
import pytest

import detgraph as dg
from detgraph import dpp, matroid as mm, measures, oracle, polynomials

from conftest import random_connected_graph


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d}: {description}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


def embedded_test_graphs():
    """Planar graphs with explicit sphere embeddings (face walks)."""
    triangle = dg.WeightedGraph(3, [(0, 1), (1, 2), (2, 0)])
    tri_faces = [((0, 1), (1, 1), (2, 1)), ((2, -1), (1, -1), (0, -1))]

    square = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sq_faces = [((0, 1), (1, 1), (2, 1), (3, 1)),
                ((3, -1), (2, -1), (1, -1), (0, -1))]

    dipole = dg.WeightedGraph(2, [(0, 1), (0, 1), (0, 1)])
    di_faces = [((0, 1), (1, -1)), ((1, 1), (2, -1)), ((2, 1), (0, -1))]

    doubled = dg.WeightedGraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    db_faces = [((0, 1), (3, -1)), ((3, 1), (1, 1), (2, 1)),
                ((0, -1), (2, -1), (1, -1))]

    pendant = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    pd_faces = [((0, 1), (1, 1), (2, 1)),
                ((2, -1), (3, 1), (3, -1), (1, -1), (0, -1))]

    k4 = dg.WeightedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    k4_faces = [((0, 1), (4, 1), (2, -1)), ((3, 1), (5, 1), (4, -1)),
                ((1, -1), (2, 1), (5, -1)), ((1, 1), (3, -1), (0, -1))]

    return [(triangle, tri_faces), (square, sq_faces), (dipole, di_faces),
            (doubled, db_faces), (pendant, pd_faces), (k4, k4_faces)]


def test_criterion_01_triangle_ust_exact(triangle):
    kernel = dg.build_kernel(triangle, dg.MeasureSpec.ust())
    dpp.density(kernel, (0, 1))  # warm the LAPACK path before timing
    start = time.perf_counter()
    diag = np.diag(kernel.matrix).real
    densities = [dpp.density(kernel, t)
                 for t in itertools.combinations(range(3), 2)]
    elapsed = time.perf_counter() - start
    ok = (np.abs(diag - 2 / 3).max() < 1e-12
          and max(abs(d - 1 / 3) for d in densities) < 1e-12
          and elapsed < 1e-3)
    report(1, "triangle tree kernel diagonal 2/3, densities 1/3 (< 1e-12)",
           ok, f"{elapsed * 1e6:.0f} us")


def _measure_reproduction(variant: str, num: int, description: str) -> None:
    rng = np.random.default_rng(2024_0000 + num)
    start = time.monotonic()
    instances = 0
    worst = 0.0
    while instances < 50:
        k = int(rng.integers(1, 4))
        edges = int(rng.integers(5, 15))
        if edges < k + 2:
            continue
        if variant == "connected":
            # k independent cycles to constrain: b1 >= k
            g = random_connected_graph(rng, edges, min_b1=k)
        else:
            # k+1 components to cut out: at least k+1 vertices
            g = random_connected_graph(rng, edges, min_b1=1,
                                       min_vertices=k + 1)
        spec = measures.random_spec(g, variant, k, 0,
                                    seed=int(rng.integers(2 ** 31)))
        rep = oracle.compare_measure(g, spec)
        assert not rep.support_mismatches, rep.to_dict()
        worst = max(worst, rep.max_density_error)
        instances += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 300.0
    report(num, description, ok,
           f"50 instances, max err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_connected_measure_reproduction():
    _measure_reproduction(
        "connected", 2,
        "connected-subgraph weights equal kernel densities (< 1e-9)")


def test_criterion_03_forest_measure_reproduction():
    _measure_reproduction(
        "forest", 3,
        "spanning-forest weights equal kernel densities (< 1e-9)")


def test_criterion_04_determinant_identities():
    rng = np.random.default_rng(4444)
    graphs = [
        dg.WeightedGraph(3, [(0, 1), (1, 2), (2, 0)], rng.uniform(0.5, 2, 3)),
        dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
                         rng.uniform(0.5, 2, 5)),
        dg.grid_graph(3, 3),
        dg.grid_graph(2, 4),
        dg.complete_graph(4),
        # multigraph with a self-loop
        dg.WeightedGraph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (1, 1)],
                         rng.uniform(0.5, 2, 5)),
    ]
    graphs += [random_connected_graph(rng, m, min_b1=2, min_vertices=3)
               for m in (10, 12, 14)]
    worst = 0.0
    for g in graphs:
        assert g.num_edges <= 14
        for k in (1, 2):
            if k > g.betti_1 or k > g.num_vertices - 1:
                continue
            theta = measures.random_theta(g, k, int(rng.integers(2 ** 31)))
            phi = measures.random_phi(g, k, int(rng.integers(2 ** 31)))
            worst = max(worst,
                        oracle.compare_polynomial(g, "C", theta=theta).max_poly_rel_error,
                        oracle.compare_polynomial(g, "A", phi=phi).max_poly_rel_error)
    report(4, "bordered determinants equal enumeration sums (< 1e-9)",
           worst < 1e-9, f"max rel err {worst:.2e}")


def test_criterion_05_ratio_and_green_identities():
    rng = np.random.default_rng(5555)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 3))
        g = random_connected_graph(rng, int(rng.integers(4, 9)),
                                   min_b1=k, min_vertices=k + 1)
        theta = measures.random_theta(g, k, int(rng.integers(2 ** 31)))
        phi = measures.random_phi(g, k, int(rng.integers(2 ** 31)))
        worst = max(worst,
                    polynomials.ratio_identity_connected(g, None, theta).rel_error,
                    polynomials.ratio_identity_forest(g, None, phi).rel_error)
        q = rng.standard_normal(g.num_vertices)
        q -= q.mean()
        x = np.asarray(g.weights)
        lhs = dg.symanzik_psi2(g, x, q).real / dg.symanzik_psi1(g, x).real
        rhs = dg.green_height_pairing(g, x, q)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    report(5, "projection-norm ratios and Green pairing identities (< 1e-9)",
           worst < 1e-9, f"100 instances, max rel err {worst:.2e}")


def test_criterion_06_planar_duality():
    rng = np.random.default_rng(6666)
    worst_poly = 0.0
    worst_weight = 0.0
    count = 0
    for base, faces in embedded_test_graphs():
        g = dg.WeightedGraph(base.num_vertices, base.edges,
                             rng.uniform(0.5, 2.0, base.num_edges))
        for k in (1, 2):
            if k > g.num_vertices - 1:
                continue
            phi = measures.random_phi(g, k, int(rng.integers(2 ** 31)))
            dual_inv, spec, pd = dg.dual_transport(
                g, faces, dg.MeasureSpec.forest_k(phi))
            if k > dual_inv.betti_1:
                continue
            lhs = dg.generalized_A(g, None, phi).real
            rhs = float(np.prod(g.weights)) * dg.generalized_C(
                dual_inv, None, spec.theta).real
            worst_poly = max(worst_poly, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            # per-subgraph correspondence under complementation
            prod_x = float(np.prod(g.weights))
            for f in oracle.enumerate_family(g, "forest", k=k):
                w_f = dg.subgraph_weight(g, dg.MeasureSpec.forest_k(phi), f).value
                comp = dual_inv.mask(set(range(g.num_edges)) - f.edge_set)
                w_c = dg.subgraph_weight(dual_inv, spec, comp).value
                scale = max(abs(w_f), abs(prod_x * w_c), 1e-30)
                worst_weight = max(worst_weight, abs(w_f - prod_x * w_c) / scale)
            count += 1
    ok = count >= 5 and worst_poly < 1e-9 and worst_weight < 1e-10
    report(6, "planar duality of polynomials and per-subgraph weights",
           ok, f"{count} embedded instances, poly {worst_poly:.2e}, "
               f"weights {worst_weight:.2e}")


def test_criterion_07_matroid_layer():
    rng = np.random.default_rng(7777)
    worst = 0.0
    identity_worst = 0.0
    for trial in range(6):
        d = int(rng.integers(6, 11))
        target = int(rng.integers(2, d - 1))
        r = rng.standard_normal((target, d))
        if trial % 2:
            r = r + 1j * rng.standard_normal((target, d))
        m = mm.from_matrix(r, rng.uniform(0.5, 2.0, d))
        if m.corank == 0 or not m.bases:
            continue

        identity_worst = max(identity_worst,
                             mm.circuit_basis_identity_check(m).max_abs_error)

        dv = np.array([mm.density_via_circuits(m, t) for t in m.bases])
        bw = np.array([mm.basis_weight(m, t) for t in m.bases])
        worst = max(worst, np.abs(dv / dv.sum() - bw / bw.sum()).max())

        # conditional law against kernel conditioning
        kernel = mm.matroid_kernel(m)
        extra = [i for i in range(d) if i not in m.bases[0]][:2]
        k_set = tuple(sorted(set(m.bases[0]) | set(extra)))
        cond = dpp.condition_inside(kernel, k_set)
        subs = list(itertools.combinations(k_set, m.rank))
        dens = np.array([dpp.density(cond, t) for t in subs])
        via = np.array([mm.conditional_density(m, k_set, t)
                        if m.is_basis(t) else 0.0 for t in subs])
        worst = max(worst, np.abs(dens - via / via.sum()).max())

        # extension-measure weights against kernel densities
        if m.corank >= 1:
            theta = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
            tk, weight = mm.theorem_measure(m, theta)
            ksets = m.bases_of_rank_k_extension(1)
            ws = np.array([weight(t) for t in ksets])
            ds = np.array([dpp.density(tk, t) for t in ksets])
            worst = max(worst, np.abs(ws / ws.sum() - ds / ds.sum()).max())

    # graph specialization agrees with the graph-route kernels
    g = random_connected_graph(rng, 9, min_b1=2, min_vertices=3)
    gm = mm.from_matrix(g.boundary.astype(float), g.weights)
    spec_err = np.abs(mm.matroid_kernel(gm).matrix
                      - dg.build_kernel(g, dg.MeasureSpec.ust()).matrix).max()
    theta = measures.random_theta(g, 2, 1)
    tk, _ = mm.theorem_measure(gm, theta)
    ck = dg.build_kernel(g, dg.MeasureSpec.connected_k(theta))
    spec_err = max(spec_err, np.abs(tk.matrix - ck.matrix).max())

    ok = identity_worst < 1e-10 and worst < 1e-9 and spec_err < 1e-12
    report(7, "matroid densities, conditionals, extension weights, "
              "graph specialization",
           ok, f"identity {identity_worst:.2e}, densities {worst:.2e}, "
               f"specialization {spec_err:.2e}")


def test_criterion_08_monte_carlo_marginals():
    g = dg.grid_graph(3, 3)
    kernel = dg.build_kernel(g, dg.MeasureSpec.ust())
    n = 100_000
    samples = dpp.sample_batch(kernel, 0, n)
    sizes = {len(s) for s in samples}
    counts = np.zeros(g.num_edges)
    for s in samples:
        for e in s:
            counts[e] += 1
    emp = counts / n
    diag = np.diag(kernel.matrix).real
    sigma = np.sqrt(diag * (1 - diag) / n)
    deviations = np.abs(emp - diag) / sigma
    ok = sizes == {8} and np.all(deviations < 3.0)
    report(8, "100k tree samples: marginals in 3-sigma bands, "
              "cardinality |V|-1",
           ok, f"max deviation {deviations.max():.2f} sigma")


def test_criterion_09_real_stability():
    rng = np.random.default_rng(9999)
    reports = []
    for _ in range(3):
        k = int(rng.integers(1, 3))
        g = random_connected_graph(rng, int(rng.integers(5, 8)),
                                   min_b1=k, min_vertices=k + 1)
        theta = measures.random_theta(g, k, int(rng.integers(2 ** 31)))
        phi = measures.random_phi(g, k, int(rng.integers(2 ** 31)))
        for evaluate in (
            lambda x, g=g: dg.kirchhoff_T(g, x),
            lambda x, g=g, theta=theta: dg.generalized_C(g, x, theta),
            lambda x, g=g, phi=phi: dg.generalized_A(g, x, phi),
        ):
            reports.append(dg.stability_spot_check(
                evaluate, g.num_edges, trials=1000,
                seed=int(rng.integers(2 ** 31))))
    ok = all(r.passed for r in reports)
    min_ratio = min(r.min_abs / (1e-12 * r.max_abs) for r in reports)
    report(9, "tree/connected/forest polynomials nonzero on the upper "
              "half-plane (1000 points each)",
           ok, f"closest zero margin {min_ratio:.1e} x floor")


def test_criterion_10_figure_scale_sampling():
    g = dg.grid_graph(15, 15)
    checks = []
    timings = []

    def timed_sample(spec):
        kernel = dg.build_kernel(g, spec)
        start = time.monotonic()
        mask = measures.sample_subgraph(g, kernel, seed=1)
        timings.append(time.monotonic() - start)
        return mask

    tree = timed_sample(dg.MeasureSpec.ust())
    checks.append(tree.is_spanning_tree())

    spec_c = measures.random_spec(g, "connected", 4, 0, seed=2)
    conn = timed_sample(spec_c)
    checks.append(conn.is_connected() and conn.b1 == 4)

    spec_f = measures.random_spec(g, "forest", 4, 0, seed=3)
    forest = timed_sample(spec_f)
    checks.append(forest.b1 == 0 and forest.b0 == 5)

    spec_h = measures.random_spec(g, "crsf", 0, 0, seed=4)
    crsf = timed_sample(spec_h)
    checks.append(measures.sample_in_support(spec_h, crsf))

    ok = all(checks) and max(timings) < 10.0
    report(10, "15x15 grid: all four figure measures sample in < 10 s "
               "with correct support",
           ok, f"slowest sample {max(timings):.2f} s")
