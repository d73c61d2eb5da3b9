import itertools
import time
import tracemalloc

import numpy as np
import pytest

import detgraph as dg
from detgraph import dpp, matroid as mm, measures, oracle
from detgraph.errors import EnumerationCapExceeded, NumericDegeneracy

from conftest import random_connected_graph


class TestEnumerateFamily:
    def test_triangle_c1_is_whole_graph(self, triangle):
        fam = oracle.enumerate_family(triangle, "connected", k=1)
        assert [m.indices for m in fam] == [(0, 1, 2)]

    def test_triangle_f2_is_single_edges(self, triangle):
        fam = oracle.enumerate_family(triangle, "forest", k=1)
        assert sorted(m.indices for m in fam) == [(0,), (1,), (2,)]

    def test_four_cycle_families(self):
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        c1 = oracle.enumerate_family(g, "connected", k=1)
        assert [m.indices for m in c1] == [(0, 1, 2, 3)]
        # two-component spanning forests are the 2-subsets of edges: every
        # pair is acyclic (a cycle needs all four edges) and leaves b0 = 2
        f2 = oracle.enumerate_family(g, "forest", k=1)
        assert len(f2) == 6
        assert all(m.b0 == 2 and m.b1 == 0 for m in f2)

    def test_crsf_family_of_triangle_plus_pendant(self):
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        fam = oracle.enumerate_family(g, "crsf")
        # the only unicyclic spanning subgraph uses all four edges
        assert [m.indices for m in fam] == [(0, 1, 2, 3)]

    def test_mixed_family_window(self, square_with_chord):
        g = square_with_chord
        fam = oracle.enumerate_family(g, "mixed", k=1, l=1)
        assert fam
        for m in fam:
            assert m.b0 - m.b1 == 1
            assert 0 <= m.b1 <= 1

    def test_cap_enforced(self, monkeypatch):
        g = dg.grid_graph(3, 3)
        monkeypatch.setenv("DETGRAPH_ENUM_CAP", "5")
        with pytest.raises(EnumerationCapExceeded):
            oracle.enumerate_family(g, "forest", k=1)

    def test_cayley_counts(self):
        # complete-graph tree counts against the closed form n^(n-2),
        # recomputed through the reduced Laplacian rather than hardcoded
        for n in (2, 3, 4, 5):
            g = dg.complete_graph(n)
            fam = oracle.enumerate_family(g, "connected", k=0)
            det = round(np.linalg.det(
                (g.boundary @ g.boundary.T)[1:, 1:].astype(float)))
            assert len(fam) == det == n ** (n - 2)


class TestCompareMeasure:
    def test_ust_triangle_exact(self, triangle):
        rep = oracle.compare_measure(triangle, dg.MeasureSpec.ust())
        assert rep.passed
        assert rep.max_density_error < 1e-12

    def test_report_dict_shape(self, triangle):
        rep = oracle.compare_measure(triangle, dg.MeasureSpec.ust())
        d = rep.to_dict()
        assert set(d) == {"instance", "max_density_error", "max_poly_rel_error",
                          "support_mismatches", "runtime_seconds", "passed"}

    def test_impossible_tolerance_fails(self, triangle):
        rep = oracle.compare_measure(triangle, dg.MeasureSpec.ust(),
                                     tolerance=-1.0)
        assert not rep.passed

    def test_zero_density_flagged_at_small_weights(self, monkeypatch):
        # every tree monomial is below the density tolerance at weights near
        # 1e-4, so only the normalized weight can flag the family member
        # whose density is forced to zero
        rng = np.random.default_rng(12)
        base = random_connected_graph(rng, 12, min_b1=2)
        g = dg.WeightedGraph(base.num_vertices, base.edges, 1e-4 * base.weights)
        victim = oracle.enumerate_family(g, "connected", k=0)[0].indices
        density = dpp.density

        def zero_victim(kernel, subsets):
            dens = density(kernel, subsets)
            dens[(np.asarray(subsets) == victim).all(axis=1)] = 0.0
            return dens
        monkeypatch.setattr(dpp, "density", zero_victim)
        rep = oracle.compare_measure(g, dg.MeasureSpec.ust())
        assert victim in rep.support_mismatches

    def test_mismatches_in_scan_order(self, square_with_chord, monkeypatch):
        # the scan flags density outside the support as it meets it, and zero
        # density on a member only once the weights are normalized, after the
        # scan; the report lists both kinds in the lexicographic scan order
        g = square_with_chord
        trees = [t.indices for t in oracle.enumerate_family(g, "ust")]
        zeroed = [trees[0], trees[-1]]
        raised = [s for s in itertools.combinations(range(g.num_edges), 3) if s not in trees]
        assert zeroed[0] < raised[0] < zeroed[1] < raised[1]  # the two kinds interleave
        density = dpp.density

        def perturbed(kernel, subsets):
            dens = density(kernel, subsets)
            for i, row in enumerate(map(tuple, np.asarray(subsets).tolist())):
                dens[i] = 0.0 if row in zeroed else 0.5 if row in raised else dens[i]
            return dens
        monkeypatch.setattr(dpp, "density", perturbed)
        rep = oracle.compare_measure(g, dg.MeasureSpec.ust())
        assert rep.support_mismatches == [zeroed[0], raised[0], zeroed[1], raised[1]]

    # rows of the stacked topology pass on the 9-edge graph of
    # test_distribution.py: one per scanned subset of the sample size, each
    # seen once; the weights read their cycles, cuts and per-component cycle
    # counts off the members' rows
    @pytest.mark.parametrize("variant, rows, distinct", [
        ("ust", 126, 126), ("forest", 126, 126), ("crsf", 84, 84), ("connected", 84, 84)])
    def test_each_topology_computed_once(self, variant, rows, distinct, monkeypatch):
        weights = np.random.default_rng(3).uniform(0.5, 2.0, 9)
        g = dg.WeightedGraph(6, [*dg.grid_graph(2, 3).edges, (0, 4), (2, 4)], weights)
        spec = measures.random_spec(g, variant, 1, 1, 11)
        seen = []
        topology = dg.graph.subset_topology

        def counted(g, subsets):
            seen.extend(map(tuple, np.asarray(subsets).tolist()))
            return topology(g, subsets)
        monkeypatch.setattr(dg.graph, "subset_topology", counted)
        assert oracle.compare_measure(g, spec).passed
        assert (len(seen), len(set(seen))) == (rows, distinct)

    def test_block_bound_changes_no_result(self, monkeypatch):
        # one subset per block against one block per scan: the reports, the
        # defining sums, and the bases and basis sums of a real and a complex
        # matroid are equal to the last bit
        g = dg.WeightedGraph(6, [*dg.grid_graph(2, 3).edges, (0, 4), (2, 4)],
                             np.random.default_rng(4).uniform(0.5, 2.0, 9))
        x = np.random.default_rng(5).uniform(0.1, 3.0, 9)
        q = np.arange(6.0) - 2.5
        theta, phi = measures.random_theta(g, 2, 6), measures.random_phi(g, 2, 7)
        rng = np.random.default_rng(9)
        real = rng.standard_normal((4, 9))
        matrices = (real, real + 1j * rng.standard_normal((4, 9)))
        weights = rng.uniform(0.5, 2.0, 9)

        def results():
            reports = [oracle.compare_measure(g, measures.random_spec(g, variant, 1, 0, 8))
                       for variant in ("ust", "connected", "forest", "crsf")]
            sums = [oracle.tree_sum(g, x), oracle.psi1_sum(g, x), oracle.psi2_sum(g, x, q),
                    oracle.connected_poly_sum(g, x, theta), oracle.forest_poly_sum(g, x, phi)]
            # new matroids, so that no basis scan is cached across the two bounds
            matroids = [mm.from_matrix(r, weights) for r in matrices]
            bases = [(m.bases, oracle.matroid_basis_sums(m),
                      oracle.matroid_basis_sums(m, mm.normalized_kernel_basis(m)))
                     for m in matroids]
            return [{**r.to_dict(), "runtime_seconds": None} for r in reports], sums, bases
        whole = results()
        monkeypatch.setattr(dg.graph, "_BLOCK_BYTES", 1)
        assert results() == whole

    @pytest.mark.parametrize("weight", [1e-110, 1e110])
    def test_weights_out_of_range_refused(self, weight):
        # uniform weights leave the kernel as it is, but the 3-edge tree
        # monomials are 1e-330 (0) or 1e330 (inf), so their normalized
        # weights would be nan and no comparison could flag them
        g = dg.grid_graph(2, 2, weight)
        with np.errstate(over="ignore"), pytest.raises(NumericDegeneracy):
            oracle.compare_measure(g, dg.MeasureSpec.ust())

    def test_nan_density_fails(self, triangle, monkeypatch):
        density = dpp.density

        def nan_first(kernel, subsets):
            dens = density(kernel, subsets)
            dens[0] = np.nan
            return dens
        monkeypatch.setattr(dpp, "density", nan_first)
        rep = oracle.compare_measure(triangle, dg.MeasureSpec.ust())
        assert np.isnan(rep.max_density_error) and not rep.passed

    def test_memory_at_the_enumeration_cap(self):
        # 20 edges on 7 vertices, connected k = 2: C(20, 8) = 125970 subsets
        # scanned once (topology and minors per block) under the byte bound
        rng = np.random.default_rng(2)
        edges = [(int(rng.integers(0, v)), v) for v in range(1, 7)]
        while len(edges) < 20:
            u, w = (int(a) for a in rng.integers(0, 7, 2))
            if u != w:
                edges.append((u, w))
        g = dg.WeightedGraph(7, edges, rng.uniform(0.5, 2.0, 20))
        spec = measures.random_spec(g, "connected", 2, 0, 1)
        tracemalloc.start()
        try:
            rep = oracle.compare_measure(g, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak <= 32 * 2 ** 20


def _mixed_instances(count: int):
    """(graph, spec) of random mixed measures with k chains and l forms, 0 <= k, l <= 2."""
    rng = np.random.default_rng(2024_0011)
    while count:
        k, l = (int(v) for v in rng.integers(0, 3, 2))
        edges = int(rng.integers(5, 13))
        if k + l == 0 or edges < k + l + 2:
            continue
        # l cycles to pair the forms with, k + 1 components to cut out
        g = random_connected_graph(rng, edges, min_b1=l, min_vertices=k + 2)
        yield g, measures.random_spec(g, "mixed", k, l, seed=int(rng.integers(2 ** 31)))
        count -= 1


class TestMixedWeight:
    def test_weights_equal_kernel_densities(self):
        worst = 0.0
        for g, spec in _mixed_instances(50):
            rep = oracle.compare_measure(g, spec)
            assert rep.passed, (spec.k, spec.l, rep.to_dict())
            worst = max(worst, rep.max_density_error)
        assert worst < 1e-12

    def test_complex_forms(self):
        g = dg.WeightedGraph(6, [*dg.grid_graph(2, 3).edges, (0, 4), (2, 4)],
                             np.random.default_rng(3).uniform(0.5, 2.0, 9))
        spec = measures.random_spec(g, "mixed", 1, 2, 5)
        spec = measures.MeasureSpec.mixed(spec.phi + 0.5j * spec.phi[::-1],
                                          spec.theta - 0.7j * spec.theta[::-1])
        assert oracle.compare_measure(g, spec).passed

    @pytest.mark.parametrize("perturb", ["alternate rows", "forms"])
    def test_perturbed_weight_fails(self, perturb, monkeypatch):
        # ust, connected, forest and mixed all weigh through _mixed_factor, so
        # the oracle must see a perturbed factor in each; only those with forms
        # can have their forms perturbed
        factor = measures._mixed_factor
        kinds = [("mixed", 1, 1), ("connected", 1, 0)]
        if perturb == "alternate rows":
            kinds += [("ust", 0, 0), ("forest", 1, 0)]
            monkeypatch.setattr(measures, "_mixed_factor", lambda g, t, phi, theta: (
                factor(g, t, phi, theta) * (1.0 + 0.01 * (np.arange(len(t)) % 2))))
        else:
            monkeypatch.setattr(measures, "_mixed_factor", lambda g, t, phi, theta: (
                factor(g, t, phi, theta + 1e-3 * theta[::-1])))
        g = dg.WeightedGraph(6, [*dg.grid_graph(2, 3).edges, (0, 4), (2, 4)],
                             np.random.default_rng(3).uniform(0.5, 2.0, 9))
        for variant, k, l in kinds:
            spec = measures.random_spec(g, variant, k, l, 5)
            assert oracle.compare_measure(g, spec).max_density_error > 1e-6, variant

    def test_forest_factor_with_a_dominant_loop_coefficient(self):
        # d phi takes a loop as exactly 0: scattering its +phi and -phi both
        # would round away the 1e-8 coefficients already at the loop's vertex
        base = dg.grid_graph(3, 3)
        g = dg.WeightedGraph(9, [*base.edges, (0, 0)])
        phi = 1e-8 * np.random.default_rng(12).uniform(0.5, 1.0, (g.num_edges, 1))
        phi[-1] = 1.0
        # a spanning tree of vertices 1..8: vertex 0, with the loop, is a component
        mask = g.mask([1, 2, 3, 4, 5, 7, 9])
        assert (mask.b0, mask.b1, mask.labels[0]) == (2, 0, 0)
        cuts = [[int(mask.labels[h] == 0) - int(mask.labels[t] == 0)] for t, h in g.edges]
        expected = abs(np.linalg.det(phi.T @ np.array(cuts))) ** 2
        w = dg.subgraph_weight(g, measures.MeasureSpec.forest_k(phi), mask)
        assert w.topological == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestComparePolynomial:
    def test_all_routes_on_grid(self):
        g = dg.grid_graph(2, 3)
        rng = np.random.default_rng(71)
        theta = measures.random_theta(g, 1, 1)
        phi = measures.random_phi(g, 1, 2)
        q = rng.standard_normal(g.num_vertices)
        q -= q.mean()
        for which, kw in [("T", {}), ("psi1", {}), ("psi2", {"q": q}),
                          ("C", {"theta": theta}), ("A", {"phi": phi})]:
            rep = oracle.compare_polynomial(g, which, **kw)
            assert rep.max_poly_rel_error < 1e-9, which

    def test_connected_sum_vanishes_above_the_cycle_rank(self, square_with_chord):
        # k = b1 + 1: no spanning subgraph is connected with k independent
        # cycles, so the defining sum is empty
        g = square_with_chord
        theta = measures.random_theta(g, 3, 1)
        assert oracle.connected_poly_sum(g, None, theta) == 0.0
        assert oracle.compare_polynomial(g, "C", theta=theta).passed
        assert oracle.connected_poly_sum(dg.WeightedGraph(1, []), None,
                                         np.zeros((0, 1))) == 0.0
        # C at k = b1 + 1 and A at k = |V| have more vectors than their space
        # holds: both routes must be exactly 0, as the sums are, since roundoff
        # of about 1e-17 against an empty sum is a relative error of 1
        g = dg.grid_graph(2, 3)
        theta = measures.random_theta(g, g.betti_1 + 1, 1)
        phi = measures.random_phi(g, g.num_vertices, 2)
        assert oracle.compare_polynomial(g, "C", theta=theta).passed
        assert oracle.compare_polynomial(g, "A", phi=phi).passed

    def test_runtime_bound_at_sixteen_edges(self):
        # a single 16-edge oracle instance stays well under the bound
        g = dg.grid_graph(2, 6)
        assert g.num_edges == 16
        start = time.monotonic()
        rep = oracle.compare_polynomial(g, "T")
        elapsed = time.monotonic() - start
        assert rep.max_poly_rel_error < 1e-9
        assert elapsed < 60.0
