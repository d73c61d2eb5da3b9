import time

import numpy as np
import pytest

import detgraph as dg
from detgraph import dpp, measures, oracle
from detgraph.errors import EnumerationCapExceeded

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
        monkeypatch.setattr(dpp, "density", lambda kernel, subset: (
            0.0 if tuple(subset) == victim else density(kernel, subset)))
        rep = oracle.compare_measure(g, dg.MeasureSpec.ust())
        assert victim in rep.support_mismatches

    # union-find passes on the 9-edge graph of test_distribution.py: one per
    # scanned subset of the sample size, made by its mask; the weights read
    # their cycle bases and per-component cycle counts off that mask's forest
    @pytest.mark.parametrize("variant, subsets, at_most", [
        ("ust", 126, 126), ("forest", 126, 126), ("crsf", 84, 84), ("connected", 84, 84)])
    def test_each_topology_computed_once(self, variant, subsets, at_most, monkeypatch):
        weights = np.random.default_rng(3).uniform(0.5, 2.0, 9)
        g = dg.WeightedGraph(6, [*dg.grid_graph(2, 3).edges, (0, 4), (2, 4)], weights)
        spec = measures.random_spec(g, variant, 1, 1, 11)
        passes = []

        class Counted(dg.graph._UnionFind):
            def __init__(self, n):
                passes.append(n)
                super().__init__(n)
        monkeypatch.setattr(dg.graph, "_UnionFind", Counted)
        assert oracle.compare_measure(g, spec).passed
        assert subsets <= len(passes) <= at_most


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

    def test_runtime_bound_at_sixteen_edges(self):
        # a single 16-edge oracle instance stays well under the bound
        g = dg.grid_graph(2, 6)
        assert g.num_edges == 16
        start = time.monotonic()
        rep = oracle.compare_polynomial(g, "T")
        elapsed = time.monotonic() - start
        assert rep.max_poly_rel_error < 1e-9
        assert elapsed < 60.0
