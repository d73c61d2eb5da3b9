import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detgraph as dg
from detgraph import oracle
from detgraph.errors import (EnumerationCapExceeded, ForestHasCycle,
                             NotASpanningTree)
from detgraph.graph import components_of

from conftest import random_connected_graph


class TestConstruction:
    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            dg.WeightedGraph(4, [(0, 1), (2, 3)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            dg.WeightedGraph(2, [(0, 1)], [0.0])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            dg.WeightedGraph(2, [(0, 5)])

    def test_json_roundtrip(self, square_with_chord):
        g = square_with_chord
        back = dg.WeightedGraph.from_json(g.to_json())
        assert back.edges == g.edges
        assert np.allclose(back.weights, g.weights)

    def test_grid_shapes(self):
        assert dg.grid_graph(1, 2).num_edges == 1
        assert dg.grid_graph(2, 2).num_edges == 4
        big = dg.grid_graph(15, 15)
        assert big.num_vertices == 225
        assert big.num_edges == 420  # 2 * 15 * 14


class TestBoundary:
    def test_triangle_columns(self, triangle):
        b = triangle.boundary
        assert b[:, 0].tolist() == [-1, 1, 0]
        assert b[:, 1].tolist() == [0, -1, 1]
        assert b[:, 2].tolist() == [1, 0, -1]

    def test_single_edge(self):
        g = dg.WeightedGraph(2, [(0, 1)])
        assert g.boundary[:, 0].tolist() == [-1, 1]

    def test_self_loop_column_is_zero(self):
        g = dg.WeightedGraph(2, [(0, 1), (1, 1)])
        assert g.boundary[:, 1].tolist() == [0, 0]


class TestFundamentalCycle:
    def test_triangle(self, triangle):
        tree = triangle.mask([0, 1])
        gamma = dg.fundamental_cycle(triangle, tree, 2)
        assert gamma[2] == 1
        assert set(np.abs(gamma)) == {1}
        assert np.all(triangle.boundary @ gamma == 0)

    def test_zero_iff_in_tree(self, triangle):
        tree = triangle.mask([0, 1])
        assert np.all(dg.fundamental_cycle(triangle, tree, 0) == 0)
        assert np.all(dg.fundamental_cycle(triangle, tree, 1) == 0)

    def test_four_cycle_closing_edge(self):
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        tree = g.mask([0, 1, 2])
        gamma = dg.fundamental_cycle(g, tree, 3)
        assert sorted(np.abs(gamma)) == [1, 1, 1, 1]
        assert np.all(g.boundary @ gamma == 0)

    def test_self_loop_is_its_own_cycle(self):
        g = dg.WeightedGraph(2, [(0, 1), (1, 1)])
        tree = g.mask([0])
        gamma = dg.fundamental_cycle(g, tree, 1)
        assert gamma.tolist() == [0, 1]
        assert np.all(g.boundary @ gamma == 0)

    def test_requires_spanning_tree(self, triangle):
        with pytest.raises(NotASpanningTree):
            dg.fundamental_cycle(triangle, triangle.mask([0]), 2)
        with pytest.raises(NotASpanningTree):
            dg.fundamental_cycle(triangle, triangle.full_mask(), 2)


class TestFundamentalCut:
    def test_single_edge(self):
        g = dg.WeightedGraph(2, [(0, 1)])
        kappa = dg.fundamental_cut(g, g.mask([0]), 0)
        assert kappa.tolist() == [1]

    def test_zero_iff_not_in_tree(self, triangle):
        tree = triangle.mask([0, 1])
        assert np.all(dg.fundamental_cut(triangle, tree, 2) == 0)

    def test_grid_pairings(self):
        # cut of a tree edge pairs to +1 with that edge and to 0 with
        # every fundamental cycle
        g = dg.grid_graph(3, 3)
        rng = np.random.default_rng(5)
        trees = oracle.enumerate_family(g, "ust")
        tree = trees[rng.integers(0, len(trees))]
        cycles = [dg.fundamental_cycle(g, tree, f)
                  for f in range(g.num_edges) if f not in tree.edge_set]
        for e in tree.indices:
            kappa = dg.fundamental_cut(g, tree, e)
            assert kappa[e] == 1
            for gamma in cycles:
                assert kappa @ gamma == 0

    def test_equals_the_per_edge_definition(self):
        # +1 on edges entering the head side of e, -1 on edges leaving it, 0 on loops
        rng = np.random.default_rng(8)
        for m in (5, 9, 12):
            g = random_connected_graph(rng, m)
            g = dg.WeightedGraph(g.num_vertices, [*g.edges, (1, 1)])
            tree = dg.min_index_spanning_tree(g)
            for e in tree.indices:
                labels = g.mask(tree.edge_set - {e}).labels
                side = labels[g.edges[e][1]]
                expected = [(labels[h] == side) - (labels[t] == side) for t, h in g.edges]
                assert dg.fundamental_cut(g, tree, e).tolist() == expected


class TestIntegralBases:
    def test_cycles_span_kernel_of_boundary(self, square_with_chord):
        g = square_with_chord
        basis = dg.cycle_space_basis(g)
        assert basis.shape == (g.num_edges, g.betti_1)
        assert np.all(g.boundary @ basis == 0)
        assert np.linalg.matrix_rank(basis) == g.betti_1

    def test_cuts_span_image_of_coboundary(self, square_with_chord):
        g = square_with_chord
        basis = dg.cut_space_basis(g)
        assert basis.shape == (g.num_edges, g.num_vertices - 1)
        assert np.linalg.matrix_rank(basis) == g.num_vertices - 1
        # each column is a coboundary: solve in the vertex functions
        sol, *_ = np.linalg.lstsq(g.coboundary.astype(float),
                                  basis.astype(float), rcond=None)
        assert np.allclose(g.coboundary @ sol, basis, atol=1e-10)


    def test_cycle_basis_within_a_mask_per_edge(self):
        # one column per mask edge outside the mask's min-index forest, in
        # ascending order: 1 on its own edge and 0 on the others, support in
        # the mask, boundary zero; masks with several components included
        rng = np.random.default_rng(17)
        components = set()
        for m in (5, 7, 8, 9):
            base = random_connected_graph(rng, m)
            t, h = base.edges[-1]
            g = dg.WeightedGraph(base.num_vertices, [*base.edges, (1, 1), (h, t), (t, h)])
            masks = [*oracle.enumerate_family(g, "crsf"),
                     *oracle.enumerate_family(g, "connected", k=2), g.full_mask()]
            for mask in masks:
                components.add(mask.b0)
                basis = dg.cycle_space_basis(g, within=mask)
                forest = dg.min_index_spanning_tree(g, within=mask).edge_set
                own = [e for e in mask.indices if e not in forest]
                assert basis.shape == (g.num_edges, mask.b1) == (g.num_edges, len(own))
                assert basis[own].tolist() == np.eye(len(own), dtype=int).tolist()
                assert not basis[[e for e in range(g.num_edges) if e not in mask]].any()
                assert not (g.boundary @ basis).any()
        assert max(components) >= 2

    # sha256 of every cycle basis and min-index tree over all 512 masks of the
    # 9-edge graph of test_distribution.py and over a whole 15x15 grid, as
    # computed when the forest had its own union-find; the cycle signs and the
    # tree are part of every weight, so they must not move
    def test_bases_and_trees_are_pinned(self):
        digest = hashlib.sha256()
        g = dg.WeightedGraph(6, [*dg.grid_graph(2, 3).edges, (0, 4), (2, 4)])
        grid = dg.grid_graph(15, 15)
        cases = [(g, g.mask(s)) for r in range(10) for s in itertools.combinations(range(9), r)]
        for graph, mask in [*cases, (grid, None), (grid, grid.full_mask())]:
            basis = dg.cycle_space_basis(graph, within=mask)
            tree = dg.min_index_spanning_tree(graph, within=mask)
            digest.update(repr(basis.shape).encode() + basis.astype("<i8").tobytes())
            digest.update(repr(tree.indices).encode())
        assert digest.hexdigest() == \
            "a69a1f8f7415e5d3a18cd9007b3320e2d9e9ce287e27c05a62f5ef118a782979"

    def test_cycle_basis_takes_no_tree(self, triangle):
        with pytest.raises(TypeError):
            dg.cycle_space_basis(triangle, triangle.mask([0, 1]))


class TestEnumeration:
    def test_triangle_has_three_trees(self, triangle):
        trees = oracle.enumerate_family(triangle, "ust")
        assert sorted(t.indices for t in trees) == [(0, 1), (0, 2), (1, 2)]

    def test_tree_graph_has_one(self):
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (1, 3)])
        assert len(oracle.enumerate_family(g, "ust")) == 1

    def test_count_matches_reduced_laplacian(self):
        # matrix-tree cross-check on every test graph up to 12 edges
        rng = np.random.default_rng(17)
        graphs = [dg.grid_graph(3, 3), dg.grid_graph(2, 4),
                  dg.complete_graph(4)]
        graphs += [random_connected_graph(rng, m) for m in (6, 9, 12)]
        for g in graphs:
            unit = dg.WeightedGraph(g.num_vertices, g.edges)
            lap = unit.boundary @ unit.boundary.T
            det = round(np.linalg.det(lap[1:, 1:].astype(float)))
            assert len(oracle.enumerate_family(unit, "ust")) == det

    def test_cap(self, monkeypatch):
        g = dg.grid_graph(3, 3)
        monkeypatch.setenv("DETGRAPH_ENUM_CAP", "5")
        with pytest.raises(EnumerationCapExceeded):
            oracle.enumerate_family(g, "ust")

    def test_self_loop_never_in_tree(self):
        g = dg.WeightedGraph(2, [(0, 1), (1, 1)])
        assert [t.indices for t in oracle.enumerate_family(g, "ust")] == [(0,)]


class TestQuotient:
    def test_contract_spanning_tree(self, triangle):
        q, kept = dg.quotient_by_forest(triangle, triangle.mask([0, 1]))
        assert q.num_vertices == 1
        assert q.num_edges == 0
        assert kept == []

    def test_contract_empty_forest(self, square_with_chord):
        g = square_with_chord
        q, kept = dg.quotient_by_forest(g, g.mask([]))
        assert q.num_vertices == g.num_vertices
        assert kept == list(range(g.num_edges))

    def test_triangle_single_edge(self, triangle):
        q, kept = dg.quotient_by_forest(triangle, triangle.mask([0]))
        assert q.num_vertices == 2
        assert kept == [1, 2]
        assert sorted(q.edges) == [(0, 1), (1, 0)]

    def test_rejects_cycles(self, triangle):
        with pytest.raises(ForestHasCycle):
            dg.quotient_by_forest(triangle, triangle.full_mask())

    def test_tree_correspondence(self):
        # trees of the quotient <-> trees of g containing the forest,
        # weight preserving
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 8)
        forest = g.mask([0, 2])
        assert forest.b1 == 0
        q, kept = dg.quotient_by_forest(g, forest)
        q_trees = {tuple(sorted(kept[i] for i in t.indices)):
                   t.weight_monomial()
                   for t in oracle.enumerate_family(q, "ust")}
        g_trees = {}
        for t in oracle.enumerate_family(g, "ust"):
            if forest.edge_set <= t.edge_set:
                extra = tuple(sorted(t.edge_set - forest.edge_set))
                g_trees[extra] = np.prod([g.weights[i] for i in extra])
        assert set(q_trees) == set(g_trees)
        for key in q_trees:
            assert q_trees[key] == pytest.approx(g_trees[key])


class TestSubgraphMask:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 12 - 1), st.integers(0, 10 ** 6))
    def test_euler_identity(self, bits, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 12)
        mask = g.mask(i for i in range(12) if bits >> i & 1)
        assert mask.b0 - mask.b1 == g.num_vertices - len(mask)

    def test_component_labels_match_union_find(self, triangle):
        mask = triangle.mask([0])
        assert mask.labels == components_of(3, [(0, 1)])
        assert mask.b0 == 2

    def test_min_index_tree_is_deterministic(self, square_with_chord):
        g = square_with_chord
        t1 = dg.min_index_spanning_tree(g)
        t2 = dg.min_index_spanning_tree(g)
        assert t1.indices == t2.indices == (0, 1, 2)


class TestEnumerationCapEnv:
    def test_env_var_overrides_default(self, monkeypatch):
        from detgraph.graph import enumeration_cap
        monkeypatch.setenv("DETGRAPH_ENUM_CAP", "7")
        assert enumeration_cap() == 7
        monkeypatch.delenv("DETGRAPH_ENUM_CAP")
        assert enumeration_cap() == 20
