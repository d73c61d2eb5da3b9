import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detgraph as dg
from detgraph import measures, oracle, polynomials
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

    def test_multigraph_matches_per_edge_definition(self):
        # a loop, two parallel edges 0 -> 1 and an antiparallel 1 -> 0
        edges = [(0, 1), (1, 0), (0, 1), (1, 2), (2, 2), (2, 3), (3, 0), (3, 3)]
        g = dg.WeightedGraph(4, edges)
        expected = np.zeros((4, len(edges)), dtype=int)
        for j, (t, h) in enumerate(edges):
            expected[h, j] += 1
            expected[t, j] -= 1
        assert np.array_equal(g.boundary, expected)
        assert not g.boundary[:, [4, 7]].any()
        assert np.array_equal(g.coboundary, g.boundary.T)

    def test_reads_are_independent(self):
        g = dg.grid_graph(2, 3)
        d, dt = g.boundary, g.coboundary
        d[:] = 7
        dt[:] = 7
        assert np.array_equal(g.boundary, g.coboundary.T)
        assert set(np.unique(g.boundary)) == {-1, 0, 1}


class TestGraphState:
    def test_graph_keeps_linear_state_after_every_route(self):
        # every kernel and polynomial forms its incidence matrices and
        # Laplacians per call, so the graph holds O(|E|) arrays, not the
        # O(|V| |E|) or O(|V|^2) matrices
        rng = np.random.default_rng(64)
        grid = dg.grid_graph(15, 15)
        g = dg.WeightedGraph(grid.num_vertices, grid.edges, rng.uniform(0.5, 2.0, grid.num_edges))
        for v in measures.VARIANTS:
            measures.build_kernel(g, measures.random_spec(g, v, 2, 1, seed=1))
        x = g.weights
        q = np.zeros(g.num_vertices)
        q[0], q[-1] = 1.0, -1.0
        polynomials.kirchhoff_T(g, x)
        polynomials.symanzik_psi1(g, x)
        polynomials.symanzik_psi2(g, x, q)
        theta, phi = measures.random_theta(g, 2, 2), measures.random_phi(g, 2, 3)
        polynomials.generalized_C(g, x, theta)
        polynomials.generalized_A(g, x, phi)
        polynomials.ratio_identity_connected(g, x, theta)
        polynomials.ratio_identity_forest(g, x, phi)
        polynomials.green_height_pairing(g, x, q)
        polynomials.torus_volume(g, x)
        held = sum(a.nbytes for a in vars(g).values() if isinstance(a, np.ndarray))
        assert held <= 64 * g.num_edges


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


class TestForestPathBases:
    def test_every_spanning_tree_of_a_multigraph(self):
        # a parallel pair 0 -> 1 and a loop at 3; the cuts of each tree are the
        # identity on its edges and the head-side coboundaries, its cycles the
        # identity on the closing edges, and every cut pairs to 0 with every cycle
        edges = [(0, 1), (1, 2), (0, 1), (2, 3), (3, 3), (3, 0), (2, 4), (4, 1)]
        g = dg.WeightedGraph(5, edges)
        trees = oracle.enumerate_family(g, "ust")
        assert len(trees) == round(polynomials.kirchhoff_T(g).real) > 1
        for tree in trees:
            own = list(tree.indices)
            closing = [e for e in range(g.num_edges) if e not in tree]
            cuts = dg.cut_space_basis(g, tree)
            assert cuts[own].tolist() == np.eye(len(own), dtype=int).tolist()
            for j, e in enumerate(own):
                labels = g.mask(tree.edge_set - {e}).labels
                side = labels[g.edges[e][1]]
                expected = [(labels[h] == side) - (labels[t] == side) for t, h in g.edges]
                assert cuts[:, j].tolist() == expected
            cycles = np.column_stack([dg.fundamental_cycle(g, tree, e) for e in closing])
            assert cycles[closing].tolist() == np.eye(len(closing), dtype=int).tolist()
            assert not (g.boundary @ cycles).any()
            assert not (cuts.T @ cycles).any()
        rng = np.random.default_rng(23)
        for q in (rng.standard_normal(5), rng.standard_normal(5) + 1j * rng.standard_normal(5)):
            q -= q.mean()
            flow = polynomials.flow_with_divergence(g, q)
            assert flow.dtype == q.dtype
            assert np.allclose(g.boundary @ flow, q, rtol=0, atol=1e-12)


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


class TestStackedTopology:
    @staticmethod
    def _assert_matches_masks(g, subsets):
        t = dg.graph.subset_topology(g, subsets)
        assert len(t) == len(subsets)
        for row, subset in enumerate(subsets.tolist()):
            mask = g.mask(subset)
            assert tuple(t.labels[row].tolist()) == mask.labels
            assert (t.b0[row], t.b1[row]) == (mask.b0, mask.b1)
            assert t.component_b1[row].tolist() == [
                *mask.component_b1, *[0] * (g.num_vertices - mask.b0)]
            forest = dg.min_index_spanning_tree(g, within=mask).edge_set
            assert t.forest[row].tolist() == [e in forest for e in subset]
            basis = dg.cycle_space_basis(g, within=mask)
            assert t.cycles.dtype == np.int8
            assert t.cycles[row, :mask.b1].T.tolist() == basis.tolist()
            assert not t.cycles[row, mask.b1:].any()

    def test_every_subset_of_the_nine_edge_graph(self):
        g = dg.WeightedGraph(6, [*dg.grid_graph(2, 3).edges, (0, 4), (2, 4)])
        for size in range(10):
            subsets = list(itertools.combinations(range(9), size))
            self._assert_matches_masks(g, np.array(subsets, dtype=int).reshape(len(subsets), size))

    def test_every_half_subset_of_a_sixteen_edge_multigraph(self):
        # parallel edges both ways and a loop among the 16
        base = random_connected_graph(np.random.default_rng(16), 13, min_b1=4)
        t, h = base.edges[-1]
        g = dg.WeightedGraph(base.num_vertices, [*base.edges, (h, t), (t, h), (2, 2)])
        assert g.num_edges == 16
        self._assert_matches_masks(g, np.array(list(itertools.combinations(range(16), 8))))

    def test_one_row_of_a_mask(self, square_with_chord):
        # the row a mask gives its weights equals its row of the stacked pass
        g = square_with_chord
        for subset in ([], [0, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]):
            one, stacked = g.mask(subset).topology(), dg.graph.subset_topology(
                g, np.array([subset], dtype=int).reshape(1, len(subset)))
            for name in ("subsets", "labels", "b0", "b1", "component_b1", "forest"):
                assert np.array_equal(getattr(one, name), getattr(stacked, name)), name
            assert np.array_equal(one.cycles, stacked.cycles[:, :one.b1[0]])


class TestEnumerationCapEnv:
    def test_env_var_overrides_default(self, monkeypatch):
        from detgraph.graph import enumeration_cap
        monkeypatch.setenv("DETGRAPH_ENUM_CAP", "7")
        assert enumeration_cap() == 7
        monkeypatch.delenv("DETGRAPH_ENUM_CAP")
        assert enumeration_cap() == 20
