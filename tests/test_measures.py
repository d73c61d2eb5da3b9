import argparse
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import detgraph as dg
from detgraph import cli, measures, oracle
from detgraph.errors import DegenerateForms, MalformedInput, NumericDegeneracy
from detgraph.measures import MeasureSpec

from conftest import random_connected_graph


def _theta(g, k, seed):
    return measures.random_theta(g, k, seed)


def _phi(g, k, seed):
    return measures.random_phi(g, k, seed)


class TestBuildKernel:
    def test_ust_triangle_diagonal(self, triangle):
        k = dg.build_kernel(triangle, MeasureSpec.ust())
        assert np.allclose(np.diag(k.matrix).real, 2 / 3, atol=1e-12)

    def test_connected_full_betti_is_identity(self, square_with_chord):
        # with k = b1 and forms spanning a complement of the exact forms, the
        # only admissible subgraph is the whole graph
        g = square_with_chord
        theta = _theta(g, g.betti_1, seed=1)
        k = dg.build_kernel(g, MeasureSpec.connected_k(theta))
        assert np.allclose(k.matrix, np.eye(g.num_edges), atol=1e-9)
        assert measures.sample_subgraph(g, k, 0).edge_set == set(range(g.num_edges))

    def test_forest_full_rank_is_empty(self, triangle):
        phi = _phi(triangle, triangle.num_vertices - 1, seed=2)
        k = dg.build_kernel(triangle, MeasureSpec.forest_k(phi))
        assert k.rank == 0
        assert measures.sample_subgraph(triangle, k, 0).edge_set == set()

    def test_connected_rank_grows_by_k(self, square_with_chord):
        g = square_with_chord
        base = dg.build_kernel(g, MeasureSpec.ust())
        k1 = dg.build_kernel(g, MeasureSpec.connected_k(_theta(g, 1, 3)))
        assert k1.rank - base.rank == 1

    def test_degenerate_forms_rejected(self, square_with_chord):
        g = square_with_chord
        exact = g.coboundary[:, :1].astype(complex)  # lies inside the exact forms
        with pytest.raises(DegenerateForms):
            dg.build_kernel(g, MeasureSpec.connected_k(exact))

    def test_degenerate_chains_rejected(self, square_with_chord):
        g = square_with_chord
        cyc = dg.cycle_space_basis(g)[:, :1].astype(complex)
        with pytest.raises(DegenerateForms):
            dg.build_kernel(g, MeasureSpec.forest_k(cyc))

    @pytest.mark.parametrize("variant", ["connected", "forest", "crsf", "mixed"])
    def test_degenerate_form_shapes_rejected(self, square_with_chord, variant):
        # forms drawn for the graph without its chord have one row too few
        g = square_with_chord
        short = dg.WeightedGraph(g.num_vertices, g.edges[:-1], g.weights[:-1])
        with pytest.raises(DegenerateForms, match="shape"):
            dg.build_kernel(g, measures.random_spec(short, variant, 1, 1, seed=3))

    @pytest.mark.parametrize("variant", ["connected", "forest", "crsf", "mixed"])
    def test_given_forms_of_another_graph_are_malformed(self, square_with_chord, variant):
        # random_spec checks forms it is given against the graph it builds for
        g = square_with_chord
        short = dg.WeightedGraph(g.num_vertices, g.edges[:-1], g.weights[:-1])
        drawn = measures.random_spec(short, variant, 1, 1, seed=3)
        forms = {key: getattr(drawn, key) for key in measures.VARIANT_TABLE[variant].forms}
        with pytest.raises(MalformedInput, match="one per edge"):
            measures.random_spec(g, variant, 1, 1, seed=3, forms=forms)

    def test_trivial_connection_degenerate(self, triangle):
        with pytest.raises(DegenerateForms):
            dg.build_kernel(triangle, MeasureSpec.crsf(np.ones(3, dtype=complex)))

    def test_k_zero_specs_reduce_to_ust(self, square_with_chord):
        g = square_with_chord
        base = dg.build_kernel(g, MeasureSpec.ust()).matrix
        empty_theta = np.zeros((g.num_edges, 0), dtype=complex)
        empty_phi = np.zeros((g.num_edges, 0), dtype=complex)
        k_c = dg.build_kernel(g, MeasureSpec("connected", k=0, theta=empty_theta))
        k_f = dg.build_kernel(g, MeasureSpec("forest", k=0, phi=empty_phi))
        assert np.abs(k_c.matrix - base).max() < 1e-12
        assert np.abs(k_f.matrix - base).max() < 1e-12


class TestCycleWeight:
    def test_spanning_tree_weight_is_monomial(self, square_with_chord):
        g = square_with_chord
        tree = dg.min_index_spanning_tree(g)
        w = dg.subgraph_weight(g, MeasureSpec.connected_k(np.zeros((g.num_edges, 0))), tree)
        assert w.value == pytest.approx(tree.weight_monomial())
        assert w.topological == pytest.approx(1.0)

    def test_triangle_whole_graph(self, triangle):
        theta = np.zeros((3, 1), dtype=complex)
        theta[0, 0] = 1.0  # dual basis vector of the first edge
        w = dg.subgraph_weight(triangle, MeasureSpec.connected_k(theta), triangle.full_mask())
        assert w.value == pytest.approx(1.0)  # |theta(cycle)|^2 * x1 x2 x3

    def test_cycle_basis_choice_is_irrelevant(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 8, min_b1=2)
        kmask = g.full_mask()
        theta = _theta(g, kmask.b1, seed=5)
        w = dg.subgraph_weight(g, MeasureSpec.connected_k(theta), kmask)
        # recompute against a different integral cycle basis: fundamental
        # cycles of the lexicographically largest spanning tree
        from detgraph.graph import fundamental_cycle
        trees = oracle.enumerate_family(g, "ust")
        other = max(trees, key=lambda t: t.indices)
        cycles = np.column_stack([
            fundamental_cycle(g, other, e)
            for e in range(g.num_edges) if e not in other.edge_set])
        alt = abs(np.linalg.det(theta.T @ cycles)) ** 2 * kmask.weight_monomial()
        assert w.value == pytest.approx(alt, rel=1e-12)

    def test_wrong_betti_raises(self, triangle):
        with pytest.raises(ValueError, match="outside the connected support"):
            dg.subgraph_weight(triangle, MeasureSpec.connected_k(np.zeros((3, 2))),
                               triangle.full_mask())

    def test_not_connected_raises(self, triangle):
        with pytest.raises(ValueError, match="outside the connected support"):
            dg.subgraph_weight(triangle, MeasureSpec.connected_k(np.zeros((3, 0))),
                               triangle.mask([0]))


class TestForestWeight:
    def test_spanning_tree_weight_is_monomial(self, square_with_chord):
        g = square_with_chord
        tree = dg.min_index_spanning_tree(g)
        w = dg.subgraph_weight(g, MeasureSpec.forest_k(np.zeros((g.num_edges, 0))), tree)
        assert w.value == pytest.approx(tree.weight_monomial())

    def test_triangle_single_edge(self, triangle):
        # forest {e0} leaves vertex 2 isolated; the only cut separates it,
        # with coefficients -1 on e1 and +1 on e2; phi = chain of e1
        phi = np.zeros((3, 1), dtype=complex)
        phi[1, 0] = 1.0
        w = dg.subgraph_weight(triangle, MeasureSpec.forest_k(phi), triangle.mask([0]))
        # the cut of the first component, as the forest factor forms it
        kappa = triangle.coboundary @ (np.array(triangle.mask([0]).labels) == 0)[:, None]
        assert abs(kappa[1, 0]) == 1
        assert w.value == pytest.approx(abs(kappa[1, 0]) ** 2 * triangle.weights[0])

    def test_omitted_component_is_irrelevant(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 7)
        forest = dg.min_index_spanning_tree(g)
        drop = forest.indices[:2]
        mask = g.mask(set(forest.edge_set) - set(drop))
        assert mask.b0 == 3 and mask.b1 == 0
        phi = _phi(g, 2, seed=7)
        w = dg.subgraph_weight(g, MeasureSpec.forest_k(phi), mask)
        # recompute with cuts omitting the first component instead of the last
        labels = np.array(mask.labels)
        cuts = []
        for comp in range(1, mask.b0):
            inside = labels == comp
            cuts.append([int(inside[h]) - int(inside[t]) for t, h in g.edges])
        alt = abs(np.linalg.det(phi.T @ np.array(cuts).T)) ** 2 * mask.weight_monomial()
        assert w.value == pytest.approx(alt, rel=1e-12)

    def test_component_cuts_equal_the_per_edge_definition(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(rng, 9)
        g = dg.WeightedGraph(g.num_vertices, [*g.edges, (0, 0)])
        forest = dg.min_index_spanning_tree(g)
        mask = g.mask(set(forest.edge_set) - set(forest.indices[:3]))
        labels = mask.labels
        expected = [[int(labels[h] == c) - int(labels[t] == c) for c in range(mask.b0 - 1)]
                    for t, h in g.edges]
        # the forest factor pairs phi with these cuts, a loop's coefficient 0 included
        phi = _phi(g, mask.b0 - 1, seed=10)
        w = dg.subgraph_weight(g, MeasureSpec.forest_k(phi), mask)
        alt = abs(np.linalg.det(phi.T @ np.array(expected))) ** 2
        assert w.topological == pytest.approx(alt, rel=1e-12)

    def test_cycle_raises(self, triangle):
        with pytest.raises(ValueError, match="outside the forest support"):
            dg.subgraph_weight(triangle, MeasureSpec.forest_k(np.zeros((3, 2))),
                               triangle.full_mask())


class TestCrsfWeight:
    def test_trivial_connection_gives_zero(self, triangle):
        g = dg.WeightedGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        mask = g.mask([0, 1, 2])
        w = dg.subgraph_weight(g, MeasureSpec.crsf(np.ones(4, dtype=complex)), mask)
        assert w.value == 0.0

    def test_holonomy_minus_one(self, triangle):
        # |1 - (-1)|^2 = 4 on a single unicyclic component
        h = np.array([-1.0, 1.0, 1.0], dtype=complex)
        w = dg.subgraph_weight(triangle, MeasureSpec.crsf(h), triangle.full_mask())
        assert w.topological == pytest.approx(4.0)

    def test_tree_component_gives_zero(self):
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        h = measures.random_connection(g, 1)
        mask = g.mask([0, 1, 2, 3])  # triangle + pendant: pendant comp is.. same comp
        # build a genuinely acyclic component: 4 vertices, edges {0,3} only
        mask2 = g.mask([0, 3])
        # a tree component is outside the support, which alone is weighed
        with pytest.raises(ValueError, match="outside the crsf support"):
            dg.subgraph_weight(g, MeasureSpec.crsf(h), mask2)
        assert dg.subgraph_weight(g, MeasureSpec.crsf(h), mask).value > 0.0

    def test_rejects_multicycle_component(self):
        g = dg.WeightedGraph(2, [(0, 1), (0, 1), (1, 0)])
        with pytest.raises(ValueError, match="outside the crsf support"):
            dg.subgraph_weight(g, MeasureSpec.crsf(measures.random_connection(g, 2)),
                               g.full_mask())

    def test_forman_determinant_expansion(self):
        # sum of weights over all spanning edge sets of size |V| equals the
        # weighted determinant of the twisted Laplacian (Cauchy-Binet)
        rng = np.random.default_rng(8)
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)],
                             rng.uniform(0.5, 2.0, 5))
        h = measures.random_connection(g, 3)
        d_h = measures.twisted_differential(g, h)
        omega = d_h * np.sqrt(g.weights)[:, None]
        lap_det = float(np.linalg.det(omega.conj().T @ omega).real)
        # the members of the support law; the other subsets weigh 0
        support = measures.VARIANT_TABLE["crsf"].support
        total = 0.0
        for subset in itertools.combinations(range(g.num_edges), g.num_vertices):
            mask = g.mask(subset)
            if support(mask, 0, 0):
                total += dg.subgraph_weight(g, MeasureSpec.crsf(h), mask).value
        assert lap_det == pytest.approx(total, rel=1e-9)


class TestSubgraphWeight:
    # one per-mask weight for every variant, read from the variant table; the
    # masks outside: a unicyclic subgraph for ust and mixed (1, 1), a spanning
    # tree for connected and forest, a 2-forest (two tree components) for crsf
    CASES = [("ust", 0, 0, ("connected", 1)), ("connected", 1, 0, ("ust", 0)),
             ("forest", 1, 0, ("ust", 0)), ("crsf", 0, 0, ("forest", 1)),
             ("mixed", 1, 1, ("connected", 1))]

    @staticmethod
    def _grid_and_spec(variant, k, l):
        rng = np.random.default_rng(3)
        g = dg.WeightedGraph(9, dg.grid_graph(3, 3).edges, rng.uniform(0.5, 2.0, 12))
        return g, measures.random_spec(g, variant, k, l, seed=4)

    @pytest.mark.parametrize("variant,k,l,outside", CASES, ids=[c[0] for c in CASES])
    def test_normalized_weights_are_the_densities(self, variant, k, l, outside):
        g, spec = self._grid_and_spec(variant, k, l)
        fam = oracle.enumerate_family(g, variant, k, l)
        weights = np.array([dg.subgraph_weight(g, spec, m).value for m in fam])
        dens = dg.density(dg.build_kernel(g, spec), fam.subsets)
        assert np.abs(weights / weights.sum() - dens).max() < 1e-9

    @pytest.mark.parametrize("variant,k,l,outside", CASES, ids=[c[0] for c in CASES])
    def test_mask_outside_the_support_raises(self, variant, k, l, outside):
        g, spec = self._grid_and_spec(variant, k, l)
        mask = oracle.enumerate_family(g, *outside)[0]
        with pytest.raises(ValueError, match=f"outside the {variant} support"):
            dg.subgraph_weight(g, spec, mask)


class TestMeasureOracle:
    # the central claims: normalized combinatorial weights equal kernel
    # densities, with support exactly inside the constrained family
    @pytest.mark.parametrize("variant,k", [
        ("ust", 0), ("connected", 1), ("connected", 2),
        ("forest", 1), ("forest", 2), ("crsf", 0),
    ])
    def test_density_match(self, variant, k):
        rng = np.random.default_rng(hash((variant, k)) % 2 ** 31)
        g = random_connected_graph(rng, 9, min_b1=max(k, 2))
        spec = measures.random_spec(g, variant, k, 0, seed=int(rng.integers(2 ** 31)))
        report = oracle.compare_measure(g, spec)
        assert report.passed, report.to_dict()
        assert report.max_density_error < 1e-9

    @pytest.mark.parametrize("variant,k,l", [
        ("connected", 2, 0), ("forest", 1, 0), ("crsf", 0, 0), ("mixed", 1, 2),
    ])
    def test_support_law_on_samples(self, variant, k, l):
        rng = np.random.default_rng(hash((variant, k, l, "s")) % 2 ** 31)
        g = random_connected_graph(rng, 10, min_b1=max(k, l, 2))
        spec = measures.random_spec(g, variant, k, l, seed=9)
        kernel = dg.build_kernel(g, spec)
        for s in dg.sample_batch(kernel, 0, 1000):
            assert measures.sample_in_support(spec, g.mask(s))


class TestDualTransport:
    def test_ust_complement_bijection(self):
        from detgraph.planar import triangle_embedding
        g, faces = triangle_embedding()
        dual_inv, spec, pd = dg.dual_transport(g, faces, MeasureSpec.ust())
        trees_primal = {t.indices for t in oracle.enumerate_family(g, "ust")}
        trees_dual = {t.indices for t in oracle.enumerate_family(dual_inv, "ust")}
        complements = {tuple(sorted(set(range(3)) - set(t))) for t in trees_primal}
        assert trees_dual == complements

    def test_weight_correspondence_k1(self):
        # forest weights on the primal match connected weights on the dual
        # under complementation, subgraph by subgraph
        from detgraph.planar import triangle_embedding
        rng = np.random.default_rng(10)
        base, faces = triangle_embedding()
        g = dg.WeightedGraph(3, base.edges, rng.uniform(0.5, 2.0, 3))
        phi = _phi(g, 1, seed=11)
        dual_inv, spec, pd = dg.dual_transport(g, faces, MeasureSpec.forest_k(phi))
        prod_x = float(np.prod(g.weights))
        for f in oracle.enumerate_family(g, "forest", k=1):
            w_f = dg.subgraph_weight(g, MeasureSpec.forest_k(phi), f).value
            comp = dual_inv.mask(set(range(3)) - f.edge_set)
            w_c = dg.subgraph_weight(dual_inv, spec, comp).value
            # dual monomial at inverted weights: x^(complement) / prod(x)
            assert w_f == pytest.approx(prod_x * w_c, rel=1e-10)

    def test_double_application_is_equivalent(self):
        from detgraph.planar import triangle_embedding
        g, faces = triangle_embedding()
        phi = _phi(g, 1, seed=12)
        dual_inv, spec, pd = dg.dual_transport(g, faces, MeasureSpec.forest_k(phi))
        back, spec2, _ = dg.dual_transport(dual_inv, list(pd.dual_faces), spec)
        assert spec2.variant == "forest"
        assert np.allclose(spec2.phi, phi)
        assert back.edges == g.edges
        assert np.allclose(back.weights, g.weights)

    def test_rejects_crsf(self, triangle):
        from detgraph.planar import triangle_embedding
        g, faces = triangle_embedding()
        with pytest.raises(ValueError, match="transport"):
            dg.dual_transport(g, faces, MeasureSpec.crsf(np.ones(3, dtype=complex)))


class TestFormsJson:
    def test_roundtrip(self, square_with_chord):
        g = square_with_chord
        theta = _theta(g, 2, 1)
        phi = _phi(g, 1, 2)
        conn = measures.random_connection(g, 3)
        text = measures.forms_to_json(theta=theta, phi=phi, connection=conn)
        back = measures.forms_from_json(text)
        assert np.allclose(back["theta"], theta)
        assert np.allclose(back["phi"], phi)
        assert np.allclose(back["connection"], conn)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, value):
        with pytest.raises(MalformedInput, match="non-finite"):
            measures.forms_from_json(json.dumps({"phi": [[[1.0, 0.0], [value, 0.0]]]}))


class TestEdgeOrderInvariance:
    def test_densities_survive_edge_permutation(self):
        # any globally consistent edge order yields the same measure: signs
        # from the reordering cancel inside the squared determinants
        rng = np.random.default_rng(77)
        g = random_connected_graph(rng, 8, min_b1=2)
        perm = rng.permutation(g.num_edges)
        g2 = dg.WeightedGraph(g.num_vertices,
                              [g.edges[i] for i in perm],
                              g.weights[perm])
        theta = measures.random_theta(g, 2, seed=6)
        theta2 = theta[perm, :]
        k1 = dg.build_kernel(g, MeasureSpec.connected_k(theta))
        k2 = dg.build_kernel(g2, MeasureSpec.connected_k(theta2))
        import itertools as it
        for subset in it.combinations(range(g.num_edges), k1.rank):
            image = tuple(sorted(int(np.where(perm == i)[0][0]) for i in subset))
            d1 = dg.density(k1, subset)
            d2 = dg.density(k2, image)
            assert d2 == pytest.approx(d1, abs=1e-10)

    def test_orientation_flip_preserves_weights(self):
        # flipping the stored orientation of an edge negates its coordinate
        # in the dual basis; transporting the form accordingly leaves every
        # squared pairing unchanged
        rng = np.random.default_rng(78)
        g = random_connected_graph(rng, 7, min_b1=1)
        flipped = [(h, t) if i == 2 else (t, h)
                   for i, (t, h) in enumerate(g.edges)]
        g2 = dg.WeightedGraph(g.num_vertices, flipped, g.weights)
        theta = measures.random_theta(g, 1, seed=3)
        theta2 = theta.copy()
        theta2[2, :] *= -1
        for m in oracle.enumerate_family(g, "connected", k=1):
            w1 = dg.subgraph_weight(g, MeasureSpec.connected_k(theta), m).value
            w2 = dg.subgraph_weight(g2, MeasureSpec.connected_k(theta2), g2.mask(m.indices)).value
            assert w2 == pytest.approx(w1, rel=1e-10)


class TestSelfLoopsAndMultiEdges:
    @pytest.fixture
    def loopy(self):
        return dg.WeightedGraph(2, [(0, 1), (0, 0), (1, 1), (0, 1)],
                                [1.3, 0.7, 1.1, 0.9])

    def test_crsf_counts_loops_as_cycles(self, loopy):
        spec = measures.random_spec(loopy, "crsf", 0, 0, seed=5)
        rep = oracle.compare_measure(loopy, spec)
        assert rep.passed and rep.max_density_error < 1e-9

    def test_connected_measure(self, loopy):
        spec = measures.random_spec(loopy, "connected", 2, 0, seed=3)
        rep = oracle.compare_measure(loopy, spec)
        assert rep.passed and rep.max_density_error < 1e-9

    def test_forest_measure_never_picks_loops(self, loopy):
        spec = measures.random_spec(loopy, "forest", 1, 0, seed=4)
        rep = oracle.compare_measure(loopy, spec)
        assert rep.passed
        kernel = dg.build_kernel(loopy, spec)
        diag = np.diag(kernel.matrix).real
        assert diag[1] < 1e-12 and diag[2] < 1e-12  # loops are never exact


class TestMixedSupportViaDensities:
    def test_positive_densities_stay_in_family(self):
        # sharper than sampling: every subset of the right size with positive
        # density must satisfy the Euler-characteristic and cycle-window
        # constraints of the mixed family
        import itertools as it
        rng = np.random.default_rng(81)
        g = random_connected_graph(rng, 8, min_b1=2, min_vertices=3)
        spec = measures.random_spec(g, "mixed", 1, 2, seed=13)
        kernel = dg.build_kernel(g, spec)
        fam = {m.indices for m in oracle.enumerate_family(g, "mixed", k=1, l=2)}
        total = 0.0
        for subset in it.combinations(range(g.num_edges), kernel.rank):
            d = dg.density(kernel, subset)
            total += d
            if d > 1e-9:
                assert subset in fam
        assert total == pytest.approx(1.0, abs=1e-9)


def _reduction_graph(case):
    """The 3x3 grid (case 0), or a seeded multigraph with a loop and a parallel pair."""
    if case == 0:
        return dg.grid_graph(3, 3)
    rng = np.random.default_rng(4100 + case)
    g = random_connected_graph(rng, 9, min_b1=2, min_vertices=3)
    tail, head = g.edges[0]
    return dg.WeightedGraph(g.num_vertices, [*g.edges, (head, tail), (head, head)],
                            [*g.weights, *rng.uniform(0.5, 2.0, 2)])


class TestMixedReductions:
    """mixed with no chains is connected, with no forms forest, and with neither ust."""

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("reduced", ["connected", "forest", "ust"])
    def test_mixed_spec_reduces(self, case, reduced):
        g = _reduction_graph(case)
        none = np.zeros((g.num_edges, 0))
        theta, phi = _theta(g, 2, 3), _phi(g, 2, 4)
        mixed, spec = {
            "connected": (MeasureSpec.mixed(none, theta), MeasureSpec.connected_k(theta)),
            "forest": (MeasureSpec.mixed(phi, none), MeasureSpec.forest_k(phi)),
            "ust": (MeasureSpec.mixed(none, none), MeasureSpec.ust()),
        }[reduced]
        family = oracle.enumerate_family(g, "mixed", k=mixed.k, l=mixed.l)
        expected = oracle.enumerate_family(g, reduced, k=spec.k)
        assert len(family) > 0
        assert np.array_equal(family.subsets, expected.subsets)
        assert np.array_equal(dg.build_kernel(g, mixed).matrix, dg.build_kernel(g, spec).matrix)
        weights = measures.stack_weight(g, mixed, family.topology, g.weights)
        np.testing.assert_allclose(
            weights, measures.stack_weight(g, spec, expected.topology, g.weights), rtol=1e-14)


class TestVariantTable:
    @pytest.mark.parametrize("variant", measures.VARIANTS)
    def test_table_is_consistent(self, variant):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flag = next(a for a in sub.choices["sample"]._actions if a.dest == "measure")
        assert tuple(flag.choices) == measures.VARIANTS
        g = dg.grid_graph(3, 3)
        spec = measures.random_spec(g, variant, 1, 1, seed=4)
        rank = spec.expected_rank(g)
        assert dg.build_kernel(g, spec).rank == rank
        in_support = sum(measures.sample_in_support(spec, g.mask(subset))
                         for subset in itertools.combinations(range(g.num_edges), rank))
        family = oracle.enumerate_family(g, variant, k=spec.k, l=spec.l)
        assert len(family) == in_support > 0


# dpp.sample at seeds 0..4 on the weighted 4x4 grid below: a refactor that
# keeps the measures must keep these, and a change that alters them changes
# which samples a seed gives
GOLDEN_SAMPLES = {
    "ust": [
        [0, 1, 2, 5, 7, 9, 10, 11, 12, 15, 16, 17, 20, 22, 23],
        [0, 2, 3, 4, 10, 13, 14, 15, 16, 17, 18, 19, 20, 21, 23],
        [1, 5, 6, 7, 9, 11, 12, 13, 15, 16, 17, 18, 19, 21, 23],
        [0, 1, 4, 5, 8, 9, 10, 12, 13, 15, 16, 17, 21, 22, 23],
        [0, 1, 2, 3, 4, 8, 9, 11, 14, 15, 16, 19, 20, 21, 22],
    ],
    "connected": [
        [0, 1, 2, 3, 5, 9, 10, 11, 12, 13, 15, 16, 17, 18, 20, 22, 23],
        [0, 2, 3, 4, 9, 10, 11, 13, 14, 16, 17, 18, 19, 20, 21, 22, 23],
        [1, 2, 5, 6, 7, 9, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 23],
        [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13, 16, 17, 21, 22, 23],
        [0, 1, 3, 4, 5, 9, 11, 12, 14, 15, 16, 17, 19, 20, 21, 22, 23],
    ],
    "forest": [
        [1, 2, 3, 9, 10, 11, 12, 15, 16, 17, 19, 21, 23],
        [0, 2, 4, 10, 13, 15, 16, 17, 18, 19, 20, 21, 23],
        [1, 5, 6, 9, 12, 14, 15, 16, 17, 18, 19, 20, 22],
        [0, 1, 5, 6, 8, 9, 11, 13, 16, 17, 19, 21, 23],
        [0, 1, 2, 4, 8, 12, 13, 15, 16, 19, 20, 21, 22],
    ],
    "crsf": [
        [0, 1, 2, 4, 5, 9, 10, 11, 12, 13, 15, 16, 17, 20, 22, 23],
        [0, 2, 4, 7, 9, 11, 13, 14, 16, 17, 18, 19, 20, 21, 22, 23],
        [0, 1, 4, 5, 7, 8, 10, 11, 12, 13, 15, 16, 18, 19, 20, 22],
        [0, 1, 2, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 21, 22, 23],
        [0, 1, 2, 3, 4, 8, 11, 12, 14, 16, 17, 18, 19, 20, 21, 22],
    ],
    "mixed": [
        [0, 1, 2, 4, 8, 9, 10, 11, 12, 15, 16, 17, 20, 22, 23],
        [0, 2, 3, 4, 10, 12, 13, 15, 16, 17, 18, 19, 20, 21, 23],
        [1, 4, 5, 6, 8, 10, 11, 12, 14, 15, 16, 18, 20, 21, 23],
        [0, 1, 5, 6, 8, 9, 10, 11, 13, 14, 16, 17, 21, 22, 23],
        [0, 1, 2, 3, 4, 8, 10, 12, 15, 16, 19, 20, 21, 22, 23],
    ],
}


@pytest.mark.parametrize("variant", measures.VARIANTS)
def test_samples_are_stable_per_seed(variant):
    base = dg.grid_graph(4, 4)
    g = dg.WeightedGraph(base.num_vertices, base.edges,
                         np.random.default_rng(2024).uniform(0.5, 2.0, base.num_edges))
    kernel = dg.build_kernel(g, measures.random_spec(g, variant, 2, 2, seed=3))
    assert [sorted(dg.sample(kernel, s)) for s in range(5)] == GOLDEN_SAMPLES[variant]


# seeds 0-2 on a 15x15 grid (420 edges), one bit per edge of each sample
GOLDEN_SAMPLES_15X15 = {
    "ust": [
        0xa993693df4944414ea2d1d7d42907bcf6d6d11fca4e31eb8cfdcdbbbd5ad570a7bb96f9a261bd7d2a460507417bf0fa2250f7b86d,
        0x6dd3b6ef8e766a9f99b5fdac9feebec487948966a63bf2443ffee4d754b0b00bb6d0b222162581a94983376af256d8aeddc314a3c,
        0xfd266111fd97d19a7afb4e3a6bf8972f0584fcb66cb179a7f278e77e46ef10b12eca90093edf00abd668f560dc094eeec46563d2e,
    ],
    "connected": [
        0xa9c369bde914441767b21dec228577ad3f9d05bd8ccbaef90dce9717d5659ca1bfe5d7fa236f64f534a050d49ebb0fa225557ecc5,
        0x7dab2edf9af6ca8fd733e7dd07ebbfcab7258d5472535a2c7de9f6b5a4904c1493d8fe04874500ae0f02374ba9acdb2e76fa7443c,
        0xfd9228651fbd4a8bfadc5d675f1a33a583964f346e5e39e771f948fbd4aef205a7e80955269b78aa5d0a5578d7734e7e856373856,
    ],
    "forest": [
        0xa993b93fa89444156b299c7d09866b656fa684fe94a15cbd679d9ab7d5a99f416f9aaede1e0fc6e9ad50911d24df4fb2250f7bc45,
        0x6d99f6fd8b5eca9f9bbbff9d15e67dc93b2981fd355aa82f3d73a9aba4f03003cdd30c88890d01709901b36ecb54936755be25a1f,
        0xfd2760b13f9e488f7bee4fe2635c9f2f4b855db6783af1ae8efcbd7a06ed243b27829008a7f744aeba41d670e5094e7e84e96a42b,
    ],
    "crsf": [
        0xe73768ebcd13049be623511c8d417f29fd6d467b32897bbd0ebca733b5d53471ef62bd9ea71b559575419013b49b5ee6214d7f49d,
        0xfa67f7ed93dc587f4b63dcfd1fecfe850e1541f720dbac0677ff66ad94ac994198beb4420a4d04a51928b966e97c90d2e7ed8f22e,
        0xff490a947bf51419ef7cee7746e827ada30a5fca7a3a38b3f77eeb7ba375c41b25d44c1416f6d4766d085d64eb214f7644ec52ad4,
    ],
    "mixed": [
        0xa993673dac9428156655795d128a57cd758d99fce4cb3bb89b6e969ffccd56817f3abf9a1607ecf964a051540d7f8ee224ce7f165,
        0x5d336ecdaf57ea2dbb33e4f5a3fedae6eb41157d6cd77a846d68faf7a4900334a5e1554050c7a0a52d22335782bc97a76cdf7253c,
        0xff073248de7ed20a7eff4e2f53392377034c5f55f47638c7b5daf97f09f9a10cadc2da04167af8163d5a1371ec9a1cfcc467658b4,
    ],
}


@pytest.mark.parametrize("variant", measures.VARIANTS)
def test_samples_are_stable_per_seed_at_15x15(variant):
    base = dg.grid_graph(15, 15)
    g = dg.WeightedGraph(base.num_vertices, base.edges,
                         np.random.default_rng(2024).uniform(0.5, 2.0, base.num_edges))
    kernel = dg.build_kernel(g, measures.random_spec(g, variant, 2, 2, seed=3))
    assert [sum(1 << e for e in dg.sample(kernel, s)) for s in range(3)] \
        == GOLDEN_SAMPLES_15X15[variant]


@pytest.mark.parametrize("spread", [9, 10])
@pytest.mark.parametrize("seed", range(10))
def test_forest_measure_at_wide_weight_spreads(spread, seed):
    # the forest core has no residual rank decision left: weights spread over
    # 1e±9 and 1e±10 used to raise a false DegenerateForms for some seeds
    base = dg.grid_graph(3, 3)
    x = 10.0 ** np.random.default_rng(seed).uniform(-spread, spread, base.num_edges)
    g = dg.WeightedGraph(base.num_vertices, base.edges, x)
    spec = measures.random_spec(g, "forest", 1, 0, seed)
    assert oracle.compare_measure(g, spec).passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spread, tol", [(0, 1e-12), (12, 1e-10)])
@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e12, 1e300])
@pytest.mark.parametrize("variant", ["connected", "forest", "mixed"])
def test_kernel_depends_only_on_the_span_of_the_forms(variant, scale, spread, tol):
    # forms and chains are refused by their span, never by their scale; at
    # weights down to 1e-12, j_x must not overflow on chain entries of 1e300
    base = dg.grid_graph(3, 3)
    x = 10.0 ** np.random.default_rng(9).uniform(-spread, spread, base.num_edges)
    g = dg.WeightedGraph(base.num_vertices, base.edges, x)
    spec = measures.random_spec(g, variant, 2, 2, seed=4)
    scaled = measures.random_spec(g, variant, 2, 2, seed=4, forms={
        key: scale * getattr(spec, key) for key in measures.VARIANT_TABLE[variant].forms})
    kernel, scaled_kernel = dg.build_kernel(g, spec), dg.build_kernel(g, scaled)
    assert np.abs(scaled_kernel.matrix - kernel.matrix).max() < tol


@pytest.fixture(scope="module")
def weighted_grid_4x4():
    base = dg.grid_graph(4, 4)
    return dg.WeightedGraph(base.num_vertices, base.edges,
                            np.random.default_rng(77).uniform(0.5, 2.0, base.num_edges))


@pytest.mark.parametrize("variant", measures.VARIANTS)
class TestFrameKernel:
    def kernel(self, g, variant):
        return dg.build_kernel(g, measures.random_spec(g, variant, 2, 1, seed=5))

    def test_matrix_is_the_frame_projector(self, weighted_grid_4x4, variant):
        # K is the one representation: Hermitian and idempotent, trace = rank
        k = self.kernel(weighted_grid_4x4, variant)
        m = k.matrix
        assert m.shape == (weighted_grid_4x4.num_edges,) * 2
        assert np.abs(m - m.conj().T).max() < 1e-14
        assert np.abs(m @ m - m).max() < 1e-14
        assert abs(np.trace(m).real - k.rank) < 1e-12

    def test_non_orthonormal_frame_rejected(self, weighted_grid_4x4, variant):
        k = self.kernel(weighted_grid_4x4, variant)
        eigvals, eigvecs = np.linalg.eigh(k.matrix)
        frame = eigvecs[:, eigvals > 0.5]  # a range frame of its own
        assert np.abs(dg.ProjectionKernel.from_frame(frame).matrix - k.matrix).max() < 1e-12
        frame[:, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="orthonormal"):
            dg.ProjectionKernel.from_frame(frame)
        frame[0, 0] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            dg.ProjectionKernel.from_frame(frame)

    def test_range_frame_spans_the_range(self, weighted_grid_4x4, variant):
        k = self.kernel(weighted_grid_4x4, variant)
        eigvals, eigvecs = np.linalg.eigh(k.matrix)
        f = eigvecs[:, eigvals > 0.5]
        assert f.shape[1] == k.rank
        assert np.abs(k.matrix @ f - f).max() < 1e-12
        # the complement projects onto the rest: I - K, of rank n - r
        comp = k.complement()
        assert comp.rank == k.size - k.rank
        assert np.abs(comp.matrix + k.matrix - np.eye(k.size)).max() < 1e-15
        assert np.abs(comp.matrix @ f).max() < 1e-12

    def test_json_roundtrip_keeps_the_kernel(self, weighted_grid_4x4, variant):
        k = self.kernel(weighted_grid_4x4, variant)
        back = dg.ProjectionKernel.from_json(k.to_json())
        assert back.rank == k.rank
        assert np.abs(back.matrix - k.matrix).max() < 1e-14
        assert back.matrix.dtype == k.matrix.dtype

    def test_batch_equals_samples_per_seed(self, weighted_grid_4x4, variant):
        k = self.kernel(weighted_grid_4x4, variant)
        assert dg.sample_batch(k, 40, 7) == [dg.sample(k, 40 + i) for i in range(7)]


REAL_VARIANTS = ["ust", "connected", "forest", "mixed"]


class TestKernelDtype:
    """A kernel is real when its forms are; crsf and complex forms are complex."""

    @pytest.mark.parametrize("variant", REAL_VARIANTS)
    def test_real_forms_give_a_real_frame(self, weighted_grid_4x4, variant):
        g = weighted_grid_4x4
        seeded = measures.random_spec(g, variant, 2, 1, seed=5)
        forms = {key: getattr(seeded, key) for key in measures.VARIANT_TABLE[variant].forms}
        loaded = measures.forms_from_json(measures.forms_to_json(**forms))  # im parts all 0
        from_file = measures.random_spec(g, variant, 2, 1, seed=5, forms=loaded)
        for spec in (seeded, from_file):
            assert all(getattr(spec, key).dtype == np.float64 for key in forms)
            assert dg.build_kernel(g, spec).matrix.dtype == np.float64

    @pytest.mark.parametrize("variant, key", [
        ("crsf", None), ("connected", "theta"), ("forest", "phi"),
        ("mixed", "theta"),  # real chains, complex forms
    ])
    def test_complex_forms_give_a_complex_frame(self, weighted_grid_4x4, variant, key):
        g = weighted_grid_4x4
        spec = measures.random_spec(g, variant, 1, 1, seed=5)
        if key is not None:
            form = getattr(spec, key)
            spec = measures.random_spec(g, variant, 1, 1, seed=5,
                                        forms={key: form + 1j * form[::-1]})
        assert all(getattr(spec, key).dtype == np.complex128
                   for key in measures.VARIANT_TABLE[variant].forms)
        assert dg.build_kernel(g, spec).matrix.dtype == np.complex128

    @pytest.mark.parametrize("variant", REAL_VARIANTS)
    def test_real_kernel_agrees_with_its_complex_cast(self, weighted_grid_4x4, variant):
        k = dg.build_kernel(weighted_grid_4x4, measures.random_spec(weighted_grid_4x4,
                                                                     variant, 2, 1, seed=5))
        kc = dg.ProjectionKernel(k.matrix.astype(complex), k.rank)
        samples = dg.sample_batch(k, 11, 300)
        assert samples == dg.sample_batch(kc, 11, 300)
        assert np.abs(k.matrix - kc.matrix).max() <= 1e-15
        assert max(abs(dg.density(k, s) - dg.density(kc, s)) for s in samples[:30]) <= 1e-15
        exported = [np.asarray(json.loads(kern.to_json())["matrix"]) for kern in (k, kc)]
        assert np.abs(exported[0] - exported[1]).max() <= 1e-15

    @pytest.mark.parametrize("variant", REAL_VARIANTS)
    def test_json_keeps_a_real_kernel_real(self, weighted_grid_4x4, variant):
        g = weighted_grid_4x4
        k = dg.build_kernel(g, measures.random_spec(g, variant, 2, 1, seed=5))
        back = dg.ProjectionKernel.from_json(k.to_json())
        assert back.matrix.dtype == np.float64
        assert dg.sample_batch(back, 11, 300) == dg.sample_batch(k, 11, 300)
        assert np.abs(back.matrix - k.matrix).max() <= 1e-15

    def test_json_complex_kernel_samples_as_its_source(self, weighted_grid_4x4):
        # the sampler reads the matrix, which JSON carries exactly
        g = weighted_grid_4x4
        crsf = dg.build_kernel(g, measures.random_spec(g, "crsf", 1, 1, seed=5))
        back = dg.ProjectionKernel.from_json(crsf.to_json())
        assert back.matrix.dtype == np.complex128
        assert np.array_equal(back.matrix, crsf.matrix)
        assert dg.sample_batch(back, 11, 300) == dg.sample_batch(crsf, 11, 300)


def _grid_with_tiny_edges(seed):
    """3x3 grid with weights uniform(0.5, 2), three of its edges scaled by 1e-13,
    both drawn from default_rng(seed)."""
    base = dg.grid_graph(3, 3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 2.0, base.num_edges)
    x[rng.choice(base.num_edges, 3, replace=False)] *= 1e-13
    return dg.WeightedGraph(base.num_vertices, base.edges, x)


# connected k = 2 kernels of these seeds failed their own orthonormality check
# (an untyped ValueError, exit 2) while the forms were taken as residuals off a
# weighted exact-forms frame; the complement basis is weight-free
@pytest.mark.parametrize("seed", [3, 7, 15, 22, 24, 30, 38, 41, 46])
def test_connected_measure_with_three_tiny_edges(seed, tmp_path):
    g = _grid_with_tiny_edges(seed)
    assert oracle.compare_measure(g, measures.random_spec(g, "connected", 2, 0, seed)).passed
    graph = tmp_path / "g.json"
    graph.write_text(g.to_json())
    assert cli.main(["sample", "--graph", str(graph), "--measure", "connected", "--k", "2",
                     "--seed", str(seed), "--count", "2", "-o", str(tmp_path / "s.json")]) == 0


def test_failed_frame_check_is_a_numeric_degeneracy(monkeypatch, tmp_path, capsys):
    # no frame passes a negative tolerance: inside build_kernel that is a
    # numeric failure (exit 3), while a frame from outside keeps its ValueError
    monkeypatch.setattr(dg.dpp, "KERNEL_TOL", -1.0)
    g = dg.grid_graph(2, 2)
    with pytest.raises(NumericDegeneracy, match="orthonormal"):
        dg.build_kernel(g, MeasureSpec.ust())
    with pytest.raises(ValueError, match="orthonormal") as info:
        dg.ProjectionKernel.from_frame(np.eye(3)[:, :2])
    assert not isinstance(info.value, NumericDegeneracy)
    graph = tmp_path / "g.json"
    graph.write_text(g.to_json())
    assert cli.main(["sample", "--graph", str(graph), "--measure", "ust",
                     "-o", str(tmp_path / "s.json")]) == 3
    assert "orthonormal" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", measures.VARIANTS)
def test_smallest_subnormal_weight_gives_a_finite_kernel(variant):
    # the complement is scaled by 1/sqrt(x): 1/x would overflow at 5e-324
    base = dg.grid_graph(3, 3)
    x = np.random.default_rng(1).uniform(0.5, 2.0, base.num_edges)
    x[4] = 5e-324
    g = dg.WeightedGraph(base.num_vertices, base.edges, x)
    k = dg.build_kernel(g, measures.random_spec(g, variant, 1, 1, seed=2))
    assert np.all(np.isfinite(k.matrix))
    assert np.abs(k.matrix @ k.matrix - k.matrix).max() < 1e-14
    assert abs(k.matrix[4, 4]) < 1e-15  # an edge of weight 0+ is almost never drawn


# the supported weight range that README documents: every variant agrees with
# the oracle at spreads up to 1e+-14 (derandomized, so the examples are fixed)
@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=st.sampled_from([("ust", 0, 0), ("connected", 1, 0), ("connected", 2, 0),
                             ("forest", 1, 0), ("forest", 2, 0), ("crsf", 0, 0),
                             ("mixed", 1, 1), ("mixed", 2, 1)]),
       spread=st.floats(0.0, 14.0), seed=st.integers(0, 2 ** 32 - 1))
def test_every_variant_agrees_with_the_oracle_over_the_weight_range(case, spread, seed):
    variant, k, l = case
    base = dg.grid_graph(3, 3)
    x = 10.0 ** np.random.default_rng(seed).uniform(-spread, spread, base.num_edges)
    g = dg.WeightedGraph(base.num_vertices, base.edges, x)
    rep = oracle.compare_measure(g, measures.random_spec(g, variant, k, l, seed))
    assert rep.passed, rep.to_dict()
