import numpy as np
import pytest

import detgraph as dg
from detgraph import measures, oracle, polynomials

from conftest import random_connected_graph


class TestKirchhoff:
    def test_triangle_unit(self, triangle):
        assert dg.kirchhoff_T(triangle).real == pytest.approx(3.0)

    def test_single_edge(self):
        g = dg.WeightedGraph(2, [(0, 1)], [0.7])
        assert dg.kirchhoff_T(g).real == pytest.approx(0.7)

    def test_grid_matches_enumeration(self):
        g = dg.grid_graph(3, 3)
        assert dg.kirchhoff_T(g).real == pytest.approx(
            oracle.tree_sum(g), rel=1e-12)

    def test_weighted_matches_enumeration(self, square_with_chord):
        g = square_with_chord
        assert dg.kirchhoff_T(g).real == pytest.approx(
            oracle.tree_sum(g), rel=1e-12)


class TestPsi1:
    def test_triangle_unit(self, triangle):
        assert dg.symanzik_psi1(triangle).real == pytest.approx(3.0)

    def test_path_graph(self):
        g = dg.WeightedGraph(3, [(0, 1), (1, 2)], [0.3, 1.9])
        assert dg.symanzik_psi1(g).real == pytest.approx(1.0)

    def test_cross_method_on_random_weights(self):
        rng = np.random.default_rng(31)
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                             rng.uniform(0.5, 2.0, 4))
        assert dg.symanzik_psi1(g).real == pytest.approx(
            oracle.psi1_sum(g), rel=1e-12)


class TestPsi2:
    def test_zero_charge(self, triangle):
        assert dg.symanzik_psi2(triangle, triangle.weights,
                                np.zeros(3)).real == pytest.approx(0.0, abs=1e-12)

    def test_single_edge(self):
        # the only 2-forest is the empty edge set; its complement is the edge
        g = dg.WeightedGraph(2, [(0, 1)], [1.7])
        val = dg.symanzik_psi2(g, g.weights, np.array([1.0, -1.0])).real
        assert val == pytest.approx(1.7)

    def test_triangle_enumeration(self, triangle):
        q = np.array([1.0, -1.0, 0.0])
        assert dg.symanzik_psi2(triangle, triangle.weights, q).real == \
            pytest.approx(oracle.psi2_sum(triangle, triangle.weights, q), rel=1e-12)

    def test_unbalanced_charge_rejected(self, triangle):
        with pytest.raises(ValueError, match="sum to zero"):
            dg.symanzik_psi2(triangle, triangle.weights, np.array([1.0, 0.0, 0.0]))


class TestGeneralizedPolynomials:
    def test_k_zero_reduces_to_tree_polynomial(self, square_with_chord):
        g = square_with_chord
        empty = np.zeros((g.num_edges, 0))
        t = dg.kirchhoff_T(g).real
        assert dg.generalized_C(g, None, empty).real == pytest.approx(t, rel=1e-12)
        assert dg.generalized_A(g, None, empty).real == pytest.approx(t, rel=1e-12)

    def test_triangle_k1_dual_basis_form(self, triangle):
        theta = np.zeros((3, 1), dtype=complex)
        theta[0, 0] = 1.0
        # single element of the family: the whole triangle, weight 1*x1x2x3
        assert dg.generalized_C(triangle, None, theta).real == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_determinant_vs_enumeration(self, k):
        rng = np.random.default_rng(40 + k)
        g = random_connected_graph(rng, 8, min_b1=k)
        theta = measures.random_theta(g, k, seed=int(rng.integers(2 ** 31)))
        phi = measures.random_phi(g, k, seed=int(rng.integers(2 ** 31)))
        assert oracle.compare_polynomial(g, "C", theta=theta).max_poly_rel_error < 1e-9
        assert oracle.compare_polynomial(g, "A", phi=phi).max_poly_rel_error < 1e-9

    def test_complex_forms_still_match(self):
        rng = np.random.default_rng(43)
        g = random_connected_graph(rng, 7, min_b1=1)
        theta = (rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1)))
        phi = (rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1)))
        assert oracle.compare_polynomial(g, "C", theta=theta).max_poly_rel_error < 1e-9
        assert oracle.compare_polynomial(g, "A", phi=phi).max_poly_rel_error < 1e-9

    def test_homogeneity(self, square_with_chord):
        g = square_with_chord
        theta = measures.random_theta(g, 1, 1)
        phi = measures.random_phi(g, 1, 2)
        lam = 1.7
        n = g.num_vertices
        c1 = dg.generalized_C(g, g.weights, theta).real
        c2 = dg.generalized_C(g, lam * g.weights, theta).real
        assert c2 == pytest.approx(lam ** (n - 1 + 1) * c1, rel=1e-10)
        a1 = dg.generalized_A(g, g.weights, phi).real
        a2 = dg.generalized_A(g, lam * g.weights, phi).real
        assert a2 == pytest.approx(lam ** (n - 1 - 1) * a1, rel=1e-10)

    def test_quadratic_scaling_in_forms(self, square_with_chord):
        g = square_with_chord
        theta = measures.random_theta(g, 1, 3)
        lam = 2.5 - 1.5j
        c1 = dg.generalized_C(g, None, theta).real
        c2 = dg.generalized_C(g, None, lam * theta).real
        assert c2 == pytest.approx(abs(lam) ** 2 * c1, rel=1e-10)


class TestRatioIdentities:
    def test_k_zero_both_sides_one(self, square_with_chord):
        g = square_with_chord
        empty = np.zeros((g.num_edges, 0))
        rc = polynomials.ratio_identity_connected(g, None, empty)
        ra = polynomials.ratio_identity_forest(g, None, empty)
        assert rc.lhs == pytest.approx(1.0, rel=1e-10)
        assert rc.rhs == pytest.approx(1.0, rel=1e-10)
        assert ra.rel_error < 1e-10

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_instances(self, k):
        rng = np.random.default_rng(50 + k)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(4, 7)),
                                       min_b1=k, min_vertices=k + 1)
            theta = measures.random_theta(g, k, int(rng.integers(2 ** 31)))
            phi = measures.random_phi(g, k, int(rng.integers(2 ** 31)))
            assert polynomials.ratio_identity_connected(g, None, theta).rel_error < 1e-9
            assert polynomials.ratio_identity_forest(g, None, phi).rel_error < 1e-9

    def test_degenerate_form_gives_zero(self, square_with_chord):
        # a form inside the exact forms has zero cycle-space projection and a
        # vanishing connected polynomial
        g = square_with_chord
        theta = g.coboundary[:, 1:2].astype(complex)
        val = oracle.connected_poly_sum(g, None, theta)
        report = polynomials.ratio_identity_connected(g, None, theta)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-18)
        assert report.rel_error == 0.0


class TestGreenPairing:
    def test_zero_charge(self, triangle):
        assert dg.green_height_pairing(triangle, triangle.weights,
                                       np.zeros(3)) == pytest.approx(0.0)

    def test_single_edge(self):
        g = dg.WeightedGraph(2, [(0, 1)], [2.3])
        val = dg.green_height_pairing(g, g.weights, np.array([1.0, -1.0]))
        assert val == pytest.approx(2.3)  # inverse conductance 1/y = x

    def test_matches_psi_ratio(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            g = random_connected_graph(rng, 7)
            q = rng.standard_normal(g.num_vertices)
            q -= q.mean()
            x = np.asarray(g.weights)
            lhs = dg.symanzik_psi2(g, x, q).real / dg.symanzik_psi1(g, x).real
            rhs = dg.green_height_pairing(g, x, q)
            assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_pin_independence(self, square_with_chord):
        # solving with a different pinned vertex gives the same pairing
        g = square_with_chord
        q = np.array([1.0, -2.0, 0.5, 0.5])
        y = 1.0 / g.weights
        d = g.boundary.astype(float)
        lap = (d * y) @ d.T
        expected = dg.green_height_pairing(g, g.weights, q)
        keep = [0, 1, 3]  # pin vertex 2 instead
        u = np.zeros(4)
        u[keep] = np.linalg.solve(lap[np.ix_(keep, keep)], q[keep])
        assert q @ u == pytest.approx(expected, rel=1e-10)


class TestTorusVolume:
    def test_unit_weights_count_trees(self):
        rng = np.random.default_rng(62)
        g = random_connected_graph(rng, 8)
        unit = dg.WeightedGraph(g.num_vertices, g.edges)
        assert dg.torus_volume(unit) == pytest.approx(
            len(dg.enumerate_spanning_trees(unit)), rel=1e-9)

    def test_triangle(self, triangle):
        assert dg.torus_volume(triangle) == pytest.approx(3.0)

    def test_weighted_identity(self):
        rng = np.random.default_rng(63)
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                             rng.uniform(0.5, 2.0, 4))
        expected = np.prod(g.weights) ** -0.5 * dg.kirchhoff_T(g).real
        assert dg.torus_volume(g) == pytest.approx(expected, rel=1e-9)

    def test_any_tree_gives_same_volume(self, square_with_chord):
        g = square_with_chord
        trees = dg.enumerate_spanning_trees(g)
        vols = {round(dg.torus_volume(g, tree=t), 9) for t in trees}
        assert len(vols) == 1


class TestStability:
    def test_triangle_at_imaginary_unit(self, triangle):
        val = dg.kirchhoff_T(triangle, np.array([1j, 1j, 1j]))
        assert val == pytest.approx(-3.0)

    def test_tree_polynomial_never_vanishes(self, square_with_chord):
        g = square_with_chord
        rep = dg.stability_spot_check(
            lambda x: dg.kirchhoff_T(g, x), g.num_edges, trials=200, seed=1)
        assert rep.passed
        assert rep.min_abs > 0

    def test_forest_polynomial_on_four_cycle(self):
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        phi = measures.random_phi(g, 1, seed=2)
        rep = dg.stability_spot_check(
            lambda x: dg.generalized_A(g, x, phi), g.num_edges,
            trials=100, seed=3)
        assert rep.passed

    def test_degenerate_polynomial_flagged(self):
        rep = dg.stability_spot_check(lambda x: 0.0, 3, trials=10, seed=4)
        assert rep.degenerate
        assert not rep.passed


class TestPlanarDualityPolynomials:
    def test_forest_equals_dual_connected(self):
        from detgraph.planar import triangle_embedding
        rng = np.random.default_rng(64)
        base, faces = triangle_embedding()
        g = dg.WeightedGraph(3, base.edges, rng.uniform(0.5, 2.0, 3))
        phi = measures.random_phi(g, 1, seed=5)
        pd = dg.planar_dual(g, faces)
        dual_inv = pd.dual.inverted_weights()
        lhs = dg.generalized_A(g, None, phi).real
        rhs = np.prod(g.weights) * dg.generalized_C(dual_inv, None, phi).real
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestComplexContinuation:
    def test_determinant_route_matches_sum_at_complex_weights(self):
        # the bordered determinants are polynomials in the edge variables, so
        # they must match the defining sums at complex points too; the
        # topological factors are weight independent, so the sum is rebuilt
        # from them with complex monomials
        rng = np.random.default_rng(90)
        g = random_connected_graph(rng, 7, min_b1=1, min_vertices=3)
        theta = measures.random_theta(g, 1, 1)
        phi = measures.random_phi(g, 1, 2)
        z = rng.uniform(-1, 1, 7) + 1j * rng.uniform(0.1, 1.1, 7)

        total_c = 0j
        for m in oracle.enumerate_family(g, "connected", k=1):
            topo = dg.cycle_weight(g, m, theta).topological
            total_c += topo * np.prod(z[list(m.edge_set)])
        det_c = dg.generalized_C(g, z, theta)
        assert abs(det_c - total_c) < 1e-9 * abs(total_c)

        total_a = 0j
        for m in oracle.enumerate_family(g, "forest", k=1):
            topo = dg.forest_weight(g, m, phi).topological
            mono = np.prod(z[list(m.edge_set)]) if m.edge_set else 1.0
            total_a += topo * mono
        det_a = dg.generalized_A(g, z, phi)
        assert abs(det_a - total_a) < 1e-9 * abs(total_a)
