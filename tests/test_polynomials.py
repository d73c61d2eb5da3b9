import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import detgraph as dg
from detgraph import linalg, measures, oracle, polynomials
from detgraph.errors import NumericDegeneracy

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

    @pytest.mark.parametrize("side", [8, 11, 15])
    def test_tree_flow_has_boundary_q(self, side):
        # the flow runs along the min-index tree; any chain with boundary q
        # gives psi2, so the least-squares flow must give the same value
        rng = np.random.default_rng(side)
        g = dg.grid_graph(side, side)
        x = rng.uniform(0.5, 2.0, g.num_edges)
        q = rng.standard_normal(g.num_vertices)
        q -= q.mean()
        f = polynomials.flow_with_divergence(g, q)
        assert f.dtype == np.float64
        assert np.abs(g.boundary @ f - q).max() < 1e-12
        tree = dg.min_index_spanning_tree(g).edge_set
        assert not f[[e for e in range(g.num_edges) if e not in tree]].any()
        least_squares = np.linalg.lstsq(g.boundary.astype(float), q, rcond=None)[0]
        fam = np.hstack([dg.cycle_space_basis(g), least_squares[:, None]])
        assert dg.symanzik_psi2(g, x, q).real == pytest.approx(
            linalg.bilinear_gram_det(x, fam).real, rel=1e-12)

    def test_complex_charge_gives_complex_flow(self, square_with_chord):
        g = square_with_chord
        q = np.array([1 + 2j, -1j, 0.5, -1.5 - 1j])
        f = polynomials.flow_with_divergence(g, q)
        assert f.dtype == np.complex128
        assert np.abs(g.boundary @ f - q).max() < 1e-15

    def test_small_graphs_match_enumeration(self, square_with_chord):
        rng = np.random.default_rng(12)
        for g in (square_with_chord, dg.grid_graph(2, 3),
                  random_connected_graph(rng, 9, min_b1=2)):
            q = rng.standard_normal(g.num_vertices)
            q -= q.mean()
            assert dg.symanzik_psi2(g, g.weights, q).real == pytest.approx(
                oracle.psi2_sum(g, g.weights, q), rel=1e-12)


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


class TestEdgelessGraph:
    # one vertex and no edge: the empty subgraph is the one spanning tree
    # and the one connected subgraph with 0 cycles; no subgraph has more
    def test_polynomials_of_the_single_vertex(self):
        g = dg.WeightedGraph(1, [])
        x, none = np.zeros(0), np.zeros((0, 0))
        assert dg.kirchhoff_T(g, x) == dg.symanzik_psi1(g, x) == 1.0
        assert dg.generalized_C(g, x, none) == dg.generalized_A(g, x, none) == 1.0
        assert dg.generalized_C(g, x, np.zeros((0, 1))) == 0.0
        assert dg.generalized_A(g, x, np.zeros((0, 1))) == 0.0
        assert dg.symanzik_psi2(g, x, np.zeros(1)) == 0.0
        assert polynomials.ratio_identity_connected(g, x, none).rel_error == 0.0
        assert polynomials.ratio_identity_forest(g, x, none).rel_error == 0.0


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
        for i in range(10):
            g = random_connected_graph(rng, 7)
            if i == 0:  # a parallel pair, and a light loop whose 1/x must add exactly 0
                g = dg.WeightedGraph(g.num_vertices, [*g.edges, (1, 1), g.edges[0]],
                                     [*g.weights, 1e-12, 1.9])
            q = rng.standard_normal(g.num_vertices)
            q -= q.mean()
            x = np.asarray(g.weights)
            lhs = dg.symanzik_psi2(g, x, q).real / dg.symanzik_psi1(g, x).real
            rhs = dg.green_height_pairing(g, x, q)
            assert rhs == pytest.approx(lhs, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_weight_refused(self):
        g = dg.grid_graph(2, 2)
        with pytest.raises(NumericDegeneracy):
            dg.green_height_pairing(g, np.array([0.0, 1.0, 1.0, 1.0]),
                                    np.array([1.0, -1.0, 0.0, 0.0]))

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
            len(oracle.enumerate_family(unit, "ust")), rel=1e-9)

    def test_triangle(self, triangle):
        assert dg.torus_volume(triangle) == pytest.approx(3.0)

    def test_weighted_identity(self):
        rng = np.random.default_rng(63)
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                             rng.uniform(0.5, 2.0, 4))
        expected = np.prod(g.weights) ** -0.5 * dg.kirchhoff_T(g).real
        assert dg.torus_volume(g) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_weight_not_positive_refused(self, weight):
        g = dg.grid_graph(5, 5)
        x = np.ones(g.num_edges)
        x[7] = weight
        with pytest.raises(NumericDegeneracy, match=f"one is {weight}"):
            dg.torus_volume(g, x)

    def test_any_tree_gives_same_volume(self, square_with_chord):
        g = square_with_chord
        trees = oracle.enumerate_family(g, "ust")
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
            topo = dg.subgraph_weight(g, dg.MeasureSpec.connected_k(theta), m).topological
            total_c += topo * np.prod(z[list(m.edge_set)])
        det_c = dg.generalized_C(g, z, theta)
        assert abs(det_c - total_c) < 1e-9 * abs(total_c)

        total_a = 0j
        for m in oracle.enumerate_family(g, "forest", k=1):
            topo = dg.subgraph_weight(g, dg.MeasureSpec.forest_k(phi), m).topological
            mono = np.prod(z[list(m.edge_set)]) if m.edge_set else 1.0
            total_a += topo * mono
        det_a = dg.generalized_A(g, z, phi)
        assert abs(det_a - total_a) < 1e-9 * abs(total_a)


def _random_multigraph(rng: np.random.Generator) -> dg.WeightedGraph:
    """A connected multigraph on 2 to 7 vertices: a random tree, then extra
    edges among which loops and parallel edges are common."""
    n = int(rng.integers(2, 8))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    for _ in range(int(rng.integers(1, 8))):
        kind = rng.integers(3)
        if kind == 0:  # a loop
            v = int(rng.integers(n))
            edges.append((v, v))
        elif kind == 1:  # parallel to an edge already there
            t, h = edges[int(rng.integers(len(edges)))]
            edges.append((h, t) if rng.random() < 0.5 else (t, h))
        else:
            edges.append((int(rng.integers(n)), int(rng.integers(n))))
    return dg.WeightedGraph(n, edges, rng.uniform(0.5, 2.0, len(edges)))


def _cut_family_reference(g, x, kind, forms):
    """T, C or A from the dense reduced coboundary: the Gram determinant of
    D, of D extended by the forms, or (-1)^k det of D^T X D bordered by the chains."""
    d = g.coboundary[:, 1:].astype(float)
    if kind == "T":
        return linalg.bilinear_gram_det(x, d)
    if kind == "C":
        return linalg.bilinear_gram_det(x, np.hstack([d, forms]))
    k = forms.shape[1]
    bordered = np.block([[(d.T * x) @ d, d.T @ forms.conj()],
                         [forms.T @ d, np.zeros((k, k))]])
    return (-1) ** k * np.linalg.det(bordered)


class TestLaplacianRoutes:
    """T, C and A read the weighted Laplacian, and its borders, off one scatter
    over the edge ends; they must agree with the dense Gram route to 1e-12,
    relative to the polynomial's scale: its reference value at positive
    weights no smaller in modulus (zeros put back, complex ones at |x|)."""

    ROUTES = {"T": lambda g, x, forms: dg.kirchhoff_T(g, x),
              "C": dg.generalized_C, "A": dg.generalized_A}

    @staticmethod
    def _weight_kinds(g, rng):
        x = g.weights
        zeroed = np.where(rng.random(g.num_edges) < 0.3, 0.0, x)
        z = rng.uniform(-1, 1, g.num_edges) + 1j * rng.uniform(0.1, 1.1, g.num_edges)
        return {"real": x, "zeros": zeroed, "complex": z}

    def _check(self, g, rng):
        seed = int(rng.integers(2 ** 31))
        for label, x in self._weight_kinds(g, rng).items():
            positive = np.where(x == 0, g.weights, np.abs(x))
            for kind, route in self.ROUTES.items():
                for k in range(4 if kind != "T" else 1):
                    draw = measures.random_theta if kind == "C" else measures.random_phi
                    forms = draw(g, k, seed)
                    value = route(g, x, forms)
                    if kind == "C" and k > g.betti_1 or kind == "A" and k > g.num_vertices - 1:
                        assert value == 0.0, (kind, k, label)  # exactly, not to rounding
                        continue
                    reference = _cut_family_reference(g, x, kind, forms)
                    scale = abs(_cut_family_reference(g, positive, kind, forms))
                    assert abs(value - reference) <= 1e-12 * scale, (kind, k, label, value)
                    assert isinstance(value, complex)
                    if label != "complex":
                        assert value.imag == 0.0

    @pytest.mark.parametrize("side", [3, 8, 15])
    def test_grids(self, side):
        rng = np.random.default_rng(side)
        grid = dg.grid_graph(side, side)
        g = dg.WeightedGraph(grid.num_vertices, grid.edges, rng.uniform(0.5, 2.0, grid.num_edges))
        self._check(g, rng)

    def test_random_multigraphs(self):
        rng = np.random.default_rng(93)
        for _ in range(50):
            self._check(_random_multigraph(rng), rng)

    def test_light_loop_adds_nothing(self):
        # the Green pairing scatters 1/x = 1e12 onto the loop's vertex, where the
        # loop's four entries would cancel only to about 1e-4 of the diagonal
        rng = np.random.default_rng(94)
        g = _random_multigraph(rng)
        g = dg.WeightedGraph(g.num_vertices, [*g.edges, (1, 1)], [*g.weights, 1e-12])
        self._check(g, rng)
        q = rng.standard_normal(g.num_vertices)
        q -= q.mean()
        d = g.boundary.astype(float)
        lap = (d / g.weights) @ d.T
        expected = q[1:] @ np.linalg.solve(lap[1:, 1:], q[1:])
        assert dg.green_height_pairing(g, g.weights, q) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("side", [3, 8])
    def test_torus_volume_and_ratio_right_hand_sides(self, side):
        rng = np.random.default_rng(95 + side)
        grid = dg.grid_graph(side, side)
        g = dg.WeightedGraph(grid.num_vertices, grid.edges, rng.uniform(0.5, 2.0, grid.num_edges))
        x, z = g.weights, dg.cycle_space_basis(g)
        fam = np.hstack([linalg.j_x_columns(x, z), dg.cut_space_basis(g)])
        assert dg.torus_volume(g) == pytest.approx(np.sqrt(linalg.gram_det(x, fam)), rel=1e-12)
        frame = linalg.weighted_frame(x, z)
        for k in range(3):
            theta = measures.random_theta(g, k, 1) * np.exp(1j * rng.uniform(0, 6, k))
            a = frame.conj().T @ linalg.to_omega(x, theta)
            rhs = polynomials.ratio_identity_connected(g, None, theta).rhs
            assert rhs == pytest.approx(np.linalg.det(a.conj().T @ a).real, rel=1e-12, abs=1e-300)
            phi = measures.random_phi(g, k, 2)
            t = linalg.to_omega(x, linalg.j_x_columns(x, phi))
            r = t - frame @ (frame.conj().T @ t)
            rhs = polynomials.ratio_identity_forest(g, None, phi).rhs
            assert rhs == pytest.approx(np.linalg.det(r.conj().T @ r).real, rel=1e-12, abs=1e-300)


@st.composite
def polynomial_cases(draw):
    """A connected multigraph of 1 to 12 edges (loops and parallel edges
    allowed) with positive weights, a set of edges to zero, and the inputs of
    the polynomials: a balanced integer charge, forms and chains."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex), min_size=int(n == 1),
                           max_size=12 - len(edges)))
    edges = draw(st.permutations(edges))
    g = dg.WeightedGraph(n, edges, draw(st.lists(
        st.floats(0.1, 3.0), min_size=len(edges), max_size=len(edges))))
    zeros = np.array(draw(st.lists(st.sampled_from([False, False, True]),
                                   min_size=len(edges), max_size=len(edges))), dtype=bool)
    charge = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    seed = draw(st.integers(0, 2 ** 16))
    inputs = {
        "q": np.array(charge + [-sum(charge)], dtype=float),
        "theta": measures.random_theta(g, draw(st.integers(0, min(g.betti_1, 2))), seed),
        "phi": measures.random_phi(g, draw(st.integers(0, min(n - 1, 2))), seed),
    }
    return g, zeros, inputs


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=polynomial_cases())
def test_every_route_matches_its_defining_sum_at_zero_weights(case):
    """Every route is evaluated with some weights exactly 0."""
    g, zeros, inputs = case
    x = np.where(zeros, 0.0, g.weights)
    for which, poly in oracle.POLYNOMIALS.items():
        report = oracle.compare_polynomial(g, which, x, **inputs)
        if report.passed:
            continue
        # where every member of the family has a zero weight the polynomial
        # vanishes and a relative error means nothing; the route must vanish
        # to rounding, against the scale of the polynomial at positive weights
        extra = () if poly.extra is None else (inputs[poly.extra],)
        assert poly.defining_sum(g, x, *extra) == 0.0, report
        assert abs(poly.route(g, x, *extra)) <= 1e-12 * poly.defining_sum(g, g.weights, *extra)
