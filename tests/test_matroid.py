import itertools

import numpy as np
import pytest

import detgraph as dg
from detgraph import dpp, matroid as mm, oracle
from detgraph.errors import (EnumerationCapExceeded, ImpossibleCondition, MalformedInput,
                             NumericDegeneracy, RankDeficient)

from conftest import random_connected_graph


def _wide_weight_grids():
    """3x3 grids with weights 10**uniform(-12, 12), seeds 0-9."""
    g = dg.grid_graph(3, 3)
    for seed in range(10):
        x = 10 ** np.random.default_rng(seed).uniform(-12, 12, g.num_edges)
        yield seed, dg.WeightedGraph(g.num_vertices, g.edges, x)


def _random_matroid(seed, target=4, ground=7, complex_entries=True):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((target, ground))
    if complex_entries:
        r = r + 1j * rng.standard_normal((target, ground))
    return mm.from_matrix(r, rng.uniform(0.5, 2.0, ground))


class TestConstruction:
    def test_free_matroid(self):
        m = mm.from_matrix(np.eye(4))
        assert m.rank == 4
        assert m.corank == 0
        assert m.bases == (tuple(range(4)),)

    def test_zero_matrix(self):
        m = mm.from_matrix(np.zeros((3, 4)))
        assert m.rank == 0
        assert not m.is_independent((0,))
        assert m.bases == ((),)

    def test_kernel_is_annihilated(self):
        m = _random_matroid(1)
        assert np.abs(m.matrix @ m.kernel_basis).max() < 1e-10

    def test_graph_incidence_gives_circular_matroid(self, triangle):
        m = mm.from_matrix(triangle.boundary.astype(float), triangle.weights)
        trees = {t.indices for t in oracle.enumerate_family(triangle, "ust")}
        assert set(m.bases) == trees

    def test_json_roundtrip(self):
        # complex and real R, and a target_dim of 0, whose R is written as []
        for m in (_random_matroid(2), _random_matroid(2, complex_entries=False),
                  mm.from_matrix(np.zeros((0, 3)), np.array([0.5, 1.0, 2.0]))):
            back = mm.matroid_from_json(mm.matroid_to_json(m))
            assert back.matrix.shape == m.matrix.shape
            assert np.array_equal(back.matrix, m.matrix)
            assert np.array_equal(back.weights, m.weights)
            assert back.bases == m.bases

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_dtype_follows_R(self, complex_entries):
        # a real R keeps the kernel, circuits and restrictions real, through JSON too
        m = _random_matroid(3, complex_entries=complex_entries)
        dtype = np.complex128 if complex_entries else np.float64
        for a in (m.matrix, mm.matroid_from_json(mm.matroid_to_json(m)).matrix,
                  mm.matroid_kernel(m).matrix, m.fundamental_circuit_basis(m.bases[0]),
                  mm.restricted_kernel_basis(m, range(6))):
            assert a.dtype == dtype


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mm.LinearMatroid(np.eye(2), np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0, np.inf)])
    def test_non_finite_entries_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mm.LinearMatroid(np.array([[1.0, bad], [0.0, 1.0]]))

    @pytest.mark.parametrize("text", [
        "{}", "[1]", "null", '"R"',
        '{"ground_size": 2, "target_dim": 1, "R": [[1, 0]], "weights": [1, 1]}',
        '{"ground_size": 2, "target_dim": 1, "R": [[1, 0, 0], [1, 0, 0]], "weights": [1, 1]}',
        '{"ground_size": 2, "target_dim": true, "R": [[1, 0], [1, 0]], "weights": [1, 1]}',
        '{"ground_size": 2, "target_dim": 1, "R": [[1, "a"], [1, 0]], "weights": [1, 1]}',
        '{"ground_size": 2, "target_dim": 1, "R": [[1, 0], [1, 0]]}',
        '{"ground_size": 2, "target_dim": 0, "R": [[1, 0]], "weights": [1, 1]}',
        '{"ground_size": 2, "target_dim": 1, "R": [], "weights": [1, 1]}',
        '{"ground_size": 2, "target_dim": -1, "R": [], "weights": [1, 1]}',
        '{"ground_size": 0, "target_dim": 0, "R": [], "weights": []}',
    ], ids=["empty", "list", "null", "string", "short-R", "triples", "bool-dim",
            "text-entry", "no-weights", "R-at-dim-0", "empty-R", "negative-dim",
            "no-elements"])
    def test_malformed_json_refused(self, text):
        with pytest.raises(MalformedInput):
            mm.matroid_from_json(text)

    def test_basis_scans_keep_the_enumeration_cap(self, monkeypatch):
        # the k-extension scan is the bases scan at k = 0 and shares its cap
        monkeypatch.setenv("DETGRAPH_ENUM_CAP", "5")
        m = _random_matroid(6, target=3, ground=6)
        with pytest.raises(EnumerationCapExceeded):
            m.bases_of_rank_k_extension(1)
        with pytest.raises(EnumerationCapExceeded):
            m.bases

    def test_weights_of_one_set_keep_below_the_enumeration_cap(self, monkeypatch):
        # the weight of a 7-set scans the rank-subsets of that set alone, so a
        # cap below the 10-element ground set leaves every value as it was
        rng = np.random.default_rng(8)
        theta = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        k_set = (0, 2, 3, 5, 6, 8, 9)

        def values():
            # a new matroid each time: nothing it caches carries over
            m = _random_matroid(7, target=4, ground=10)
            _, weight = mm.theorem_measure(m, theta)
            return (mm.extension_weight(m, theta, k_set), mm.ratio_constant(m, k_set),
                    weight(k_set))

        expected = values()
        monkeypatch.setenv("DETGRAPH_ENUM_CAP", "8")
        assert values() == expected


class TestFundamentalCircuits:
    def test_free_matroid_empty_family(self):
        m = mm.from_matrix(np.eye(3))
        fam = m.fundamental_circuit_basis((0, 1, 2))
        assert fam.shape == (3, 0)

    def test_triangle_matches_graph_cycle(self, triangle):
        m = mm.from_matrix(triangle.boundary.astype(float))
        fam = m.fundamental_circuit_basis((0, 1))
        gamma = dg.fundamental_cycle(triangle, triangle.mask([0, 1]), 2)
        # unit coefficient on the added element fixes the sign
        assert np.allclose(fam[:, 0].real, gamma)

    def test_projection_identity(self):
        # expanding any kernel vector over the fundamental family and
        # resumming reproduces it
        m = _random_matroid(3)
        t = m.bases[0]
        zt = m.fundamental_circuit_basis(t)
        coeffs = np.linalg.lstsq(zt, m.kernel_basis, rcond=None)[0]
        assert np.abs(zt @ coeffs - m.kernel_basis).max() < 1e-10

    def test_not_a_basis_raises(self):
        m = _random_matroid(4)
        dependent = tuple(range(m.rank - 1)) + (0,)
        with pytest.raises((RankDeficient, ValueError)):
            m.fundamental_circuit_basis(dependent)


class TestBasisWeight:
    def test_non_basis_is_zero(self, triangle):
        g4 = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        m = mm.from_matrix(g4.boundary.astype(float))
        w = mm.basis_weight(m, (0, 1, 2))  # contains the triangle cycle
        assert w == pytest.approx(0.0, abs=1e-10)

    def test_free_matroid_unit_weights(self):
        m = mm.from_matrix(np.eye(3))
        assert mm.basis_weight(m, (0, 1, 2)) == pytest.approx(1.0)

    def test_circular_triangle_symmetry(self, triangle):
        m = mm.from_matrix(triangle.boundary.astype(float))
        vals = {mm.basis_weight(m, t) for t in m.bases}
        assert all(v == pytest.approx(3.0) for v in vals)

    def test_weight_is_multiple_of_monomial(self):
        m = _random_matroid(5)
        for t in m.bases[:6]:
            mono = np.prod(m.weights[list(t)])
            unit = mm.LinearMatroid(m.matrix)
            assert mm.basis_weight(m, t) == pytest.approx(
                mm.basis_weight(unit, t) * mono, rel=1e-9)

    def test_wrong_cardinality(self):
        m = _random_matroid(6)
        with pytest.raises(ValueError, match="rank"):
            mm.basis_weight(m, (0,))


class TestDensities:
    def test_free_matroid_density_is_monomial(self):
        m = mm.from_matrix(np.eye(3), np.array([1.0, 2.0, 4.0]))
        assert mm.density_via_circuits(m, (0, 1, 2)) == pytest.approx(8.0)

    def test_circular_matroid_is_unimodular(self, triangle):
        # change-of-basis determinants all have modulus one, so the density
        # is proportional to the plain monomial
        rng = np.random.default_rng(7)
        g = dg.WeightedGraph(3, triangle.edges, rng.uniform(0.5, 2.0, 3))
        m = mm.from_matrix(g.boundary.astype(float), g.weights)
        for t in m.bases:
            mono = np.prod(g.weights[list(t)])
            ratio = mm.density_via_circuits(m, t) / mono
            first = mm.density_via_circuits(m, m.bases[0]) / np.prod(
                g.weights[list(m.bases[0])])
            assert ratio == pytest.approx(first, rel=1e-10, abs=0.0)

    def test_density_proportional_to_weight(self):
        m = _random_matroid(8)
        dv = np.array([mm.density_via_circuits(m, t) for t in m.bases])
        bw = np.array([mm.basis_weight(m, t) for t in m.bases])
        assert np.abs(dv / dv.sum() - bw / bw.sum()).max() < 1e-9

    def test_kernel_densities_match_weights(self):
        m = _random_matroid(9)
        k = mm.matroid_kernel(m)
        assert k.rank == m.rank
        bw = {t: mm.basis_weight(m, t) for t in m.bases}
        total = sum(bw.values())
        for t in itertools.combinations(range(m.ground_size), m.rank):
            expected = bw.get(t, 0.0) / total
            assert dpp.density(k, t) == pytest.approx(expected, abs=1e-9)

    def test_free_matroid_kernel_is_identity(self):
        m = mm.from_matrix(np.eye(4), np.full(4, 2.0))
        assert np.allclose(mm.matroid_kernel(m).matrix, np.eye(4))

    def test_light_weight_keeps_the_matroid_rank(self):
        # rank 2 by the SVD of R; the weights cannot change the rank of the
        # image, so the kernel of the sole basis {0, 1} is the identity
        m = mm.LinearMatroid(np.diag([1.0, 2e-10]), np.array([1.0, 0.01]))
        assert m.rank == 2
        with pytest.warns(RuntimeWarning, match="ill conditioned"):
            assert m.bases == ((0, 1),)
        assert np.abs(mm.matroid_kernel(m).matrix - np.eye(2)).max() < 1e-15


class TestConditioning:
    def test_whole_set_is_unconditional(self):
        m = _random_matroid(10)
        full = tuple(range(m.ground_size))
        dv = np.array([mm.density_via_circuits(m, t) for t in m.bases])
        cd = np.array([mm.conditional_density(m, full, t) for t in m.bases])
        assert np.abs(dv / dv.sum() - cd / cd.sum()).max() < 1e-10

    def test_single_basis_point_mass(self):
        m = _random_matroid(11)
        t0 = m.bases[0]
        assert mm.conditional_density(m, t0, t0) > 0

    def test_matches_kernel_conditioning(self):
        m = _random_matroid(12)
        k = mm.matroid_kernel(m)
        k_set = tuple(sorted(set(m.bases[0]) | set(m.bases[-1])))[: m.rank + 2]
        k_set = tuple(sorted(set(k_set) | set(m.bases[0])))
        cond = dpp.condition_inside(k, k_set)
        subs = list(itertools.combinations(sorted(k_set), m.rank))
        dens = np.array([dpp.density(cond, t) for t in subs])
        via = np.array([mm.conditional_density(m, k_set, t)
                        if m.is_basis(t) else 0.0 for t in subs])
        assert np.abs(dens - via / via.sum()).max() < 1e-9

    def test_impossible_restriction(self):
        m = mm.from_matrix(np.eye(3))
        with pytest.raises(ImpossibleCondition):
            mm.restricted_kernel_basis(m, (0, 1))


class TestStackedRestriction:
    def test_no_matroid_is_built_per_set(self, monkeypatch):
        # the restricted kernels come from one stacked SVD, and the first basis
        # inside each set from stacked rank tests: nothing builds a LinearMatroid
        m = _random_matroid(7, target=5, ground=10)
        theta = np.random.default_rng(8).standard_normal((10, 1)) + 0j
        k_set = m.bases_of_rank_k_extension(1)[3]
        built = []
        init = mm.LinearMatroid.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(mm.LinearMatroid, "__init__", counted)
        oracle.matroid_L_sum(m, theta)
        mm.extension_weight(m, theta, k_set)
        mm.ratio_constant(m, k_set)
        mm.conditional_density(m, k_set, next(t for t in m.bases if set(t) <= set(k_set)))
        assert built == []

    @pytest.mark.parametrize("seed,k", [(1, 1), (2, 2), (3, 3)])
    def test_each_row_of_a_stack_is_its_value_alone(self, seed, k):
        m = _random_matroid(seed)
        theta = np.random.default_rng(seed).standard_normal((m.ground_size, k)) + 0j
        k_sets = np.array(m.bases_of_rank_k_extension(k))
        weights = mm.extension_weight(m, theta, k_sets)
        zk = mm.restricted_kernel_basis(m, k_sets)
        assert weights.shape == (len(k_sets),)
        assert zk.shape == (len(k_sets), m.ground_size, k)
        for row, w, z in zip(k_sets, weights, zk):
            assert w == mm.extension_weight(m, theta, tuple(row))
            assert np.array_equal(z, mm.restricted_kernel_basis(m, tuple(row)))

    @pytest.mark.parametrize("m", [
        mm.from_matrix(np.zeros((2, 3)), np.array([0.5, 1.0, 2.0])),
        mm.matroid_from_json('{"ground_size": 3, "target_dim": 0, "R": [], '
                             '"weights": [0.5, 1.0, 2.0]}'),
    ], ids=["zero-matrix", "target-dim-0"])
    def test_rank_zero_matroid(self, m):
        # the only basis is empty, every set is free: z_K is the identity on K,
        # r = 1, and the weight of {i} is x_i |theta_i|^2
        assert m.rank == 0
        theta = np.array([[1.0], [2.0], [0.5j]])
        zk = mm.restricted_kernel_basis(m, (0, 2))
        assert np.array_equal(zk, np.eye(3)[:, [0, 2]])
        assert mm.ratio_constant(m, (0, 2)) == pytest.approx((1.0, 1.0), rel=1e-14, abs=0.0)
        assert mm.conditional_density(m, (0, 2), ()) == 1.0
        expected = m.weights * np.abs(theta[:, 0]) ** 2
        assert np.allclose(mm.extension_weight(m, theta, np.arange(3)[:, None]), expected,
                           rtol=1e-14, atol=0)
        assert oracle.matroid_L_sum(m, theta) == pytest.approx(expected.sum(), rel=1e-14, abs=0.0)
        assert mm.partition_functions(m, theta=theta)["L"] == pytest.approx(
            expected.sum(), rel=1e-12)

    def test_free_matroid(self):
        # K is the one basis: z_K has no columns and r = 1
        m = mm.from_matrix(np.eye(3), np.array([1.0, 2.0, 4.0]))
        assert mm.restricted_kernel_basis(m, (0, 1, 2)).shape == (3, 0)
        assert mm.ratio_constant(m, (0, 1, 2)) == (1.0, 1.0)
        assert mm.extension_weight(m, np.zeros((3, 0)), (0, 1, 2)) == pytest.approx(8.0)
        assert mm.conditional_density(m, (0, 1, 2), (0, 1, 2)) == pytest.approx(8.0)

    def test_a_set_with_no_basis_in_a_stack(self):
        # elements 0 and 2 are parallel and 3 is a loop: (0, 2, 3) has rank 1
        m = mm.from_matrix(np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        theta = np.ones((4, 1))
        stack = np.array([(0, 1, 2), (0, 2, 3)])
        assert mm.extension_weight(m, theta, stack[:1]).shape == (1,)
        with pytest.raises(ImpossibleCondition):
            mm.restricted_kernel_basis(m, stack)
        with pytest.raises(ImpossibleCondition):
            mm.extension_weight(m, theta, stack)


class TestRatioConstant:
    def test_basis_k_zero(self):
        # conditioning on exactly one basis: denominator is an empty det
        m = _random_matroid(13)
        t0 = m.bases[0]
        r1, r2 = mm.ratio_constant(m, t0)
        det = np.linalg.det(m.kernel_basis[[i for i in range(m.ground_size) if i not in t0]])
        assert r1 == pytest.approx(abs(det) ** 2, rel=1e-9, abs=0.0)
        assert r2 == pytest.approx(r1, rel=1e-9, abs=0.0)

    def test_independent_of_basis_choice(self):
        m = _random_matroid(14)
        k_set = tuple(sorted(set(m.bases[0]) | set(m.bases[1])))
        zk = mm.restricted_kernel_basis(m, k_set)
        values = []
        for t in m.bases:
            if not set(t) <= set(k_set):
                continue
            det_full = np.linalg.det(
                m.kernel_basis[[i for i in range(m.ground_size) if i not in t]])
            rows = [i for i in k_set if i not in set(t)]
            det_res = np.linalg.det(zk[rows, :])
            values.append(abs(det_full) ** 2 / abs(det_res) ** 2)
        assert max(values) - min(values) < 1e-9 * max(values)

    def test_two_formulas_agree(self):
        for seed in (15, 16, 17):
            m = _random_matroid(seed)
            rng = np.random.default_rng(seed + 100)
            extra = [i for i in range(m.ground_size) if i not in m.bases[0]]
            k_set = tuple(sorted(set(m.bases[0]) | {extra[0]}))
            r1, r2 = mm.ratio_constant(m, k_set)
            assert r1 == pytest.approx(r2, rel=1e-9, abs=0.0)


class TestPartitionFunctions:
    def test_free_matroid_B_is_monomial(self):
        x = np.array([1.0, 2.0, 3.0])
        m = mm.from_matrix(np.eye(3), x)
        assert mm.partition_functions(m)["B"] == pytest.approx(6.0)

    def test_sums_match_determinants(self):
        m = _random_matroid(18)
        pf = mm.partition_functions(m)
        sums = oracle.matroid_basis_sums(m)
        assert pf["B"] == pytest.approx(sums["B"], rel=1e-9, abs=0.0)
        assert pf["K"] == pytest.approx(sums["K"], rel=1e-9, abs=0.0)

    def test_normalized_basis_equalizes_B_and_K(self):
        m = _random_matroid(19)
        z0 = mm.normalized_kernel_basis(m)
        sums = oracle.matroid_basis_sums(m, z0)
        assert sums["K"] == pytest.approx(mm.partition_functions(m)["B"], rel=1e-9, abs=0.0)

    def test_L_reduces_to_B_for_k_zero(self):
        m = _random_matroid(20)
        empty = np.zeros((m.ground_size, 0))
        pf = mm.partition_functions(m, theta=empty)
        assert pf["L"] == pytest.approx(pf["B"], rel=1e-12, abs=0.0)

    def test_L_matches_weighted_sum(self):
        m = _random_matroid(21)
        rng = np.random.default_rng(22)
        theta = rng.standard_normal((m.ground_size, 1)) \
            + 1j * rng.standard_normal((m.ground_size, 1))
        z0 = mm.normalized_kernel_basis(m)
        pf = mm.partition_functions(m, theta=theta)
        assert pf["L"] == pytest.approx(oracle.matroid_L_sum(m, theta, z0), rel=1e-9, abs=0.0)

    def test_circular_triangle_L_enumeration(self, triangle):
        rng = np.random.default_rng(23)
        m = mm.from_matrix(triangle.boundary.astype(float), triangle.weights)
        theta = rng.standard_normal((3, 1)).astype(complex)
        z0 = mm.normalized_kernel_basis(m)
        pf = mm.partition_functions(m, theta=theta)
        assert pf["L"] == pytest.approx(oracle.matroid_L_sum(m, theta, z0), rel=1e-9, abs=0.0)


class TestTheoremMeasure:
    def test_reproduces_graph_connected_kernel(self, square_with_chord):
        g = square_with_chord
        from detgraph import measures
        theta = measures.random_theta(g, 2, seed=24)
        m = mm.from_matrix(g.boundary.astype(float), g.weights)
        tk, _ = mm.theorem_measure(m, theta)
        ck = dg.build_kernel(g, dg.MeasureSpec.connected_k(theta))
        assert np.abs(tk.matrix - ck.matrix).max() < 1e-12
        for seed, g in _wide_weight_grids():
            theta = measures.random_theta(g, 1, seed)
            m = mm.from_matrix(g.boundary.astype(float), g.weights)
            tk, _ = mm.theorem_measure(m, theta)
            ck = dg.build_kernel(g, dg.MeasureSpec.connected_k(theta))
            assert np.abs(tk.matrix - ck.matrix).max() < 1e-9, seed

    @pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e12, 1e300])
    def test_kernel_depends_only_on_the_span_of_the_forms(self, scale):
        m = _random_matroid(44)
        rng = np.random.default_rng(45)
        theta = rng.standard_normal((m.ground_size, 2)) \
            + 1j * rng.standard_normal((m.ground_size, 2))
        tk, _ = mm.theorem_measure(m, theta)
        scaled, _ = mm.theorem_measure(m, theta * scale)
        assert np.abs(scaled.matrix - tk.matrix).max() < 1e-12

    def test_full_corank_point_mass(self):
        m = _random_matroid(25)
        rng = np.random.default_rng(26)
        theta = rng.standard_normal((m.ground_size, m.corank)) \
            + 1j * rng.standard_normal((m.ground_size, m.corank))
        tk, weight = mm.theorem_measure(m, theta)
        assert tk.rank == m.ground_size
        full = tuple(range(m.ground_size))
        assert dpp.density(tk, full) == pytest.approx(1.0)
        assert weight(full) > 0

    def test_densities_match_weights(self):
        m = _random_matroid(27)
        rng = np.random.default_rng(28)
        theta = rng.standard_normal((m.ground_size, 1)) \
            + 1j * rng.standard_normal((m.ground_size, 1))
        tk, weight = mm.theorem_measure(m, theta)
        ksets = m.bases_of_rank_k_extension(1)
        ws = np.array([weight(t) for t in ksets])
        ds = np.array([dpp.density(tk, t) for t in ksets])
        assert ds.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(ws / ws.sum() - ds).max() < 1e-9

    def test_failed_frame_check_is_a_numeric_degeneracy(self, monkeypatch):
        # no frame passes a negative tolerance: a library kernel is then a
        # numeric failure, as build_kernel's is (tests/test_measures.py)
        monkeypatch.setattr(dpp, "KERNEL_TOL", -1.0)
        m = _random_matroid(29)
        theta = np.random.default_rng(30).standard_normal((m.ground_size, 1))
        with pytest.raises(NumericDegeneracy, match="orthonormal"):
            mm.matroid_kernel(m)
        with pytest.raises(NumericDegeneracy, match="orthonormal"):
            mm.theorem_measure(m, theta)


class TestCircuitBasisIdentity:
    def test_random_matroid(self):
        rep = mm.circuit_basis_identity_check(_random_matroid(29))
        assert rep.passed
        assert rep.max_abs_error < 1e-10

    def test_recovers_cycle_tree_identity(self):
        # circular matroid: wedge coefficients live on tree complements
        rng = np.random.default_rng(30)
        g = random_connected_graph(rng, 7, min_b1=2)
        m = mm.from_matrix(g.boundary.astype(float), g.weights)
        rep = mm.circuit_basis_identity_check(m)
        assert rep.passed

    def test_recovers_cut_tree_identity(self):
        # representing the matroid whose kernel is the cut space: bases are
        # tree complements and the identity expands over the trees
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, 7, min_b1=2)
        cyc = dg.cycle_space_basis(g)
        m = mm.from_matrix(cyc.T.astype(float), g.weights)
        co_trees = {tuple(sorted(set(range(g.num_edges)) - set(t.indices)))
                    for t in oracle.enumerate_family(g, "ust")}
        assert set(m.bases) == co_trees
        cuts = dg.cut_space_basis(g).astype(complex)
        rep = mm.circuit_basis_identity_check(m, cuts)
        assert rep.passed

    def test_free_matroid_trivial(self):
        rep = mm.circuit_basis_identity_check(mm.from_matrix(np.eye(3)))
        assert rep.passed
        assert rep.checked == 1


class TestTensorIdentity:
    @pytest.mark.parametrize("seed,k", [(32, 1), (33, 2)])
    def test_sum_of_squared_transfers(self, seed, k):
        # componentwise check of the rank-one tensor identity on k-extensions
        m = _random_matroid(seed, target=3, ground=6, complex_entries=False)
        k_set = next(iter(m.bases_of_rank_k_extension(k)))
        zk = mm.restricted_kernel_basis(m, k_set)
        wedge_rows = list(itertools.combinations(range(m.ground_size), k))

        def wedge_coords(cols):
            return np.array([np.linalg.det(cols[list(r), :]) for r in wedge_rows])

        target = wedge_coords(zk)
        lhs = np.zeros((len(wedge_rows), len(wedge_rows)), dtype=complex)
        for t in m.bases:
            if not set(t) <= set(k_set):
                continue
            rows = [i for i in k_set if i not in set(t)]
            det_res = complex(np.linalg.det(zk[rows, :]))
            # the fundamental circuits of t are indexed by its complement
            rest = [j for j in range(m.ground_size) if j not in set(t)]
            gam = m.fundamental_circuit_basis(t)[:, [rest.index(j) for j in rows]]
            lhs += det_res ** 2 * np.outer(wedge_coords(gam), _unit_wedge(wedge_rows, rows))
        rhs = np.outer(target, target)
        assert np.abs(lhs - rhs).max() < 1e-9


def _unit_wedge(wedge_rows, rows):
    v = np.zeros(len(wedge_rows))
    v[wedge_rows.index(tuple(sorted(rows)))] = 1.0
    return v


class TestBasisExchange:
    def test_exchange_axiom_on_enumerated_bases(self):
        m = _random_matroid(34)
        bases = [set(t) for t in m.bases]
        for a in bases[:8]:
            for b in bases[:8]:
                for i in a - b:
                    assert any(m.is_basis(tuple(sorted((a - {i}) | {j})))
                               for j in b - a)


class TestGraphSpecialization:
    def test_ust_kernel_exact(self):
        rng = np.random.default_rng(35)
        g = random_connected_graph(rng, 9, min_b1=2)
        m = mm.from_matrix(g.boundary.astype(float), g.weights)
        k1 = mm.matroid_kernel(m).matrix
        k2 = dg.build_kernel(g, dg.MeasureSpec.ust()).matrix
        assert np.abs(k1 - k2).max() < 1e-12
        for seed, g in _wide_weight_grids():
            m = mm.from_matrix(g.boundary.astype(float), g.weights)
            k1 = mm.matroid_kernel(m).matrix
            k2 = dg.build_kernel(g, dg.MeasureSpec.ust()).matrix
            assert np.abs(k1 - k2).max() < 1e-9, seed

    def test_circuit_vectors_match_graph_cycles(self):
        rng = np.random.default_rng(36)
        g = random_connected_graph(rng, 8, min_b1=2)
        m = mm.from_matrix(g.boundary.astype(float), g.weights)
        tree = dg.min_index_spanning_tree(g)
        rest = [j for j in range(g.num_edges) if j not in tree.edge_set]
        fam = m.fundamental_circuit_basis(tree.indices)
        for col, j in enumerate(rest):
            gamma = dg.fundamental_cycle(g, tree, j)
            assert np.abs(fam[:, col].real - gamma).max() < 1e-10


class TestPartitionFunctionIdentitiesAtRandomWeights:
    def test_B_equals_K_normalized_at_random_x(self):
        m = _random_matroid(40)
        rng = np.random.default_rng(41)
        scale = mm.scale_to_match_B(m)
        for _ in range(3):
            x = rng.uniform(0.3, 3.0, m.ground_size)
            pf = mm.partition_functions(m, x=x)
            assert pf["B"] == pytest.approx(scale ** 2 * pf["K"], rel=1e-9, abs=0.0)

    def test_L_over_K_is_projection_norm(self):
        # the extension polynomial divided by the circuit polynomial equals
        # the squared volume of the forms projected off the image
        m = _random_matroid(42)
        rng = np.random.default_rng(43)
        theta = rng.standard_normal((m.ground_size, 2)) \
            + 1j * rng.standard_normal((m.ground_size, 2))
        for _ in range(3):
            x = rng.uniform(0.3, 3.0, m.ground_size)
            pf = mm.partition_functions(m, theta=theta, x=x)
            from detgraph.linalg import orthonormalize
            omega_img = m.matrix.T * np.sqrt(x)[:, None]
            q = orthonormalize(omega_img)
            p_perp = np.eye(m.ground_size) - q @ q.conj().T
            proj = p_perp @ (theta * np.sqrt(x)[:, None])
            norm2 = float(np.linalg.det(proj.conj().T @ proj).real)
            assert pf["L"] / pf["B"] == pytest.approx(norm2, rel=1e-9, abs=0.0)


class TestConditioningWarning:
    def test_near_singular_basis_warns(self):
        r = np.array([[1.0, 1.0, 0.3], [0.0, 1e-9, 0.4]])
        m = mm.from_matrix(r)
        with pytest.warns(RuntimeWarning, match="ill conditioned"):
            m.bases
