import itertools

import numpy as np
import pytest

import detgraph as dg
from detgraph import oracle
from detgraph.linalg import bilinear_gram_det, gram_det, orthonormalize, to_omega


def _random_forms(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _projector(x, columns):
    """Orthogonal projection onto the span of forms, in the omega basis."""
    q = orthonormalize(to_omega(x, columns))
    return q @ q.conj().T


class TestJx:
    def test_unit_weights_is_conjugation(self):
        rng = np.random.default_rng(0)
        c = _random_forms(rng, 4, 1)[:, 0]
        assert np.allclose(dg.j_x(np.ones(4), c), np.conj(c))

    def test_pairing_identity(self):
        # <j_x e, alpha> equals the evaluation alpha(e)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, 5)
        alpha = _random_forms(rng, 5, 1)[:, 0]
        for e in range(5):
            chain = np.zeros(5)
            chain[e] = 1
            inner = np.sum(x * np.conj(dg.j_x(x, chain)) * alpha)
            assert abs(inner - alpha[e]) < 1e-12


class TestProjection:
    def test_whole_space(self):
        x = np.array([0.5, 1.5, 2.5])
        p = _projector(x, np.eye(3, dtype=complex))
        assert np.allclose(p, np.eye(3))

    def test_empty_family_gives_zero(self):
        p = _projector(np.ones(3), np.zeros((3, 0)))
        assert np.allclose(p, 0)

    def test_ust_subspace_on_triangle(self, triangle):
        p = _projector(
            np.ones(3), triangle.coboundary[:, 1:].astype(complex))
        assert np.allclose(np.diag(p), 2 / 3)

    def test_idempotent_self_adjoint_trace(self):
        rng = np.random.default_rng(7)
        for m in (1, 3, 5):
            x = rng.uniform(0.2, 3.0, 8)
            cols = _random_forms(rng, 8, m)
            p = _projector(x, cols)
            assert np.abs(p @ p - p).max() < 1e-10
            assert np.abs(p - p.conj().T).max() < 1e-10
            assert abs(np.trace(p).real - m) < 1e-8

    def test_subspace_frame_is_orthonormal(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.2, 3.0, 7)
        frame = orthonormalize(to_omega(x, _random_forms(rng, 7, 3)))
        assert frame.shape[1] == 3
        assert np.abs(frame.conj().T @ frame - np.eye(3)).max() < 1e-10

    def test_projection_trace_equals_vertex_rank(self):
        g = dg.grid_graph(2, 3)
        p = _projector(g.weights, g.coboundary.astype(complex))
        assert abs(np.trace(p).real - (g.num_vertices - 1)) < 1e-8
        # the SVD span of the whole coboundary is the range of the ust kernel
        assert np.abs(p - dg.build_kernel(g, dg.MeasureSpec.ust()).matrix).max() < 1e-12


class TestGramDet:
    def test_single_unit_vector(self):
        x = np.array([2.0, 0.5])
        v = np.array([1 / np.sqrt(2), 0], dtype=complex)
        assert gram_det(x, [v]) == pytest.approx(1.0)

    def test_dependent_family_is_zero(self):
        x = np.ones(3)
        v = np.array([1, 2, 3], dtype=complex)
        assert gram_det(x, [v, 2 * v]) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_cycle_family(self, triangle):
        # weighted volume of the cycle images equals the tree count at unit
        # weights: derived by enumerating the three spanning trees
        gamma = dg.cycle_space_basis(triangle).astype(complex)
        jg = dg.j_x(np.ones(3), gamma[:, 0])
        expected = len(oracle.enumerate_family(triangle, "ust"))
        assert gram_det(np.ones(3), [jg]) == pytest.approx(expected)

    def test_pythagoras_minor_expansion(self):
        # gram det equals the sum of squared wedge coordinates over the
        # orthonormal monomial basis, checked by explicit 3x3 minors
        rng = np.random.default_rng(9)
        x = rng.uniform(0.5, 2.0, 6)
        fam = _random_forms(rng, 6, 3)
        direct = gram_det(x, fam)
        omega = to_omega(x, fam)
        total = sum(abs(np.linalg.det(omega[list(rows), :])) ** 2
                    for rows in itertools.combinations(range(6), 3))
        assert direct == pytest.approx(total, rel=1e-10, abs=0.0)

    def test_bilinear_continuation_matches_on_positive_reals(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.5, 2.0, 5)
        fam = _random_forms(rng, 5, 2)
        assert bilinear_gram_det(x, fam).real == pytest.approx(
            gram_det(x, fam), rel=1e-10)


class TestOrthonormalize:
    def test_drops_dependent_columns(self):
        v = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]).T
        cols = np.column_stack([v[:, 0], v[:, 0] * 3.0, v[:, 1]])
        q = orthonormalize(cols.astype(complex))
        assert q.shape[1] == 2

    def test_reorthogonalization_quality(self):
        # nearly dependent input still yields an orthonormal frame
        rng = np.random.default_rng(14)
        base = rng.standard_normal((40, 6))
        cols = np.column_stack([base, base[:, :2] + 1e-9 * rng.standard_normal((40, 2))])
        q = orthonormalize(cols.astype(complex))
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() < 1e-12
