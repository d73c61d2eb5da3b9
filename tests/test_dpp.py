import itertools
import json

import numpy as np
import pytest

import detgraph as dg
from detgraph import dpp
from detgraph.errors import ImpossibleCondition, MalformedInput, NumericDegeneracy


@pytest.fixture
def triangle_ust(triangle):
    return dg.build_kernel(triangle, dg.MeasureSpec.ust())


def _four_cycle():
    return dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestKernelValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.4, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            dg.ProjectionKernel(m)

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            dg.ProjectionKernel(0.5 * np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(MalformedInput, match="finite"):
            dg.ProjectionKernel(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_json_with_non_square_length_rejected(self, triangle_ust):
        payload = json.loads(triangle_ust.to_json())
        payload["matrix"] = payload["matrix"][:-1]
        with pytest.raises(MalformedInput, match="n\\*n"):
            dg.ProjectionKernel.from_json(json.dumps(payload))

    # a document that is not a kernel ends in the typed error, not a KeyError,
    # TypeError, LinAlgError or plain ValueError
    @pytest.mark.parametrize("document", [
        "{}", "[]", '{"rank": "2", "matrix": [[1, 0]]}',
        '{"rank": 1, "matrix": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}',
        '{"rank": 1, "matrix": [[1, 0], [1, 0], [0, 0], [0, 0]]}'])
    def test_malformed_json_rejected(self, document):
        with pytest.raises(MalformedInput):
            dg.ProjectionKernel.from_json(document)

    def test_json_roundtrip(self, triangle_ust):
        back = dg.ProjectionKernel.from_json(triangle_ust.to_json())
        assert back.rank == triangle_ust.rank
        assert np.allclose(back.matrix, triangle_ust.matrix)


class TestSample:
    def test_rank_zero_gives_empty(self):
        k = dg.ProjectionKernel(np.zeros((3, 3)))
        assert dg.sample(k, 0) == frozenset()

    def test_empty_kernel_samples_the_empty_set(self):
        k = dg.build_kernel(dg.WeightedGraph(1, []), dg.MeasureSpec.ust())
        assert (k.size, k.rank) == (0, 0)
        assert dg.sample_batch(k, 0, 3) == [frozenset()] * 3

    def test_identity_gives_everything(self):
        k = dg.ProjectionKernel(np.eye(4))
        assert dg.sample(k, 0) == frozenset(range(4))

    def test_cardinality_law(self, triangle_ust):
        for seed in range(64):
            assert len(dg.sample(triangle_ust, seed)) == 2

    def test_deterministic_in_seed(self, triangle_ust):
        assert dg.sample(triangle_ust, 5) == dg.sample(triangle_ust, 5)

    def test_triangle_frequencies(self, triangle_ust):
        # each 2-edge tree should appear with frequency 1/3; tolerance is a
        # 3-sigma binomial band around the symmetric value
        n = 30000
        counts = {}
        for s in dg.sample_batch(triangle_ust, 0, n):
            counts[tuple(sorted(s))] = counts.get(tuple(sorted(s)), 0) + 1
        band = 3 * np.sqrt((1 / 3) * (2 / 3) / n)
        for tree in [(0, 1), (0, 2), (1, 2)]:
            assert abs(counts[tree] / n - 1 / 3) < band

    def test_batch_matches_scalar(self, triangle_ust):
        scalar = [dg.sample(triangle_ust, 100 + i) for i in range(50)]
        assert dg.sample_batch(triangle_ust, 100, 50) == scalar

    def test_negative_count_refused(self, triangle_ust):
        with pytest.raises(MalformedInput, match="nonnegative"):
            dg.sample_batch(triangle_ust, 0, -3)

    def test_zero_count_gives_nothing(self, triangle_ust):
        assert dg.sample_batch(triangle_ust, 0, 0) == []

    def test_drift_that_exhausts_the_diagonal_is_refused(self, triangle_ust, monkeypatch):
        # a floor above every probability leaves no index to draw
        monkeypatch.setattr(dpp, "PROB_FLOOR", 1.5)
        with pytest.raises(NumericDegeneracy, match="projector drift exhausted the diagonal"):
            dg.sample(triangle_ust, 0)

    def test_nan_diagonal_is_refused(self):
        # a NaN total is not <= 0, so only a guard that asks for total > 0 sees it
        k = dg.build_kernel(dg.grid_graph(3, 3), dg.MeasureSpec.ust())
        m = k.matrix.copy()
        m[4, 4] = np.nan
        broken = dpp.ProjectionKernel._of(m, k.rank)
        with pytest.raises(NumericDegeneracy, match="projector drift exhausted the diagonal"):
            dg.sample(broken, 0)
        with pytest.raises(NumericDegeneracy, match="projector drift exhausted the diagonal"):
            dg.sample_batch(broken, 0, 4)

    def test_singleton_marginals(self):
        g = _four_cycle()
        k = dg.build_kernel(g, dg.MeasureSpec.ust())
        n = 20000
        counts = np.zeros(g.num_edges)
        for s in dg.sample_batch(k, 0, n):
            for e in s:
                counts[e] += 1
        diag = np.diag(k.matrix).real
        sigma = np.sqrt(diag * (1 - diag) / n)
        assert np.all(np.abs(counts / n - diag) < 3 * sigma)


class TestDensity:
    def test_triangle_trees(self, triangle_ust):
        for tree in [(0, 1), (0, 2), (1, 2)]:
            assert dg.density(triangle_ust, tree) == pytest.approx(1 / 3)

    def test_wrong_cardinality(self, triangle_ust):
        with pytest.raises(ValueError, match="rank"):
            dg.density(triangle_ust, (0,))

    def test_zero_diagonal_entry_kills_density(self):
        k = dg.ProjectionKernel(np.diag([1.0, 0.0, 1.0]))
        assert dg.density(k, (0, 1)) == 0.0

    def test_densities_sum_to_one(self):
        g = _four_cycle()
        k = dg.build_kernel(g, dg.MeasureSpec.ust())
        total = sum(dg.density(k, t)
                    for t in itertools.combinations(range(4), 3))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_density_equals_squared_wedge_coordinate(self):
        # brute-force alternative route: |det of the frame rows|^2
        rng = np.random.default_rng(21)
        cols = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        q = dg.ProjectionKernel.__new__(dg.ProjectionKernel)  # build via span
        from detgraph.linalg import orthonormalize
        frame = orthonormalize(cols)
        k = dg.ProjectionKernel(frame @ frame.conj().T, 3)
        total = 0.0
        for t in itertools.combinations(range(7), 3):
            plucker = abs(np.linalg.det(frame[list(t), :])) ** 2
            assert dg.density(k, t) == pytest.approx(plucker, abs=1e-12)
            total += plucker
        assert total == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("complex_frame", [False, True])
    def test_stacked_equals_one_at_a_time(self, complex_frame):
        rng = np.random.default_rng(22)
        cols = rng.standard_normal((9, 4))
        if complex_frame:
            cols = cols + 1j * rng.standard_normal((9, 4))
        from detgraph.linalg import orthonormalize
        k = dg.ProjectionKernel.from_frame(orthonormalize(cols))
        subsets = np.array(list(itertools.combinations(range(9), 4)))
        stacked = dg.density(k, subsets[:, ::-1])  # row order does not matter
        assert stacked.shape == (len(subsets),)
        one = [dg.density(k, tuple(s)) for s in subsets.tolist()]
        assert np.abs(stacked - one).max() <= 1e-15

    @pytest.mark.parametrize("rows", [[[0, 1]], [[0, 1, 1]], [[0, 1, 2], [2, 2, 0]]])
    def test_stacked_needs_rank_distinct_indices(self, rows):
        k = dg.build_kernel(dg.complete_graph(4), dg.MeasureSpec.ust())
        with pytest.raises(ValueError, match="rank"):
            dg.density(k, np.array(rows))


class TestInclusion:
    def test_empty_subset(self, triangle_ust):
        assert dg.inclusion_probability(triangle_ust, ()) == 1.0

    def test_singleton_is_diagonal(self, triangle_ust):
        for e in range(3):
            assert dg.inclusion_probability(triangle_ust, (e,)) == pytest.approx(2 / 3)

    def test_pair_on_triangle(self, triangle_ust):
        # 2/3 * 2/3 - (1/3)^2 = 1/3, also the fraction of trees containing both
        assert dg.inclusion_probability(triangle_ust, (0, 1)) == pytest.approx(1 / 3)

    def test_negative_association(self, triangle_ust):
        k = triangle_ust
        diag = np.diag(k.matrix).real
        for e, f in itertools.combinations(range(3), 2):
            assert dg.inclusion_probability(k, (e, f)) <= diag[e] * diag[f] + 1e-12


class TestIndexRange:
    # 4 edges: numpy would read -1 as edge 3, so [3, -1, 0] would count it twice
    @pytest.mark.parametrize("read, indices", [
        (dg.inclusion_probability, [-1]),
        (dg.inclusion_probability, [4]),
        (dg.inclusion_probability, [0.5]),
        (dg.density, [3, -1, 0]),
        (dg.density, np.array([[0, 1, 2], [0, 1, 4]])),
        (dg.condition_inside, [-1, 0, 1, 2]),
        (dg.condition_inside, [0, 1, 2, 4]),
    ], ids=["inclusion-negative", "inclusion-past-end", "inclusion-float", "density-negative",
            "density-stacked-past-end", "condition-negative", "condition-past-end"])
    def test_index_outside_the_ground_set_is_refused(self, read, indices):
        k = dg.build_kernel(dg.grid_graph(2, 2), dg.MeasureSpec.ust())
        with pytest.raises(MalformedInput, match=r"range\(4\)"):
            read(k, indices)


class TestGeneratingFunction:
    def test_at_ones(self, triangle_ust):
        assert dg.generating_function(triangle_ust, np.ones(3)) == pytest.approx(1.0)

    def test_at_zero(self, triangle_ust):
        assert dg.generating_function(triangle_ust, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_tilt(self, triangle_ust):
        # sum over trees of y^T / 3: trees {01},{02},{12} give (2+2+1)/3
        y = np.array([2.0, 1.0, 1.0])
        assert dg.generating_function(triangle_ust, y) == pytest.approx(5 / 3)


class TestConditioning:
    def test_allow_everything_is_identity(self, triangle_ust):
        k = dg.condition_inside(triangle_ust, range(3))
        assert np.allclose(k.matrix, triangle_ust.matrix, atol=1e-12)

    def test_triangle_becomes_deterministic(self, triangle_ust):
        k = dg.condition_inside(triangle_ust, (0, 1))
        assert dg.density(k, (0, 1)) == pytest.approx(1.0)
        assert dg.sample(k, 3) == frozenset({0, 1})

    def test_conditional_densities_renormalize(self):
        g = _four_cycle()
        k = dg.build_kernel(g, dg.MeasureSpec.ust())
        allowed = (0, 1, 2)
        cond = dg.condition_inside(k, allowed)
        uncond = {t: dg.density(k, t)
                  for t in itertools.combinations(allowed, 3)}
        total = sum(uncond.values())
        for t, p in uncond.items():
            assert dg.density(cond, t) == pytest.approx(p / total, abs=1e-10)

    def test_impossible_condition(self):
        k = dg.ProjectionKernel(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(ImpossibleCondition):
            dg.condition_inside(k, (0, 2))


class TestComplement:
    def test_complement_densities(self, triangle_ust):
        comp = triangle_ust.complement()
        assert comp.rank == 1
        for t in itertools.combinations(range(3), 2):
            other = tuple(sorted(set(range(3)) - set(t)))
            assert dg.density(comp, other) == pytest.approx(
                dg.density(triangle_ust, t), abs=1e-12)

    @pytest.mark.parametrize("rank", [0, 2, 4])
    def test_complement_is_an_involution(self, rank):
        k = dg.ProjectionKernel(np.diag([1.0] * rank + [0.0] * (4 - rank)))
        comp = k.complement()
        assert comp.rank == 4 - rank
        assert np.abs(comp.matrix + k.matrix - np.eye(4)).max() < 1e-12
        assert np.abs(comp.complement().matrix - k.matrix).max() < 1e-12


class TestBatchOnComplexKernel:
    def test_batch_matches_scalar_for_crsf(self):
        # complex-valued kernel exercises the Hermitian update path
        from detgraph import measures
        g = dg.WeightedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
        spec = dg.MeasureSpec.crsf(measures.random_connection(g, 6))
        k = dg.build_kernel(g, spec)
        assert np.abs(k.matrix.imag).max() > 1e-6
        scalar = [dg.sample(k, 400 + i) for i in range(80)]
        assert dg.sample_batch(k, 400, 80) == scalar


@pytest.mark.parametrize("dtype", [float, complex])
def test_batch_chunks_hold_the_byte_bound_and_keep_the_samples(monkeypatch, dtype):
    k = dg.build_kernel(dg.grid_graph(3, 3), dg.MeasureSpec.ust())
    k = dg.ProjectionKernel(k.matrix.astype(dtype), k.rank)
    whole = dg.sample_batch(k, 7, 12)
    # room for the Gram-Schmidt columns of 5 samples, at the kernel's own entry size
    monkeypatch.setattr(dpp, "_BATCH_BYTES", 5 * k.matrix.itemsize * k.size * k.rank)
    sizes = []
    chain_rule = dpp._chain_rule
    monkeypatch.setattr(dpp, "_chain_rule", lambda kernel, seed, count:
                        sizes.append(count) or chain_rule(kernel, seed, count))
    assert dg.sample_batch(k, 7, 12) == whole
    assert sizes == [5, 5, 2]
