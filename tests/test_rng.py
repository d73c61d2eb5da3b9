import numpy as np
import pytest

from detgraph import rng

TAGS = (rng.TAG_SAMPLER, rng.TAG_THETA, rng.TAG_PHI, rng.TAG_CONNECTION)
SEEDS = (0, 1, 2 ** 63, 2 ** 64 - 1, -1, -2 ** 63, 2 ** 70 + 12345)


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestStream:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_keyed_exactly_as_philox_key(self, seed, tag):
        # the key words go in as Philox(key=...) takes them: counter 0, no entropy
        reference = np.random.Philox(key=np.array([seed & rng.MASK, tag], dtype=np.uint64))
        gen = rng.stream(seed, tag)
        assert _same_state(gen.bit_generator.state, reference.state)
        assert np.array_equal(gen.random(9), np.random.Generator(reference).random(9))

    def test_first_sampler_uniforms_are_pinned(self):
        assert rng.stream(0, rng.TAG_SAMPLER).random(4).tolist() == [
            0.6776521514474335, 0.10235525106833454, 0.4911104112385314, 0.4681288336274393]

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint64), (2, np.uint32), (1, np.uint64)])
    def test_any_other_key_request_raises(self, n_words, dtype):
        key = rng._Key(np.array([0, rng.TAG_SAMPLER], dtype=np.uint64))
        assert key.generate_state(2, np.uint64) is key.words
        with pytest.raises(RuntimeError, match="2 uint64 words"):
            key.generate_state(n_words, dtype)


def _reference(uniforms, probs):
    """One np.searchsorted per row on its cumulative sums."""
    out = []
    for u, row in zip(uniforms, probs):
        cdf = np.cumsum(row)
        out.append(min(int(np.searchsorted(cdf, u * cdf[-1], "right")), len(row) - 1))
    return np.array(out)


class TestCategorical:
    def test_matches_a_per_row_searchsorted(self):
        gen = np.random.default_rng(7)
        for n in (1, 2, 5, 17):
            probs = gen.random((200, n))
            probs[gen.random((200, n)) < 0.3] = 0.0
            probs[:, 0] += 1e-3  # no row is all zero
            uniforms = gen.random(200)
            for p in (probs, probs / probs.sum(axis=1)[:, None]):
                assert np.array_equal(rng.categorical(uniforms, p), _reference(uniforms, p))

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0 - 2.0 ** -53])
    def test_zero_probability_entries_are_never_drawn(self, u):
        # leading, interior and trailing zeros, at unit and other totals
        rows = np.array([[0.0, 0.0, 0.3, 0.0, 0.7, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0],
                         [2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                         [0.0, 1e-3, 0.0, 7.0, 0.0, 1e-3, 0.0]])
        idx = rng.categorical(np.full(len(rows), u), rows)
        assert np.all(rows[np.arange(len(rows)), idx] > 0.0)

    def test_an_index_past_the_row_is_capped(self):
        # u = 1 reaches the whole total; the cap keeps the index in the row
        probs = np.array([[0.2, 0.3, 0.5], [1.0, 1.0, 1.0]])
        assert rng.categorical(np.ones(2), probs).tolist() == [2, 2]

    def test_each_row_is_drawn_alone(self):
        gen = np.random.default_rng(11)
        probs, uniforms = gen.random((50, 9)), gen.random(50)
        stacked = rng.categorical(uniforms, probs)
        alone = [rng.categorical(uniforms[i:i + 1], probs[i:i + 1])[0] for i in range(50)]
        assert stacked.tolist() == alone
        assert np.array_equal(rng.categorical(uniforms[::-1], probs[::-1]), stacked[::-1])
