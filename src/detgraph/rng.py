"""Counter-based random streams.

Every random quantity in detgraph is drawn from a Philox stream keyed by an
explicit 64-bit seed plus a small purpose tag, so samples and generated forms
are reproducible bit for bit and independent streams never collide.  A stream
opens in a few microseconds: `_Key` hands Philox its key, drawing no OS entropy.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# purpose tags: distinct Philox key words per kind of draw
TAG_SAMPLER = 0x5A4D01
TAG_THETA = 0x5A4D02
TAG_PHI = 0x5A4D03
TAG_CONNECTION = 0x5A4D04
MASK = 0xFFFFFFFFFFFFFFFF  # the other key word: the seed mod 2**64


class _Key(ISeedSequence):
    """Philox's two key words, taken with counter 0 as Philox(key=...) takes them;
    any other request raises, so a numpy that seeds Philox otherwise fails loudly."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(f"Philox key needs 2 uint64 words, asked for {n_words} {dtype}")
        return self.words


def stream(seed: int, tag: int = TAG_SAMPLER) -> np.random.Generator:
    """Return the Philox generator for (seed, tag)."""
    return np.random.Generator(np.random.Philox(_Key(np.array([seed & MASK, tag], np.uint64))))


def categorical(uniforms: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Inverse CDF: one index per row of `probs` for that row's uniform in [0, 1).

    Stable across numpy versions (cumulative sums and comparisons only).
    """
    cdf = np.cumsum(probs, axis=1)
    hits = (cdf <= (uniforms * cdf[:, -1])[:, None]).sum(axis=1)
    return np.minimum(hits, probs.shape[1] - 1)
