"""Counter-based random streams.

Every random quantity in detgraph is drawn from a Philox stream keyed by an
explicit 64-bit seed plus a small purpose tag, so samples and generated forms
are reproducible bit for bit and independent streams never collide.
"""

import numpy as np

# purpose tags: distinct Philox key words per kind of draw
TAG_SAMPLER = 0x5A4D01
TAG_THETA = 0x5A4D02
TAG_PHI = 0x5A4D03
TAG_CONNECTION = 0x5A4D04


def stream(seed: int, tag: int = TAG_SAMPLER) -> np.random.Generator:
    """Return the Philox generator for (seed, tag)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(tag)])
    return np.random.Generator(np.random.Philox(key=key))


def categorical(uniforms: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Inverse CDF: one index per row of `probs` for that row's uniform in [0, 1).

    Stable across numpy versions (cumulative sums and comparisons only).
    """
    cdf = np.cumsum(probs, axis=1)
    hits = (cdf <= (uniforms * cdf[:, -1])[:, None]).sum(axis=1)
    return np.minimum(hits, probs.shape[1] - 1)
