"""Distribution gate: each sampler's empirical law against its exact densities.

On a 9-edge graph every variant's support is enumerable (55 to 123 subsets).
N = 20000 samples are scored by Pearson's chi-square over the cells whose
expected count is at least 5 and must stay below df + 5 sqrt(2 df), about
five standard deviations above the mean under the exact law.  Power: the
same samples scored against the law of the kernel with edge 0's weight
raised by 20% exceed the bound on every variant (chi-square 212-275 against
bounds of 106-164).
"""

import collections

import numpy as np
import pytest

import detgraph as dg
from detgraph import dpp, measures, oracle

N = 20000
SUPPORT_SIZES = {"ust": 55, "connected": 65, "forest": 99, "crsf": 65, "mixed": 123}


def _graph(weights):
    """The 2x3 grid plus the chords (0, 4) and (2, 4): 6 vertices, 9 edges."""
    return dg.WeightedGraph(6, [*dg.grid_graph(2, 3).edges, (0, 4), (2, 4)], weights)


def _chi_square(samples, law):
    counts = collections.Counter(samples)
    cells = [(counts[s], len(samples) * p) for s, p in law.items() if len(samples) * p >= 5]
    df = len(cells) - 1
    return sum((seen - expected) ** 2 / expected for seen, expected in cells), df


@pytest.mark.parametrize("variant", measures.VARIANTS)
def test_sampler_law_matches_exact_densities(variant):
    weights = np.random.default_rng(3).uniform(0.5, 2.0, 9)
    g = _graph(weights)
    spec = measures.random_spec(g, variant, 1, 1, 11)
    kernel = dg.build_kernel(g, spec)
    support = [m.edge_set for m in oracle.enumerate_family(g, variant, spec.k, spec.l)]
    law = {s: dpp.density(kernel, s) for s in support}
    assert len(law) == SUPPORT_SIZES[variant]
    assert abs(sum(law.values()) - 1.0) < 1e-12

    samples = dpp.sample_batch(kernel, 12345, N)
    assert set(samples) <= set(law)
    stat, df = _chi_square(samples, law)
    bound = df + 5 * np.sqrt(2 * df)
    assert stat < bound, f"chi-square {stat:.0f} on {df} df"

    heavier = weights.copy()
    heavier[0] *= 1.2
    wrong = dg.build_kernel(_graph(heavier), spec)
    stat, _ = _chi_square(samples, {s: dpp.density(wrong, s) for s in support})
    assert stat > bound, f"a 20% weight change scores only {stat:.0f}"
