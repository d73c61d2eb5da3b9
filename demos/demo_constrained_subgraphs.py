"""Determinantal measures on subgraphs with constrained Betti numbers.

Two families generalize the spanning tree measure.  Adding k independent
1-forms to the exact forms gives a measure on connected spanning subgraphs
with k independent cycles, with weight x^K |det(theta_i(gamma_j))|^2.
Cutting the exact forms down by k chains gives a measure on spanning
forests with k+1 components, with weight x^F |det((phi_i, kappa_j))|^2.
Both are exact: normalized weights coincide with kernel densities.
"""

import numpy as np

import detgraph as dg
from detgraph import dpp, measures, oracle

rng = np.random.default_rng(1)
g = dg.WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)],
                     rng.uniform(0.5, 2.0, 7))
print(f"wheel-ish graph: |V|={g.num_vertices}, |E|={g.num_edges}, b1={g.betti_1}")

# --- connected subgraphs with two independent cycles -----------------------
theta = measures.random_theta(g, k=2, seed=7)
spec = dg.MeasureSpec.connected_k(theta)
kernel = dg.build_kernel(g, spec)
print(f"\nconnected k=2 kernel rank = {kernel.rank} = |V| - 1 + k")

mask = measures.sample_subgraph(g, kernel, seed=0)
print(f"sample: edges {mask.indices}, connected={mask.is_connected()}, b1={mask.b1}")

# the combinatorial weight of the sample agrees with its kernel density
w = dg.subgraph_weight(g, spec, mask)
fam = oracle.enumerate_family(g, "connected", k=2)
total = sum(dg.subgraph_weight(g, spec, m).value for m in fam)
print(f"weight/total = {w.value / total:.6f}  vs  density = "
      f"{dpp.density(kernel, mask.indices):.6f}")

# --- spanning forests with three components --------------------------------
phi = measures.random_phi(g, k=2, seed=8)
fspec = dg.MeasureSpec.forest_k(phi)
fkernel = dg.build_kernel(g, fspec)
print(f"\nforest k=2 kernel rank = {fkernel.rank} = |V| - 1 - k")

fmask = measures.sample_subgraph(g, fkernel, seed=0)
print(f"sample: edges {fmask.indices}, components={fmask.b0}, acyclic={fmask.b1 == 0}")

report = oracle.compare_measure(g, fspec)
print(f"brute-force check over all {len(oracle.enumerate_family(g, 'forest', k=2))} "
      f"forests: max density error {report.max_density_error:.2e}")

# --- both constraints at once ----------------------------------------------
mixed = dg.MeasureSpec.mixed(measures.random_phi(g, 1, 9),
                             measures.random_theta(g, 1, 10))
mk = dg.build_kernel(g, mixed)
sample = measures.sample_subgraph(g, mk, seed=3)
print(f"\nmixed (k=1, l=1) sample: chi = {sample.b0 - sample.b1} = k - l + 1, "
      f"b1 = {sample.b1} <= l")
