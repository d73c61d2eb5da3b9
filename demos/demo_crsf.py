"""Cycle-rooted spanning forests from a unitary connection.

A unit complex number per edge twists the differential; the range of the
twisted operator has full rank |V| and its determinantal process is
supported on spanning subgraphs whose components each carry exactly one
cycle.  The weight of a configuration multiplies x^S by |1 - holonomy|^2
over its cycles, so cycles with holonomy near 1 are suppressed.
"""

import numpy as np

import detgraph as dg
from detgraph import measures, oracle

rng = np.random.default_rng(4)
g = dg.grid_graph(3, 3)

connection = measures.random_connection(g, seed=5)
spec = dg.MeasureSpec.crsf(connection)
kernel = dg.build_kernel(g, spec)
print(f"3x3 grid: kernel rank {kernel.rank} = |V| (every sample has |V| edges)")

mask = measures.sample_subgraph(g, kernel, seed=11)
labels = np.array(mask.labels)
print(f"sample has {mask.b0} component(s), each with exactly one cycle: "
      f"{measures.sample_in_support(spec, mask)}")

w = dg.crsf_weight(g, mask, connection)
print(f"sample weight = {w.monomial:.3f} (monomial) x {w.topological:.3f} "
      f"(product of |1 - holonomy|^2)")

# the partition function is the twisted Laplacian determinant; check it
# against the sum of weights over the whole family
fam = oracle.enumerate_family(g, "crsf")
total = sum(dg.crsf_weight(g, m, connection).value for m in fam)
d_h = measures.twisted_differential(g, connection)
omega = d_h * np.sqrt(g.weights)[:, None]
det = float(np.linalg.det(omega.conj().T @ omega).real)
print(f"{len(fam)} cycle-rooted forests; weight sum {total:.6f} vs "
      f"determinant {det:.6f}")

# small holonomies suppress configurations: a connection close to 1 gives
# tiny weights to short cycles
weak = np.exp(1j * 0.01 * rng.standard_normal(g.num_edges))
weak_total = sum(dg.crsf_weight(g, m, weak).value for m in fam)
print(f"nearly flat connection shrinks the partition function to "
      f"{weak_total:.2e}")
