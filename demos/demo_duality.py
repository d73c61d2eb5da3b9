"""Planar duality exchanges the two subgraph families.

For a graph embedded in the sphere, complementing an edge set and passing
to the dual turns spanning forests with k+1 components into connected
spanning subgraphs with k independent cycles.  Weights correspond after
inverting the edge variables, subgraph by subgraph, and the two partition
functions match as polynomials.
"""

import numpy as np

import detgraph as dg
from detgraph import measures, oracle
from detgraph.planar import triangle_embedding

rng = np.random.default_rng(9)
base, faces = triangle_embedding()
g = dg.WeightedGraph(3, base.edges, rng.uniform(0.5, 2.0, 3))

pd = dg.planar_dual(g, faces)
print(f"triangle -> dual with {pd.dual.num_vertices} vertices and "
      f"{pd.dual.num_edges} parallel edges")

# tree/co-tree duality: spanning trees of the dual are complements of
# spanning trees of the primal
dual_inv, spec, _ = dg.dual_transport(g, faces, dg.MeasureSpec.ust())
primal = sorted(t.indices for t in oracle.enumerate_family(g, "ust"))
dual = sorted(t.indices for t in oracle.enumerate_family(dual_inv, "ust"))
print(f"primal trees {primal}")
print(f"dual trees   {dual}   (complements)")

# one step up: a forest measure with one chain transports to a connected
# measure with one form on the dual
phi = measures.random_phi(g, 1, seed=13)
dual_inv, cspec, pd = dg.dual_transport(g, faces, dg.MeasureSpec.forest_k(phi))
prod_x = float(np.prod(g.weights))
print("\nforest weight -> dual connected weight, per subgraph:")
for f in oracle.enumerate_family(g, "forest", k=1):
    comp = dual_inv.mask(set(range(3)) - f.edge_set)
    w_f = dg.forest_weight(g, f, phi).value
    w_c = prod_x * dg.cycle_weight(dual_inv, comp, cspec.theta).value
    print(f"  forest {f.indices} weight {w_f:.6f}  =  dual cycle "
          f"{comp.indices} weight {w_c:.6f}")

# applying the transport twice comes back to the original measure
back, spec2, _ = dg.dual_transport(dual_inv, list(pd.dual_faces), cspec)
print(f"\ndouble transport restores the forest spec: "
      f"{spec2.variant}, phi gap {np.abs(spec2.phi - phi).max():.1e}, "
      f"weights gap {np.abs(back.weights - g.weights).max():.1e}")
