"""Determinantal random subgraphs with constrained Betti numbers.

Exact sampling and verification of the determinantal measures on spanning
trees, connected spanning subgraphs with k independent cycles, spanning
forests with k+1 components, cycle-rooted spanning forests, and bases of
measured linear matroids, together with the Kirchhoff/Symanzik partition
functions that normalize them.
"""

from .dpp import (ProjectionKernel, condition_inside, density, generating_function,
                  inclusion_probability, sample, sample_batch)
from .graph import (SubgraphMask, WeightedGraph, complete_graph, cut_space_basis,
                    cycle_space_basis, fundamental_cut, fundamental_cycle, grid_graph,
                    min_index_spanning_tree, quotient_by_forest)
from .linalg import gram_det, j_x
from .matroid import LinearMatroid, from_matrix, matroid_kernel, theorem_measure
from .measures import (MeasureSpec, SubgraphWeight, build_kernel, crsf_weight,
                       cycle_weight, dual_transport, forest_weight,
                       sample_subgraph)
from .planar import PlanarDual, planar_dual
from .polynomials import (generalized_A, generalized_C, green_height_pairing,
                          kirchhoff_T, stability_spot_check, symanzik_psi1,
                          symanzik_psi2, torus_volume)

__all__ = [
    "ProjectionKernel", "SubgraphMask", "WeightedGraph", "MeasureSpec",
    "SubgraphWeight", "LinearMatroid", "PlanarDual",
    "build_kernel", "complete_graph", "condition_inside",
    "crsf_weight", "cut_space_basis", "cycle_space_basis", "cycle_weight",
    "density", "dual_transport", "forest_weight",
    "from_matrix", "fundamental_cut", "fundamental_cycle",
    "generalized_A", "generalized_C", "generating_function", "gram_det",
    "green_height_pairing", "grid_graph", "inclusion_probability", "j_x",
    "kirchhoff_T", "matroid_kernel", "min_index_spanning_tree",
    "planar_dual", "quotient_by_forest", "sample",
    "sample_batch", "sample_subgraph",
    "stability_spot_check", "symanzik_psi1", "symanzik_psi2",
    "theorem_measure", "torus_volume",
]

__version__ = "0.1.0"
