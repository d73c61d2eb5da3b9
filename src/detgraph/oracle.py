"""Brute-force ground truth by exhaustive subset enumeration.

Every determinant formula in the library has a defining sum over subgraphs
or matroid bases; this module evaluates those sums directly and reports
discrepancies against the fast routes.  Each check scans its subsets once, in
the blocks of graph.subset_blocks: one integer topology pass per block decides
family membership (no floating point there), and the weights and minors of a
block are one stacked evaluation each.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dpp, graph as graph_mod, matroid as matroid_mod, measures, polynomials
from .errors import NumericDegeneracy
from .graph import WeightedGraph, check_enumeration_cap

DENSITY_TOL = 1e-9
POLY_RTOL = 1e-9


@dataclass
class OracleReport:
    instance: str
    max_density_error: float = 0.0
    max_poly_rel_error: float = 0.0
    support_mismatches: list = field(default_factory=list)
    runtime: float = 0.0
    density_tol: float = DENSITY_TOL
    poly_rtol: float = POLY_RTOL

    @property
    def passed(self) -> bool:
        return (not self.support_mismatches
                and self.max_density_error <= self.density_tol
                and self.max_poly_rel_error <= self.poly_rtol)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "max_density_error": self.max_density_error,
            "max_poly_rel_error": self.max_poly_rel_error,
            "support_mismatches": [sorted(s) for s in self.support_mismatches],
            "runtime_seconds": self.runtime,
            "passed": self.passed,
        }


@dataclass(frozen=True, eq=False)
class Family(Sequence):
    """Members of a subgraph family: a SubgraphMask per index, arrays in bulk.

    topology is the SubsetTopology stack of the members, in lexicographic order.
    """

    graph: WeightedGraph
    topology: graph_mod.SubsetTopology

    @property
    def subsets(self) -> np.ndarray:
        return self.topology.subsets

    def __len__(self) -> int:
        return len(self.topology)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self.graph.mask(self.subsets[i])


def _scan(g: WeightedGraph, variant: measures.Variant, k: int, l: int, row_bytes: int = 0):
    """(block, topology, in_support) per block of the subsets of the sample
    size: one integer topology pass and the support law on its integers.
    row_bytes bounds the blocks for the caller's per-row arrays too."""
    size = variant.size(g.num_vertices, k, l)
    # the root-chain table and the cycles of the topology pass, per row
    row_bytes = max(row_bytes, (g.num_vertices + max(size, 0)) * g.num_edges)
    for block in graph_mod.subset_blocks(g.num_edges, size, row_bytes):
        topology = graph_mod.subset_topology(g, block)
        yield block, topology, variant.support(topology, k, l)


def enumerate_family(g: WeightedGraph, family: str, k: int = 0, l: int = 0) -> Family:
    """Exact subgraph family by exhaustive filtering with a support law.

    family is a variant name of measures.VARIANT_TABLE: ust, connected, forest
    and mixed, the one family of c chains and f forms at (c, f) = (0, 0), (0, k),
    (k, 0) and (k, l), have b0 - b1 = c - f + 1 and max(0, f - c) <= b1 <= f;
    crsf has one cycle in every component.
    """
    check_enumeration_cap(g.num_edges)
    members = [t.take(keep) for _, t, keep in _scan(g, measures.variant_of(family), k, l)]
    return Family(g, graph_mod.SubsetTopology.concatenate(members))


def compare_measure(g: WeightedGraph, spec: measures.MeasureSpec,
                    tolerance: float = DENSITY_TOL) -> OracleReport:
    """Normalized combinatorial weights against kernel densities, per element.

    One scan of the subsets of the sample size under the spec's support law,
    one stacked dpp.density per block.  Positive density outside the support
    is flagged as the scan meets it; the members' weights and densities, one
    row per member, are compared, and zero density flagged, after the scan.
    """
    start = time.monotonic()
    check_enumeration_cap(g.num_edges)
    kernel = measures.build_kernel(g, spec)
    variant = measures.VARIANT_TABLE[spec.variant]
    report = OracleReport(instance=f"{spec.variant} on {g.num_edges} edges",
                          density_tol=tolerance)
    members = []
    for block, topology, member in _scan(g, variant, spec.k, spec.l,
                                         kernel.rank ** 2 * kernel.matrix.itemsize):
        d = dpp.density(kernel, block)
        outside = np.abs(d[~member]).max(initial=0.0)
        # np.maximum keeps a nan error, which then fails the report
        report.max_density_error = float(np.maximum(report.max_density_error, outside))
        report.support_mismatches += map(tuple, block[~member & (d > tolerance)].tolist())
        members.append((block[member],
                        measures.stack_weight(g, spec, topology.take(member), g.weights),
                        d[member]))
    subsets, weights, dens = (np.concatenate(a) for a in zip(*members))
    total = weights.sum()
    # an underflowed or overflowed total would normalize to nan, which no
    # comparison flags
    if not 0.0 < total < math.inf:
        raise NumericDegeneracy(f"{spec.variant} weights sum to {total} at these weights")
    normalized = weights / total
    report.max_density_error = float(np.maximum(
        report.max_density_error, np.abs(dens - normalized).max(initial=0.0)))
    missed = subsets[(normalized > tolerance) & (dens <= 0.0)]
    # both kinds back in the lexicographic order of the scan
    report.support_mismatches = sorted([*report.support_mismatches, *map(tuple, missed.tolist())])
    report.runtime = time.monotonic() - start
    return report


def _complement_monomial(x: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Product of x over the edges outside each row of subsets."""
    outside = np.ones((len(subsets), len(x)), dtype=bool)
    np.put_along_axis(outside, subsets, False, axis=1)
    return np.where(outside, x, 1.0).prod(axis=1)


def tree_sum(g: WeightedGraph, x: np.ndarray | None = None) -> float:
    """Defining sum of the tree polynomial."""
    x = g.weights if x is None else np.asarray(x)
    return float(x[enumerate_family(g, "connected").subsets].prod(axis=1).sum())


def psi1_sum(g: WeightedGraph, x: np.ndarray | None = None) -> float:
    x = g.weights if x is None else np.asarray(x)
    return float(_complement_monomial(x, enumerate_family(g, "connected").subsets).sum())


def psi2_sum(g: WeightedGraph, x: np.ndarray, q: np.ndarray) -> float:
    """Defining sum of the second Symanzik polynomial over 2-forests."""
    x = np.asarray(x)
    q = np.asarray(q, dtype=complex)
    fam = enumerate_family(g, "forest", k=1)
    charge = (fam.topology.labels == 0) @ q
    return float((np.abs(charge) ** 2 * _complement_monomial(x, fam.subsets)).sum())


def connected_poly_sum(g: WeightedGraph, x: np.ndarray | None,
                       theta: np.ndarray) -> float:
    return _weight_sum(g, x, measures.MeasureSpec.connected_k(theta))


def forest_poly_sum(g: WeightedGraph, x: np.ndarray | None, phi: np.ndarray) -> float:
    return _weight_sum(g, x, measures.MeasureSpec.forest_k(phi))


def _weight_sum(g: WeightedGraph, x: np.ndarray | None, spec: measures.MeasureSpec) -> float:
    """Defining sum of a measure's partition function at weights x.

    Each member's weight-free factor times its monomial in x, with x never
    put into a WeightedGraph, so a zero weight, which a WeightedGraph
    refuses, is a point of the sum too.
    """
    x = np.asarray(g.weights if x is None else x, dtype=float)
    fam = enumerate_family(g, spec.variant, k=spec.k)
    return float(measures.stack_weight(g, spec, fam.topology, x).sum())


def _matroid_blocks(m: matroid_mod.LinearMatroid, subsets, size: int) -> list[np.ndarray]:
    """Size-subsets as (N, size) blocks whose per-row matrices, of at most
    ground_size^2 entries each, stay under graph._BLOCK_BYTES."""
    rows = np.array(subsets, dtype=np.intp).reshape(len(subsets), size)
    per = max(1, graph_mod._BLOCK_BYTES // (m.ground_size ** 2 * m.image.itemsize))
    return [rows[i:i + per] for i in range(0, len(rows), per)]


def matroid_basis_sums(m: matroid_mod.LinearMatroid,
                       z_columns: np.ndarray | None = None) -> dict[str, float]:
    """Defining sums of the matroid partition functions B and K, one stacked
    evaluation per block of bases."""
    blocks = _matroid_blocks(m, m.bases, m.rank)
    return {"B": float(np.concatenate([matroid_mod.basis_weight(m, t) for t in blocks]).sum()),
            "K": float(np.concatenate([matroid_mod.circuit_density(m, t, z_columns)
                                       for t in blocks]).sum())}


def matroid_L_sum(m: matroid_mod.LinearMatroid, theta: np.ndarray,
                  z_columns: np.ndarray | None = None) -> float:
    """Defining sum of the k-extension polynomial, one stacked sum per block of k-sets."""
    theta = np.asarray(theta, dtype=complex).reshape(m.ground_size, -1)
    k = theta.shape[1]
    return float(sum(matroid_mod.extension_weight(m, theta, t, z_columns).sum() for t
                     in _matroid_blocks(m, m.bases_of_rank_k_extension(k), m.rank + k)))


@dataclass(frozen=True)
class Polynomial:
    """One partition-function polynomial: two evaluations of (g, x, *extra)."""

    route: Callable[..., complex]        # determinant route, polynomials module
    defining_sum: Callable[..., float]   # defining sum, this module
    extra: str | None                    # the one extra input: "q", "theta" or "phi"


# The lambdas look each function up when called, so a replaced module
# attribute (a tracing wrapper, say) is the one that runs.
POLYNOMIALS: dict[str, Polynomial] = {
    "T": Polynomial(lambda g, x: polynomials.kirchhoff_T(g, x),
                    lambda g, x: tree_sum(g, x), None),
    "psi1": Polynomial(lambda g, x: polynomials.symanzik_psi1(g, x),
                       lambda g, x: psi1_sum(g, x), None),
    "psi2": Polynomial(lambda g, x, q: polynomials.symanzik_psi2(g, x, q),
                       lambda g, x, q: psi2_sum(g, x, q), "q"),
    "C": Polynomial(lambda g, x, theta: polynomials.generalized_C(g, x, theta),
                    lambda g, x, theta: connected_poly_sum(g, x, theta), "theta"),
    "A": Polynomial(lambda g, x, phi: polynomials.generalized_A(g, x, phi),
                    lambda g, x, phi: forest_poly_sum(g, x, phi), "phi"),
}


def compare_polynomial(g: WeightedGraph, which: str, x: np.ndarray | None = None,
                       theta: np.ndarray | None = None,
                       phi: np.ndarray | None = None,
                       q: np.ndarray | None = None) -> OracleReport:
    """Determinant route against the defining sum, in relative error."""
    start = time.monotonic()
    x = g.weights if x is None else np.asarray(x)
    try:
        poly = POLYNOMIALS[which]
    except KeyError:
        raise ValueError(f"unknown polynomial {which!r}") from None
    extra = () if poly.extra is None else ({"q": q, "theta": theta, "phi": phi}[poly.extra],)
    fast = poly.route(g, x, *extra).real
    slow = poly.defining_sum(g, x, *extra)
    scale = max(abs(fast), abs(slow), 1e-300)
    report = OracleReport(instance=f"{which} on {g.num_edges} edges")
    report.max_poly_rel_error = abs(fast - slow) / scale
    report.runtime = time.monotonic() - start
    return report
