"""Brute-force ground truth by exhaustive subset enumeration.

Every determinant formula in the library has a defining sum over subgraphs
or matroid bases; this module evaluates those sums directly and reports
discrepancies against the fast routes.  Subsets are scanned in blocks: one
integer topology pass per block decides family membership (no floating point
there), and the weights and minors of a block are one stacked evaluation each.
"""

from __future__ import annotations

import itertools
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


# bound on the bytes of the largest per-block array of a stacked scan: the
# root-chain table of the topology pass, or the minors of one density stack
_BLOCK_BYTES = 1 << 20


def _blocks(num_edges: int, size: int, row_bytes: int):
    """The size-subsets of range(num_edges) in lexicographic order, as
    (offset, rows) pairs: rows an array of at most _BLOCK_BYTES // row_bytes
    subsets, offset the position of its first row.  At least one, maybe empty."""
    per = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    if not 0 <= size <= num_edges:
        yield 0, np.zeros((0, 0), dtype=np.intp)
        return
    total = math.comb(num_edges, size)
    flat = itertools.chain.from_iterable(itertools.combinations(range(num_edges), size))
    for offset in range(0, total, per):
        rows = min(per, total - offset)
        yield offset, np.fromiter(flat, dtype=np.intp, count=rows * size).reshape(rows, size)


@dataclass(frozen=True, eq=False)
class Family(Sequence):
    """Members of a subgraph family: a SubgraphMask per index, arrays in bulk.

    topology is the SubsetTopology stack of the members; positions[i] is the
    position of member i among all subsets of its size in lexicographic order.
    """

    graph: WeightedGraph
    topology: graph_mod.SubsetTopology
    positions: np.ndarray

    @property
    def subsets(self) -> np.ndarray:
        return self.topology.subsets

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self.graph.mask(self.subsets[i])


def enumerate_family(g: WeightedGraph, family: str, k: int = 0, l: int = 0) -> Family:
    """Exact subgraph family by exhaustive filtering with a support law.

    family is a variant name of measures.VARIANT_TABLE: "connected" (b1 = k,
    connected spanning; "ust" is its k = 0 case), "forest" (acyclic, k+1
    components), "crsf" (every component unicyclic), or "mixed" (Euler
    characteristic k-l+1 with the b1 window).  The subsets of the family's
    size are scanned in blocks; each block takes one integer topology pass,
    graph.subset_topology, and the support law keeps its members.
    """
    check_enumeration_cap(g.num_edges)
    variant = measures.variant_of(family)
    size = variant.size(g.num_vertices, k, l)
    members, positions = [], []
    # the root-chain table and the cycles of the topology pass, per row
    row_bytes = (g.num_vertices + max(size, 0)) * g.num_edges
    for offset, block in _blocks(g.num_edges, size, row_bytes):
        topology = graph_mod.subset_topology(g, block)
        keep = variant.support(topology, k, l)
        members.append(topology.take(keep))
        positions.append(offset + np.flatnonzero(keep))
    return Family(g, graph_mod.SubsetTopology.concatenate(members), np.concatenate(positions))


def compare_measure(g: WeightedGraph, spec: measures.MeasureSpec,
                    tolerance: float = DENSITY_TOL) -> OracleReport:
    """Normalized combinatorial weights against kernel densities, per element.

    Also scans every subset of the sample cardinality for support mismatches:
    positive density outside the family, or positive weight with zero density.
    The densities come from dpp.density one block of subsets at a time; the
    arrays that span the scan are the family's, one row per member.
    """
    start = time.monotonic()
    check_enumeration_cap(g.num_edges)
    kernel = measures.build_kernel(g, spec)
    variant = measures.VARIANT_TABLE[spec.variant]
    if variant.weight is None:
        raise ValueError(f"{spec.variant} weights have no closed-form evaluator")
    fam = enumerate_family(g, variant.family, k=spec.k, l=spec.l)
    weights = variant.weight(g, fam.topology, spec)
    total = weights.sum()
    # an underflowed or overflowed total would normalize to nan, which no
    # comparison flags
    if not 0.0 < total < math.inf:
        raise NumericDegeneracy(f"{spec.variant} weights sum to {total} at these weights")
    normalized = weights / total
    report = OracleReport(instance=f"{spec.variant} on {g.num_edges} edges",
                          density_tol=tolerance)
    for offset, block in _blocks(g.num_edges, kernel.rank,
                                 kernel.rank ** 2 * kernel.matrix.itemsize):
        dens = dpp.density(kernel, block)
        # the members in this block, by their positions in the scan
        lo, hi = np.searchsorted(fam.positions, [offset, offset + len(block)])
        rows = fam.positions[lo:hi] - offset
        w = np.zeros(len(block))
        w[rows] = normalized[lo:hi]
        inside = np.zeros(len(block), dtype=bool)
        inside[rows] = True
        # np.maximum keeps a nan error, which then fails the report
        report.max_density_error = float(np.maximum(
            report.max_density_error, np.abs(dens - w).max(initial=0.0)))
        flagged = np.where(inside, (w > tolerance) & (dens <= 0.0), dens > tolerance)
        report.support_mismatches += map(tuple, block[flagged].tolist())
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

    Each member's weight at unit weights times its monomial in x, so a zero
    weight, which a WeightedGraph refuses, is a point of the sum too.
    """
    x = np.asarray(g.weights if x is None else x, dtype=float)
    unit = WeightedGraph(g.num_vertices, g.edges)
    fam = enumerate_family(unit, spec.variant, k=spec.k)
    weights = measures.VARIANT_TABLE[spec.variant].weight(unit, fam.topology, spec)
    return float((weights * x[fam.subsets].prod(axis=1)).sum())


def matroid_basis_sums(m: matroid_mod.LinearMatroid,
                       z_columns: np.ndarray | None = None) -> dict[str, float]:
    """Defining sums of the matroid partition functions B and K."""
    b_total = 0.0
    k_total = 0.0
    for t in m.bases:
        b_total += matroid_mod.basis_weight(m, t)
        k_total += matroid_mod.circuit_density(m, t, z_columns)
    return {"B": b_total, "K": k_total}


def matroid_L_sum(m: matroid_mod.LinearMatroid, theta: np.ndarray,
                  z_columns: np.ndarray | None = None) -> float:
    """Defining sum of the k-extension polynomial over admissible supersets."""
    theta = np.asarray(theta, dtype=complex).reshape(m.ground_size, -1)
    return sum(matroid_mod.extension_weight(m, theta, k_set, z_columns)
               for k_set in m.bases_of_rank_k_extension(theta.shape[1]))


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
