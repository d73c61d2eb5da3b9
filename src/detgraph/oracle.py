"""Brute-force ground truth by exhaustive subset enumeration.

Every determinant formula in the library has a defining sum over subgraphs
or matroid bases; this module evaluates those sums directly (integer
component counts from union-find, no floating point in family membership)
and reports discrepancies against the fast routes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dpp, matroid as matroid_mod, measures, polynomials
from .graph import SubgraphMask, WeightedGraph, check_enumeration_cap

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


def enumerate_family(g: WeightedGraph, family: str, k: int = 0,
                     l: int = 0) -> list[SubgraphMask]:
    """Exact subgraph family by exhaustive filtering with a support law.

    family is a variant name of measures.VARIANT_TABLE: "connected" (b1 = k,
    connected spanning; "ust" is its k = 0 case), "forest" (acyclic, k+1
    components), "crsf" (every component unicyclic), or "mixed" (Euler
    characteristic k-l+1 with the b1 window).  Each scanned subset's topology
    is computed once, by its mask, and the members are those masks.
    """
    check_enumeration_cap(g.num_edges)
    variant = measures.variant_of(family)
    size = variant.size(g.num_vertices, k, l)
    if size < 0 or size > g.num_edges:
        return []
    support = variant.support
    masks = (SubgraphMask(g, frozenset(subset))
             for subset in itertools.combinations(range(g.num_edges), size))
    return [mask for mask in masks if support(mask, k, l)]


def combinatorial_weight(g: WeightedGraph, spec: measures.MeasureSpec,
                         mask: SubgraphMask) -> float:
    weight = measures.VARIANT_TABLE[spec.variant].weight
    if weight is None:
        raise ValueError(f"{spec.variant} weights have no closed-form evaluator")
    return weight(g, mask, spec)


def compare_measure(g: WeightedGraph, spec: measures.MeasureSpec,
                    tolerance: float = DENSITY_TOL) -> OracleReport:
    """Normalized combinatorial weights against kernel densities, per element.

    Also scans every subset of the sample cardinality for support mismatches:
    positive density outside the family, or positive weight with zero density.
    """
    start = time.monotonic()
    check_enumeration_cap(g.num_edges)
    kernel = measures.build_kernel(g, spec)
    fam = enumerate_family(g, measures.VARIANT_TABLE[spec.variant].family,
                           k=spec.k, l=spec.l)
    weights = {m.indices: combinatorial_weight(g, spec, m) for m in fam}
    total = sum(weights.values())
    report = OracleReport(instance=f"{spec.variant} on {g.num_edges} edges",
                          density_tol=tolerance)
    fam_keys = set(weights)
    for subset in itertools.combinations(range(g.num_edges), kernel.rank):
        dens = dpp.density(kernel, subset)
        w = weights.get(subset, 0.0) / total
        report.max_density_error = max(report.max_density_error, abs(dens - w))
        if subset not in fam_keys and dens > tolerance:
            report.support_mismatches.append(subset)
        if subset in fam_keys and w > tolerance and dens <= 0.0:
            report.support_mismatches.append(subset)
    report.runtime = time.monotonic() - start
    return report


def tree_sum(g: WeightedGraph, x: np.ndarray | None = None) -> float:
    """Defining sum of the tree polynomial."""
    x = g.weights if x is None else np.asarray(x)
    return sum(float(np.prod(x[list(t.edge_set)])) for t in enumerate_family(g, "connected"))


def psi1_sum(g: WeightedGraph, x: np.ndarray | None = None) -> float:
    x = g.weights if x is None else np.asarray(x)
    return sum(float(np.prod(np.delete(x, list(t.edge_set))))
               for t in enumerate_family(g, "connected"))


def psi2_sum(g: WeightedGraph, x: np.ndarray, q: np.ndarray) -> float:
    """Defining sum of the second Symanzik polynomial over 2-forests."""
    x = np.asarray(x)
    q = np.asarray(q, dtype=complex)
    total = 0.0
    for f in enumerate_family(g, "forest", k=1):
        labels = np.array(f.labels)
        charge = complex(q[labels == 0].sum())
        total += float(abs(charge) ** 2) * float(np.prod(np.delete(x, list(f.edge_set))))
    return total


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
    weight = measures.VARIANT_TABLE[spec.variant].weight
    return sum(weight(unit, mask, spec) * float(np.prod(x[list(mask.edge_set)]))
               for mask in enumerate_family(unit, spec.variant, k=spec.k))


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
