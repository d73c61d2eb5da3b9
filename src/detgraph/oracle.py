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

import numpy as np

from . import dpp, matroid as matroid_mod, measures, polynomials
from .graph import (SubgraphMask, WeightedGraph, check_enumeration_cap, components_of,
                    enumerate_spanning_trees)

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


def enumerate_family(g: WeightedGraph, family: str, k: int = 0, l: int = 0,
                     cap: int | None = None) -> list[SubgraphMask]:
    """Exact subgraph family by exhaustive filtering with a support law.

    family is a variant name of measures.VARIANT_TABLE: "connected" (b1 = k,
    connected spanning; "ust" is its k = 0 case), "forest" (acyclic, k+1
    components), "crsf" (every component unicyclic), or "mixed" (Euler
    characteristic k-l+1 with the b1 window).
    """
    check_enumeration_cap(g.num_edges, cap)
    variant = measures.variant_of(family)
    size = variant.size(g.num_vertices, k, l)
    if size < 0 or size > g.num_edges:
        return []
    support = variant.support
    out = []
    for subset in itertools.combinations(range(g.num_edges), size):
        labels = components_of(g.num_vertices, (g.edges[i] for i in subset))
        if support(g, subset, labels, k, l):
            out.append(g.mask(subset))
    return out


def combinatorial_weight(g: WeightedGraph, spec: measures.MeasureSpec,
                         mask: SubgraphMask) -> float:
    weight = measures.VARIANT_TABLE[spec.variant].weight
    if weight is None:
        raise ValueError(f"{spec.variant} weights have no closed-form evaluator")
    return weight(g, mask, spec)


def compare_measure(g: WeightedGraph, spec: measures.MeasureSpec,
                    tolerance: float = DENSITY_TOL,
                    cap: int | None = None) -> OracleReport:
    """Normalized combinatorial weights against kernel densities, per element.

    Also scans every subset of the sample cardinality for support mismatches:
    positive density outside the family, or positive weight with zero density.
    """
    start = time.monotonic()
    check_enumeration_cap(g.num_edges, cap)
    kernel = measures.build_kernel(g, spec)
    fam = enumerate_family(g, measures.VARIANT_TABLE[spec.variant].family,
                           k=spec.k, l=spec.l, cap=cap)
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


def tree_sum(g: WeightedGraph, x: np.ndarray | None = None,
             cap: int | None = None) -> float:
    """Defining sum of the tree polynomial."""
    x = g.weights if x is None else np.asarray(x)
    total = 0.0
    for t in enumerate_spanning_trees(g, cap=cap):
        idx = list(t.edge_set)
        total += float(np.prod(x[idx])) if idx else 1.0
    return total


def psi1_sum(g: WeightedGraph, x: np.ndarray | None = None,
             cap: int | None = None) -> float:
    x = g.weights if x is None else np.asarray(x)
    total = 0.0
    for t in enumerate_spanning_trees(g, cap=cap):
        others = [i for i in range(g.num_edges) if i not in t.edge_set]
        total += float(np.prod(x[others])) if others else 1.0
    return total


def psi2_sum(g: WeightedGraph, x: np.ndarray, q: np.ndarray,
             cap: int | None = None) -> float:
    """Defining sum of the second Symanzik polynomial over 2-forests."""
    x = np.asarray(x)
    q = np.asarray(q, dtype=complex)
    total = 0.0
    for f in enumerate_family(g, "forest", k=1, cap=cap):
        labels = np.array(f.component_labels())
        charge = complex(q[labels == 0].sum())
        others = [i for i in range(g.num_edges) if i not in f.edge_set]
        mono = float(np.prod(x[others])) if others else 1.0
        total += float(abs(charge) ** 2) * mono
    return total


def connected_poly_sum(g: WeightedGraph, x: np.ndarray | None,
                       theta: np.ndarray, cap: int | None = None) -> float:
    return _weight_sum(g, x, measures.MeasureSpec.connected_k(theta), cap)


def forest_poly_sum(g: WeightedGraph, x: np.ndarray | None,
                    phi: np.ndarray, cap: int | None = None) -> float:
    return _weight_sum(g, x, measures.MeasureSpec.forest_k(phi), cap)


def _weight_sum(g: WeightedGraph, x: np.ndarray | None, spec: measures.MeasureSpec,
                cap: int | None) -> float:
    """Defining sum of a measure's partition function at weights x."""
    gx = WeightedGraph(g.num_vertices, g.edges,
                       np.asarray(g.weights if x is None else x, dtype=float))
    weight = measures.VARIANT_TABLE[spec.variant].weight
    return sum(weight(gx, mask, spec)
               for mask in enumerate_family(gx, spec.variant, k=spec.k, cap=cap))


def matroid_basis_sums(m: matroid_mod.LinearMatroid,
                       z_columns: np.ndarray | None = None) -> dict[str, float]:
    """Defining sums of the matroid partition functions B and K."""
    z = m.kernel_basis if z_columns is None else np.asarray(z_columns, dtype=complex)
    b_total = 0.0
    k_total = 0.0
    for t in m.bases:
        b_total += matroid_mod.basis_weight(m, t)
        det = matroid_mod.minor_on_complement(z, t, m.ground_size)
        mono = float(np.prod(m.weights[list(t)])) if t else 1.0
        k_total += float(abs(det) ** 2) * mono
    return {"B": b_total, "K": k_total}


def matroid_L_sum(m: matroid_mod.LinearMatroid, theta: np.ndarray,
                  z_columns: np.ndarray | None = None) -> float:
    """Defining sum of the k-extension polynomial over admissible supersets."""
    theta = np.asarray(theta, dtype=complex).reshape(m.ground_size, -1)
    k = theta.shape[1]
    z = m.kernel_basis if z_columns is None else np.asarray(z_columns, dtype=complex)
    total = 0.0
    for k_set in m.bases_of_rank_k_extension(k):
        zk = matroid_mod.restricted_kernel_basis(m, k_set)
        pairing = theta.T @ zk
        topo = float(abs(np.linalg.det(pairing)) ** 2) if k else 1.0
        some_basis = next(t for t in m.bases if set(t) <= set(k_set))
        det_full = matroid_mod.minor_on_complement(z, some_basis, m.ground_size)
        rows = [i for i in k_set if i not in set(some_basis)]
        det_res = np.linalg.det(zk[rows, :]) if rows else 1.0 + 0j
        ratio = float(abs(det_full) ** 2 / abs(det_res) ** 2)
        mono = float(np.prod(m.weights[list(k_set)]))
        total += mono * ratio * topo
    return total


def compare_polynomial(g: WeightedGraph, which: str, x: np.ndarray | None = None,
                       theta: np.ndarray | None = None,
                       phi: np.ndarray | None = None,
                       q: np.ndarray | None = None,
                       cap: int | None = None) -> OracleReport:
    """Determinant route against the defining sum, in relative error."""
    start = time.monotonic()
    x = g.weights if x is None else np.asarray(x)
    if which == "T":
        fast, slow = polynomials.kirchhoff_T(g, x).real, tree_sum(g, x, cap=cap)
    elif which == "psi1":
        fast, slow = polynomials.symanzik_psi1(g, x).real, psi1_sum(g, x, cap=cap)
    elif which == "psi2":
        fast = polynomials.symanzik_psi2(g, x, q).real
        slow = psi2_sum(g, x, q, cap=cap)
    elif which == "C":
        fast = polynomials.generalized_C(g, x, theta).real
        slow = connected_poly_sum(g, x, theta, cap=cap)
    elif which == "A":
        fast = polynomials.generalized_A(g, x, phi).real
        slow = forest_poly_sum(g, x, phi, cap=cap)
    else:
        raise ValueError(f"unknown polynomial {which!r}")
    scale = max(abs(fast), abs(slow), 1e-300)
    report = OracleReport(instance=f"{which} on {g.num_edges} edges")
    report.max_poly_rel_error = abs(fast - slow) / scale
    report.runtime = time.monotonic() - start
    return report
