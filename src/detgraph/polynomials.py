"""Partition-function polynomials of the subgraph measures.

All polynomials are evaluated, never expanded symbolically.  By Cauchy-Binet
each is one Gram determinant G(x, V) = det(V^H diag(x) V) of an integer basis
extended by its inputs (`linalg.bilinear_gram_det`), or for A bordered by
them, in the dtype of x and V: real inputs give real arithmetic, and complex
weights, which the real stability check probes, are admitted.

  cut family, D = the coboundary without its first vertex column
    kirchhoff_T      G(x, D)          sum over spanning trees of x^T
    generalized_C    G(x, [D|theta])  connected subgraphs with k cycles, weighted by forms
    generalized_A    (-1)^k det[[D^T X D, D^T conj(phi)], [phi^T D, 0]]
                                      forests with k+1 components, weighted by chains
  cycle family, Z = the integral cycle basis
    symanzik_psi1    G(x, Z)          sum over spanning trees of x^(complement of T)
    symanzik_psi2    G(x, [Z|f_q])    2-forests weighted by squared flow imbalance

Only the Green pairing divides by the weights, so only it refuses a zero
weight.  The brute-force defining sums live in the oracle module for
cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericDegeneracy
from .graph import SubgraphMask, WeightedGraph, _RootedForest, cut_space_basis, cycle_space_basis
from .linalg import bilinear_gram_det, gram_det, j_x_columns, to_omega
from .measures import _frame_exact_forms


def kirchhoff_T(g: WeightedGraph, x: np.ndarray | None = None) -> complex:
    """Spanning-tree generating polynomial: the Gram determinant of the reduced coboundary."""
    x = g.weights if x is None else np.asarray(x)
    return _realify(bilinear_gram_det(x, g.coboundary[:, 1:]))


def symanzik_psi1(g: WeightedGraph, x: np.ndarray | None = None) -> complex:
    """First Symanzik polynomial, the sum over trees of the complement monomial:
    the Gram determinant of the integral cycle basis (the loop matrix)."""
    x = g.weights if x is None else np.asarray(x)
    return _realify(bilinear_gram_det(x, cycle_space_basis(g)))


def _balanced(q: np.ndarray) -> np.ndarray:
    """A vertex charge in np.result_type(q, float); ValueError unless it sums to zero."""
    q = np.asarray(q)
    q = q.astype(np.result_type(q, float), copy=False)
    if abs(q.sum()) > 1e-9 * max(1.0, np.abs(q).max()):
        raise ValueError("vertex charge must sum to zero")
    return q


def flow_with_divergence(g: WeightedGraph, q: np.ndarray) -> np.ndarray:
    """Some chain whose boundary is q (q must sum to zero), in the dtype of q:
    the flow along the min-index spanning tree, each tree edge carrying the
    charge of its head side."""
    return _RootedForest(g, g.full_mask()._forest).flow(_balanced(q))


def symanzik_psi2(g: WeightedGraph, x: np.ndarray, q: np.ndarray) -> complex:
    """Second Symanzik polynomial for a balanced vertex charge q.

    The Gram determinant of the integral cycle basis extended by any chain
    with boundary q; which chain does not matter, as two differ by a cycle.
    """
    fam = np.hstack([cycle_space_basis(g), flow_with_divergence(g, q)[:, None]])
    return _realify(bilinear_gram_det(np.asarray(x), fam))


def generalized_C(g: WeightedGraph, x: np.ndarray | None, theta: np.ndarray) -> complex:
    """Connected-subgraph polynomial: the Gram determinant of the reduced
    coboundary extended by the k forms; polynomial in x, so complex weights
    are admitted."""
    x = g.weights if x is None else np.asarray(x)
    fam = np.hstack([g.coboundary[:, 1:], np.column_stack([theta])])
    return _realify(bilinear_gram_det(x, fam))


def generalized_A(g: WeightedGraph, x: np.ndarray | None, phi: np.ndarray) -> complex:
    """Forest polynomial: the Gram matrix of the reduced coboundary D, bordered
    by the pairings D^T phi of the k chains, (-1)^k det[[D^T X D, D^T conj(phi)],
    [phi^T D, 0]].  Polynomial in x with no division, so zero and complex
    weights are admitted."""
    x = g.weights if x is None else np.asarray(x)
    phi = np.column_stack([phi])
    d = g.coboundary[:, 1:].astype(np.result_type(x, phi, float))
    k = phi.shape[1]
    bordered = np.block([[(d.T * x) @ d, d.T @ phi.conj()],
                         [phi.T @ d, np.zeros((k, k))]])
    return _realify((-1) ** k * np.linalg.det(bordered) if bordered.size else 1.0)


def _realify(z) -> complex:
    z = complex(z)
    if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)):
        return complex(z.real, 0.0)
    return z


@dataclass(frozen=True)
class RatioReport:
    lhs: float
    rhs: float

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs))
        if scale < 1e-12:  # both sides vanish (degenerate forms)
            return 0.0
        return abs(self.lhs - self.rhs) / scale


def ratio_identity_connected(g: WeightedGraph, x: np.ndarray | None,
                             theta: np.ndarray) -> RatioReport:
    """C^(k)/T against the squared norm of the cycle-space projection of theta."""
    x = g.weights if x is None else np.asarray(x, dtype=float)
    theta = np.column_stack([theta])
    lhs = generalized_C(g, x, theta).real / kirchhoff_T(g, x).real
    q = _frame_exact_forms(g, x)
    t = to_omega(x, theta)
    proj = t - q @ (q.conj().T @ t)  # the part of theta orthogonal to the exact forms
    return RatioReport(lhs, float(np.linalg.det(proj.conj().T @ proj).real))


def ratio_identity_forest(g: WeightedGraph, x: np.ndarray | None,
                          phi: np.ndarray) -> RatioReport:
    """A^(k)/T against the squared norm of the exact-form projection of j_x phi."""
    x = g.weights if x is None else np.asarray(x, dtype=float)
    phi = np.column_stack([phi])
    lhs = generalized_A(g, x, phi).real / kirchhoff_T(g, x).real
    q = _frame_exact_forms(g, x)
    coords = q.conj().T @ to_omega(x, j_x_columns(x, phi))  # exact-form part, in frame coords
    return RatioReport(lhs, float(np.linalg.det(coords.conj().T @ coords).real))


def green_height_pairing(g: WeightedGraph, x: np.ndarray, q: np.ndarray) -> float:
    """<q, G q> for the Green function of the Laplacian at conductances 1/x.

    Equals psi2/psi1 at weights x.  Computed with a pinned vertex; the
    pairing does not depend on the pin because q is balanced.
    """
    x = np.asarray(x, dtype=float)
    q = _balanced(q)
    if np.any(x == 0):
        raise NumericDegeneracy("the Green pairing divides by the weights, and one is 0")
    d = g.boundary.astype(float)
    lap = (d / x) @ d.T
    u = np.linalg.solve(lap[1:, 1:], q[1:])  # the potential, 0 at the pinned vertex 0
    return float((np.conj(q[1:]) @ u).real)


def torus_volume(g: WeightedGraph, x: np.ndarray | None = None,
                 tree: SubgraphMask | None = None) -> float:
    """Norm of the full wedge of cycle images and integral cuts.

    Equals prod(x)^(-1/2) times the tree polynomial; at unit weights it is
    the number of spanning trees.
    """
    x = g.weights if x is None else np.asarray(x, dtype=float)
    jcycles = j_x_columns(x, cycle_space_basis(g))
    fam = np.hstack([jcycles, cut_space_basis(g, tree)])
    return float(np.sqrt(max(gram_det(x, fam), 0.0)))


@dataclass(frozen=True)
class StabilityReport:
    trials: int
    min_abs: float
    max_abs: float
    degenerate: bool

    @property
    def passed(self) -> bool:
        return (not self.degenerate) and self.min_abs >= 1e-12 * self.max_abs


def stability_spot_check(evaluate, num_edges: int, trials: int, seed: int) -> StabilityReport:
    """Probe a polynomial at random points with positive imaginary parts.

    `evaluate` maps a complex weight vector to a value.  Points are drawn
    uniformly from the box Re in [-1, 1], Im in [0.1, 1.1].  Any value below
    1e-12 times the observed scale falsifies stability.
    """
    from . import rng as _rng
    gen = _rng.stream(seed, _rng.TAG_SAMPLER)
    values = []
    for _ in range(trials):
        re = gen.uniform(-1.0, 1.0, num_edges)
        im = gen.uniform(0.1, 1.1, num_edges)
        values.append(abs(complex(evaluate(re + 1j * im))))
    values = np.array(values)
    if values.size == 0:
        return StabilityReport(0, 0.0, 0.0, degenerate=True)
    max_abs = float(values.max())
    return StabilityReport(trials, float(values.min()), max_abs,
                           degenerate=(max_abs == 0.0))
