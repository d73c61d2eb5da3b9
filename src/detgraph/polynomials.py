"""Partition-function polynomials of the subgraph measures.

All polynomials are evaluated, never expanded symbolically.  Each evaluator
has a determinant route (valid at complex weights, which is what the real
stability check exercises) and the brute-force defining sum lives in the
oracle module for cross-checking.

  kirchhoff_T      sum over spanning trees of x^T
  symanzik_psi1    sum over spanning trees of x^(complement of T)
  symanzik_psi2    sum over 2-forests weighted by squared flow imbalance
  generalized_C    connected subgraphs with k cycles, weighted by forms
  generalized_A    forests with k+1 components, weighted by chains
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SubgraphMask, WeightedGraph, fundamental_cut, min_index_spanning_tree
from .linalg import bilinear_gram_det, gram_det, j_x_columns, to_omega
from .measures import _frame_exact_forms, integral_cycle_basis_of


def kirchhoff_T(g: WeightedGraph, x: np.ndarray | None = None) -> complex:
    """Spanning-tree generating polynomial, via a reduced Laplacian determinant."""
    x = g.weights if x is None else np.asarray(x)
    d = g.boundary.astype(complex)
    lap = (d * x) @ d.T
    red = lap[1:, 1:]
    val = np.linalg.det(red) if red.size else 1.0
    return _realify(val)


def symanzik_psi1(g: WeightedGraph, x: np.ndarray | None = None) -> complex:
    """First Symanzik polynomial: sum over trees of the complement monomial."""
    x = g.weights if x is None else np.asarray(x)
    return _realify(np.prod(x) * kirchhoff_T(g, 1.0 / x))


def flow_with_divergence(g: WeightedGraph, q: np.ndarray) -> np.ndarray:
    """Some chain whose boundary is q (q must sum to zero)."""
    q = np.asarray(q, dtype=complex)
    if abs(q.sum()) > 1e-9 * max(1.0, np.abs(q).max()):
        raise ValueError("vertex charge must sum to zero")
    sol, *_ = np.linalg.lstsq(g.boundary.astype(complex), q, rcond=None)
    return sol


def symanzik_psi2(g: WeightedGraph, x: np.ndarray, q: np.ndarray) -> complex:
    """Second Symanzik polynomial for a balanced vertex charge q.

    Determinant route: equals prod(x) times the k=1 forest polynomial at
    inverted weights, for any chain with boundary q.
    """
    x = np.asarray(x)
    phi = flow_with_divergence(g, q)
    return _realify(np.prod(x) * generalized_A(g, 1.0 / x, phi[:, None]))


def _domain_frames_C(g: WeightedGraph) -> np.ndarray:
    """Orthonormal basis of mean-zero vertex functions (weight independent).

    QR of the centred unit vectors of all vertices but the first: they are
    independent, so no rank is decided.
    """
    n = g.num_vertices
    return np.linalg.qr((np.eye(n) - 1.0 / n)[:, 1:].astype(complex))[0]


def generalized_C(g: WeightedGraph, x: np.ndarray | None, theta: np.ndarray) -> complex:
    """Connected-subgraph polynomial via the bordered Laplacian determinant.

    Equals |V|^(k-1) times the determinant of the quadratic form of the
    differential extended by the k forms, computed as a Gram determinant;
    polynomial in x, so complex weights are admitted.
    """
    x = g.weights if x is None else np.asarray(x)
    theta = np.asarray(theta, dtype=complex).reshape(g.num_edges, -1)
    k = theta.shape[1]
    n = g.num_vertices
    frames = _domain_frames_C(g)
    images = np.hstack([g.coboundary.astype(complex) @ frames, theta / np.sqrt(n)])
    return _realify(n ** (k - 1) * bilinear_gram_det(x, images))


def generalized_A(g: WeightedGraph, x: np.ndarray | None, phi: np.ndarray) -> complex:
    """Forest polynomial via a Gram determinant of cycle and chain images.

    prod(x) times the determinant of the pairwise sums
    sum_e v_i[e] conj(w_j[e]) / x_e over an integral cycle basis extended by
    the chains; polynomial in x, so complex weights are admitted.
    """
    x = g.weights if x is None else np.asarray(x)
    phi = np.asarray(phi, dtype=complex).reshape(g.num_edges, -1)
    cycles = integral_cycle_basis_of(g, g.full_mask()).astype(complex)
    fam = np.hstack([cycles, phi])
    x = np.asarray(x, dtype=complex)
    return _realify(np.prod(x) * bilinear_gram_det(1.0 / x, fam.conj()))


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
    theta = np.asarray(theta, dtype=complex).reshape(g.num_edges, -1)
    lhs = generalized_C(g, x, theta).real / kirchhoff_T(g, x).real
    q = _frame_exact_forms(g, x)
    t = to_omega(x, theta)
    proj = t - q @ (q.conj().T @ t)  # the part of theta orthogonal to the exact forms
    return RatioReport(lhs, float(np.linalg.det(proj.conj().T @ proj).real))


def ratio_identity_forest(g: WeightedGraph, x: np.ndarray | None,
                          phi: np.ndarray) -> RatioReport:
    """A^(k)/T against the squared norm of the exact-form projection of j_x phi."""
    x = g.weights if x is None else np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=complex).reshape(g.num_edges, -1)
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
    q = np.asarray(q, dtype=complex)
    if abs(q.sum()) > 1e-9 * max(1.0, np.abs(q).max()):
        raise ValueError("vertex charge must sum to zero")
    y = 1.0 / x
    d = g.boundary.astype(float)
    lap = (d * y) @ d.T
    u = np.zeros(g.num_vertices, dtype=complex)
    u[1:] = np.linalg.solve(lap[1:, 1:], q[1:])
    return float((np.conj(q) @ u).real)


def torus_volume(g: WeightedGraph, x: np.ndarray | None = None,
                 tree: SubgraphMask | None = None) -> float:
    """Norm of the full wedge of cycle images and integral cuts.

    Equals prod(x)^(-1/2) times the tree polynomial; at unit weights it is
    the number of spanning trees.
    """
    x = g.weights if x is None else np.asarray(x, dtype=float)
    if tree is None:
        tree = min_index_spanning_tree(g)
    cycles = integral_cycle_basis_of(g, g.full_mask()).astype(complex)
    jcycles = j_x_columns(x, cycles)
    cuts = np.array([fundamental_cut(g, tree, e) for e in tree.indices],
                    dtype=complex).T.reshape(g.num_edges, -1)
    fam = np.hstack([jcycles, cuts])
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


def stability_spot_check(evaluate, num_edges: int, trials: int, seed: int,
                         rng_stream=None) -> StabilityReport:
    """Probe a polynomial at random points with positive imaginary parts.

    `evaluate` maps a complex weight vector to a value.  Points are drawn
    uniformly from the box Re in [-1, 1], Im in [0.1, 1.1].  Any value below
    1e-12 times the observed scale falsifies stability.
    """
    from . import rng as _rng
    gen = _rng.stream(seed, _rng.TAG_SAMPLER) if rng_stream is None else rng_stream
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
