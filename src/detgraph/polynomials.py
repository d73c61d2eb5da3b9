"""Partition-function polynomials of the subgraph measures.

All polynomials are evaluated, never expanded symbolically, in the dtype of
x and their inputs: real inputs give real arithmetic, and complex weights,
which the real stability check probes, are admitted.  By Cauchy-Binet each is
one determinant of an integer family and its inputs, in two families.

  cut family, D = the coboundary without its first vertex column, and
  L = D^T X D the weighted Laplacian without vertex 0 (`_laplacian`, one
  scatter over the edge ends; D is never formed)
    kirchhoff_T      det L                  sum over spanning trees of x^T
    generalized_C    det [[L, D^T X theta], [theta^H X D, theta^H X theta]]
                                            connected subgraphs with k cycles, weighted by forms
    generalized_A    (-1)^k det [[L, D^T conj(phi)], [phi^T D, 0]]
                                            forests with k+1 components, weighted by chains
  cycle family, Z = the integral cycle basis, G(x, V) = det(V^H X V)
  (`linalg.bilinear_gram_det`)
    symanzik_psi1    G(x, Z)                sum over spanning trees of x^(complement of T)
    symanzik_psi2    G(x, [Z|f_q])          2-forests weighted by squared flow imbalance

C is the Gram determinant G(x, [D|theta]) and A the Gram matrix of D
bordered by the chains.  C with more forms than b1 and A with more chains
than |V| - 1 are exactly 0, as are their sums; a determinant would give
rounding there.  Only the Green pairing divides by the weights, so only it
refuses a zero weight.  The brute-force defining sums live in the oracle
module for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericDegeneracy
from .graph import SubgraphMask, WeightedGraph, _forest_paths, cut_space_basis, cycle_space_basis
from .linalg import bilinear_gram_det, j_x_columns, to_omega, weighted_rows


def kirchhoff_T(g: WeightedGraph, x: np.ndarray | None = None) -> complex:
    """Spanning-tree generating polynomial: by the matrix-tree theorem, the
    determinant of the weighted Laplacian without vertex 0."""
    x = g.weights if x is None else np.asarray(x)
    return _realify(np.linalg.det(_laplacian(g, x)[1:, 1:]))


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
    the flow along the min-index spanning tree, q T for its forest path
    matrix T, so each tree edge carries the charge of its head side.  An
    einsum, as q @ T would first cast all of the int8 T to q's dtype."""
    q = _balanced(q)
    f = np.zeros(g.num_edges, dtype=q.dtype)
    f[list(g._forest)] = np.einsum("v,vf->f", q, _forest_paths(g, g._forest))
    return f


def symanzik_psi2(g: WeightedGraph, x: np.ndarray, q: np.ndarray) -> complex:
    """Second Symanzik polynomial for a balanced vertex charge q.

    The Gram determinant of the integral cycle basis extended by any chain
    with boundary q; which chain does not matter, as two differ by a cycle.
    """
    fam = np.hstack([cycle_space_basis(g), flow_with_divergence(g, q)[:, None]])
    return _realify(bilinear_gram_det(np.asarray(x), fam))


def generalized_C(g: WeightedGraph, x: np.ndarray | None, theta: np.ndarray) -> complex:
    """Connected-subgraph polynomial: the Gram determinant of the reduced
    coboundary D extended by the k forms, the reduced Laplacian bordered by
    D^T X theta, theta^H X D and theta^H X theta.  Polynomial in x, so zero and
    complex weights are admitted."""
    x = g.weights if x is None else np.asarray(x)
    theta = np.column_stack([theta])
    if theta.shape[1] > g.betti_1:  # more columns than edges: exactly 0, as is the sum
        return 0j
    return _realify(np.linalg.det(_laplacian(g, x, theta)[1:, 1:]))


def generalized_A(g: WeightedGraph, x: np.ndarray | None, phi: np.ndarray) -> complex:
    """Forest polynomial: the reduced Laplacian bordered by the pairings D^T phi
    of the k chains, (-1)^k det[[D^T X D, D^T conj(phi)], [phi^T D, 0]].
    Polynomial in x with no division, so zero and complex weights are admitted."""
    x = g.weights if x is None else np.asarray(x)
    phi = np.column_stack([phi])
    k = phi.shape[1]
    if k > g.num_vertices - 1:  # more chains than cut vectors: exactly 0, as is the sum
        return 0j
    u = _edge_rows(g, phi.conj(), np.result_type(x, phi, float))
    blocks = u.conj()[:, None] * u  # [[d d^T, d conj(phi)^T], [phi d^T, phi conj(phi)^T]]
    blocks[:2, :2] *= x
    blocks[2:, 2:] = 0
    return _realify((-1) ** k * np.linalg.det(_scatter(g, blocks)[1:, 1:]))


def _laplacian(g: WeightedGraph, y: np.ndarray, forms: np.ndarray | None = None) -> np.ndarray:
    """The weighted Laplacian D^T Y D = sum_e y_e (h - t)(h - t)^T, in the dtype
    of y; given k forms, the Gram matrix of [D | forms] at y, which borders it by
    D^T Y forms, forms^H Y D and forms^H Y forms.  One scatter of the block
    y_e conj(u_e) u_e^T of each row u_e of [D | forms]."""
    forms = np.zeros((len(y), 0)) if forms is None else forms
    u = _edge_rows(g, forms, np.result_type(forms, float))
    return _scatter(g, (y * u.conj())[:, None] * u)


def _edge_rows(g: WeightedGraph, columns: np.ndarray, dtype) -> np.ndarray:
    """The rows u_e of [D | columns], as the columns of a (2 + k, |E|) array:
    D's row at (tail(e), head(e)), which is (0, 0) for a loop, then the k
    column entries."""
    ends = g.ends
    u = np.empty((2 + columns.shape[1], len(ends)), dtype)
    np.not_equal(ends[:, 0], ends[:, 1], out=u[1])
    np.negative(u[1], out=u[0])
    u[2:] = columns.T
    return u


def _scatter(g: WeightedGraph, blocks: np.ndarray) -> np.ndarray:
    """The (|V| + k)-square sum over the edges e of the (2 + k)-square blocks
    blocks[:, :, e], placed at the rows and columns (tail(e), head(e), |V|, ...,
    |V| + k - 1), in the dtype of the blocks: one np.bincount, into the float
    view of a complex sum.  A loop's entries on its vertex must be 0 already."""
    s, _, num = blocks.shape
    n = g.num_vertices
    size = n + s - 2
    at = np.empty((s, num), np.intp)
    at[:2] = g.ends.T
    at[2:] = np.arange(n, size)[:, None]
    if not np.iscomplexobj(blocks):
        index = (at * size)[:, None] + at
        return np.bincount(index.ravel(), blocks.ravel(), size * size).reshape(size, size)
    index = (at * (2 * size))[:, None] + 2 * at  # the float view holds entry i at 2i, 2i + 1
    flat = np.bincount(np.concatenate([index, index + 1], axis=None),
                       np.concatenate([blocks.real, blocks.imag], axis=None), 2 * size * size)
    return flat.view(complex).reshape(size, size)


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
    """C^(k)/T against the squared norm of the cycle-space projection of theta,
    read in the cycle-space frame that the ust kernel is the complement of."""
    x = g.weights if x is None else np.asarray(x, dtype=float)
    theta = np.column_stack([theta])
    lhs = generalized_C(g, x, theta).real / kirchhoff_T(g, x).real
    r, b1 = _frame_r(g, x, to_omega(x, theta))
    a = r[:b1, b1:]  # Q^H t for the frame Q
    return RatioReport(lhs, float(np.linalg.det(a.conj().T @ a).real))


def ratio_identity_forest(g: WeightedGraph, x: np.ndarray | None,
                          phi: np.ndarray) -> RatioReport:
    """A^(k)/T against the squared norm of the exact-form projection of j_x phi:
    the residual of j_x phi off the cycle-space frame."""
    x = g.weights if x is None else np.asarray(x, dtype=float)
    phi = np.column_stack([phi])
    lhs = generalized_A(g, x, phi).real / kirchhoff_T(g, x).real
    r, b1 = _frame_r(g, x, to_omega(x, j_x_columns(x, phi)))
    a = r[b1:, b1:]  # the residual t - Q Q^H t has this Gram matrix
    return RatioReport(lhs, float(np.linalg.det(a.conj().T @ a).real))


def _frame_r(g: WeightedGraph, x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, int]:
    """The R factor of the QR of [X^-1/2 Z | t], Z the cycle basis, in the row
    order of weighted_frame, and b1.  Its first b1 columns give that frame Q,
    so the block right of them is Q^H t, and the block below that the
    triangular factor of the residual of t off Q; no Q is formed."""
    order, a = weighted_rows(x, cycle_space_basis(g))
    return np.linalg.qr(np.hstack([a, t[order]]), mode="r"), a.shape[1]


def green_height_pairing(g: WeightedGraph, x: np.ndarray, q: np.ndarray) -> float:
    """<q, G q> for the Green function of the Laplacian at conductances 1/x.

    Equals psi2/psi1 at weights x.  Computed with a pinned vertex; the
    pairing does not depend on the pin because q is balanced.
    """
    x = np.asarray(x, dtype=float)
    q = _balanced(q)
    if np.any(x == 0):
        raise NumericDegeneracy("the Green pairing divides by the weights, and one is 0")
    lap = _laplacian(g, 1.0 / x)
    u = np.linalg.solve(lap[1:, 1:], q[1:])  # the potential, 0 at the pinned vertex 0
    return float((np.conj(q[1:]) @ u).real)


def torus_volume(g: WeightedGraph, x: np.ndarray | None = None,
                 tree: SubgraphMask | None = None) -> float:
    """Norm of the full wedge of cycle images and integral cuts.

    The family V = [j_x Z | cuts] is square, so its Gram determinant is
    prod(x) det(V)^2 and the norm prod(x)^(1/2) |det V|, from one slogdet.
    It equals prod(x)^(-1/2) times the tree polynomial; at unit weights it is
    the number of spanning trees.  NumericDegeneracy for a weight <= 0.
    """
    x = g.weights if x is None else np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise NumericDegeneracy(f"the torus volume takes the log of the weights, one is {x.min()}")
    fam = np.hstack([j_x_columns(x, cycle_space_basis(g)), cut_space_basis(g, tree)])
    logdet = np.linalg.slogdet(fam)[1]  # -inf, so a volume of 0, for a singular V
    return float(np.exp(0.5 * np.log(x).sum() + logdet))


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
