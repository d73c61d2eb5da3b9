"""Dense linear algebra in the weighted inner product over the edge set.

Forms (covectors over edges) carry the inner product
    <a, b> = sum_e x_e * conj(a_e) * b_e,
chains carry none.  The antilinear correspondence j_x sends the chain basis
vector e to x_e^{-1} e*.  Projection kernels are always expressed in the
orthonormal basis omega_e = e*/sqrt(x_e), in which the weighted inner
product becomes the standard one, so determinantal marginals are literal
matrix entries.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficient

RANK_RTOL = 1e-10


def j_x(x: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Antilinear isomorphism from chains to forms: e -> x_e^{-1} e*."""
    return np.conj(np.asarray(chain, dtype=complex)) / np.asarray(x)


def j_x_columns(x: np.ndarray, chains: np.ndarray) -> np.ndarray:
    """Apply j_x to every column of a chain matrix."""
    return np.conj(np.asarray(chains, dtype=complex)) / np.asarray(x)[:, None]


def to_omega(x: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """Rescale form coordinates (e* basis) to omega coordinates."""
    return np.asarray(forms, dtype=complex) * np.sqrt(np.asarray(x))[:, None]


def orthonormalize(columns: np.ndarray, rtol: float = RANK_RTOL,
                   scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column span (standard inner product).

    The left singular vectors of a LAPACK SVD whose singular values exceed
    rtol times `scale`; the default scale is the largest input column norm.
    Pass an explicit scale when the columns are residuals of vectors with a
    known larger magnitude.
    """
    a = np.asarray(columns, dtype=complex)
    if a.ndim != 2 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    if scale is None:
        scale = np.linalg.norm(a, axis=0).max()
    if scale == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > rtol * scale]


def extend_frame(q: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Orthonormal frame q followed by a basis of the part of `columns` outside it.

    The span and rank rule of orthonormalize(hstack([q, columns])), but only the
    residual, projected off q twice ("twice is enough"), is decomposed.
    """
    r = columns - q @ (q.conj().T @ columns)
    r -= q @ (q.conj().T @ r)
    scale = max(1.0, np.linalg.norm(columns, axis=0).max(initial=0.0))
    return np.hstack([q, orthonormalize(r, scale=scale)])


def gram_det(x: np.ndarray, vectors: list[np.ndarray] | np.ndarray) -> float:
    """Determinant of the weighted Gram matrix; 0 iff the family is dependent.

    `vectors` is a list of forms or a matrix with one form per column.
    """
    if not isinstance(vectors, np.ndarray):
        vectors = np.column_stack(vectors)
    return bilinear_gram_det(x, vectors).real


def bilinear_gram_det(x: np.ndarray, vectors: np.ndarray) -> complex:
    """det of the matrix sum_e x_e conj(v_i[e]) v_j[e] for possibly complex x.

    At positive real x this is gram_det; as a function of x it is the
    polynomial continuation used by the stability checks.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.shape[1] == 0:
        return 1.0 + 0j
    # optimize=True contracts through BLAS, ~40x faster than the plain loop at 420 edges
    m = np.einsum("e,ei,ej->ij", np.asarray(x, dtype=complex), v.conj(), v, optimize=True)
    return complex(np.linalg.det(m))


def schur_split_det(u: np.ndarray, h_columns: np.ndarray) -> tuple[float, float]:
    """Split det(u* u) along a subspace H of the domain.

    Returns (det over the complement of H, det of the compression of u* P u
    on H, with P the projection away from the image of the complement part).
    The product of the two factors equals det(u* u).
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[1]
    h = np.asarray(h_columns, dtype=complex).reshape(u.shape[1], -1)
    qh = orthonormalize(h)
    qperp = orthonormalize(np.eye(n) - qh @ qh.conj().T)
    if qh.shape[1] + qperp.shape[1] != n:
        raise RankDeficient("subspace split does not fill the domain")
    a = u @ qperp
    det_perp = float(np.linalg.det(a.conj().T @ a).real) if a.shape[1] else 1.0
    qa = orthonormalize(a)
    proj_off = np.eye(u.shape[0], dtype=complex) - qa @ qa.conj().T
    b = u @ qh
    m = b.conj().T @ proj_off @ b
    det_h = float(np.linalg.det(m).real) if m.shape[0] else 1.0
    return det_perp, det_h
