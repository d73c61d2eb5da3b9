"""Dense linear algebra in the weighted inner product over the edge set.

Forms (covectors over edges) carry the inner product
    <a, b> = sum_e x_e * conj(a_e) * b_e,
chains carry none.  The antilinear correspondence j_x sends the chain basis
vector e to x_e^{-1} e*.  Projection kernels are always expressed in the
orthonormal basis omega_e = e*/sqrt(x_e), in which the weighted inner
product becomes the standard one, so determinantal marginals are literal
matrix entries.

Forms, chains and frames keep the dtype of their input, np.result_type(input,
float): real forms give real frames and complex forms complex ones.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedInput

RANK_RTOL = 1e-10


def j_x(x: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Antilinear isomorphism from chains to forms: e -> x_e^{-1} e*."""
    return np.conj(np.asarray(chain)) / np.asarray(x)


def j_x_columns(x: np.ndarray, chains: np.ndarray) -> np.ndarray:
    """Apply j_x to every column of a chain matrix."""
    return np.conj(np.asarray(chains)) / np.asarray(x)[:, None]


def to_omega(x: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """Rescale form coordinates (e* basis) to omega coordinates."""
    return np.asarray(forms) * np.sqrt(np.asarray(x))[:, None]


def weighted_frame(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal frame of the omega-scaled columns of `basis`, which must be independent.

    Householder QR with the rows sorted by decreasing weight, which keeps it
    accurate over wide weight spreads; no rank is decided.
    """
    order = np.argsort(-np.asarray(x), kind="stable")
    a = to_omega(x, basis)
    q = np.empty(a.shape, dtype=a.dtype)
    q[order] = np.linalg.qr(a[order])[0]
    return q


def orthonormalize(columns: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column span (standard inner product).

    The left singular vectors of a LAPACK SVD whose singular values exceed
    RANK_RTOL times `scale`; the default scale is the largest input column norm.
    Pass an explicit scale when the columns are residuals of vectors with a
    known larger magnitude.
    """
    a = np.asarray(columns)
    a = a.astype(np.result_type(a, float), copy=False)
    if a.ndim != 2 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=a.dtype)
    if scale is None:
        scale = np.linalg.norm(a, axis=0).max()
    if scale == 0.0:
        return np.zeros((a.shape[0], 0), dtype=a.dtype)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > RANK_RTOL * scale]


def unit_columns(columns: np.ndarray) -> np.ndarray:
    """Columns scaled to unit norm, each first divided by its largest magnitude so
    that its norm cannot overflow or underflow; zero columns stay zero."""
    a = np.asarray(columns)
    peak = np.abs(a).max(axis=0, initial=0.0)
    a = a / np.where(peak > 0, peak, 1.0)
    norm = np.linalg.norm(a, axis=0)
    return a / np.where(norm > 0, norm, 1.0)


def extend_frame(q: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Orthonormal frame q followed by a basis of the part of `columns` outside it.

    The span of hstack([q, columns]), but only the residual of the unit columns,
    projected off q twice ("twice is enough"), is decomposed; its rank counts
    the singular values above RANK_RTOL, whatever the scale of `columns`.
    """
    c = unit_columns(columns)
    r = c - q @ (q.conj().T @ c)
    r -= q @ (q.conj().T @ r)
    return np.hstack([q, orthonormalize(r, scale=1.0)])


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
    polynomial continuation used by the stability checks.  Computed in
    np.result_type(x, vectors, float): real x and vectors stay real.
    """
    x, v = np.asarray(x), np.asarray(vectors)
    if v.shape[1] == 0:
        return 1.0 + 0j
    v = v.astype(np.result_type(x, v, float), copy=False)
    # optimize=True contracts through BLAS, ~40x faster than the plain loop at 420 edges
    m = np.einsum("e,ei,ej->ij", x, v.conj(), v, optimize=True)
    return complex(np.linalg.det(m))


def _complex_pairs(value, depth: int, what: str) -> np.ndarray:
    """Array from JSON [re, im] pairs nested `depth` lists deep; real when every
    im is 0.  MalformedInput names `what` unless they form a nonempty finite array."""
    try:
        pairs = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{what} is not an array of [re, im] pairs") from exc
    if pairs.ndim != depth + 1 or pairs.shape[-1] != 2 or pairs.size == 0:
        raise MalformedInput(f"{what} needs a nonempty {depth}-deep list "
                             f"of [re, im] pairs, got shape {pairs.shape}")
    if not np.all(np.isfinite(pairs)):
        raise MalformedInput(f"{what} has non-finite entries")
    return pairs[..., 0] + 1j * pairs[..., 1] if pairs[..., 1].any() else pairs[..., 0]
