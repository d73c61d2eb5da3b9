"""Dense linear algebra in the weighted inner product over the edge set.

Forms (covectors over edges) carry the inner product
    <a, b> = sum_e x_e * conj(a_e) * b_e,
chains carry none.  The antilinear correspondence j_x sends the chain basis
vector e to x_e^{-1} e*.  Projection kernels are always expressed in the
orthonormal basis omega_e = e*/sqrt(x_e), in which the weighted inner
product becomes the standard one, so determinantal marginals are literal
matrix entries.

Frames: `weighted_frame` is the one QR of every kernel, on a weight-free complement
basis at inverted weights, in the row order and scaling of `weighted_rows`, which the
ratio identities of the polynomials module share.  Rank decisions: `check_pivots`
makes those of the forms and chains on the R factor of a weight-free QR;
`orthonormalize` that of a conditioned kernel, and the matroid module reads the rank
of R from its singular values.
Forms, chains and frames keep the dtype of their input, np.result_type(input,
float): real forms give real frames and complex forms complex ones.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateForms, MalformedInput

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


def weighted_rows(x: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row order of `weighted_frame`'s QR, by increasing x, so by decreasing
    scale, and the basis rows in that order scaled by 1/sqrt(x) (never 1/x,
    which overflows at subnormal x): omega coordinates of a complement basis."""
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    return order, np.asarray(basis)[order] / np.sqrt(x[order])[:, None]


def weighted_frame(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal frame, in omega coordinates, of the independent columns of a
    complement basis in e* coordinates.

    Householder QR of `weighted_rows`, whose row order keeps it accurate over
    wide weight spreads; no rank is decided.
    """
    order, a = weighted_rows(x, basis)
    q = np.empty(a.shape, dtype=a.dtype)
    q[order] = np.linalg.qr(a)[0]
    return q


def null_space(a: np.ndarray, what: str) -> np.ndarray:
    """Orthonormal basis of null(a^H) from the complete QR of a weight-free `a`
    whose columns, at least one, pass check_pivots."""
    q, r = np.linalg.qr(a, mode="complete")
    check_pivots(r, what)
    return q[:, a.shape[1]:].copy()  # not a view that keeps all of q alive


def check_pivots(r: np.ndarray, what: str) -> None:
    """DegenerateForms, stating `what` and the smallest pivot, unless every |r_jj| of the
    R factor of a weight-free `a` exceeds RANK_RTOL.  As `a` pairs integer cycles, cuts or
    incidences with unit forms, a pivot is of order one, or of rounding size if dependent."""
    rows, cols = r.shape
    margin = np.abs(np.diagonal(r)).min() if cols <= rows else 0.0
    if not margin > RANK_RTOL:
        raise DegenerateForms(f"{what} (rank below {cols}: smallest pivot {margin:.1e}, "
                              f"at most {RANK_RTOL:.0e})")


def _annihilated(basis: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """basis @ null(theta^H basis): the part of span(basis) that the forms annihilate,
    the complement basis of a range extended by the forms; the basis itself with
    no forms."""
    if not theta.shape[1]:
        return basis
    pairing = basis.conj().T @ unit_columns(theta)
    return basis @ null_space(pairing, "forms must be independent from the range they extend")


def orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span (standard inner product).

    The left singular vectors of a LAPACK SVD whose singular values exceed
    RANK_RTOL times the largest input column norm.
    """
    a = np.asarray(columns)
    a = a.astype(np.result_type(a, float), copy=False)
    if a.ndim != 2 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=a.dtype)
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


def gram_det(x: np.ndarray, vectors: list[np.ndarray] | np.ndarray) -> float:
    """Determinant of the weighted Gram matrix; 0 iff the family is dependent.

    `vectors` is a list of forms or a matrix with one form per column.
    """
    if not isinstance(vectors, np.ndarray):
        vectors = np.column_stack(vectors)
    return bilinear_gram_det(x, vectors).real


def bilinear_gram_det(x: np.ndarray, vectors: np.ndarray) -> complex:
    """det of the matrix sum_e x_e conj(v_i[e]) v_j[e] for possibly complex x.

    At positive real x this is gram_det; as a function of x it is a
    polynomial, which psi1 and psi2 evaluate at any x (the cut family
    scatters its Laplacian instead), and through gram_det the matroid
    partition functions.  Computed in np.result_type(x, vectors, float):
    real x and vectors stay real.
    """
    x, v = np.asarray(x), np.asarray(vectors)
    # by Cauchy-Binet, 1 for no vectors and exactly 0 for more vectors than entries
    if not 0 < v.shape[1] <= v.shape[0]:
        return complex(v.shape[1] == 0)
    v = v.astype(np.result_type(x, v, float), copy=False)
    return complex(np.linalg.det((v.conj().T * x) @ v))


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
