"""Measured linear matroids and their determinantal basis measures.

A matroid is represented by a matrix R over the ground set columns; a subset
is independent when its columns are.  The kernel Z of R encodes the
dependencies; fundamental circuit vectors (unit coefficient on the added
element, support inside the basis) give the change-of-basis determinants
that drive densities, conditionals, and the partition functions.  The edge
weights enter through the weighted inner product on the dual side, exactly
as for graphs, whose circular matroid (R = boundary matrix) reproduces the
spanning-tree measure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dpp import ProjectionKernel
from .errors import DegenerateForms, ImpossibleCondition, RankDeficient
from .graph import check_enumeration_cap
from .linalg import gram_det, orthonormalize

SVD_RTOL = 1e-10
CONDITION_WARN = 1e-8


@dataclass(frozen=True, eq=False)
class LinearMatroid:
    """Ground set with representing matrix, weights, and kernel basis."""

    matrix: np.ndarray          # target_dim x ground_size
    weights: np.ndarray         # positive, per ground element
    kernel_basis: np.ndarray    # ground_size x corank, columns span ker(matrix)
    rank: int

    def __init__(self, matrix: np.ndarray, weights: np.ndarray | None = None):
        m = np.asarray(matrix, dtype=complex).copy()
        if m.ndim != 2:
            raise ValueError("representing matrix must be 2-dimensional")
        d = m.shape[1]
        w = np.ones(d) if weights is None else np.asarray(weights, dtype=float).copy()
        if w.shape != (d,) or np.any(w <= 0):
            raise ValueError("need one positive weight per ground element")
        u, s, vh = np.linalg.svd(m) if min(m.shape) else (None, np.zeros(0), None)
        smax = s.max(initial=0.0)
        rank = int(np.sum(s > SVD_RTOL * smax)) if smax > 0 else 0
        if m.size and smax > 0:
            z = vh[rank:, :].conj().T
        else:
            z = np.eye(d, dtype=complex)
        m.setflags(write=False)
        w.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "kernel_basis", z)
        object.__setattr__(self, "rank", rank)

    @property
    def ground_size(self) -> int:
        return self.matrix.shape[1]

    @property
    def corank(self) -> int:
        return self.kernel_basis.shape[1]

    def _subset_rank_ok(self, subset: tuple[int, ...]) -> bool:
        return _numeric_rank(self.matrix[:, list(subset)]) == len(subset)

    def is_basis(self, subset) -> bool:
        subset = tuple(sorted(subset))
        return len(subset) == self.rank and self._subset_rank_ok(subset)

    def is_independent(self, subset) -> bool:
        return self._subset_rank_ok(tuple(sorted(subset)))

    @cached_property
    def bases(self) -> tuple[tuple[int, ...], ...]:
        check_enumeration_cap(self.ground_size, what="elements")
        out = [t for t in itertools.combinations(range(self.ground_size), self.rank)
               if self._subset_rank_ok(t)]
        self._warn_conditioning(out)
        return tuple(out)

    def _warn_conditioning(self, bases) -> None:
        import warnings
        for t in bases:
            cols = self.matrix[:, list(t)]
            if not cols.size:
                continue
            s = np.linalg.svd(cols, compute_uv=False)
            if s.min() < CONDITION_WARN * s.max():
                warnings.warn(
                    f"basis {t} is numerically ill conditioned", RuntimeWarning)
                break

    def bases_of_rank_k_extension(self, k: int) -> list[tuple[int, ...]]:
        """Subsets of size rank+k whose columns span the whole image."""
        return [subset for subset in itertools.combinations(range(self.ground_size), self.rank + k)
                if _numeric_rank(self.matrix[:, list(subset)]) == self.rank]

    def fundamental_circuit_vector(self, basis: tuple[int, ...], j: int) -> np.ndarray:
        """Kernel vector with coefficient 1 on j and support inside basis + {j}."""
        basis = tuple(sorted(basis))
        if j in basis:
            raise ValueError("element already belongs to the basis")
        cols = self.matrix[:, list(basis)]
        rhs = -self.matrix[:, j]
        coeff, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        v = np.zeros(self.ground_size, dtype=complex)
        v[list(basis)] = coeff
        v[j] = 1.0
        return v

    def fundamental_circuit_basis(self, basis: tuple[int, ...]) -> np.ndarray:
        """Kernel basis indexed by the complement of a basis, as columns."""
        basis = tuple(sorted(basis))
        if not self.is_basis(basis):
            raise RankDeficient(f"{basis} is not a basis")
        rest = [j for j in range(self.ground_size) if j not in basis]
        if not rest:
            return np.zeros((self.ground_size, 0), dtype=complex)
        return np.column_stack([self.fundamental_circuit_vector(basis, j) for j in rest])


def _numeric_rank(cols: np.ndarray) -> int:
    """Singular values above SVD_RTOL times the largest one."""
    s = np.linalg.svd(cols, compute_uv=False) if cols.size else np.zeros(0)
    return int(np.sum(s > SVD_RTOL * s.max(initial=0.0))) if s.any() else 0


def from_matrix(matrix: np.ndarray, weights: np.ndarray | None = None) -> LinearMatroid:
    return LinearMatroid(matrix, weights)


def change_of_basis_det(m: LinearMatroid, z_columns: np.ndarray,
                        basis: tuple[int, ...]) -> complex:
    """det of the kernel family expressed in the fundamental basis of `basis`.

    Computed by expanding each column in the fundamental circuit vectors via
    a least-squares solve, which cross-checks that the family really lies in
    the kernel; equals the minor of z_columns on the complement rows.
    """
    z = np.asarray(z_columns, dtype=complex)
    zt = m.fundamental_circuit_basis(tuple(sorted(basis)))
    if zt.shape[1] != z.shape[1]:
        raise ValueError("family size must equal the corank")
    if zt.shape[1] == 0:
        return 1.0 + 0j
    coeffs = np.linalg.lstsq(zt, z, rcond=None)[0]
    return complex(np.linalg.det(coeffs))


def minor_on_complement(z_columns: np.ndarray, basis: tuple[int, ...],
                        ground_size: int) -> complex:
    """Minor of the kernel family on the rows outside `basis` (ascending)."""
    rows = [i for i in range(ground_size) if i not in set(basis)]
    z = np.asarray(z_columns, dtype=complex)
    if len(rows) != z.shape[1]:
        raise ValueError("complement size must equal the family size")
    if not rows:
        return 1.0 + 0j
    return complex(np.linalg.det(z[rows, :]))


def basis_weight(m: LinearMatroid, subset) -> float:
    """Principal minor of the squared representing operator on the subset.

    Positive exactly on bases; always a scalar multiple of the weight
    monomial x^T.
    """
    subset = tuple(sorted(subset))
    if len(subset) != m.rank:
        raise ValueError(f"weight needs subsets of size rank={m.rank}")
    dd = m.matrix.T @ np.conj(m.matrix) * m.weights[None, :]
    idx = list(subset)
    minor = dd[np.ix_(idx, idx)]
    val = float(np.linalg.det(minor).real) if idx else 1.0
    return max(val, 0.0)


def density_via_circuits(m: LinearMatroid, basis) -> float:
    """Unnormalized density |det(Z/Z_T)|^2 x^T of a basis."""
    basis = tuple(sorted(basis))
    if not m.is_basis(basis):
        raise RankDeficient(f"{basis} is not a basis")
    det = minor_on_complement(m.kernel_basis, basis, m.ground_size)
    mono = float(np.prod(m.weights[list(basis)])) if basis else 1.0
    return float(abs(det) ** 2) * mono


def matroid_kernel(m: LinearMatroid) -> ProjectionKernel:
    """Projection kernel (omega basis) of the determinantal basis measure."""
    cols = m.matrix.T.copy()  # image of the transposed map, e* coordinates
    omega = cols * np.sqrt(m.weights)[:, None]
    q = orthonormalize(omega)
    if q.shape[1] != m.rank:
        raise RankDeficient(f"image frame has rank {q.shape[1]}, expected {m.rank}")
    return ProjectionKernel.from_frame(q)


def restricted_kernel_basis(m: LinearMatroid, k_set: tuple[int, ...]) -> np.ndarray:
    """Basis of the kernel restricted to coordinates inside k_set, as columns."""
    k_set = tuple(sorted(k_set))
    cols = m.matrix[:, list(k_set)]
    sub = LinearMatroid(cols)
    if sub.rank != m.rank:
        raise ImpossibleCondition("restriction does not contain a basis")
    z = np.zeros((m.ground_size, sub.corank), dtype=complex)
    z[list(k_set), :] = sub.kernel_basis
    return z


def conditional_density(m: LinearMatroid, k_set, subset) -> float:
    """Unnormalized conditional density of `subset` given the sample stays in k_set."""
    k_set = tuple(sorted(k_set))
    subset = tuple(sorted(subset))
    if not set(subset) <= set(k_set):
        raise ValueError("subset must lie inside the conditioning set")
    zk = restricted_kernel_basis(m, k_set)
    rows = [i for i in k_set if i not in set(subset)]
    if len(rows) != zk.shape[1]:
        raise ValueError("subset size must equal the matroid rank")
    det = np.linalg.det(zk[rows, :]) if rows else 1.0 + 0j
    mono = float(np.prod(m.weights[list(subset)])) if subset else 1.0
    return float(abs(det) ** 2) * mono


def ratio_constant(m: LinearMatroid, k_set) -> tuple[float, float]:
    """Probability factor P(X inside k_set) relative to the restricted law.

    Returns the value computed two ways: from change-of-basis determinants at
    one basis, and from the weighted wedge-coefficient sums that are
    manifestly independent of the basis choice.  Both use the stored kernel
    basis and the restricted kernel basis.
    """
    k_set = tuple(sorted(k_set))
    zk = restricted_kernel_basis(m, k_set)
    some_basis = next((t for t in m.bases if set(t) <= set(k_set)), None)
    if some_basis is None:
        raise ImpossibleCondition("conditioning set contains no basis")

    det_full = minor_on_complement(m.kernel_basis, some_basis, m.ground_size)
    rows = [i for i in k_set if i not in set(some_basis)]
    det_restricted = np.linalg.det(zk[rows, :]) if rows else 1.0 + 0j
    via_basis = float(abs(det_full) ** 2 / abs(det_restricted) ** 2)

    # coefficient route: restrict the full wedge to directions containing the
    # complement of k_set, against the norm of the restricted wedge
    x = m.weights
    comp = [i for i in range(m.ground_size) if i not in set(k_set)]
    b = m.corank
    jz = np.conj(m.kernel_basis) / x[:, None]
    num = 0.0
    for extra in itertools.combinations(k_set, b - len(comp)):
        rows_j = sorted(comp + list(extra))
        minor = np.linalg.det(jz[rows_j, :]) if rows_j else 1.0 + 0j
        num += float(np.prod(x[rows_j])) * float(abs(minor) ** 2)
    jzk = np.conj(zk) / x[:, None]
    den = gram_det(x, jzk)
    comp_mono = float(np.prod(x[comp])) if comp else 1.0
    via_wedge = comp_mono * num / den
    return via_basis, via_wedge


def _image_frame(m: LinearMatroid) -> np.ndarray:
    """Images under the transposed map of an orthonormal basis of its coimage."""
    coimage = orthonormalize(np.conj(m.matrix))
    return m.matrix.T @ coimage


def partition_functions(m: LinearMatroid, theta: np.ndarray | None = None,
                        x: np.ndarray | None = None) -> dict[str, float]:
    """The three partition functions of a measured matroid.

    B: sum of basis weights, via the squared-operator determinant on the
       coimage.  K: weighted sum of squared change-of-basis determinants,
       via the wedge-norm formula for the stored kernel basis.  L: the
       k-extension polynomial for the normalized kernel basis and the given
       forms theta, via the bordered determinant.
    """
    x = m.weights if x is None else np.asarray(x, dtype=float)
    img = _image_frame(m)
    b_val = gram_det(x, img)
    k_raw = float(np.prod(x)) * gram_det(x, np.conj(m.kernel_basis) / x[:, None])

    out = {"B": b_val, "K": k_raw, "normalization": scale_to_match_B(m)}
    if theta is not None:
        theta = np.asarray(theta, dtype=complex).reshape(m.ground_size, -1)
        if theta.shape[1]:
            l_val = gram_det(x, np.hstack([img, theta]))
        else:
            l_val = b_val
        out["L"] = l_val
    return out


def scale_to_match_B(m: LinearMatroid) -> float:
    """Scalar s so that s^2 K(Z, .) agrees with B; applied to one kernel column."""
    ones = np.ones(m.ground_size)
    b1 = gram_det(ones, _image_frame(m))
    k1 = gram_det(ones, np.conj(m.kernel_basis))
    if k1 <= 0:
        raise RankDeficient("kernel basis is degenerate")
    return float(np.sqrt(b1 / k1))


def normalized_kernel_basis(m: LinearMatroid) -> np.ndarray:
    """Kernel basis rescaled so its K polynomial equals B everywhere."""
    z = np.array(m.kernel_basis)
    if z.shape[1]:
        z[:, 0] *= scale_to_match_B(m)
    return z


def theorem_measure(m: LinearMatroid, theta: np.ndarray):
    """Kernel and weight evaluator of the k-extension determinantal measure.

    The kernel projects onto the image of the transposed map extended by the
    span of the forms; the weight of an admissible (rank+k)-set K is
    x^K r(Z : Z^K) |(theta_1 ^ ... ^ theta_k, z_K)|^2, and normalized
    weights match the kernel densities.
    """
    theta = np.asarray(theta, dtype=complex).reshape(m.ground_size, -1)
    k = theta.shape[1]
    omega = np.hstack([m.matrix.T, theta]) * np.sqrt(m.weights)[:, None]
    q = orthonormalize(omega)
    if q.shape[1] != m.rank + k:
        raise DegenerateForms("forms overlap the kernel of the adjoint")
    kernel = ProjectionKernel.from_frame(q)

    def weight(k_set) -> float:
        k_set = tuple(sorted(k_set))
        zk = restricted_kernel_basis(m, k_set)
        pairing = theta.T @ zk
        topo = float(abs(np.linalg.det(pairing)) ** 2) if k else 1.0
        r, _ = ratio_constant(m, k_set)
        mono = float(np.prod(m.weights[list(k_set)])) if k_set else 1.0
        return mono * r * topo

    return kernel, weight


@dataclass(frozen=True)
class IdentityReport:
    max_abs_error: float
    checked: int

    @property
    def passed(self) -> bool:
        return self.max_abs_error < 1e-10


def circuit_basis_identity_check(m: LinearMatroid,
                                 z_columns: np.ndarray | None = None) -> IdentityReport:
    """Verify the wedge expansion of a kernel basis over basis complements.

    Every coefficient of the full wedge of the kernel family (a minor on b
    rows) must vanish unless the complementary rows form a basis, where it
    must equal the change-of-basis determinant to the fundamental basis,
    sign included.
    """
    z = m.kernel_basis if z_columns is None else np.asarray(z_columns, dtype=complex)
    b = z.shape[1]
    worst = 0.0
    checked = 0
    basis_set = {t for t in m.bases}
    for rows in itertools.combinations(range(m.ground_size), b):
        coeff = complex(np.linalg.det(z[list(rows), :])) if b else 1.0 + 0j
        complement = tuple(i for i in range(m.ground_size) if i not in set(rows))
        if complement in basis_set:
            expected = change_of_basis_det(m, z, complement)
        else:
            expected = 0.0 + 0j
        worst = max(worst, abs(coeff - expected))
        checked += 1
    return IdentityReport(worst, checked)


def matroid_to_json(m: LinearMatroid) -> str:
    rows, cols = m.matrix.shape
    return json.dumps({
        "ground_size": cols,
        "target_dim": rows,
        "R": [[float(z.real), float(z.imag)] for z in m.matrix.ravel()],
        "weights": [float(w) for w in m.weights],
    })


def matroid_from_json(text: str) -> LinearMatroid:
    payload = json.loads(text)
    pairs = np.asarray(payload["R"], dtype=float)
    mat = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(
        payload["target_dim"], payload["ground_size"])
    return LinearMatroid(mat, np.asarray(payload["weights"], dtype=float))
