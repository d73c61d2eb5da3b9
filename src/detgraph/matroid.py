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
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .dpp import ProjectionKernel
from .errors import DegenerateForms, ImpossibleCondition, MalformedInput, RankDeficient
from .graph import check_enumeration_cap
from .linalg import RANK_RTOL, extend_frame, gram_det, to_omega, weighted_frame

CONDITION_WARN = 1e-8


@dataclass(frozen=True, eq=False)
class LinearMatroid:
    """Ground set with representing matrix, weights, and kernel basis."""

    matrix: np.ndarray          # target_dim x ground_size
    weights: np.ndarray         # positive, per ground element
    kernel_basis: np.ndarray    # ground_size x corank, columns span ker(matrix)
    image: np.ndarray           # ground_size x rank, R^T on an orthonormal coimage basis
    rank: int

    def __init__(self, matrix: np.ndarray, weights: np.ndarray | None = None):
        m = np.asarray(matrix, dtype=complex).copy()
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ValueError("representing matrix must be 2-dimensional and finite")
        d = m.shape[1]
        w = np.ones(d) if weights is None else np.asarray(weights, dtype=float).copy()
        if w.shape != (d,) or not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("need one finite positive weight per ground element")
        # the one SVD of R; numpy 1.24 has none for an empty matrix
        _, s, vh = np.linalg.svd(m) if min(m.shape) else (None, np.zeros(0), np.zeros((0, d)))
        rank = _rank_of(s)
        z = vh[rank:, :].conj().T if rank else np.eye(d, dtype=complex)
        image = vh[:rank, :].T * s[:rank]
        for a in (m, w, z, image):
            a.setflags(write=False)
        self.__dict__.update(matrix=m, weights=w, kernel_basis=z, image=image,
                             rank=rank)  # frozen: bypass setattr

    @property
    def ground_size(self) -> int:
        return self.matrix.shape[1]

    @property
    def corank(self) -> int:
        return self.kernel_basis.shape[1]

    def is_basis(self, subset) -> bool:
        subset = sorted(subset)
        return len(subset) == self.rank and self.is_independent(subset)

    def is_independent(self, subset) -> bool:
        subset = sorted(subset)
        return _rank_of(_singular_values(self.matrix[:, subset])) == len(subset)

    @cached_property
    def bases(self) -> tuple[tuple[int, ...], ...]:
        scan = self._spanning_subsets(0)
        ill = next((t for t, s in scan if s.size and s[-1] < CONDITION_WARN * s[0]), None)
        if ill is not None:
            warnings.warn(f"basis {ill} is numerically ill conditioned", RuntimeWarning)
        return tuple(t for t, _ in scan)

    @cached_property
    def _basis_lookup(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.bases)

    def bases_of_rank_k_extension(self, k: int) -> list[tuple[int, ...]]:
        """Subsets of size rank+k whose columns span the whole image."""
        return [t for t, _ in self._spanning_subsets(k)]

    def _spanning_subsets(self, k: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Each (rank+k)-subset whose columns span the image, with their singular values."""
        check_enumeration_cap(self.ground_size, what="elements")
        scan = ((t, _singular_values(self.matrix[:, list(t)]))
                for t in itertools.combinations(range(self.ground_size), self.rank + k))
        return [(t, s) for t, s in scan if _rank_of(s) == self.rank]

    def fundamental_circuit_vector(self, basis: tuple[int, ...], j: int) -> np.ndarray:
        """Kernel vector with coefficient 1 on j and support inside basis + {j}."""
        basis = tuple(sorted(basis))
        if j in basis:
            raise ValueError("element already belongs to the basis")
        # in the coordinates of `image` the basis columns are a square system
        coeff = np.linalg.solve(self.image[list(basis)].T, -self.image[j])
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


def _singular_values(cols: np.ndarray) -> np.ndarray:
    # numpy 1.24 has no SVD of an empty matrix
    return np.linalg.svd(cols, compute_uv=False) if cols.size else np.zeros(0)


def _rank_of(s: np.ndarray) -> int:
    """Singular values above RANK_RTOL times the largest one."""
    return int(np.sum(s > RANK_RTOL * s.max(initial=0.0)))


def from_matrix(matrix: np.ndarray, weights: np.ndarray | None = None) -> LinearMatroid:
    return LinearMatroid(matrix, weights)


def change_of_basis_det(m: LinearMatroid, z_columns: np.ndarray,
                        basis: tuple[int, ...]) -> complex:
    """det of the kernel family expressed in the fundamental basis of `basis`.

    Both families are expanded in the orthonormal kernel basis Z, so the
    change of basis is det(Z^H z) / det(Z^H zt); this cross-checks the
    fundamental circuit vectors, and equals the minor of z_columns on the
    complement rows when the family lies in the kernel.
    """
    z = np.asarray(z_columns, dtype=complex)
    zt = m.fundamental_circuit_basis(tuple(sorted(basis)))
    if zt.shape[1] != z.shape[1]:
        raise ValueError("family size must equal the corank")
    if zt.shape[1] == 0:
        return 1.0 + 0j
    k = m.kernel_basis.conj().T
    return complex(np.linalg.det(k @ z) / np.linalg.det(k @ zt))


def minor_on_complement(z: np.ndarray, basis, within) -> complex:
    """Minor of the kernel family z on the rows of `within` outside `basis`.

    `within` lists rows in ascending order: range(ground_size) for the whole
    ground set, or a conditioning set.  The minor on no rows is 1.
    """
    inside = set(basis)
    rows = [i for i in within if i not in inside]
    if len(rows) != z.shape[1]:
        raise ValueError("complement size must equal the family size")
    return complex(np.linalg.det(z[rows, :])) if rows else 1.0 + 0j


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
    return circuit_density(m, basis)


def circuit_density(m: LinearMatroid, basis, z: np.ndarray | None = None) -> float:
    """|det(z/Z_T)|^2 x^T for a basis T that is not checked; z defaults to Z."""
    z = m.kernel_basis if z is None else np.asarray(z, dtype=complex)
    det = minor_on_complement(z, basis, range(m.ground_size))
    return float(abs(det) ** 2) * float(np.prod(m.weights[list(basis)]))


def matroid_kernel(m: LinearMatroid) -> ProjectionKernel:
    """Projection kernel (omega basis) of the determinantal basis measure.

    Its range is the image of the transposed map, whose stored basis has
    rank independent columns whatever the weights, so no rank is decided.
    """
    return ProjectionKernel.from_frame(weighted_frame(m.weights, m.image))


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
    det = minor_on_complement(restricted_kernel_basis(m, k_set), subset, k_set)
    return float(abs(det) ** 2) * float(np.prod(m.weights[list(subset)]))


def _basis_ratio(m: LinearMatroid, z: np.ndarray, zk: np.ndarray, k_set) -> float:
    """|det(z/Z_T)|^2 / |det(zk/Z_T)|^2 at the first basis T inside k_set.

    The bases are in lexicographic order, so T is the first rank-subset of
    k_set, in that order, that is a basis.
    """
    basis = next((t for t in itertools.combinations(sorted(k_set), m.rank)
                  if t in m._basis_lookup), None)
    if basis is None:
        raise ImpossibleCondition("conditioning set contains no basis")
    return float(abs(minor_on_complement(z, basis, range(m.ground_size))) ** 2
                 / abs(minor_on_complement(zk, basis, k_set)) ** 2)


def ratio_constant(m: LinearMatroid, k_set) -> tuple[float, float]:
    """Probability factor P(X inside k_set) relative to the restricted law.

    Returns the value computed two ways: from change-of-basis determinants at
    one basis, and from the weighted wedge-coefficient sums that are
    manifestly independent of the basis choice.  Both use the stored kernel
    basis and the restricted kernel basis.
    """
    k_set = tuple(sorted(k_set))
    zk = restricted_kernel_basis(m, k_set)
    via_basis = _basis_ratio(m, m.kernel_basis, zk, k_set)

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


def extension_weight(m: LinearMatroid, theta: np.ndarray, k_set,
                     z: np.ndarray | None = None) -> float:
    """Weight x^K r(z : z_K) |det(theta^T z_K)|^2 of an admissible (rank+k)-set K.

    theta holds the k forms as columns, z_K spans the kernel restricted to K,
    and r is the ratio of ratio_constant for the kernel family z (default Z).
    """
    z = m.kernel_basis if z is None else np.asarray(z, dtype=complex)
    k_set = tuple(sorted(k_set))
    zk = restricted_kernel_basis(m, k_set)
    topo = float(abs(np.linalg.det(theta.T @ zk)) ** 2) if theta.shape[1] else 1.0
    mono = float(np.prod(m.weights[list(k_set)]))
    return mono * _basis_ratio(m, z, zk, k_set) * topo


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
    b_val = gram_det(x, m.image)
    k_raw = float(np.prod(x)) * gram_det(x, np.conj(m.kernel_basis) / x[:, None])

    out = {"B": b_val, "K": k_raw, "normalization": scale_to_match_B(m)}
    if theta is not None:
        theta = np.asarray(theta, dtype=complex).reshape(m.ground_size, -1)
        out["L"] = gram_det(x, np.hstack([m.image, theta]))
    return out


def scale_to_match_B(m: LinearMatroid) -> float:
    """Scalar s so that s^2 K(Z, .) agrees with B; applied to one kernel column."""
    # Z is orthonormal, so K(Z, .) is 1 at unit weights and s^2 is B there
    return float(np.sqrt(gram_det(np.ones(m.ground_size), m.image)))


def normalized_kernel_basis(m: LinearMatroid) -> np.ndarray:
    """Kernel basis rescaled so its K polynomial equals B everywhere."""
    z = np.array(m.kernel_basis)
    if z.shape[1]:
        z[:, 0] *= scale_to_match_B(m)
    return z


def theorem_measure(m: LinearMatroid, theta: np.ndarray):
    """Kernel and weight evaluator of the k-extension determinantal measure.

    The kernel projects onto the image of the transposed map extended by the
    span of the forms, built as the connected graph measure's is; the weight
    of an admissible (rank+k)-set K is extension_weight, and normalized
    weights match the kernel densities.
    """
    theta = np.asarray(theta, dtype=complex).reshape(m.ground_size, -1)
    frame = extend_frame(weighted_frame(m.weights, m.image), to_omega(m.weights, theta))
    if frame.shape[1] != m.rank + theta.shape[1]:
        raise DegenerateForms("forms overlap the kernel of the adjoint")
    return ProjectionKernel.from_frame(frame), partial(extension_weight, m, theta)


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
    basis_set = m._basis_lookup
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
    try:
        pairs = np.asarray(payload["R"], dtype=float)
        shape = (payload["target_dim"], payload["ground_size"])
        weights = np.asarray(payload["weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput("matroid JSON needs ground_size, target_dim, R and weights: "
                             f"{exc!r}") from exc
    if pairs.shape == (0,):  # R of a matroid with target_dim 0
        pairs = pairs.reshape(0, 2)
    if not all(type(v) is int and v >= low for v, low in zip(shape, (0, 1))) \
            or pairs.shape != (shape[0] * shape[1], 2):
        raise MalformedInput("matroid JSON needs target_dim x ground_size [re, im] pairs "
                             f"in R, got shape {pairs.shape}")
    return LinearMatroid((pairs[:, 0] + 1j * pairs[:, 1]).reshape(shape), weights)
