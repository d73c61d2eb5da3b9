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
from .errors import ImpossibleCondition, MalformedInput, RankDeficient
from .graph import check_enumeration_cap, subset_blocks
from .linalg import RANK_RTOL, gram_det, null_space, unit_columns, weighted_frame

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
        rank = int(_rank_of(s))
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
        return bool(_rank_of(_singular_values(self.image[subset])) == len(subset))

    @cached_property
    def bases(self) -> tuple[tuple[int, ...], ...]:
        bases, s = self._spanning_subsets(0)
        ill = bases[(s[:, -1:] < CONDITION_WARN * s[:, :1]).any(axis=1)].tolist()
        if ill:
            warnings.warn(f"basis {tuple(ill[0])} is numerically ill conditioned", RuntimeWarning)
        return tuple(map(tuple, bases.tolist()))

    @cached_property
    def _basis_lookup(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.bases)

    def bases_of_rank_k_extension(self, k: int) -> list[tuple[int, ...]]:
        """Subsets of size rank+k whose columns span the whole image."""
        return list(map(tuple, self._spanning_subsets(k)[0].tolist()))

    def _spanning_subsets(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The (rank+k)-subsets whose rows of `image` have full rank, in
        lexicographic order, and their singular values: one stacked SVD of
        image[block] per block of subsets."""
        check_enumeration_cap(self.ground_size, what="elements")
        size = self.rank + k
        scan = []
        for block in subset_blocks(self.ground_size, size, size * self.rank * self.image.itemsize):
            s = _singular_values(self.image[block])
            keep = _rank_of(s) == self.rank
            scan.append((block[keep], s[keep]))
        return tuple(np.concatenate(a) for a in zip(*scan))

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


def _singular_values(a: np.ndarray) -> np.ndarray:
    # descending, per matrix of a stack; numpy 1.24 has no SVD of an empty matrix
    return (np.linalg.svd(a, compute_uv=False) if a.size
            else np.zeros((*a.shape[:-2], min(a.shape[-2:]))))


def _rank_of(s: np.ndarray) -> np.ndarray:
    """Singular values above RANK_RTOL times the largest one, per matrix of a stack."""
    return (s > RANK_RTOL * s.max(axis=-1, keepdims=True, initial=0.0)).sum(axis=-1)


def _abs_det2(a: np.ndarray) -> np.ndarray:
    """|det|^2 of a square matrix or of each matrix of a stack; 1 for 0 x 0."""
    return np.abs(np.linalg.det(a)) ** 2 if a.shape[-1] else np.ones(a.shape[:-2])


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


def basis_weight(m: LinearMatroid, subsets) -> float | np.ndarray:
    """x^T |det image[T]|^2 of a rank-subset T: the principal minor on T of the
    squared representing operator R^T conj(R) X, as R^T conj(R) = image image^H.

    Positive exactly on bases.  An (N, rank) array of subsets, one per row,
    gives the N weights as an array, as dpp.density does.
    """
    idx = np.asarray(subsets if np.ndim(subsets) == 2 else sorted(subsets), dtype=np.intp)
    if idx.shape[-1] != m.rank:
        raise ValueError(f"weight needs subsets of size rank={m.rank}")
    w = m.weights[idx].prod(axis=-1) * _abs_det2(m.image[idx])
    return w if idx.ndim == 2 else float(w)


def density_via_circuits(m: LinearMatroid, basis) -> float:
    """Unnormalized density |det(Z/Z_T)|^2 x^T of a basis."""
    basis = tuple(sorted(basis))
    if not m.is_basis(basis):
        raise RankDeficient(f"{basis} is not a basis")
    return circuit_density(m, basis)


def circuit_density(m: LinearMatroid, basis,
                    z: np.ndarray | None = None) -> float | np.ndarray:
    """x^T |det z[T^c]|^2 = |det(z/Z_T)|^2 x^T for a basis T that is not checked,
    or for each row of an (N, rank) array of them; z defaults to Z."""
    z = m.kernel_basis if z is None else np.asarray(z, dtype=complex)
    idx = np.asarray(basis if np.ndim(basis) == 2 else sorted(basis), dtype=np.intp)
    if m.ground_size - idx.shape[-1] != z.shape[1]:
        raise ValueError("complement size must equal the family size")
    rows = np.atleast_2d(idx)
    # each complement in ascending order: the elements outside sort first, stably
    inside = (rows[:, :, None] == np.arange(m.ground_size)).any(axis=1)
    comp = np.argsort(inside, axis=1, kind="stable")[:, :z.shape[1]]
    dens = m.weights[rows].prod(axis=-1) * _abs_det2(z[comp])
    return dens if idx.ndim == 2 else float(dens[0])


def matroid_kernel(m: LinearMatroid) -> ProjectionKernel:
    """Projection kernel (omega basis) of the determinantal basis measure.

    I - QQ^H for Q the frame of conj(Z) at inverted weights: conj(Z) spans the
    complement of the image of the transposed map, so no rank is decided.
    """
    q = weighted_frame(m.weights, m.kernel_basis.conj(), inverse=True)
    return ProjectionKernel.from_frame(q).complement()


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
    pairing = m.kernel_basis.T @ unit_columns(theta)
    basis = m.kernel_basis.conj() @ null_space(pairing, "forms overlap the kernel of the adjoint")
    q = weighted_frame(m.weights, basis, inverse=True)
    return ProjectionKernel.from_frame(q).complement(), partial(extension_weight, m, theta)


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
    worst, checked = 0.0, 0
    for rows in itertools.combinations(range(m.ground_size), b):
        coeff = complex(np.linalg.det(z[list(rows), :])) if b else 1.0 + 0j
        complement = tuple(i for i in range(m.ground_size) if i not in set(rows))
        expected = (change_of_basis_det(m, z, complement) if complement in m._basis_lookup
                    else 0.0 + 0j)
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
