"""Measured linear matroids and their determinantal basis measures.

A matroid is represented by a matrix R over the ground set columns; a subset
is independent when its columns are.  The kernel Z of R encodes the
dependencies: its squared minors on basis complements give the densities, and
those of the kernel restricted to a set K the conditional laws inside K and the
weights of the k-extension measure.  The edge weights enter through the
weighted inner product on the dual side, exactly as for graphs, whose circular
matroid (R = boundary matrix) reproduces the spanning-tree measure.
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
from .linalg import RANK_RTOL, _abs_det2, _annihilated, gram_det

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
        m = np.asarray(matrix)
        m = m.astype(np.result_type(m, float))  # a copy
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ValueError("representing matrix must be 2-dimensional and finite")
        d = m.shape[1]
        w = np.ones(d) if weights is None else np.asarray(weights, dtype=float).copy()
        if w.shape != (d,) or not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("need one finite positive weight per ground element")
        # the one SVD of R; numpy 1.24 has none for an empty matrix
        _, s, vh = np.linalg.svd(m) if min(m.shape) else (None, np.zeros(0), np.zeros((0, d)))
        rank = int(_rank_of(s))
        z = vh[rank:, :].conj().T if rank else np.eye(d, dtype=m.dtype)
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

    def fundamental_circuit_basis(self, basis: tuple[int, ...]) -> np.ndarray:
        """Kernel basis indexed by the complement of a basis, as columns."""
        basis = tuple(sorted(basis))
        if not self.is_basis(basis):
            raise RankDeficient(f"{basis} is not a basis")
        return self._circuits(basis)

    def _circuits(self, basis: tuple[int, ...]) -> np.ndarray:
        """fundamental_circuit_basis of an ascending basis that is not checked."""
        rest = [j for j in range(self.ground_size) if j not in basis]
        # the column of j has coefficient 1 on j, and its support inside the basis
        # solves one square system in the coordinates of `image`
        z = np.zeros((self.ground_size, len(rest)), dtype=self.image.dtype)
        z[list(basis)] = np.linalg.solve(self.image[list(basis)].T, -self.image[rest].T)
        z[rest, np.arange(len(rest))] = 1.0
        return z


def _singular_values(a: np.ndarray) -> np.ndarray:
    # descending, per matrix of a stack; numpy 1.24 has no SVD of an empty matrix
    return (np.linalg.svd(a, compute_uv=False) if a.size
            else np.zeros((*a.shape[:-2], min(a.shape[-2:]))))


def _rank_of(s: np.ndarray) -> np.ndarray:
    """Singular values above RANK_RTOL times the largest one, per matrix of a stack."""
    return (s > RANK_RTOL * s.max(axis=-1, keepdims=True, initial=0.0)).sum(axis=-1)


def from_matrix(matrix: np.ndarray, weights: np.ndarray | None = None) -> LinearMatroid:
    return LinearMatroid(matrix, weights)


def _det_ratio(m: LinearMatroid, z: np.ndarray, zt: np.ndarray) -> complex:
    """det(Z^H z) / det(Z^H zt) of two families of corank columns, 1 for none."""
    if zt.shape[1] == 0:
        return 1.0 + 0j
    k = m.kernel_basis.conj().T
    return complex(np.linalg.det(k @ z) / np.linalg.det(k @ zt))


def _rows(subsets) -> np.ndarray:
    """Ascending index rows: (1, size) for one subset, (N, size) for a stack of them."""
    one = np.ndim(subsets) != 2
    return np.sort(np.asarray([list(subsets)] if one else subsets, dtype=np.intp), axis=1)


def _members(rows: np.ndarray, n: int) -> np.ndarray:
    """(N, n) mask of the elements of range(n) in each row of an (N, size) stack."""
    return (rows[:, :, None] == np.arange(n)).any(axis=1)


def _minor2_outside(z: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """|det|^2 of the rows of z outside each row of the (N, n) mask `inside`, which
    sort first, stably: z is one (n, b) family, or an (N, n, b) stack of them."""
    comp = np.argsort(inside, axis=1, kind="stable")[:, :z.shape[-1]]
    return _abs_det2(z[comp] if z.ndim == 2 else np.take_along_axis(z, comp[:, :, None], axis=1))


def basis_weight(m: LinearMatroid, subsets) -> float | np.ndarray:
    """x^T |det image[T]|^2 of a rank-subset T: the principal minor on T of the
    squared representing operator R^T conj(R) X, as R^T conj(R) = image image^H.

    Positive exactly on bases.  An (N, rank) array of subsets, one per row,
    gives the N weights as an array, as dpp.density does.
    """
    rows = _rows(subsets)
    if rows.shape[1] != m.rank:
        raise ValueError(f"weight needs subsets of size rank={m.rank}")
    w = m.weights[rows].prod(axis=-1) * _abs_det2(m.image[rows])
    return w if np.ndim(subsets) == 2 else float(w[0])


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
    z = m.kernel_basis if z is None else np.asarray(z)
    rows = _rows(basis)
    if m.ground_size - rows.shape[1] != z.shape[1]:
        raise ValueError("complement size must equal the family size")
    dens = m.weights[rows].prod(axis=-1) * _minor2_outside(z, _members(rows, m.ground_size))
    return dens if np.ndim(basis) == 2 else float(dens[0])


def matroid_kernel(m: LinearMatroid) -> ProjectionKernel:
    """Projection kernel (omega basis) of the determinantal basis measure.

    The complement of conj(Z), which spans the complement of the image of the
    transposed map, so no rank is decided.
    """
    return ProjectionKernel.complement_of(m.weights, m.kernel_basis.conj())


def restricted_kernel_basis(m: LinearMatroid, k_set) -> np.ndarray:
    """Basis of the kernel restricted to coordinates inside a set K, as columns, or
    an (N, ground_size, |K| - rank) stack of them for an (N, |K|) stack of sets:
    from one stacked SVD of R[:, K], the call LinearMatroid(R[:, K]) would make.
    ImpossibleCondition unless each R[:, K] has the rank of R.
    """
    rows = _rows(k_set)
    if m.rank:
        _, s, vh = np.linalg.svd(m.matrix.T[rows].swapaxes(1, 2))
        if (_rank_of(s) != m.rank).any():
            raise ImpossibleCondition("restriction does not contain a basis")
        kernels = vh[:, m.rank:].conj().swapaxes(1, 2)
    else:  # R = 0, whose kernel LinearMatroid takes as the identity, with no SVD
        kernels = np.eye(rows.shape[1])
    z = np.zeros((len(rows), m.ground_size, rows.shape[1] - m.rank), dtype=m.kernel_basis.dtype)
    z[np.arange(len(rows))[:, None], rows] = kernels
    return z if np.ndim(k_set) == 2 else z[0]


def _first_bases(m: LinearMatroid, rows: np.ndarray) -> np.ndarray:
    """(N, ground_size) mask of the first basis inside each row K of an (N, size)
    stack, by is_basis's rule: one stacked rank test per rank-subset of K, in
    lexicographic order, of the rows with no basis yet.  Only subsets of K are
    tested, so no enumeration of the ground set is capped."""
    first = np.zeros((len(rows), m.ground_size), dtype=bool)
    todo = np.arange(len(rows))
    for pos in itertools.combinations(range(rows.shape[1]), m.rank):
        cand = rows[todo][:, list(pos)]
        hit = _rank_of(_singular_values(m.image[cand])) == m.rank
        first[todo[hit]] = _members(cand[hit], m.ground_size)
        todo = todo[~hit]
        if not todo.size:
            return first
    raise ImpossibleCondition("conditioning set contains no basis")


def _basis_ratio(m: LinearMatroid, z: np.ndarray, zk: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|det z[T^c]|^2 / |det z_K[K - T]|^2 = |det(z/Z_T)|^2 / |det(z_K/Z_T)|^2 at
    the first basis T inside each row K of rows, whose z_K stack is zk."""
    in_t = _first_bases(m, rows)
    return _minor2_outside(z, in_t) / _minor2_outside(zk, in_t | ~_members(rows, m.ground_size))


def conditional_density(m: LinearMatroid, k_set, subset) -> float:
    """Unnormalized conditional density x^T |det z_K[K - T]|^2 of a rank-subset
    T = `subset` of K = k_set, given the sample stays in K."""
    rows, t = _rows(k_set), _rows(subset)[0]
    if len(t) != m.rank or not np.isin(t, rows).all():
        raise ValueError(f"subset must be a {m.rank}-subset of the conditioning set")
    outside = _members(t[None], m.ground_size) | ~_members(rows, m.ground_size)
    det2 = _minor2_outside(restricted_kernel_basis(m, rows), outside)
    return float(det2[0]) * float(np.prod(m.weights[t]))


def ratio_constant(m: LinearMatroid, k_set) -> tuple[float, float]:
    """Probability factor P(X inside k_set) relative to the restricted law, two
    ways: the change-of-basis determinants of _basis_ratio at one basis, and the
    weighted wedge-coefficient sums, manifestly independent of the basis."""
    rows = _rows(k_set)
    zk = restricted_kernel_basis(m, rows)
    via_basis = float(_basis_ratio(m, m.kernel_basis, zk, rows)[0])

    # coefficient route: restrict the full wedge to directions containing the
    # complement of k_set, against the norm of the restricted wedge
    k_set = rows[0].tolist()
    x = m.weights
    comp = [i for i in range(m.ground_size) if i not in set(k_set)]
    b = m.corank
    jz = np.conj(m.kernel_basis) / x[:, None]
    num = 0.0
    for extra in itertools.combinations(k_set, b - len(comp)):
        rows_j = sorted(comp + list(extra))
        num += float(np.prod(x[rows_j])) * float(_abs_det2(jz[rows_j]))
    den = gram_det(x, np.conj(zk[0]) / x[:, None])
    return via_basis, float(np.prod(x[comp])) * num / den


def extension_weight(m: LinearMatroid, theta: np.ndarray, k_set,
                     z: np.ndarray | None = None) -> float | np.ndarray:
    """Weight x^K r(z : z_K) |det(theta^T z_K)|^2 of an admissible (rank+k)-set K,
    or the weights of each row of an (N, rank+k) stack of them, as an array.

    theta holds the k forms as columns, z_K spans the kernel restricted to K,
    and r is the ratio of ratio_constant for the kernel family z (default Z).
    """
    z = m.kernel_basis if z is None else np.asarray(z)
    rows = _rows(k_set)
    zk = restricted_kernel_basis(m, rows)
    w = m.weights[rows].prod(axis=-1) * _basis_ratio(m, z, zk, rows) * _abs_det2(theta.T @ zk)
    return w if np.ndim(k_set) == 2 else float(w[0])


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

    out = {"B": b_val, "K": k_raw}
    if theta is not None:
        theta = np.asarray(theta).reshape(m.ground_size, -1)
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
    theta = np.asarray(theta).reshape(m.ground_size, -1)
    kernel = ProjectionKernel.complement_of(m.weights, _annihilated(m.kernel_basis.conj(), theta))
    return kernel, partial(extension_weight, m, theta)


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
    sign included.  Basis membership is read off the one stacked scan of
    `m.bases`, so no complement takes an SVD of its own.
    """
    z = m.kernel_basis if z_columns is None else np.asarray(z_columns)
    b = z.shape[1]
    bases = set(m.bases)
    worst, checked = 0.0, 0
    for checked, rows in enumerate(itertools.combinations(range(m.ground_size), b), 1):
        coeff = complex(np.linalg.det(z[list(rows), :])) if b else 1.0 + 0j
        complement = tuple(i for i in range(m.ground_size) if i not in set(rows))
        expected = _det_ratio(m, z, m._circuits(complement)) if complement in bases else 0j
        worst = max(worst, abs(coeff - expected))
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
    r = pairs[:, 0] + 1j * pairs[:, 1] if pairs[:, 1].any() else pairs[:, 0]  # real if it can be
    return LinearMatroid(r.reshape(shape), weights)
