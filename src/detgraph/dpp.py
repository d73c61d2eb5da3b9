"""Projection determinantal point processes on a finite index set.

A kernel is an orthogonal projection K, held as its dense matrix in an
orthonormal basis indexed by the ground set (for graphs: the omega basis over
positive edges).  Samples always have exactly rank(K) points; densities of
full-rank subsets are principal minors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ImpossibleCondition, MalformedInput, NumericDegeneracy
from .linalg import _complex_pairs, orthonormalize, weighted_frame

KERNEL_TOL = 1e-10
PROB_FLOOR = 1e-14
_BATCH_BYTES = 1 << 26  # bound on the per-batch Gram-Schmidt columns of sample_batch


@dataclass(frozen=True, eq=False)
class ProjectionKernel:
    """Orthogonal projection K of a given rank.  Its dense matrix, real or
    complex as it was built, is the one representation: the sampler, minors,
    complement, conditioning and JSON all read it."""

    matrix: np.ndarray
    rank: int

    def __init__(self, matrix: np.ndarray, rank: int | None = None):
        """Kernel of a dense projector from outside the library (JSON, user code).

        One O(n^3) eigvalsh, real for a real matrix, validates it
        (MalformedInput otherwise); library kernels use complement_of.
        """
        m = np.array(matrix)
        m = m.astype(np.result_type(m, float), copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MalformedInput("kernel must be square")
        if not np.all(np.isfinite(m)):
            raise MalformedInput("kernel entries must be finite")
        if np.abs(m - m.conj().T).max(initial=0.0) > KERNEL_TOL:
            raise MalformedInput("kernel must be Hermitian")
        eigvals = np.linalg.eigvalsh(m)
        if np.abs(eigvals * (eigvals - 1.0)).max(initial=0.0) > KERNEL_TOL:
            raise MalformedInput("kernel must be idempotent")
        trace = float(np.trace(m).real)
        if rank is None:
            rank = round(trace)
        if abs(trace - rank) > 1e-8 * max(1, m.shape[0]):
            raise MalformedInput(f"trace {trace} does not match rank {rank}")
        diag = np.diag(m).real
        if diag.min(initial=0.0) < -KERNEL_TOL or diag.max(initial=0.0) > 1 + KERNEL_TOL:
            raise MalformedInput("kernel diagonal must lie in [0, 1]")
        m.setflags(write=False)
        self.__dict__.update(matrix=m, rank=int(rank))  # frozen: bypass setattr

    @classmethod
    def _of(cls, matrix: np.ndarray, rank: int) -> "ProjectionKernel":
        """Kernel of a projector the library formed itself, unchecked."""
        matrix.setflags(write=False)
        kernel = cls.__new__(cls)
        kernel.__dict__.update(matrix=matrix, rank=rank)
        return kernel

    @classmethod
    def from_frame(cls, frame: np.ndarray) -> "ProjectionKernel":
        """Kernel qq^H projecting onto the span of orthonormal columns q, checked in O(n r^2)."""
        q = np.asarray(frame)
        q = q.astype(np.result_type(q, float), copy=False)
        if q.ndim != 2:
            raise ValueError("frame must be a matrix")
        if not np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) <= KERNEL_TOL:
            raise ValueError("frame must be orthonormal")  # NaN entries fail too
        return cls._of(q @ q.conj().T, q.shape[1])

    @classmethod
    def complement_of(cls, x: np.ndarray, basis: np.ndarray) -> "ProjectionKernel":
        """Kernel I - QQ^H onto the complement of a weight-free basis, in the omega
        basis at weights x: Q = weighted_frame(x, basis).  Every library kernel is
        one; a frame that fails from_frame's check raises NumericDegeneracy."""
        try:
            complement = cls.from_frame(weighted_frame(x, basis))
        except ValueError as exc:
            raise NumericDegeneracy(f"complement frame: {exc}") from exc
        return complement.complement()

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "ProjectionKernel":
        """Kernel I - K of the complement process, of rank n - r."""
        m = np.negative(self.matrix)
        m[np.diag_indices(self.size)] += 1.0
        return ProjectionKernel._of(m, self.size - self.rank)

    def to_json(self) -> str:
        pairs = [[float(z.real), float(z.imag)] for z in self.matrix.ravel()]
        return json.dumps({"basis": "omega", "rank": self.rank, "matrix": pairs})

    @staticmethod
    def from_json(text: str) -> "ProjectionKernel":
        payload = json.loads(text)
        if not (isinstance(payload, dict) and type(payload.get("rank")) is int):
            raise MalformedInput("kernel JSON must be an object with an integer rank")
        m = _complex_pairs(payload.get("matrix"), 1, "kernel matrix")  # a real kernel stays real
        n = round(len(m) ** 0.5)
        if len(m) != n * n:
            raise MalformedInput(f"kernel matrix needs n*n [re, im] pairs, got {len(m)}")
        return ProjectionKernel(m.reshape(n, n), payload["rank"])


def sample(kernel: ProjectionKernel, seed: int) -> frozenset[int]:
    """One exact sample, deterministic in the seed."""
    return sample_batch(kernel, seed, 1)[0]


def sample_batch(kernel: ProjectionKernel, seed: int, count: int) -> list[frozenset[int]]:
    """Independent samples from seeds seed, seed+1, ..., seed+count-1.

    Chain rule on the kernel K (Hough-Krishnapur-Peres-Virag 2006; DPPy's
    Gram-Schmidt sampler): draw i with probability proportional to the
    conditional diagonal `norms`, which start at diag(K); append
    c = (K[i] - C[i]^* C^T) / sqrt(c_i) to C and subtract |c|^2 from the
    norms.  K is the kernel's cached `matrix`, one n x n BLAS-3 product per
    kernel, so a step reads one row of it and does O(n step) work, vectorized
    over the batch.  Sample i reads the Philox stream (seed + i, TAG_SAMPLER)
    exactly as sample(seed + i) does and repeats its arithmetic, so the two
    agree.  A negative count raises MalformedInput.
    """
    if count < 0:
        raise MalformedInput(f"sample count needs a nonnegative value, got {count}")
    # the Gram-Schmidt columns of one sample: rank x size entries of the kernel's dtype
    per = max(1, _BATCH_BYTES // max(kernel.rank * kernel.size * kernel.matrix.itemsize, 1))
    return [s for lo in range(0, count, per)
            for s in _chain_rule(kernel, seed + lo, min(per, count - lo))]


def _chain_rule(kernel: ProjectionKernel, seed: int, count: int) -> list[frozenset[int]]:
    k, r, n = kernel.matrix, kernel.rank, kernel.size
    # r uniforms per sample, one per step, from the sample's own Philox stream
    uniforms = np.empty((count, r))
    for b in range(count):
        _rng.stream(seed + b, _rng.TAG_SAMPLER).random(out=uniforms[b])
    norms = np.tile(np.diag(k).real, (count, 1))
    # C^T, one Gram-Schmidt column per step.  K is Hermitian, so its rows are
    # the conjugated columns: C holds the conjugates of the column recursion's
    # vectors, with the same pivots and norms
    cols = np.empty((count, r, n), dtype=k.dtype)
    chosen = np.empty((count, r), dtype=np.intp)
    rows = np.arange(count)
    is_complex = np.iscomplexobj(k)
    for step in range(r):
        probs = np.minimum(norms, 1.0)
        probs[probs < PROB_FLOOR] = 0.0
        total = probs.sum(axis=1)
        if not (total > 0.0).all():  # a NaN total fails too
            raise NumericDegeneracy("projector drift exhausted the diagonal")
        probs /= total[:, None]
        idx = _rng.categorical(uniforms[:, step], probs)
        chosen[:, step] = idx
        left = cols[rows, :step, idx]
        if is_complex:
            np.conjugate(left, out=left)
        # stacked (1 x step) @ (step x n) products: each sample's arithmetic
        # is the same whatever the batch size
        c = k[idx]
        c -= (left[:, None, :] @ cols[:, :step, :])[:, 0, :]
        c /= np.sqrt(c[rows, idx].real)[:, None]
        cols[:, step, :] = c
        norms -= c.real ** 2 + c.imag ** 2 if is_complex else c ** 2
        norms[rows, idx] = 0.0  # chosen rows only decrease from here, so stay excluded
    return [frozenset(row) for row in chosen.tolist()]


def _in_range(kernel: ProjectionKernel, indices) -> np.ndarray:
    """The indices as an integer array; MalformedInput unless each is an integer
    in range(size), where numpy would wrap a negative one."""
    idx = np.asarray(indices)
    bad = idx[(idx < 0) | (idx >= kernel.size)] if idx.dtype.kind in "iu" else idx
    if bad.size:
        raise MalformedInput(f"indices must be integers in range({kernel.size}), "
                             f"got {bad.ravel().tolist()[0]!r}")
    return idx.astype(np.intp, copy=False)


def density(kernel: ProjectionKernel, subsets) -> float | np.ndarray:
    """P(X = subset) for a subset of size rank: a principal minor.

    An (N, rank) array of subsets, one per row, gives the N densities as an
    array from one stacked determinant, each equal to the value its row gives
    alone.  The caller bounds N: the minors take N rank^2 matrix entries.
    """
    stacked = np.ndim(subsets) == 2
    idx = _in_range(kernel, np.sort(subsets, axis=1) if stacked else sorted(subsets))
    if idx.shape[-1] != kernel.rank or np.any(idx[..., 1:] == idx[..., :-1]):
        raise ValueError(f"density needs exactly rank={kernel.rank} distinct indices")
    if not stacked:
        return inclusion_probability(kernel, idx)
    minors = kernel.matrix[idx[:, :, None], idx[:, None, :]]
    return np.maximum(np.linalg.det(minors).real, 0.0)


def inclusion_probability(kernel: ProjectionKernel, subset) -> float:
    """P(subset included in X): principal minor on the subset."""
    idx = _in_range(kernel, sorted(subset))
    if not idx.size:
        return 1.0
    minor = kernel.matrix[np.ix_(idx, idx)]
    return max(float(np.linalg.det(minor).real), 0.0)


def generating_function(kernel: ProjectionKernel, y: np.ndarray) -> float:
    """E[prod_{i in X} y_i] = det(id + (diag(y) - id) K)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (kernel.size,):
        raise ValueError("one weight per index required")
    m = np.eye(kernel.size) + (y - 1.0)[:, None] * kernel.matrix
    return float(np.linalg.det(m).real)


def condition_inside(kernel: ProjectionKernel, allowed) -> ProjectionKernel:
    """Kernel of the process conditioned on avoiding the complement of `allowed`.

    The result is a projection kernel on the same index set whose samples
    almost surely stay inside `allowed`; it equals the orthogonal projection
    onto the compression of the range to the allowed coordinates.
    """
    allowed = _in_range(kernel, sorted(set(allowed)))
    # P K = (P Q) Q^H for a range frame Q: the singular values of P Q, and zeros
    restricted = np.zeros_like(kernel.matrix)
    restricted[allowed, :] = kernel.matrix[allowed, :]
    q = orthonormalize(restricted)
    if q.shape[1] != kernel.rank:
        raise ImpossibleCondition(
            "the process cannot stay inside the allowed set")
    return ProjectionKernel.from_frame(q)
