"""Projection determinantal point processes on a finite index set.

A kernel is a Hermitian idempotent matrix in an orthonormal basis indexed by
the ground set (for graphs: the omega basis over positive edges).  Samples
always have exactly rank(K) points; densities of full-rank subsets are
principal minors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ImpossibleCondition, MalformedInput, NumericDegeneracy
from .linalg import orthonormalize

KERNEL_TOL = 1e-10
PROB_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ProjectionKernel:
    """Hermitian idempotent matrix with its (integer) rank."""

    matrix: np.ndarray
    rank: int

    def __init__(self, matrix: np.ndarray, rank: int | None = None):
        m = np.asarray(matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel must be square")
        if np.abs(m - m.conj().T).max(initial=0.0) > KERNEL_TOL:
            raise ValueError("kernel must be Hermitian")
        if np.abs(m @ m - m).max(initial=0.0) > KERNEL_TOL:
            raise ValueError("kernel must be idempotent")
        trace = float(np.trace(m).real)
        if rank is None:
            rank = round(trace)
        if abs(trace - rank) > 1e-8 * max(1, m.shape[0]):
            raise ValueError(f"trace {trace} does not match rank {rank}")
        diag = np.diag(m).real
        if diag.min(initial=0.0) < -KERNEL_TOL or diag.max(initial=0.0) > 1 + KERNEL_TOL:
            raise ValueError("kernel diagonal must lie in [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", int(rank))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "ProjectionKernel":
        """Kernel of the complement process."""
        return ProjectionKernel(np.eye(self.size) - self.matrix, self.size - self.rank)

    def range_frame(self) -> np.ndarray:
        """Orthonormal basis of the range, as columns."""
        eigvals, eigvecs = np.linalg.eigh(self.matrix)
        frame = eigvecs[:, eigvals > 0.5]
        if frame.shape[1] != self.rank:
            raise NumericDegeneracy("kernel spectrum does not match rank")
        return frame

    def to_json(self) -> str:
        pairs = [[float(z.real), float(z.imag)] for z in self.matrix.ravel()]
        return json.dumps({"basis": "omega", "rank": self.rank, "matrix": pairs})

    @staticmethod
    def from_json(text: str) -> "ProjectionKernel":
        payload = json.loads(text)
        pairs = np.asarray(payload["matrix"], dtype=float)
        n = round(len(pairs) ** 0.5)
        if pairs.shape != (n * n, 2):
            raise MalformedInput(f"kernel matrix needs n*n [re, im] pairs, got {pairs.shape}")
        m = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(n, n)
        return ProjectionKernel(m, payload["rank"])


def sample(kernel: ProjectionKernel, seed: int) -> frozenset[int]:
    """One exact sample, deterministic in the seed.

    Iterative conditional sampling: draw an index with probability
    proportional to the diagonal, project the kernel onto the orthocomplement
    of the chosen coordinate's image, renormalize, repeat rank times.
    """
    gen = _rng.stream(seed, _rng.TAG_SAMPLER)
    a = np.array(kernel.matrix, dtype=complex)
    chosen: list[int] = []
    for _ in range(kernel.rank):
        probs = np.clip(np.diag(a).real, 0.0, 1.0)
        if chosen:
            probs[chosen] = 0.0
        probs[probs < PROB_FLOOR] = 0.0
        total = probs.sum()
        if total <= 0.0:
            raise NumericDegeneracy("projector drift exhausted the diagonal")
        i = _rng.categorical(gen, probs / total)
        chosen.append(i)
        col = a[:, i].copy()
        a -= np.outer(col, a[i, :]) / col[i]
        a = (a + a.conj().T) / 2.0  # renormalize against drift
    return frozenset(chosen)


def sample_batch(kernel: ProjectionKernel, seed: int, count: int,
                 chunk: int = 20000) -> list[frozenset[int]]:
    """Independent samples from seeds seed, seed+1, ..., seed+count-1.

    Vectorized across samples but arithmetically identical to calling
    sample() once per seed: each sample consumes the same Philox stream in
    the same order, so results agree bit for bit.
    """
    out: list[frozenset[int]] = []
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        out.extend(_sample_chunk(kernel, seed + lo, hi - lo))
    return out


def _sample_chunk(kernel: ProjectionKernel, seed: int, count: int) -> list[frozenset[int]]:
    n, r = kernel.size, kernel.rank
    if r == 0 or count == 0:
        return [frozenset() for _ in range(count)]
    uniforms = np.empty((count, r))
    for i in range(count):
        uniforms[i] = _rng.stream(seed + i, _rng.TAG_SAMPLER).random(r)
    a = np.broadcast_to(kernel.matrix, (count, n, n)).copy()
    chosen = np.empty((count, r), dtype=np.intp)
    taken = np.zeros((count, n), dtype=bool)
    rows = np.arange(count)
    for step in range(r):
        probs = np.clip(np.diagonal(a, axis1=1, axis2=2).real, 0.0, 1.0).copy()
        probs[taken] = 0.0
        probs[probs < PROB_FLOOR] = 0.0
        total = probs.sum(axis=1)
        if np.any(total <= 0.0):
            raise NumericDegeneracy("projector drift exhausted the diagonal")
        cdf = np.cumsum(probs / total[:, None], axis=1)
        u = uniforms[:, step] * cdf[:, -1]
        idx = np.minimum((cdf <= u[:, None]).sum(axis=1), n - 1)
        chosen[:, step] = idx
        taken[rows, idx] = True
        col = a[rows, :, idx].copy()
        row = a[rows, idx, :].copy()
        pivot = col[rows, idx]
        a -= (col[:, :, None] * row[:, None, :]) / pivot[:, None, None]
        a = (a + a.conj().swapaxes(1, 2)) / 2.0
    return [frozenset(int(j) for j in chosen[i]) for i in range(count)]


def density(kernel: ProjectionKernel, subset) -> float:
    """P(X = subset) for a subset of size rank: a principal minor."""
    idx = sorted(subset)
    if len(idx) != kernel.rank or len(set(idx)) != len(idx):
        raise ValueError(f"density needs exactly rank={kernel.rank} distinct indices")
    if kernel.rank == 0:
        return 1.0
    minor = kernel.matrix[np.ix_(idx, idx)]
    return max(float(np.linalg.det(minor).real), 0.0)


def inclusion_probability(kernel: ProjectionKernel, subset) -> float:
    """P(subset included in X): principal minor on the subset."""
    idx = sorted(subset)
    if not idx:
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
    allowed = sorted(set(allowed))
    frame = kernel.range_frame()
    restricted = np.zeros_like(frame)
    restricted[allowed, :] = frame[allowed, :]
    q = orthonormalize(restricted)
    if q.shape[1] != kernel.rank:
        raise ImpossibleCondition(
            "the process cannot stay inside the allowed set")
    return ProjectionKernel(q @ q.conj().T, kernel.rank)
