"""Projection determinantal point processes on a finite index set.

A kernel is the orthogonal projection onto the span of an orthonormal frame,
in an orthonormal basis indexed by the ground set (for graphs: the omega
basis over positive edges).  Samples always have exactly rank(K) points;
densities of full-rank subsets are principal minors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as _rng
from .errors import ImpossibleCondition, MalformedInput, NumericDegeneracy
from .linalg import _complex_pairs, orthonormalize

KERNEL_TOL = 1e-10
PROB_FLOOR = 1e-14
_BATCH_BYTES = 1 << 26  # bound on the per-batch Gram-Schmidt columns of sample_batch


@dataclass(frozen=True, eq=False)
class ProjectionKernel:
    """Orthogonal projection onto the span of an orthonormal frame (n x rank).

    The frame is the one representation, real or complex as it was given;
    the dense Hermitian idempotent `matrix` = frame @ frame^H, of the same
    dtype, is formed on first use (minors, JSON).
    """

    frame: np.ndarray
    rank: int

    def __init__(self, matrix: np.ndarray, rank: int | None = None):
        """Kernel of a dense projector from outside the library (JSON, user code).

        One O(n^3) eigh, real for a real matrix, validates it (MalformedInput
        otherwise) and yields the frame; library kernels use from_frame.
        """
        m = np.array(matrix)
        m = m.astype(np.result_type(m, float), copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MalformedInput("kernel must be square")
        if not np.all(np.isfinite(m)):
            raise MalformedInput("kernel entries must be finite")
        if np.abs(m - m.conj().T).max(initial=0.0) > KERNEL_TOL:
            raise MalformedInput("kernel must be Hermitian")
        eigvals, eigvecs = np.linalg.eigh(m)
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
        frame = eigvecs[:, eigvals > 0.5]
        for a in (m, frame):
            a.setflags(write=False)
        self.__dict__.update(frame=frame, rank=int(rank), matrix=m)  # frozen: bypass setattr

    @classmethod
    def from_frame(cls, frame: np.ndarray) -> "ProjectionKernel":
        """Kernel projecting onto the span of orthonormal columns, checked in O(n r^2)."""
        q = np.array(frame)
        q = q.astype(np.result_type(q, float), copy=False)
        if q.ndim != 2:
            raise ValueError("frame must be a matrix")
        if not np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) <= KERNEL_TOL:
            raise ValueError("frame must be orthonormal")  # NaN entries fail too
        q.setflags(write=False)
        kernel = cls.__new__(cls)
        kernel.__dict__.update(frame=q, rank=q.shape[1])
        return kernel

    @cached_property
    def matrix(self) -> np.ndarray:
        m = self.frame @ self.frame.conj().T
        m.setflags(write=False)
        return m

    @property
    def size(self) -> int:
        return self.frame.shape[0]

    def complement(self) -> "ProjectionKernel":
        """Kernel of the complement process: the last n - r columns of a complete QR."""
        q = np.linalg.qr(self.frame, mode="complete")[0]
        return ProjectionKernel.from_frame(q[:, self.rank:])

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

    Chain rule on the frame V (Hough-Krishnapur-Peres-Virag 2006; DPPy's
    Gram-Schmidt sampler): draw i with probability proportional to the
    conditional diagonal `norms`, append c = (V V[i]^H - C C[i]^H) / sqrt(c_i)
    to C, subtract |c|^2 from the norms.  O(n r) per step, vectorized over the
    batch; sample i reads the Philox stream (seed + i, TAG_SAMPLER) exactly as
    sample(seed + i) does and repeats its arithmetic, so the two agree.
    """
    # the Gram-Schmidt columns of one sample take as many bytes as the frame
    per = max(1, _BATCH_BYTES // max(kernel.frame.nbytes, 1))
    return [s for lo in range(0, count, per)
            for s in _chain_rule(kernel.frame, seed + lo, min(per, count - lo))]


def _chain_rule(v: np.ndarray, seed: int, count: int) -> list[frozenset[int]]:
    n, r = v.shape
    # r uniforms per sample, one per step, from the sample's own Philox stream
    uniforms = np.array([_rng.stream(seed + b, _rng.TAG_SAMPLER).random(r)
                         for b in range(count)])
    norms = np.tile((np.abs(v) ** 2).sum(axis=1), (count, 1))
    cols = np.empty((count, r, n), dtype=v.dtype)  # C^T, one Gram-Schmidt column per step
    chosen = np.empty((count, r), dtype=np.intp)
    rows = np.arange(count)
    for step in range(r):
        probs = np.minimum(norms, 1.0)
        probs[probs < PROB_FLOOR] = 0.0
        total = probs.sum(axis=1)
        if np.any(total <= 0.0):
            raise NumericDegeneracy("projector drift exhausted the diagonal")
        probs /= total[:, None]
        idx = _rng.categorical(uniforms[:, step], probs)
        chosen[:, step] = idx
        # stacked (1 x r) @ (r x n) products: each sample's arithmetic is
        # the same whatever the batch size
        c = (v[idx].conj()[:, None, :] @ v.T
             - cols[rows, :step, idx].conj()[:, None, :] @ cols[:, :step, :])[:, 0, :]
        c /= np.sqrt(c[rows, idx].real)[:, None]
        cols[:, step, :] = c
        norms -= c.real ** 2 + c.imag ** 2 if np.iscomplexobj(c) else c ** 2
        norms[rows, idx] = 0.0  # chosen rows only decrease from here, so stay excluded
    return [frozenset(int(j) for j in chosen[b]) for b in range(count)]


def density(kernel: ProjectionKernel, subset) -> float:
    """P(X = subset) for a subset of size rank: a principal minor."""
    idx = sorted(subset)
    if len(idx) != kernel.rank or len(set(idx)) != len(idx):
        raise ValueError(f"density needs exactly rank={kernel.rank} distinct indices")
    return inclusion_probability(kernel, idx)


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
    frame = kernel.frame
    restricted = np.zeros_like(frame)
    restricted[allowed, :] = frame[allowed, :]
    q = orthonormalize(restricted)
    if q.shape[1] != kernel.rank:
        raise ImpossibleCondition(
            "the process cannot stay inside the allowed set")
    return ProjectionKernel.from_frame(q)
