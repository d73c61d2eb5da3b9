"""Sphere embeddings given by explicit face walks, and the dual graph.

A face walk is a cyclic sequence of oriented edges (edge_index, sign) with
sign +1 for the stored orientation and -1 for its reverse.  An embedding is
valid when every oriented edge appears in exactly one walk, every walk is
closed and consecutive, and the face count matches Euler's formula for the
sphere.  The dual graph carries one vertex per face and one edge per primal
edge, indexed identically: dual edge i runs from the face traversing edge i
forward to the face traversing it backward.  With this convention the
coefficientwise transport of a cycle of the primal graph is a cut of the
dual, and conversely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEmbedding
from .graph import WeightedGraph

FaceWalk = tuple[tuple[int, int], ...]


def _endpoints(g: WeightedGraph, step: tuple[int, int]) -> tuple[int, int]:
    i, sign = step
    t, h = g.edges[i]
    return (t, h) if sign == 1 else (h, t)


def validate_embedding(g: WeightedGraph, faces: list[FaceWalk]) -> None:
    if g.num_edges == 0:
        raise InvalidEmbedding("embedding requires at least one edge")
    seen: set[tuple[int, int]] = set()
    for walk in faces:
        if not walk:
            raise InvalidEmbedding("empty face walk")
        for step in walk:
            i, sign = step
            if not (0 <= i < g.num_edges) or sign not in (1, -1):
                raise InvalidEmbedding(f"bad walk step {step}")
            if step in seen:
                raise InvalidEmbedding(f"oriented edge {step} appears twice")
            seen.add(step)
        for a, b in zip(walk, walk[1:] + walk[:1]):
            if _endpoints(g, a)[1] != _endpoints(g, b)[0]:
                raise InvalidEmbedding("face walk is not consecutive")
    if len(seen) != 2 * g.num_edges:
        raise InvalidEmbedding("every oriented edge must appear in exactly one walk")
    if len(faces) != g.num_edges - g.num_vertices + 2:
        raise InvalidEmbedding("face count violates Euler's formula for the sphere")


@dataclass(frozen=True, eq=False)
class PlanarDual:
    """Dual graph, its face walks, and the implicit edge bijection i <-> i."""

    dual: WeightedGraph
    dual_faces: tuple[FaceWalk, ...]


def planar_dual(g: WeightedGraph, faces: list[FaceWalk]) -> PlanarDual:
    """Dual of an embedded graph; weights are copied (invert at the call site).

    The returned dual_faces embed the dual back in the same sphere, so the
    construction can be applied twice; the double dual reproduces the primal
    graph with its original orientation under the identity edge bijection.
    """
    faces = [tuple((int(i), int(s)) for i, s in walk) for walk in faces]
    validate_embedding(g, faces)

    face_of: dict[tuple[int, int], int] = {}
    successor: dict[tuple[int, int], tuple[int, int]] = {}
    for f, walk in enumerate(faces):
        for a, b in zip(walk, walk[1:] + walk[:1]):
            face_of[a] = f
            successor[a] = b

    dual_edges = [(face_of[(i, 1)], face_of[(i, -1)]) for i in range(g.num_edges)]
    dual = WeightedGraph(len(faces), dual_edges, np.array(g.weights))

    # dual face walks: orbits of a -> reverse(successor(a)), one per primal
    # vertex; entry for oriented edge (i, s) is dual oriented edge (i, -s)
    remaining = set(face_of)
    dual_faces: list[FaceWalk] = []
    while remaining:
        start = min(remaining)
        walk = []
        a = start
        while True:
            walk.append((a[0], -a[1]))
            remaining.discard(a)
            nxt = successor[a]
            a = (nxt[0], -nxt[1])
            if a == start:
                break
        dual_faces.append(tuple(walk))
    validate_embedding(dual, dual_faces)
    return PlanarDual(dual, tuple(dual_faces))


def triangle_embedding() -> tuple[WeightedGraph, list[FaceWalk]]:
    """Triangle 0->1->2->0 with its two sphere faces; handy in tests and demos."""
    g = WeightedGraph(3, [(0, 1), (1, 2), (2, 0)])
    faces = [((0, 1), (1, 1), (2, 1)), ((2, -1), (1, -1), (0, -1))]
    return g, faces
