"""Finite weighted graphs with a fixed orientation and edge ordering.

A graph is stored as an ordered list of oriented edges (tail, head) over
vertices 0..n-1, together with strictly positive edge weights.  The edge
order is fixed for the lifetime of the value: every sign convention used by
the rest of the library (fundamental cycles and cuts, wedge coordinates,
planar duality) refers to it.

Integer chains and cochains are plain integer numpy vectors indexed by the
ordered edges.  A chain assigns a coefficient to each oriented edge; a
cochain is a linear functional on chains, written in the dual basis.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import EnumerationCapExceeded, ForestHasCycle, MalformedInput, NotASpanningTree

DEFAULT_ENUM_CAP = 20


def enumeration_cap() -> int:
    """The exhaustive-enumeration cap: DETGRAPH_ENUM_CAP, else DEFAULT_ENUM_CAP."""
    env = os.environ.get("DETGRAPH_ENUM_CAP")
    return int(env) if env else DEFAULT_ENUM_CAP


def check_enumeration_cap(size: int, what: str = "edges") -> None:
    """EnumerationCapExceeded if an exhaustive enumeration over `size` items is above the cap."""
    cap = enumeration_cap()
    if size > cap:
        raise EnumerationCapExceeded(f"{size} {what} exceeds enumeration cap {cap}")


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, u: int) -> int:
        parent = self.parent
        root = u
        while parent[root] != root:
            root = parent[root]
        while parent[u] != root:
            parent[u], u = root, parent[u]
        return root

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[rv] = ru
        return True

    def labels(self) -> tuple[int, ...]:
        """Component label per vertex, labels numbered by smallest member vertex."""
        roots: dict[int, int] = {}
        return tuple(roots.setdefault(self.find(v), len(roots)) for v in range(len(self.parent)))


def components_of(num_vertices: int, edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Component label per vertex, labels numbered by smallest member vertex."""
    uf = _UnionFind(num_vertices)
    for tail, head in edges:
        uf.union(tail, head)
    return uf.labels()


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Connected multigraph with oriented, ordered, positively weighted edges."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]],
                 weights: Sequence[float] | None = None):
        edges = tuple((int(t), int(h)) for t, h in edges)
        if weights is None:
            weights = np.ones(len(edges))
        weights = np.asarray(weights, dtype=float).copy()
        weights.setflags(write=False)
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if len(weights) != len(edges):
            raise ValueError("one weight per edge required")
        if len(edges) and (np.any(weights <= 0) or not np.all(np.isfinite(weights))):
            raise ValueError("edge weights must be finite and strictly positive")
        for t, h in edges:
            if not (0 <= t < num_vertices and 0 <= h < num_vertices):
                raise ValueError(f"edge ({t},{h}) out of vertex range")
        # too few edges to connect: refused before the union-find allocates per vertex
        if len(edges) < num_vertices - 1 or max(components_of(num_vertices, edges)) > 0:
            raise ValueError("graph must be connected")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def betti_1(self) -> int:
        return self.num_edges - self.num_vertices + 1

    @cached_property
    def boundary(self) -> np.ndarray:
        """Boundary matrix: column of edge e is head(e) - tail(e); 0 for loops."""
        d = np.zeros((self.num_vertices, self.num_edges), dtype=int)
        for j, (t, h) in enumerate(self.edges):
            d[h, j] += 1
            d[t, j] -= 1
        return d

    @cached_property
    def coboundary(self) -> np.ndarray:
        """Matrix of the differential on vertex functions, in the dual edge basis."""
        return self.boundary.T.copy()

    def inverted_weights(self) -> "WeightedGraph":
        return WeightedGraph(self.num_vertices, self.edges, 1.0 / self.weights)

    def mask(self, edge_indices: Iterable[int]) -> "SubgraphMask":
        return SubgraphMask(self, frozenset(int(i) for i in edge_indices))

    def full_mask(self) -> "SubgraphMask":
        return self.mask(range(self.num_edges))

    def to_json(self) -> str:
        payload = {
            "num_vertices": self.num_vertices,
            "edges": [
                {"tail": t, "head": h, "weight": float(w)}
                for (t, h), w in zip(self.edges, self.weights)
            ],
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "WeightedGraph":
        payload = json.loads(text)
        try:
            edges = [(e["tail"], e["head"]) for e in payload["edges"]]
            weights = [e.get("weight", 1.0) for e in payload["edges"]]
            num_vertices = payload["num_vertices"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise MalformedInput(
                f"graph JSON needs num_vertices and edges with tail and head: {exc!r}") from exc
        # exact JSON types: a bool is not a vertex and a string is not a weight
        if not (all(type(v) is int for v in (num_vertices, *itertools.chain(*edges)))
                and all(type(w) in (int, float) for w in weights)):
            raise MalformedInput("graph JSON needs integer num_vertices, tail and head "
                                 "and numeric weights")
        return WeightedGraph(num_vertices, edges, weights)


@dataclass(frozen=True, eq=False)
class SubgraphMask:
    """Subset of the positive edges of a graph, with its topology computed once.

    One union-find pass over the edges in ascending index order: the edges
    that join two components form _forest, the min-index spanning forest of
    the mask, and every other edge closes one independent cycle.  labels
    gives the component of each vertex, numbered by smallest member vertex;
    b0 counts connected components including isolated vertices, and
    b0 - b1 = |V| - |edges| always holds.
    """

    graph: WeightedGraph
    edge_set: frozenset[int]
    labels: tuple[int, ...] = field(init=False)
    b0: int = field(init=False)
    b1: int = field(init=False)
    _forest: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        edges = self.graph.edges
        for i in self.edge_set:
            if not (0 <= i < len(edges)):
                raise ValueError(f"edge index {i} out of range")
        uf = _UnionFind(self.graph.num_vertices)
        forest = tuple(i for i in sorted(self.edge_set) if uf.union(*edges[i]))
        labels = uf.labels()
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "b0", max(labels) + 1)
        object.__setattr__(self, "b1", len(self.edge_set) - len(forest))
        object.__setattr__(self, "_forest", forest)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_set))

    def __len__(self) -> int:
        return len(self.edge_set)

    def __contains__(self, i: int) -> bool:
        return i in self.edge_set

    def is_spanning_tree(self) -> bool:
        return self.b0 == 1 and self.b1 == 0

    def is_connected(self) -> bool:
        return self.b0 == 1

    def weight_monomial(self) -> float:
        """Product of the weights of the edges in the mask."""
        return float(np.prod(self.graph.weights[list(self.edge_set)]))  # 1 on no edge

    def _component_b1(self) -> list[int]:
        """First Betti number of each component: its edges outside the forest."""
        b1 = [0] * self.b0
        for i in self.edge_set.difference(self._forest):
            b1[self.labels[self.graph.edges[i][0]]] += 1
        return b1


class _RootedForest:
    """A forest with each component rooted at its smallest vertex.

    For each vertex v, parent_edge[v] is the forest edge from v towards its
    root (-1 at a root), parent[v] the vertex across it and depth[v] the number
    of edges up to the root; order lists the vertices parents first.  Every
    fundamental cycle and cut is read off this one record.
    """

    def __init__(self, g: WeightedGraph, forest_edges: Iterable[int]):
        n = g.num_vertices
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i in forest_edges:
            t, h = g.edges[i]
            adj[t].append((h, i))
            adj[h].append((t, i))
        self.graph, self.order = g, []
        self.parent_edge, self.parent, self.depth = [-1] * n, [-1] * n, [-1] * n
        for root in range(n):  # ascending, so each root is its component's smallest vertex
            if self.depth[root] < 0:
                self.depth[root] = 0
                queue = [root]
                for u in queue:  # breadth first: the queue grows while it is read
                    for v, i in adj[u]:
                        if self.depth[v] < 0:
                            self.parent_edge[v], self.parent[v] = i, u
                            self.depth[v] = self.depth[u] + 1
                            queue.append(v)
                self.order += queue

    def cycles(self, closing: Sequence[int]) -> np.ndarray:
        """Fundamental cycles as columns: each edge e closed by the forest path
        from head(e) back to tail(e).  Every e must join two vertices of one tree."""
        edges, parent, parent_edge = self.graph.edges, self.parent, self.parent_edge
        depth = self.depth
        out = np.zeros((self.graph.num_edges, len(closing)), dtype=int)
        for col, e in enumerate(closing):
            out[e, col] = 1
            v, u = edges[e]
            # climb from both ends to where they meet: the path runs u -> parent[u]
            # on the head side and parent[v] -> v on the tail side
            while u != v:
                if depth[u] >= depth[v]:
                    i = parent_edge[u]
                    out[i, col] = 1 if edges[i][0] == u else -1
                    u = parent[u]
                else:
                    i = parent_edge[v]
                    out[i, col] = -1 if edges[i][0] == v else 1
                    v = parent[v]
        return out

    def _below(self, a: np.ndarray) -> np.ndarray:
        """Row v of the result: the sum of the rows of `a` over the subtree below v."""
        for v in reversed(self.order):  # children first
            if self.parent[v] >= 0:
                a[self.parent[v]] += a[v]
        return a

    def cuts(self, forest_edges: Sequence[int]) -> np.ndarray:
        """Fundamental cuts as columns: the coboundary of the subtree below each
        forest edge, negated where the edge points up, so that it is the
        coboundary of the edge's head side and +1 on the edge."""
        edges = self.graph.edges
        below = self._below(np.eye(self.graph.num_vertices, dtype=int))
        side = below[[v for e in forest_edges for v in edges[e] if self.parent_edge[v] == e]]
        tails, heads = np.array(edges, dtype=int).reshape(-1, 2).T
        cuts = side[:, heads] - side[:, tails]
        return (cuts * cuts[np.arange(len(forest_edges)), list(forest_edges)][:, None]).T

    def flow(self, q: np.ndarray) -> np.ndarray:
        """Chain on the forest edges with boundary q, which must sum to zero on
        each tree: every forest edge carries the charge of its head side."""
        below = self._below(q.copy())
        f = np.zeros(self.graph.num_edges, dtype=q.dtype)
        for v, e in enumerate(self.parent_edge):
            if e >= 0:
                f[e] = below[v] if self.graph.edges[e][1] == v else -below[v]
        return f


def _rooted_tree(g: WeightedGraph, tree: SubgraphMask) -> _RootedForest:
    if not tree.is_spanning_tree():
        raise NotASpanningTree("mask is not a spanning tree")
    return _RootedForest(g, tree.edge_set)


def fundamental_cycle(g: WeightedGraph, tree: SubgraphMask, e: int) -> np.ndarray:
    """Integer chain of the unique cycle of tree+{e}, oriented by e.

    Zero iff e lies in the tree.  Coefficients are in {-1, 0, +1}.
    """
    rooted = _rooted_tree(g, tree)
    return np.zeros(g.num_edges, dtype=int) if e in tree.edge_set else rooted.cycles([e])[:, 0]


def fundamental_cut(g: WeightedGraph, tree: SubgraphMask, e: int) -> np.ndarray:
    """Integer cochain of the cut determined by removing e from the tree.

    Zero iff e is not in the tree; otherwise the coboundary of the indicator
    of the vertex set on the head side of e.
    """
    rooted = _rooted_tree(g, tree)
    return rooted.cuts([e])[:, 0] if e in tree.edge_set else np.zeros(g.num_edges, dtype=int)


def min_index_spanning_tree(g: WeightedGraph, within: SubgraphMask | None = None) -> SubgraphMask:
    """Deterministic spanning tree/forest: greedy over ascending edge indices.

    Restricted to `within` if given; spans each component of `within`
    (the whole graph when `within` is None).  The forest its mask keeps.
    """
    return g.mask((g.full_mask() if within is None else within)._forest)


def cycle_space_basis(g: WeightedGraph, *, within: SubgraphMask | None = None) -> np.ndarray:
    """Integral basis of the cycle space of `within` (default: the graph) as columns.

    The fundamental cycles of its min-index spanning forest, one per remaining
    edge in ascending order, so the signs are reproducible.
    """
    mask = g.full_mask() if within is None else within
    return _RootedForest(g, mask._forest).cycles(sorted(mask.edge_set.difference(mask._forest)))


def cut_space_basis(g: WeightedGraph, tree: SubgraphMask | None = None) -> np.ndarray:
    """Integral basis of the cut space as columns, one per tree edge."""
    if tree is None:
        tree = min_index_spanning_tree(g)
    return _rooted_tree(g, tree).cuts(tree.indices)


def quotient_by_forest(g: WeightedGraph, forest: SubgraphMask) -> tuple[WeightedGraph, list[int]]:
    """Contract an acyclic spanning subgraph.

    Returns the quotient graph (one vertex per component of the forest,
    components numbered by smallest original vertex) and the list of original
    edge indices that survive, in original order.  Edges inside a component,
    including original self-loops, are discarded.
    """
    if forest.b1 != 0:
        raise ForestHasCycle("cannot contract a subgraph containing a cycle")
    labels = forest.labels
    kept: list[int] = []
    edges = []
    weights = []
    for i, (t, h) in enumerate(g.edges):
        if labels[t] != labels[h]:
            kept.append(i)
            edges.append((labels[t], labels[h]))
            weights.append(g.weights[i])
    q = WeightedGraph(forest.b0, edges, weights)
    return q, kept


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> WeightedGraph:
    """Rows x cols grid: row-major vertex ids, horizontal edges first, tail = smaller id."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    edges = []
    for r in range(rows):
        for c in range(cols - 1):
            v = r * cols + c
            edges.append((v, v + 1))
    for r in range(rows - 1):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, v + cols))
    return WeightedGraph(rows * cols, edges, [weight] * len(edges))


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph(n, edges, [weight] * len(edges))
