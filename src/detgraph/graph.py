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


def enumeration_cap(cap: int | None = None) -> int:
    """Resolve the exhaustive-enumeration cap (DETGRAPH_ENUM_CAP overrides)."""
    if cap is not None:
        return cap
    env = os.environ.get("DETGRAPH_ENUM_CAP")
    return int(env) if env else DEFAULT_ENUM_CAP


def check_enumeration_cap(size: int, cap: int | None = None, what: str = "edges") -> None:
    """EnumerationCapExceeded if an exhaustive enumeration over `size` items is above the cap."""
    cap = enumeration_cap(cap)
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


def components_of(num_vertices: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Component label per vertex, labels numbered by smallest member vertex."""
    uf = _UnionFind(num_vertices)
    for tail, head in edges:
        uf.union(tail, head)
    roots: dict[int, int] = {}
    labels = []
    for v in range(num_vertices):
        r = uf.find(v)
        if r not in roots:
            roots[r] = len(roots)
        labels.append(roots[r])
    return labels


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
        labels = components_of(num_vertices, edges)
        if num_vertices > 1 and max(labels) > 0:
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
    """Subset of the positive edges of a graph, with cached Betti numbers.

    b0 counts connected components including isolated vertices, and
    b0 - b1 = |V| - |edges| always holds.
    """

    graph: WeightedGraph
    edge_set: frozenset[int]
    b0: int = field(init=False)
    b1: int = field(init=False)

    def __post_init__(self):
        for i in self.edge_set:
            if not (0 <= i < self.graph.num_edges):
                raise ValueError(f"edge index {i} out of range")
        labels = components_of(
            self.graph.num_vertices,
            (self.graph.edges[i] for i in self.edge_set),
        )
        b0 = max(labels) + 1 if labels else 0
        b1 = len(self.edge_set) - self.graph.num_vertices + b0
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "b1", b1)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_set))

    def __len__(self) -> int:
        return len(self.edge_set)

    def __contains__(self, i: int) -> bool:
        return i in self.edge_set

    def component_labels(self) -> list[int]:
        return components_of(
            self.graph.num_vertices,
            (self.graph.edges[i] for i in self.edge_set),
        )

    def is_spanning_tree(self) -> bool:
        return self.b0 == 1 and self.b1 == 0

    def is_connected(self) -> bool:
        return self.b0 == 1

    def weight_monomial(self) -> float:
        """Product of the weights of the edges in the mask."""
        idx = list(self.edge_set)
        return float(np.prod(self.graph.weights[idx])) if idx else 1.0


def boundary_matrix(g: WeightedGraph) -> np.ndarray:
    """Integer boundary matrix (num_vertices x num_edges)."""
    return g.boundary.copy()


def _tree_adjacency(g: WeightedGraph, tree: SubgraphMask) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for i in tree.edge_set:
        t, h = g.edges[i]
        adj[t].append((h, i))
        adj[h].append((t, i))
    return adj


def _tree_path(g: WeightedGraph, tree: SubgraphMask, start: int, goal: int) -> list[tuple[int, int]]:
    """Edges of the unique tree path start -> goal as (edge index, direction)."""
    if start == goal:
        return []
    adj = _tree_adjacency(g, tree)
    prev: dict[int, tuple[int, int]] = {}
    stack = [start]
    seen = {start}
    while stack:
        u = stack.pop()
        if u == goal:
            break
        for v, i in adj[u]:
            if v not in seen:
                seen.add(v)
                prev[v] = (u, i)
                stack.append(v)
    if goal not in seen:
        raise NotASpanningTree("vertices not connected in the given tree")
    path = []
    v = goal
    while v != start:
        u, i = prev[v]
        tail, head = g.edges[i]
        # traversing u -> v uses the edge forward iff (tail, head) == (u, v)
        path.append((i, 1 if (tail, head) == (u, v) else -1))
        v = u
    path.reverse()
    return path


def _require_spanning_tree(tree: SubgraphMask) -> None:
    if not tree.is_spanning_tree():
        raise NotASpanningTree("mask is not a spanning tree")


def fundamental_cycle(g: WeightedGraph, tree: SubgraphMask, e: int) -> np.ndarray:
    """Integer chain of the unique cycle of tree+{e}, oriented by e.

    Zero iff e lies in the tree.  Coefficients are in {-1, 0, +1}.
    """
    _require_spanning_tree(tree)
    chain = np.zeros(g.num_edges, dtype=int)
    if e in tree.edge_set:
        return chain
    tail, head = g.edges[e]
    chain[e] = 1
    for i, sign in _tree_path(g, tree, head, tail):
        chain[i] += sign
    return chain


def fundamental_cut(g: WeightedGraph, tree: SubgraphMask, e: int) -> np.ndarray:
    """Integer cochain of the cut determined by removing e from the tree.

    Zero iff e is not in the tree; otherwise the coboundary of the indicator
    of the vertex set on the head side of e.
    """
    _require_spanning_tree(tree)
    cochain = np.zeros(g.num_edges, dtype=int)
    if e not in tree.edge_set:
        return cochain
    head = g.edges[e][1]
    rest = SubgraphMask(g, tree.edge_set - {e})
    labels = rest.component_labels()
    side = labels[head]
    for j, (t, h) in enumerate(g.edges):
        cochain[j] = (labels[h] == side) - (labels[t] == side)
    return cochain


def min_index_spanning_tree(g: WeightedGraph, within: SubgraphMask | None = None) -> SubgraphMask:
    """Deterministic spanning tree/forest: greedy over ascending edge indices.

    Restricted to `within` if given; spans each component of `within`
    (the whole graph when `within` is None).  Reproducible by construction.
    """
    pool = range(g.num_edges) if within is None else within.indices
    uf = _UnionFind(g.num_vertices)
    chosen = set()
    for i in pool:
        t, h = g.edges[i]
        if t != h and uf.union(t, h):
            chosen.add(i)
    return SubgraphMask(g, frozenset(chosen))


def cycle_space_basis(g: WeightedGraph, tree: SubgraphMask | None = None) -> np.ndarray:
    """Integral basis of the cycle space as columns, one per non-tree edge."""
    if tree is None:
        tree = min_index_spanning_tree(g)
    _require_spanning_tree(tree)
    cols = [fundamental_cycle(g, tree, e)
            for e in range(g.num_edges) if e not in tree.edge_set]
    return np.array(cols, dtype=int).T.reshape(g.num_edges, -1)


def cut_space_basis(g: WeightedGraph, tree: SubgraphMask | None = None) -> np.ndarray:
    """Integral basis of the cut space as columns, one per tree edge."""
    if tree is None:
        tree = min_index_spanning_tree(g)
    _require_spanning_tree(tree)
    cols = [fundamental_cut(g, tree, e) for e in tree.indices]
    return np.array(cols, dtype=int).T.reshape(g.num_edges, -1)


def enumerate_spanning_trees(g: WeightedGraph, cap: int | None = None) -> list[SubgraphMask]:
    """All spanning trees, by exhaustive check of (|V|-1)-subsets."""
    check_enumeration_cap(g.num_edges, cap)
    k = g.num_vertices - 1
    trees = []
    for combo in itertools.combinations(range(g.num_edges), k):
        uf = _UnionFind(g.num_vertices)
        ok = True
        for i in combo:
            t, h = g.edges[i]
            if t == h or not uf.union(t, h):
                ok = False
                break
        if ok:
            trees.append(SubgraphMask(g, frozenset(combo)))
    return trees


def quotient_by_forest(g: WeightedGraph, forest: SubgraphMask) -> tuple[WeightedGraph, list[int]]:
    """Contract an acyclic spanning subgraph.

    Returns the quotient graph (one vertex per component of the forest,
    components numbered by smallest original vertex) and the list of original
    edge indices that survive, in original order.  Edges inside a component,
    including original self-loops, are discarded.
    """
    if forest.b1 != 0:
        raise ForestHasCycle("cannot contract a subgraph containing a cycle")
    labels = forest.component_labels()
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
