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
import math
import os
from dataclasses import dataclass, field, fields
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


# bound on the bytes of the largest per-block array of a stacked scan: the
# root-chain table of the topology pass, or the matrices of one stacked minor
_BLOCK_BYTES = 1 << 20


def subset_blocks(num_items: int, size: int, row_bytes: int):
    """The size-subsets of range(num_items) in lexicographic order, in (N, size)
    blocks of at most _BLOCK_BYTES // row_bytes rows: the one scan of every
    exhaustive check, of edges or matroid elements.  At least one, maybe empty."""
    per = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    if not 0 <= size <= num_items:
        yield np.zeros((0, 0), dtype=np.intp)
        return
    total = math.comb(num_items, size)
    flat = itertools.chain.from_iterable(itertools.combinations(range(num_items), size))
    for offset in range(0, total, per):
        rows = min(per, total - offset)
        yield np.fromiter(flat, dtype=np.intp, count=rows * size).reshape(rows, size)


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
    # the min-index spanning tree, full_mask()._forest: the connectivity check's joins
    _forest: tuple[int, ...] = field(init=False, repr=False)

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
        forest = ()
        if len(edges) >= num_vertices - 1:  # fewer cannot connect: no union-find allocated
            uf = _UnionFind(num_vertices)
            forest = tuple(i for i, e in enumerate(edges) if uf.union(*e))
        if len(forest) < num_vertices - 1:
            raise ValueError("graph must be connected")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_forest", forest)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def betti_1(self) -> int:
        return self.num_edges - self.num_vertices + 1

    @cached_property
    def ends(self) -> np.ndarray:
        """(|E|, 2) read-only array of the (tail, head) of each edge: the one
        array the graph keeps besides its weights, so it holds O(|E|) state."""
        ends = np.array(self.edges, dtype=np.intp).reshape(self.num_edges, 2)
        ends.setflags(write=False)
        return ends

    @property
    def coboundary(self) -> np.ndarray:
        """Matrix of the differential on vertex functions, in the dual edge basis:
        row e is head(e) - tail(e), 0 for a loop.  Formed on each read, a fresh
        array; a call that needs it twice reads it once."""
        v = np.arange(self.num_vertices)
        return (self.ends[:, 1:] == v).astype(int) - (self.ends[:, :1] == v)

    @property
    def boundary(self) -> np.ndarray:
        """Boundary matrix: column of edge e is head(e) - tail(e); 0 for loops.
        The transpose of a fresh coboundary."""
        return self.coboundary.T

    def inverted_weights(self) -> "WeightedGraph":
        return WeightedGraph(self.num_vertices, self.edges, 1.0 / self.weights)

    def mask(self, edge_indices: Iterable[int]) -> "SubgraphMask":
        return SubgraphMask(self, frozenset(int(i) for i in edge_indices))

    def full_mask(self) -> "SubgraphMask":
        return self.mask(range(self.num_edges))

    def to_json(self) -> str:
        return json.dumps({"num_vertices": self.num_vertices, "edges": [
            {"tail": t, "head": h, "weight": float(w)}
            for (t, h), w in zip(self.edges, self.weights)]})

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

    @property
    def component_b1(self) -> tuple[int, ...]:
        """First Betti number of each component: its edges outside the forest."""
        b1 = [0] * self.b0
        for i in self.edge_set.difference(self._forest):
            b1[self.labels[self.graph.edges[i][0]]] += 1
        return tuple(b1)

    def topology(self) -> "SubsetTopology":
        """This mask as a one-row SubsetTopology, from its own union-find and forest."""
        g, dtype = self.graph, _index_dtype(self.graph)
        indices = self.indices
        return SubsetTopology(
            subsets=np.array([indices], dtype=dtype),
            labels=np.array([self.labels], dtype=dtype),
            b0=np.array([self.b0], dtype=dtype), b1=np.array([self.b1], dtype=dtype),
            component_b1=np.array([self.component_b1 + (0,) * (g.num_vertices - self.b0)],
                                  dtype=dtype),
            forest=np.array([[i in self._forest for i in indices]], dtype=bool),
            cycles=cycle_space_basis(g, within=self).T[None].astype(np.int8))


def _index_dtype(g: WeightedGraph) -> np.dtype:
    """Smallest signed integer type holding every vertex and edge count of g."""
    return np.min_scalar_type(-max(g.num_vertices, g.num_edges) - 1)


@dataclass(frozen=True, eq=False)
class SubsetTopology:
    """Integer topology of a stack of edge subsets, one row per subset.

    Row n is what SubgraphMask(g, subsets[n]) computes: labels numbered by
    smallest vertex, b0 and b1, the first Betti number of each component by
    label (zero past b0), the flags of the min-index spanning forest over the
    row's edges, and cycles[n, :b1[n]], the transposed columns of
    cycle_space_basis(g, within=mask), zero past b1[n].
    """

    subsets: np.ndarray       # (N, s) ascending edge indices
    labels: np.ndarray        # (N, |V|)
    b0: np.ndarray            # (N,)
    b1: np.ndarray            # (N,)
    component_b1: np.ndarray  # (N, |V|)
    forest: np.ndarray        # (N, s) bool
    cycles: np.ndarray        # (N, c, |E|) int8, c at least the largest b1

    def __len__(self) -> int:
        return len(self.subsets)

    def take(self, rows) -> "SubsetTopology":
        """The stack of the selected rows (a boolean mask or indices), its
        cycles cut to the largest b1 among them."""
        width = int(self.b1[rows].max(initial=0))
        return SubsetTopology(cycles=self.cycles[rows, :width], **{
            f.name: getattr(self, f.name)[rows] for f in fields(self) if f.name != "cycles"})

    @staticmethod
    def concatenate(parts: Sequence["SubsetTopology"]) -> "SubsetTopology":
        """One stack of the rows of all parts in order; cycles padded with zero chains."""
        width = max(p.cycles.shape[1] for p in parts)
        cycles = [np.pad(p.cycles, ((0, 0), (0, width - p.cycles.shape[1]), (0, 0)))
                  for p in parts]
        return SubsetTopology(cycles=np.concatenate(cycles), **{
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(SubsetTopology) if f.name != "cycles"})


def subset_topology(g: WeightedGraph, subsets: np.ndarray) -> SubsetTopology:
    """Topology of every row of an (N, s) array of ascending edge subsets.

    The stacked form of a mask's union-find, in integers only and one step
    per edge position.  Labels start as the vertices and merge to the smaller
    label, so each ends as its component's smallest vertex; an edge that joins
    two labels is a forest edge.  root[n, v] is the forest chain from the root
    of v's component to v, so a non-forest edge e closes the fundamental cycle
    e + root[tail] - root[head], the one chain of e and forest edges that is a
    cycle; a joining edge re-roots the side with the larger label, adding that
    same chain to it, negated when that side holds the tail.  At the end,
    root[n] is the forest path matrix T of _forest_paths for the row's forest,
    each column placed at its forest edge: T in its one-row form.  The cost is
    N s |V| |E| int8 operations, for small graphs only: a single large mask
    takes its union-find.
    """
    subsets = np.asarray(subsets, dtype=np.intp)
    n, s = subsets.shape
    nv, ne = g.num_vertices, g.num_edges
    dtype = _index_dtype(g)
    ends = g.ends
    base = np.arange(n) * nv  # flat index of each row's vertex 0
    labels = np.tile(np.arange(nv, dtype=dtype), (n, 1))
    root = np.zeros((n, nv * ne), dtype=np.int8)  # row n: the chains of its vertices in turn
    chains = root.reshape(n * nv, ne)
    cycles = np.zeros((n, s, ne), dtype=np.int8)
    b1 = np.zeros(n, dtype=dtype)
    forest = np.zeros((n, s), dtype=bool)
    for j in range(s):
        e = subsets[:, j]
        tail, head = base + ends[e, 0], base + ends[e, 1]
        lt, lh = labels.ravel().take(tail), labels.ravel().take(head)
        chain = chains.take(tail, axis=0) - chains.take(head, axis=0)
        chain.ravel()[np.arange(0, n * ne, ne) + e] += 1
        joins = forest[:, j] = lt != lh
        closing = np.flatnonzero(~joins)
        cycles[closing, b1[closing]] = chain[closing]
        b1[closing] += 1
        big = np.where(joins, np.maximum(lt, lh), -1)
        moved = labels == big[:, None]
        sign = np.where(lt == big, -1, 1).astype(np.int8)
        # contiguous (n, |V| |E|) operands: faster than broadcasting over |E|
        step = np.repeat(moved.view(np.int8) * sign[:, None], ne, axis=1)
        step *= np.tile(chain, nv)
        root += step
        np.copyto(labels, np.minimum(lt, lh)[:, None], where=moved)
    first = labels == np.arange(nv)  # each component's smallest vertex
    labels = np.take_along_axis(np.cumsum(first, axis=1, dtype=dtype) - 1, labels, axis=1)
    b0 = first.sum(axis=1, dtype=dtype)
    # the component of each closing edge, counted per row and label
    owner = np.take_along_axis(labels, ends[subsets, 0], axis=1) + base[:, None]
    component_b1 = np.bincount(owner[~forest], minlength=n * nv).reshape(n, nv).astype(dtype)
    return SubsetTopology(subsets.astype(dtype), labels, b0, b1, component_b1, forest, cycles)


def _forest_paths(g: WeightedGraph, forest_edges: Sequence[int]) -> np.ndarray:
    """The forest path matrix T of the ascending forest edges: (|V|, |F|) int8,
    column j for forest_edges[j], row v the forest chain from the root of v's
    tree (its smallest vertex) to v, so that dT[v] = v - root.  One breadth-first
    pass: row v is the row of its parent, plus or minus its parent edge.  Every
    fundamental cycle, cut and flow of the forest is one expression in T."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.num_vertices)]
    for col, e in enumerate(forest_edges):
        t, h = g.edges[e]
        adj[t].append((h, col, 1))
        adj[h].append((t, col, -1))
    paths = np.zeros((g.num_vertices, len(forest_edges)), dtype=np.int8)
    seen = [False] * g.num_vertices
    for root in range(g.num_vertices):  # ascending, so each root is its tree's smallest vertex
        if not seen[root]:
            seen[root] = True
            queue = [root]
            for u in queue:  # the queue grows while it is read
                for v, col, sign in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        paths[v] = paths[u]
                        paths[v, col] = sign
                        queue.append(v)
    return paths


def _cycles(g: WeightedGraph, forest_edges: Sequence[int], paths: np.ndarray,
            closing: Sequence[int]) -> np.ndarray:
    """Fundamental cycles as columns, e + T[tail(e)] - T[head(e)] for each
    closing edge e, which must join two vertices of one tree."""
    out = np.zeros((g.num_edges, len(closing)), dtype=int)
    tails, heads = g.ends[list(closing)].T
    out[list(forest_edges)] = (paths[tails] - paths[heads]).T
    out[list(closing), np.arange(len(closing))] = 1
    return out


def _cuts(g: WeightedGraph, paths: np.ndarray) -> np.ndarray:
    """Fundamental cuts as columns, T[head] - T[tail] over the edges: the
    coboundary of the head side of each forest edge, +1 on that edge."""
    tails, heads = g.ends.T
    return (paths[heads] - paths[tails]).astype(int)


def _tree_paths(g: WeightedGraph, tree: SubgraphMask) -> np.ndarray:
    if not tree.is_spanning_tree():
        raise NotASpanningTree("mask is not a spanning tree")
    return _forest_paths(g, tree._forest)


def fundamental_cycle(g: WeightedGraph, tree: SubgraphMask, e: int) -> np.ndarray:
    """Integer chain of the unique cycle of tree+{e}, oriented by e.

    Zero iff e lies in the tree.  Coefficients are in {-1, 0, +1}.
    """
    paths = _tree_paths(g, tree)
    if e in tree.edge_set:
        return np.zeros(g.num_edges, dtype=int)
    return _cycles(g, tree._forest, paths, [e])[:, 0]


def fundamental_cut(g: WeightedGraph, tree: SubgraphMask, e: int) -> np.ndarray:
    """Integer cochain of the cut determined by removing e from the tree.

    Zero iff e is not in the tree; otherwise the coboundary of the indicator
    of the vertex set on the head side of e.
    """
    paths = _tree_paths(g, tree)
    if e not in tree.edge_set:
        return np.zeros(g.num_edges, dtype=int)
    return _cuts(g, paths[:, [tree._forest.index(e)]])[:, 0]


def min_index_spanning_tree(g: WeightedGraph, within: SubgraphMask | None = None) -> SubgraphMask:
    """Deterministic spanning tree/forest: greedy over ascending edge indices.

    Restricted to `within` if given; spans each component of `within`
    (the whole graph when `within` is None).  The forest the graph or `within` keeps.
    """
    return g.mask((g if within is None else within)._forest)


def cycle_space_basis(g: WeightedGraph, *, within: SubgraphMask | None = None) -> np.ndarray:
    """Integral basis of the cycle space of `within` (default: the graph) as columns.

    The fundamental cycles of its min-index spanning forest, one per remaining
    edge in ascending order, so the signs are reproducible.
    """
    forest = (g if within is None else within)._forest
    edges = range(g.num_edges) if within is None else within.edge_set
    closing = sorted(set(edges).difference(forest))
    return _cycles(g, forest, _forest_paths(g, forest), closing)


def cut_space_basis(g: WeightedGraph, tree: SubgraphMask | None = None) -> np.ndarray:
    """Integral basis of the cut space as columns, one per tree edge in
    ascending order; the min-index tree when no tree is given."""
    if tree is None:
        return _cuts(g, _forest_paths(g, g._forest))
    return _cuts(g, _tree_paths(g, tree))


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
    kept = [i for i, (t, h) in enumerate(g.edges) if labels[t] != labels[h]]
    edges = [(labels[g.edges[i][0]], labels[g.edges[i][1]]) for i in kept]
    return WeightedGraph(forest.b0, edges, g.weights[kept]), kept


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> WeightedGraph:
    """Rows x cols grid: row-major vertex ids, horizontal edges first, tail = smaller id."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    edges = [(v, v + 1) for v in range(rows * cols) if v % cols < cols - 1]
    edges += [(v, v + cols) for v in range(rows * cols - cols)]
    return WeightedGraph(rows * cols, edges, [weight] * len(edges))


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph(n, edges, [weight] * len(edges))
