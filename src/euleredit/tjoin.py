"""Minimum T-joins in the operation graph of an undirected instance.

The operation graph holds one edge per permitted atomic modification: every
vertex pair under addition+deletion, only the non-edges under addition
alone.  A minimum T-join there is found by the classical reduction: BFS
distances between T-vertices, a minimum-weight perfect matching of T under
those distances, and the symmetric difference of the matched shortest
paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, OperationSet, components
from .matching import (
    FORBIDDEN,
    WeightedCompleteGraph,
    min_weight_perfect_matching,
)


@dataclass(frozen=True)
class OperationGraph:
    """The graph G_S of permitted single modifications."""

    base: Graph


@dataclass(frozen=True)
class TJoin:
    """An edge set whose odd-degree vertices are a prescribed set T."""

    edges: frozenset[tuple[int, int]]

    def odd_vertices(self) -> frozenset[int]:
        degree: dict[int, int] = {}
        for u, v in self.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        return frozenset(v for v, d in degree.items() if d % 2)

    @property
    def size(self) -> int:
        return len(self.edges)


def build_gs(g: Graph, s: OperationSet) -> OperationGraph:
    if s is OperationSet.ADD:
        return OperationGraph(g.complement())
    return OperationGraph(Graph.complete(g.n))


def _bfs(base: Graph, source: int) -> tuple[list[int], list[int]]:
    """Distances and deterministic BFS parents from ``source``.

    Parent of v is the smallest-index neighbor of v at distance dist[v]-1.
    """
    n = base.n
    dist = [-1] * n
    parent = [-1] * n
    dist[source] = 0
    queue = deque([source])
    adj = base.adjacency
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
            elif dist[w] == dist[u] + 1 and u < parent[w]:
                parent[w] = u
    return dist, parent


def min_t_join(gs: OperationGraph, t_set: frozenset[int] | set[int]) -> TJoin | None:
    """A minimum-cardinality T-join of ``gs.base``, or None if none exists.

    A T-join exists iff every component of the base graph contains an even
    number of T-vertices.
    """
    base = gs.base
    terminals = sorted(t_set)
    if len(terminals) % 2:
        return None
    for comp in components(base):
        if len(comp & set(terminals)) % 2:
            return None
    if not terminals:
        return TJoin(frozenset())
    if len(terminals) == 2 and base.has_edge(*terminals):
        return TJoin(frozenset({tuple(terminals)}))

    dists: dict[int, list[int]] = {}
    parents: dict[int, list[int]] = {}
    for s in terminals:
        dists[s], parents[s] = _bfs(base, s)

    k = len(terminals)
    weight = {}
    for i in range(k):
        for j in range(i + 1, k):
            d = dists[terminals[i]][terminals[j]]
            weight[(i, j)] = FORBIDDEN if d == -1 else d
    matching = min_weight_perfect_matching(WeightedCompleteGraph(k, weight))
    assert matching is not None  # existence was checked per component

    join: set[tuple[int, int]] = set()
    for i, j in matching.edges:
        s = terminals[i]
        v = terminals[j]
        parent = parents[s]
        while v != s:
            u = parent[v]
            e = (u, v) if u < v else (v, u)
            join.symmetric_difference_update({e})
            v = u
    return TJoin(frozenset(join))
