"""Minimum T-joins in the operation graph of an undirected instance.

The operation graph holds one edge per permitted atomic modification.  Under
addition alone that is the complement of G; under addition+deletion it is
complete, so any pairing of T is a minimum T-join and the ea+ed solvers
never build it.  A minimum T-join of a general graph is found by the
classical reduction: bitset BFS layers from each T-vertex give the
distances, a minimum-weight perfect matching pairs T under those distances,
and the join is the symmetric difference of the matched shortest paths.

Only the distances from each terminal s to the later terminals t > s are
read, so the search from s stops at the layer that holds its farthest later
terminal (``graphs.bfs_layers`` with the later terminals as targets); every
layer before that one is complete, and the shortest paths are walked back
through those layers only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, SolverInvariantError, bfs_layers, components, set_bits
from .matching import WeightedCompleteGraph, min_weight_perfect_matching


@dataclass(frozen=True)
class OperationGraph:
    """The graph G_S of permitted single modifications; built under ea only."""

    base: Graph


@dataclass(frozen=True)
class TJoin:
    """An edge set whose odd-degree vertices are a prescribed set T."""

    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.edges)


def build_gs(g: Graph) -> OperationGraph:
    """The operation graph under addition only: the complement of ``g``."""
    return OperationGraph(g.complement())


def min_t_join(gs: OperationGraph, t_set: frozenset[int] | set[int]) -> TJoin | None:
    """A minimum-cardinality T-join of ``gs.base``, or None if none exists.

    A T-join exists iff every component of the base graph contains an even
    number of T-vertices.
    """
    base = gs.base
    for comp in components(base):
        if len(comp & t_set) % 2:
            return None

    terminals = sorted(t_set)
    index = {s: i for i, s in enumerate(terminals)}
    tmask = sum(1 << s for s in terminals)
    bits = base.adjacency_bits
    k = len(terminals)
    layers, rows, edges = {}, [], []
    for i, s in enumerate(terminals):
        # The distance row of s: terminal t > s sits in the layer d = dist(s, t).
        # A terminal no layer reaches stays None: a FORBIDDEN pair, left out.
        row = [None] * k
        rows.append(row)
        later = (tmask >> s + 1) << s + 1
        layers[s] = bfs_layers(bits, s, later)
        for d, layer in enumerate(layers[s]):
            for t in set_bits(layer & later):
                row[index[t]] = d
        edges += [(i, j, d) for j, d in enumerate(row[i + 1 :], i + 1) if d is not None]
    matching = min_weight_perfect_matching(WeightedCompleteGraph._from_edges(k, edges))
    if matching is None:
        raise SolverInvariantError("no perfect matching of T, yet T-joins exist")

    join: set[tuple[int, int]] = set()
    for i, j in matching.edges:
        s = terminals[i]
        v = terminals[j]
        # Parent of v at distance d: its smallest-index neighbour at d-1.
        for layer in reversed(layers[s][: rows[i][j]]):
            low = bits[v] & layer
            u = (low & -low).bit_length() - 1
            e = (u, v) if u < v else (v, u)
            join.symmetric_difference_update({e})
            v = u
    return TJoin(frozenset(join))
