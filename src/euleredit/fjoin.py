"""Minimum directed f-joins in the directed operation multigraph.

The operation multigraph holds one arc copy per permitted modification:
(u,v) for adding the missing arc (u,v), and — under addition+deletion —
another copy of (u,v) standing for deleting the present arc (v,u).  A
minimum f-join is a minimum-cost flow meeting the supplies f(u)>0 and
demands f(v)<0, each copy a unit-capacity cost-1 arc.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .graphs import Digraph, GraphError, OperationSet


@dataclass(frozen=True)
class DirectedOperationGraph:
    """The arc multigraph G_S of permitted single modifications.

    Which modification an arc copy stands for is recoverable from the
    instance digraph: a copy of (u,v) means "add (u,v)" when (u,v) is
    missing and "delete (v,u)" otherwise; a doubled arc means both.
    """

    base: Digraph


@dataclass(frozen=True)
class DirectedFJoin:
    """An arc multiset with prescribed out-minus-in balance.

    ``arcs`` maps each used arc to its multiplicity (1 or 2).
    """

    arcs: Mapping[tuple[int, int], int]

    @property
    def size(self) -> int:
        return sum(self.arcs.values())


def build_gs_directed(g: Digraph, s: OperationSet) -> DirectedOperationGraph:
    if g.doubled:
        raise GraphError("instance digraphs must be simple")
    n = g.n
    arcs: set[tuple[int, int]] = set()
    doubled: set[tuple[int, int]] = set()
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            addable = (u, v) not in g.arcs
            deletable = s is OperationSet.ADD_DELETE and (v, u) in g.arcs
            if addable or deletable:
                arcs.add((u, v))
            if addable and deletable:
                doubled.add((u, v))
    return DirectedOperationGraph(Digraph(n, frozenset(arcs), frozenset(doubled)))


class _FlowNetwork:
    """Successive-shortest-paths min-cost max-flow on small integer networks."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.head: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add(self, u: int, v: int, cap: int, cost: int) -> int:
        index = len(self.to)
        self.head[u].append(index)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(index + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return index

    def min_cost_max_flow(self, source: int, sink: int) -> tuple[int, int]:
        total_flow = 0
        total_cost = 0
        infinity = float("inf")
        while True:
            # SPFA: residual arcs may carry cost -1, but no negative cycles.
            dist = [infinity] * self.size
            in_queue = [False] * self.size
            pre = [-1] * self.size
            dist[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                in_queue[u] = False
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and dist[u] + self.cost[e] < dist[v]:
                        dist[v] = dist[u] + self.cost[e]
                        pre[v] = e
                        if not in_queue[v]:
                            in_queue[v] = True
                            queue.append(v)
            if dist[sink] == infinity:
                return total_flow, total_cost
            push = min(
                self.cap[e]
                for e in _path_edges(pre, source, sink, self.to)
            )
            for e in _path_edges(pre, source, sink, self.to):
                self.cap[e] -= push
                self.cap[e ^ 1] += push
            total_flow += push
            total_cost += push * int(dist[sink])


def _path_edges(pre: list[int], source: int, sink: int, to: list[int]):
    v = sink
    while v != source:
        e = pre[v]
        yield e
        v = to[e ^ 1]


def min_f_join(
    gs: DirectedOperationGraph, f: Mapping[int, int]
) -> DirectedFJoin | None:
    """A minimum-cardinality directed f-join of ``gs.base``, or None."""
    f = {v: x for v, x in f.items() if x}
    if sum(f.values()) != 0:
        return None
    if not f:
        return DirectedFJoin({})

    n = gs.base.n
    source, sink = n, n + 1
    net = _FlowNetwork(n + 2)
    arc_edge: dict[tuple[int, int], int] = {}
    for u, v in sorted(gs.base.arcs):
        arc_edge[(u, v)] = net.add(u, v, gs.base.multiplicity((u, v)), 1)
    supply = 0
    for v, x in sorted(f.items()):
        if x > 0:
            net.add(source, v, x, 0)
            supply += x
        else:
            net.add(v, sink, -x, 0)
    flow, _ = net.min_cost_max_flow(source, sink)
    if flow != supply:
        return None

    used = {
        arc: gs.base.multiplicity(arc) - net.cap[e]
        for arc, e in arc_edge.items()
        if gs.base.multiplicity(arc) - net.cap[e] > 0
    }
    return DirectedFJoin(used)
