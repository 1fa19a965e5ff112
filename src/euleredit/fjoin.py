"""Minimum directed f-joins in the directed operation multigraph.

The operation multigraph holds one arc copy per permitted modification:
(u,v) for adding the missing arc (u,v), and — under addition+deletion —
another copy of (u,v) standing for deleting the present arc (v,u).  A
minimum f-join is a minimum-cost flow meeting the supplies f(u)>0 and
demands f(v)<0, each copy a unit-capacity cost-1 arc.  ``min_f_join``
finds it by successive shortest paths, each found by a FIFO label-correcting
search (SPFA) over bitmask rows instead of a residual edge list: a scan
relaxes a vertex's whole row against one bitmask per distance value, in
the order an edge-list SPFA would, so it finds that SPFA's paths.

A scan at distance d needs two masks: the vertices nearer than d, and
those at d + 1 or nearer.  They depend only on the distance labels and d,
and the labels change only where a scan improves a vertex or the sink
re-labels a drained vertex, so each search keeps the masks per d,
complemented, and clears them at exactly those two places.  A scan then
reads the masks it would have rebuilt, and the search pops, scans and
pushes the same vertices in the same order as without the memo.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .graphs import Digraph, OperationSet, set_bits


@dataclass(frozen=True)
class DirectedOperationGraph:
    """The arc multigraph G_S of permitted single modifications.

    Its rows are the only form of G_S: bit v of ``out[u]`` is set when G_S
    has an arc (u,v), and bit v of ``twice[u]`` when it has two copies of
    it.  Which modification a copy stands for is recoverable from the
    instance digraph: a copy of (u,v) means "add (u,v)" when (u,v) is
    missing and "delete (v,u)" otherwise; a doubled arc means both.
    """

    n: int
    out: tuple[int, ...]
    twice: tuple[int, ...]

    @property
    def m(self) -> int:
        """The number of arc copies."""
        return sum(row.bit_count() for row in self.out + self.twice)

    # perfbench/tracer.py reads ``build_gs_directed(...).base.m``; ROADMAP
    # item 1 removes that read, and this alias with it.
    @property
    def base(self) -> "DirectedOperationGraph":
        return self


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
    n = g.n
    present = [0] * n
    reverse = [0] * n
    for u, v in g.arcs:
        present[u] |= 1 << v
        reverse[v] |= 1 << u
    full = (1 << n) - 1
    addable = [full & ~present[u] & ~(1 << u) for u in range(n)]
    if s is not OperationSet.ADD_DELETE:
        return DirectedOperationGraph(n, tuple(addable), (0,) * n)
    return DirectedOperationGraph(
        n,
        tuple(a | r for a, r in zip(addable, reverse)),
        tuple(a & r for a, r in zip(addable, reverse)),
    )


def min_f_join(
    gs: DirectedOperationGraph, f: Mapping[int, int]
) -> DirectedFJoin | None:
    """A minimum-cardinality directed f-join of G_S, or None."""
    if sum(f.values()) != 0:
        return None
    n = gs.n
    source, sink = n, n + 1
    room = list(gs.out)  # room[u]: arcs (u,v) whose flow is below their multiplicity
    back = [0] * n  # back[u]: bit w set when the arc (w,u) carries flow
    flow: dict[tuple[int, int], int] = {}
    left = {v: abs(x) for v, x in f.items()}  # supply or demand not yet routed
    supplying = sum(1 << v for v, x in f.items() if x > 0)
    draining = sum(1 << v for v, x in f.items() if x < 0)  # v -> sink has room
    drained = 0  # v -> sink carries flow, so sink -> v is a residual arc
    # Read only for vertices reached in the current search, so never reset.
    dist = [0] * n
    pre = [0] * n  # u: arc (u,v) forwards; ~u: arc (v,u) backwards; or source

    while supplying:
        # SPFA from the source, whose scan reaches the supplying vertices.  It
        # is never reached again: that would close a negative residual cycle.
        level = {0: supplying}  # level[d]: the vertices at distance d
        # masks[d]: the complements of the vertices at distance below d and
        # at distance d + 1 or below, kept until ``level`` next changes.
        masks: dict[int, tuple[int, int]] = {}
        queue = deque(set_bits(supplying))
        for v in queue:
            dist[v] = 0
            pre[v] = source
        queued = supplying
        sink_dist, sink_pre = n, -1  # n: farther than any path
        while queue:
            u = queue.popleft()
            bit = 1 << u
            queued ^= bit
            if u == sink:
                nearer = 0
                for k, mask in level.items():
                    if k <= sink_dist:
                        nearer |= mask
                hit = drained & ~nearer
                if hit:
                    masks.clear()
                    for k in level:
                        level[k] &= ~hit
                    level[sink_dist] = level.get(sink_dist, 0) | hit
                    for v in set_bits(hit):
                        dist[v] = sink_dist
                        pre[v] = ~sink
                    queue.extend(set_bits(hit & ~queued))
                    queued |= hit
                continue
            d = dist[u]
            if d in masks:
                far, farther = masks[d]
            else:
                nearer = close = 0
                for k, mask in level.items():
                    if k < d:
                        nearer |= mask
                    elif k <= d + 1:
                        close |= mask
                far, farther = masks[d] = ~nearer, ~(nearer | close)
            backward = back[u] & far  # unreached, or at distance >= d
            ahead = room[u] & farther  # unreached, or beyond d + 1
            forward = ahead & ~backward
            if backward or forward:
                masks.clear()
                moved = backward | forward
                for k in level:
                    level[k] &= ~moved
                level[d - 1] = level.get(d - 1, 0) | backward
                level[d + 1] = level.get(d + 1, 0) | forward
                for rest, to, via in ((backward, d - 1, ~u), (forward, d + 1, u)):
                    while rest:
                        low = rest & -rest
                        v = low.bit_length() - 1
                        dist[v] = to
                        pre[v] = via
                        rest ^= low
                # u's residual arcs in edge-list order: (w,u) backwards for
                # w < u, then (u,v) forwards, then (w,u) backwards for w > u.
                lower = backward & (bit - 1)
                for group in (lower, ahead & ~lower, backward & ~lower & ~ahead):
                    rest = group & ~queued
                    while rest:
                        low = rest & -rest
                        queue.append(low.bit_length() - 1)
                        rest ^= low
                queued |= moved
            if draining & bit and d < sink_dist:
                sink_dist, sink_pre = d, u
                if not queued >> sink & 1:
                    queued |= 1 << sink
                    queue.append(sink)
        if sink_pre < 0:
            return None

        # Augment along the path by its smallest residual capacity.
        path = []  # (tail, head, +1 when used forwards, -1 when backwards)
        v, push = sink_pre, left[sink_pre]
        while pre[v] != source:
            p = pre[v]
            a, b, sign = (p, v, 1) if p >= 0 else (v, ~p, -1)
            mult = 1 + (gs.twice[a] >> b & 1)
            push = min(push, mult - flow.get((a, b), 0) if sign > 0 else flow[a, b])
            path.append((a, b, sign))
            v = p if p >= 0 else ~p
        push = min(push, left[v])
        for a, b, sign in path:
            x = flow[a, b] = flow.get((a, b), 0) + sign * push
            saturated = x == 1 + (gs.twice[a] >> b & 1)
            room[a] = room[a] & ~(1 << b) if saturated else room[a] | 1 << b
            back[b] = back[b] | 1 << a if x else back[b] & ~(1 << a)
        left[v] -= push
        left[sink_pre] -= push
        if not left[v]:
            supplying &= ~(1 << v)
        if not left[sink_pre]:
            draining &= ~(1 << sink_pre)
        drained |= 1 << sink_pre

    return DirectedFJoin({arc: flow[arc] for arc in sorted(flow) if flow[arc]})
