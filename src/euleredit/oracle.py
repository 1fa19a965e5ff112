"""Exhaustive reference solvers for tiny instances.

Every optimum here is found by enumerating candidate edited graphs as
bitmasks, sharing no logic with the real solvers.  For one graph all
2^(edit universe) candidates are scanned once and the best edit size is
recorded per degree-parity / degree-balance signature; the tables of the
last 16 graphs are cached, enough for sweeps that take one graph at a time.
The matching oracles at the end check the blossom engine the same way, by
DP over vertex subsets, sharing no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .fjoin import DirectedOperationGraph
from .graphs import Digraph, Graph, OperationSet, set_bits
from .matching import Matching, WeightedCompleteGraph


@dataclass(frozen=True)
class OracleBudget:
    """Maximum edit size the enumeration reports."""

    kmax: int

    def __post_init__(self) -> None:
        if self.kmax < 0:
            raise ValueError("kmax must be non-negative")


_INF = 999


# ---------------------------------------------------------------------------
# Undirected: CDPE / DPE.


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def _mask_connected(n: int, pairs, mask: int) -> bool:
    """Whether the pairs picked by ``mask`` connect all n vertices (weakly)."""
    adj = [0] * n
    i = 0
    m = mask
    while m:
        if m & 1:
            u, v = pairs[i]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        m >>= 1
        i += 1
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


@lru_cache(maxsize=None)
def _undirected_tables(n: int):
    """Per edge-mask: degree-parity signature, connectivity, popcount."""
    pairs = _pairs(n)
    e = len(pairs)
    size = 1 << e
    idx = np.arange(size, dtype=np.uint32)
    parity = np.zeros(size, dtype=np.uint16)
    pop = np.zeros(size, dtype=np.uint8)
    for i, (u, v) in enumerate(pairs):
        hit = (idx >> i) & 1 == 1
        parity[hit] ^= (1 << u) | (1 << v)
        pop[hit] += 1
    conn = np.fromiter(
        (_mask_connected(n, pairs, m) for m in range(size)), dtype=bool, count=size
    )
    return parity, conn, pop


def _graph_mask(g: Graph) -> int:
    index = {pair: i for i, pair in enumerate(_pairs(g.n))}
    mask = 0
    for e in g.edges:
        mask |= 1 << index[e]
    return mask


@lru_cache(maxsize=16)
def _parity_best(n: int, gmask: int, add_only: bool, connected: bool):
    """Min edit size per parity signature, over all candidate graphs H."""
    parity, conn, pop = _undirected_tables(n)
    h = np.arange(1 << len(_pairs(n)), dtype=np.uint32)
    if add_only:
        valid = (h & gmask) == gmask
        cost = pop.astype(np.int16) - bin(gmask).count("1")
    else:
        valid = np.ones(len(h), dtype=bool)
        cost = pop[h ^ gmask].astype(np.int16)
    if connected:
        valid = valid & conn
    best = np.full(1 << n, _INF, dtype=np.int16)
    np.minimum.at(best, parity[valid], cost[valid])
    return best


def oracle_cdpe(
    inst, s: OperationSet, b: OracleBudget, connected: bool = True
) -> int | None:
    """Smallest edit size achieving the parity targets, or None."""
    g = inst.graph
    if g.n > 6:
        raise ValueError("oracle_cdpe supports n <= 6")
    if g.n == 0:
        raise ValueError("empty graph")
    best = _parity_best(g.n, _graph_mask(g), s is OperationSet.ADD, connected)
    key = sum(inst.delta[v] << v for v in range(g.n))
    value = int(best[key])
    return None if value > b.kmax else value


@lru_cache(maxsize=16)
def _tjoin_best(gs: Graph):
    edges = sorted(gs.edges)
    size = 1 << len(edges)
    idx = np.arange(size, dtype=np.uint32)
    odd = np.zeros(size, dtype=np.uint16)
    pop = np.zeros(size, dtype=np.uint8)
    for i, (u, v) in enumerate(edges):
        hit = (idx >> i) & 1 == 1
        odd[hit] ^= (1 << u) | (1 << v)
        pop[hit] += 1
    best = np.full(1 << gs.n, _INF, dtype=np.int16)
    np.minimum.at(best, odd, pop.astype(np.int16))
    return best


def oracle_min_t_join(gs: Graph, t_set) -> int | None:
    """Minimum |J| over J subsets of E(gs) with odd-degree set exactly T."""
    if gs.m > 20:
        raise ValueError("oracle_min_t_join supports at most 20 edges")
    value = int(_tjoin_best(gs)[sum(1 << v for v in t_set)])
    return None if value >= _INF else value


# ---------------------------------------------------------------------------
# Directed: CDBE / DBE.


@lru_cache(maxsize=None)
def _arcs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(n) if u != v)


def _balance_key(n: int, values: Mapping[int, int] | list | tuple) -> int:
    # One nibble per vertex, offset 8; |balance| <= n-1 <= 7 so no carries.
    key = 0
    for v in range(n):
        key |= (values[v] + 8) << (4 * v)
    return key


@lru_cache(maxsize=None)
def _directed_tables(n: int):
    """Per arc-mask: packed balance signature, weak connectivity, popcount."""
    arcs = _arcs(n)
    a = len(arcs)
    size = 1 << a
    idx = np.arange(size, dtype=np.uint32)
    packed = np.full(size, _balance_key(n, [0] * n), dtype=np.int64)
    pop = np.zeros(size, dtype=np.uint8)
    for i, (u, v) in enumerate(arcs):
        hit = (idx >> i) & 1 == 1
        packed[hit] += (1 << (4 * u)) - (1 << (4 * v))
        pop[hit] += 1
    conn = np.fromiter(
        (_mask_connected(n, arcs, m) for m in range(size)), dtype=bool, count=size
    )
    return packed, conn, pop


def _digraph_mask(g: Digraph) -> int:
    index = {arc: i for i, arc in enumerate(_arcs(g.n))}
    mask = 0
    for arc in g.arcs:
        mask |= 1 << index[arc]
    return mask


@lru_cache(maxsize=16)
def _balance_best(n: int, gmask: int, add_only: bool, connected: bool):
    packed, conn, pop = _directed_tables(n)
    h = np.arange(1 << len(_arcs(n)), dtype=np.uint32)
    if add_only:
        valid = (h & gmask) == gmask
        cost = pop.astype(np.int16) - bin(gmask).count("1")
    else:
        valid = np.ones(len(h), dtype=bool)
        cost = pop[h ^ gmask].astype(np.int16)
    if connected:
        valid = valid & conn
    best = np.full(1 << (4 * n), _INF, dtype=np.int16)
    np.minimum.at(best, packed[valid], cost[valid])
    return best


def oracle_cdbe(
    inst, s: OperationSet, b: OracleBudget, connected: bool = True
) -> int | None:
    """Smallest edit size achieving the balance targets, or None."""
    g = inst.digraph
    if g.n > 4:
        raise ValueError("oracle_cdbe supports n <= 4")
    if g.n == 0:
        raise ValueError("empty digraph")
    if any(abs(d) > g.n - 1 for d in inst.delta):
        return None
    best = _balance_best(g.n, _digraph_mask(g), s is OperationSet.ADD, connected)
    value = int(best[_balance_key(g.n, inst.delta)])
    return None if value > b.kmax else value


# ---------------------------------------------------------------------------
# Directed f-join oracle (multigraph-aware).


def _arc_copies(gs: DirectedOperationGraph):
    """Each copy of each arc of G_S, arcs in sorted order, read off its rows."""
    for u, row in enumerate(gs.out):
        for v in set_bits(row):
            yield from [(u, v)] * (1 + (gs.twice[u] >> v & 1))


@lru_cache(maxsize=16)
def _fjoin_best(gs: DirectedOperationGraph):
    """Min sub-multiset size per balance signature, sizes > 7 dropped.

    Nibble packing is exact for every sub-multiset of size <= 7; larger
    intermediate states are clamped away each round so they can never
    masquerade as cheap ones.
    """
    n = gs.n
    best = np.full(1 << (4 * n), _INF, dtype=np.int16)
    best[_balance_key(n, [0] * n)] = 0
    for u, v in _arc_copies(gs):
        shift = (1 << (4 * u)) - (1 << (4 * v))
        bumped = np.full_like(best, _INF)
        if shift > 0:
            bumped[shift:] = best[:-shift] + 1
        else:
            bumped[:shift] = best[-shift:] + 1
        best = np.minimum(best, bumped)
        best[best > 7] = _INF
    return best


def oracle_min_f_join(gs: DirectedOperationGraph, f: Mapping[int, int]) -> int | None:
    """Minimum directed f-join size in the arc multigraph G_S, or None.

    Exhaustive over sub-multisets; a join of size <= supply * (n-1) exists
    whenever any join does (shortest-path decomposition), so the search is
    capped there.
    """
    f = {v: x for v, x in f.items() if x}
    if sum(f.values()) != 0:
        return None
    supply = sum(x for x in f.values() if x > 0)
    cap = supply * max(1, gs.n - 1)
    if cap <= 7 and gs.n <= 4:
        target = [f.get(v, 0) for v in range(gs.n)]
        if any(abs(x) > 7 for x in target):
            return None
        value = int(_fjoin_best(gs)[_balance_key(gs.n, target)])
        return None if value > cap else value
    return _fjoin_dict_dp(gs, f, cap)


def _fjoin_dict_dp(
    gs: DirectedOperationGraph, f: Mapping[int, int], cap: int
) -> int | None:
    target = tuple(f.get(v, 0) for v in range(gs.n))
    zero = tuple([0] * gs.n)
    states: dict[tuple[int, ...], int] = {zero: 0}
    for u, v in _arc_copies(gs):
        nxt = dict(states)
        for state, cost in states.items():
            if cost + 1 > cap:
                continue
            bumped = list(state)
            bumped[u] += 1
            bumped[v] -= 1
            key = tuple(bumped)
            gap = sum(abs(a - b) for a, b in zip(key, target))
            if cost + 1 + gap // 2 > cap:
                continue
            if nxt.get(key, cap + 1) > cost + 1:
                nxt[key] = cost + 1
        states = nxt
    return states.get(target)


# ---------------------------------------------------------------------------
# Matchings, by DP over vertex subsets (O(2^k * k^2), k <= ~14).


def matching_cost(m: Matching, w: WeightedCompleteGraph) -> int:
    weight = {(u, v): wt for u, v, wt in w.edges}
    return sum(weight[min(e), max(e)] for e in m.edges)


def brute_force_max_matching_size(g: Graph) -> int:
    """Maximum matching size by DP over vertex subsets (n <= ~14)."""
    n = g.n
    adj = g.adjacency_bits
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = mask.bit_length() - 1
        # Either v stays unmatched or is matched to a neighbor in the mask.
        value = best[mask & ~(1 << v)]
        nbrs = adj[v] & mask
        while nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            cand = best[mask & ~(1 << v) & ~(1 << u)] + 1
            if cand > value:
                value = cand
        best[mask] = value
    return best[(1 << n) - 1]


def brute_force_min_perfect_cost(w: WeightedCompleteGraph) -> int | None:
    """Minimum perfect matching cost by DP over vertex subsets (k <= ~14)."""
    k = w.k
    if k % 2 != 0:
        return None
    if k == 0:
        return 0
    weight = {(u, v): wt for u, v, wt in w.edges}
    infinity = math.inf
    best = [infinity] * (1 << k)
    best[0] = 0
    for mask in range(1, 1 << k):
        if bin(mask).count("1") % 2 != 0:
            continue
        v = mask.bit_length() - 1
        rest = mask & ~(1 << v)
        u_bits = rest
        while u_bits:
            u = (u_bits & -u_bits).bit_length() - 1
            u_bits &= u_bits - 1
            wt = weight.get((u, v))
            if wt is None:
                continue
            cand = best[rest & ~(1 << u)] + wt
            if cand < best[mask]:
                best[mask] = cand
    result = best[(1 << k) - 1]
    return None if result == infinity else int(result)
