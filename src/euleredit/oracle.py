"""Exhaustive reference solvers for tiny instances.

Every optimum here is found by enumerating candidate edited graphs as
bitmasks, sharing no logic with the real solvers.  One builder gives each
subset of a link list (the pairs or arcs on n vertices, or the edges of a
T-join's graph) its signature and its size: degree parities folded by XOR,
or degree balances, one nibble per vertex, folded by addition.  For one
graph all 2^(edit universe) candidates are scanned once and the best edit
size is recorded per signature; the tables of the last 16 graphs are
cached, enough for sweeps that take one graph at a time.  Each oracle
raises ValueError outside its exact range: n <= 6 for CDPE, n <= 5 for
CDBE, 20 edges for the T-join, and n <= 4 with supply * max(1, n-1) <= 7
for the f-join.  The matching oracles at the end check the blossom engine
the same way, by DP over vertex subsets, sharing no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .fjoin import DirectedOperationGraph
from .graphs import Graph, OperationSet, set_bits
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
# Every table: each subset of a link list, as a mask over the list's order.


def _signatures(links, start: int, fold, step):
    """Per subset mask of ``links``: ``start`` folded (``np.bitwise_xor`` or
    ``np.add``) with ``step(u, v)`` of each link in the subset, and its size."""
    size = 1 << len(links)
    idx = np.arange(size, dtype=np.uint32)
    sig = np.full(size, start, dtype=np.int64)
    pop = np.zeros(size, dtype=np.uint8)
    for i, (u, v) in enumerate(links):
        hit = (idx >> i) & 1 == 1
        sig[hit] = fold(sig[hit], step(u, v))
        pop[hit] += 1
    return sig, pop


def _ends(u: int, v: int) -> int:
    return (1 << u) | (1 << v)  # edge uv flips the degree parity of u and v


def _shift(u: int, v: int) -> int:
    return (1 << (4 * u)) - (1 << (4 * v))  # arc uv: +1 in u's nibble, -1 in v's


def _balance_key(n: int, values: Mapping[int, int] | list | tuple) -> int:
    # One nibble per vertex, offset 8; every |balance| here is <= 7: no carries.
    key = 0
    for v in range(n):
        key |= (values[v] + 8) << (4 * v)
    return key


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


def _connectivity(n: int, links):
    masks = range(1 << len(links))
    return np.fromiter((_mask_connected(n, links, m) for m in masks), dtype=bool)


@lru_cache(maxsize=None)
def _parity_tables(n: int):
    """The pairs of n vertices; per pair-mask: parity signature, size, connectivity."""
    pairs = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    parity, pop = _signatures(pairs, 0, np.bitwise_xor, _ends)
    return pairs, parity, pop, _connectivity(n, pairs)


@lru_cache(maxsize=None)
def _balance_tables(n: int):
    """The arcs of n vertices; per arc-mask: balance signature, size, connectivity."""
    arcs = tuple((u, v) for u in range(n) for v in range(n) if u != v)
    packed, pop = _signatures(arcs, _balance_key(n, [0] * n), np.add, _shift)
    return arcs, packed, pop, _connectivity(n, arcs)


@lru_cache(maxsize=16)
def _best_edits(tables, n: int, present, s: OperationSet, connected: bool, width: int):
    """Min edit size per signature of ``tables(n)``, a key of ``width`` bits,
    over all candidate graphs H; G has the links ``present``."""
    links, sig, pop, conn = tables(n)
    gmask = sum(1 << i for i, link in enumerate(links) if link in present)
    h = np.arange(len(sig), dtype=np.uint32)
    if s is OperationSet.ADD:
        valid = (h & gmask) == gmask
        cost = pop.astype(np.int16) - bin(gmask).count("1")
    else:
        valid = np.ones(len(h), dtype=bool)
        cost = pop[h ^ gmask].astype(np.int16)
    if connected:
        valid = valid & conn
    best = np.full(1 << width, _INF, dtype=np.int16)
    np.minimum.at(best, sig[valid], cost[valid])
    return best


# ---------------------------------------------------------------------------
# Undirected: CDPE / DPE, and the T-join.


def oracle_cdpe(
    inst, s: OperationSet, b: OracleBudget, connected: bool = True
) -> int | None:
    """Smallest edit size achieving the parity targets, or None."""
    g = inst.graph
    if g.n > 6:
        raise ValueError("oracle_cdpe supports n <= 6")
    if g.n == 0:
        raise ValueError("empty graph")
    best = _best_edits(_parity_tables, g.n, g.edges, s, connected, g.n)
    key = sum(inst.delta[v] << v for v in range(g.n))
    value = int(best[key])
    return None if value > b.kmax else value


@lru_cache(maxsize=16)
def _tjoin_best(gs: Graph):
    odd, pop = _signatures(sorted(gs.edges), 0, np.bitwise_xor, _ends)
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


def oracle_cdbe(
    inst, s: OperationSet, b: OracleBudget, connected: bool = True
) -> int | None:
    """Smallest edit size achieving the balance targets, or None."""
    g = inst.digraph
    if g.n > 5:
        raise ValueError("oracle_cdbe supports n <= 5")
    if g.n == 0:
        raise ValueError("empty digraph")
    if any(abs(d) > g.n - 1 for d in inst.delta):
        return None
    best = _best_edits(_balance_tables, g.n, g.arcs, s, connected, 4 * g.n)
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
    capped there.  An unbalanced f has no join; otherwise n <= 4 and that
    cap <= 7 are required, the range where the nibble table is exact.
    """
    f = {v: x for v, x in f.items() if x}
    if sum(f.values()) != 0:
        return None
    cap = sum(x for x in f.values() if x > 0) * max(1, gs.n - 1)
    if gs.n > 4 or cap > 7:
        raise ValueError("oracle_min_f_join supports n <= 4 and supply * (n-1) <= 7")
    value = int(_fjoin_best(gs)[_balance_key(gs.n, [f.get(v, 0) for v in range(gs.n)])])
    return None if value > cap else value


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
