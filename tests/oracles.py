"""Exhaustive references for the join and matching subroutines, used only
by the tests.

Each enumerates every candidate and shares no logic with the code it
checks:

* ``oracle_min_t_join(gs, T)``: the minimum T-join size in an operation
  graph of at most 20 edges, from the parity signature of every edge
  subset (the table builder of ``euleredit.oracle``).  It checks
  ``tjoin.min_t_join``.
* ``oracle_min_f_join(gs, f)``: the minimum directed f-join size in the arc
  multigraph G_S, for n <= 4 and supply * max(1, n-1) <= 7, where the
  nibble-packed balance table is exact.  It checks ``fjoin.min_f_join``.
* ``brute_force_max_matching_size(g)`` and
  ``brute_force_min_perfect_cost(w)``: maximum matching size and minimum
  perfect matching cost by DP over vertex subsets, for up to about 14
  vertices; ``matching_cost`` weighs a matching in a weight table.  They
  check ``matching.max_matching`` and
  ``matching.min_weight_perfect_matching``.

The T-join and f-join references raise ValueError outside their range.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

import numpy as np

from euleredit.fjoin import DirectedOperationGraph
from euleredit.graphs import Graph
from euleredit.matching import Matching, WeightedCompleteGraph
from euleredit.oracle import _INF, _balance_key, _ends, _signatures

from conftest import copies


# ---------------------------------------------------------------------------
# Undirected: the T-join.


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
# Directed f-join oracle (multigraph-aware).


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
    for (u, v), mult in copies(gs).items():
        shift = (1 << (4 * u)) - (1 << (4 * v))
        for _ in range(mult):
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
