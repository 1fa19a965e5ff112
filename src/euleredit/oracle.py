"""Exhaustive reference solvers for tiny instances.

Every optimum here is found by enumerating candidate edited graphs as
bitmasks, sharing no logic with the real solvers.  One builder gives each
subset of a link list (the pairs or arcs on n vertices) its signature and
its size: degree parities folded by XOR, or degree balances, one nibble per
vertex, folded by addition.  Whether a subset connects all n vertices is
computed once per pair subset; an arc subset reads it from the pair table,
at the subset of its underlying pairs.  For one graph all 2^(edit universe)
candidates are scanned once and the best edit size is recorded per
signature; the tables of the last 16 graphs are cached, enough for sweeps
that take one graph at a time.  Each oracle raises ValueError outside its
exact range: n <= 6 for CDPE and n <= 5 for CDBE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .graphs import OperationSet


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
    """Whether the pairs picked by ``mask`` connect all n vertices."""
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


def _connectivity(n: int, pairs):
    """Per mask of ``pairs``: whether they connect all n vertices (pairs only)."""
    masks = range(1 << len(pairs))
    return np.fromiter((_mask_connected(n, pairs, m) for m in masks), dtype=bool)


@lru_cache(maxsize=None)
def _parity_tables(n: int):
    """The pairs of n vertices; per pair-mask: parity signature, size, connectivity."""
    pairs = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    parity, pop = _signatures(pairs, 0, np.bitwise_xor, _ends)
    return pairs, parity, pop, _connectivity(n, pairs)


@lru_cache(maxsize=None)
def _balance_tables(n: int):
    """The arcs of n vertices; per arc-mask: balance signature, size, and weak
    connectivity, which is the pair table's at the mask of the arcs' pairs."""
    pairs, _, _, connected = _parity_tables(n)
    arcs = tuple((u, v) for u in range(n) for v in range(n) if u != v)
    packed, pop = _signatures(arcs, _balance_key(n, [0] * n), np.add, _shift)
    idx = np.arange(1 << len(arcs), dtype=np.uint32)
    pair_mask = np.zeros_like(idx)
    for i, (u, v) in enumerate(arcs):
        pair_mask |= (idx >> i & 1) << pairs.index((min(u, v), max(u, v)))
    return arcs, packed, pop, connected[pair_mask]


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
# Undirected: CDPE / DPE.


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
