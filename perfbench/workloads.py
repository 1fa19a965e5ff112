"""Seeded instance generator for the benchmark workloads.

The generator is the benchmark's own: it takes the seed as an argument and
shares no code with ``euleredit gen``, so that a change to the program's
generator cannot change what the benchmark measures.

The properties that set a solve's cost are fixed per pool position and only
the structure is random: instance i has exactly the n, m links and
``deficient`` vertices (whose target differs from the graph) that ``sizes``
gives it, whatever the seed.  Parsing grows with m, the T-join with |T| BFS
runs, the f-join with its total supply.
Every instance is solvable:

- undirected instances have an even deficient set T (the parity repair), so
  no entry point exits early with NoInstance;
- directed targets differ from the balances by +1 at ``deficient / 2``
  vertices and -1 at as many others, so they sum to zero, and the operation
  graph of a sparse digraph is strongly connected, so an f-join exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

UNDIRECTED_ENTRIES = (("cdpe", "ea"), ("cdpe", "ea+ed"), ("dpe", "ea"), ("dpe", "ea+ed"))
DIRECTED_ENTRIES = (("cdbe", "ea"), ("cdbe", "ea+ed"), ("dbe", "ea"), ("dbe", "ea+ed"))
# Instance sizes run evenly from 0.8 to 1.2 times the workload's size, the same
# for every seed.  On a machine whose speed switches between two levels, solve
# times of one size form two peaks and their median jumps between them as the
# share of fast time crosses one half; a spread of sizes makes it move smoothly.
SIZE_SPREAD = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    directed: bool
    entries: tuple[tuple[str, str], ...]  # cycled through by the instance pool
    n: int
    m: int
    deficient: int
    pool: int  # distinct instances per run; the timed loop cycles through them


# Sizes keep one solve near 0.1 s, so a 60-second run makes well over the 100
# solves that a 90th percentile with ten samples beyond it needs.  Densities:
# 0.5 (dense), 0.015 (directed); |T| is half the vertices.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-undirected", False, UNDIRECTED_ENTRIES, 100, 2475, 50, 64),
        Workload("directed", True, DIRECTED_ENTRIES, 90, 120, 66, 64),
    )
}


@dataclass(frozen=True)
class Instance:
    """One generated instance: the entry point, the graph and the targets."""

    kind: str
    opset: str
    n: int
    links: tuple[tuple[int, int], ...]
    delta: tuple[int, ...]

    @property
    def directed(self) -> bool:
        return self.kind in ("cdbe", "dbe")

    @property
    def connected(self) -> bool:
        return self.kind in ("cdpe", "cdbe")

    def text(self) -> str:
        tag = "a" if self.directed else "e"
        lines = [f"p {self.kind} {self.opset} {self.n} {len(self.links)}"]
        lines += [f"{tag} {u} {v}" for u, v in self.links]
        lines += [f"d {v} {x}" for v, x in enumerate(self.delta) if x]
        return "\n".join(lines) + "\n"


def _undirected(rng: random.Random, n: int, m: int, deficient: int, kind: str, opset: str) -> Instance:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(sorted(rng.sample(pairs, m)))
    odd = [0] * n
    for u, v in edges:
        odd[u] ^= 1
        odd[v] ^= 1
    t_set = set(rng.sample(range(n), deficient))
    delta = tuple(odd[v] ^ (v in t_set) for v in range(n))
    return Instance(kind, opset, n, edges, delta)


def _directed(rng: random.Random, n: int, m: int, deficient: int, kind: str, opset: str) -> Instance:
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = tuple(sorted(rng.sample(pairs, m)))
    delta = [0] * n
    for u, v in arcs:
        delta[u] += 1
        delta[v] -= 1
    chosen = rng.sample(range(n), deficient)
    for v in chosen[: deficient // 2]:
        delta[v] += 1
    for v in chosen[deficient // 2 :]:
        delta[v] -= 1
    return Instance(kind, opset, n, arcs, tuple(delta))


def sizes(workload: Workload, i: int) -> tuple[int, int, int]:
    """n, m and the (even) deficient count of pool instance ``i``; m keeps the density."""
    entries = len(workload.entries)
    steps = max(workload.pool // entries - 1, 1)
    scale = 1 - SIZE_SPREAD + 2 * SIZE_SPREAD * (i // entries) / steps
    n = round(workload.n * scale)
    m = round(workload.m * scale * scale)
    deficient = 2 * round(workload.deficient * scale / 2)
    return n, m, deficient


def generate(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instance pool for ``seed``, cycling through its entry points."""
    rng = random.Random(f"{workload.name}/{seed}")
    make = _directed if workload.directed else _undirected
    entries = workload.entries
    return [
        make(rng, *sizes(workload, i), *entries[i % len(entries)])
        for i in range(workload.pool)
    ]
