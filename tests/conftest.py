import random
from itertools import combinations

import pytest

from euleredit import Digraph, Graph


def random_graph(rng: random.Random, n: int, density: float = 0.5) -> Graph:
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < density)
    return Graph(n, edges)


def random_digraph(rng: random.Random, n: int, density: float = 0.5) -> Digraph:
    arcs = frozenset(
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    )
    return Digraph(n, arcs)


def all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))


def all_digraphs(n: int):
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(arcs)):
        yield Digraph(n, frozenset(a for i, a in enumerate(arcs) if mask >> i & 1))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xE01E)


def from_arcs(n: int, arcs) -> Digraph:
    return Digraph(n, frozenset(arcs))


def odd_vertices(edges) -> frozenset[int]:
    """The vertices of odd degree in an edge set (a T-join's T)."""
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return frozenset(v for v, d in degree.items() if d % 2)


def covered(edges) -> frozenset[int]:
    """The vertices a matching's edges cover."""
    return frozenset(v for e in edges for v in e)


def balance(arcs) -> dict[int, int]:
    """Out-minus-in balance of an ``{arc: multiplicity}`` multiset, zeros left out."""
    bal: dict[int, int] = {}
    for (u, v), mult in arcs.items():
        bal[u] = bal.get(u, 0) + mult
        bal[v] = bal.get(v, 0) - mult
    return {v: b for v, b in bal.items() if b}


def paths(arcs) -> tuple[tuple[tuple[int, int], ...], ...]:
    """An arc-disjoint decomposition of an ``{arc: multiplicity}`` f-join into
    directed paths, each from a vertex of positive balance to one of negative
    balance.  Greedy: smallest start vertex and arc head first."""
    f = balance(arcs)
    rem = dict(arcs)
    supply = {v: x for v, x in f.items() if x > 0}
    demand = {v: -x for v, x in f.items() if x < 0}
    out: dict[int, list[int]] = {}
    for u, v in sorted(arcs):
        out.setdefault(u, []).append(v)
    found: list[tuple[tuple[int, int], ...]] = []
    for start in sorted(supply):
        while supply[start] > 0:
            supply[start] -= 1
            path: list[tuple[int, int]] = []
            cur = start
            while not (demand.get(cur, 0) > 0 and (cur != start or path)):
                nxt = next(v for v in out[cur] if rem.get((cur, v), 0) > 0)
                rem[(cur, nxt)] -= 1
                path.append((cur, nxt))
                cur = nxt
            demand[cur] -= 1
            found.append(tuple(path))
    assert not any(rem.values()), "flow arcs left over after the path decomposition"
    return tuple(found)
