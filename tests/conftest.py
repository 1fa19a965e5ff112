import math
import random
from collections import deque
from itertools import combinations, permutations

import pytest

from euleredit import Digraph, Graph
from euleredit.cdbe import _apply_join
from euleredit.cdpe import _edge, _swap
from euleredit.cli import KINDS, MAX_VERTICES, InstanceFile, ParseError
from euleredit.fjoin import DirectedFJoin
from euleredit.graphs import (
    BalanceInstance,
    OperationSet,
    ParityInstance,
    SolverInvariantError,
    bfs_layers,
    components,
    set_bits,
)
from euleredit.matching import WeightedCompleteGraph, min_weight_perfect_matching
from euleredit.tjoin import TJoin


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


def graph_orbits(n: int, links):
    """The links of one graph per isomorphism class on n vertices, where
    ``links`` lists the pairs u < v (graphs) or the arcs u != v (digraphs):
    the least link mask of each orbit, ascending.  A mask not yet seen starts
    a new orbit, whose images under the n! vertex permutations are then
    marked seen."""
    bit = {link: 1 << i for i, link in enumerate(links)}
    # The image of a pair is read as a pair, that of an arc as an arc.
    images = [
        [bit.get((p[u], p[v])) or bit[p[v], p[u]] for u, v in links]
        for p in permutations(range(n))
    ]
    seen = bytearray(1 << len(links))
    for mask in range(1 << len(links)):
        if not seen[mask]:
            for image in images:
                seen[sum(image[i] for i in set_bits(mask))] = 1
            yield frozenset(link for i, link in enumerate(links) if mask >> i & 1)


def all_digraphs(n: int):
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(arcs)):
        yield Digraph(n, frozenset(a for i, a in enumerate(arcs) if mask >> i & 1))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xE01E)


def from_arcs(n: int, arcs) -> Digraph:
    return Digraph(n, frozenset(arcs))


def from_edges(n: int, edges) -> Graph:
    return Graph(n, frozenset((u, v) if u < v else (v, u) for u, v in edges))


FORBIDDEN = math.inf


def weight_table(k: int, weight) -> WeightedCompleteGraph:
    """The table of a ``{(u, v): w}`` map over every pair u < v of 0..k-1,
    with the ``FORBIDDEN`` pairs left out."""
    pairs = combinations(range(k), 2)
    edges = [(u, v, weight[u, v]) for u, v in pairs if weight[u, v] != FORBIDDEN]
    return WeightedCompleteGraph(k, edges)


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


class _FlowNetwork:
    """Successive-shortest-paths min-cost max-flow over explicit edge lists."""

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

    def min_cost_max_flow(self, source: int, sink: int) -> int:
        total_flow = 0
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
                return total_flow
            path = []
            v = sink
            while v != source:
                path.append(pre[v])
                v = self.to[pre[v] ^ 1]
            push = min(self.cap[e] for e in path)
            for e in path:
                self.cap[e] -= push
                self.cap[e ^ 1] += push
            total_flow += push


def copies(gs) -> dict[tuple[int, int], int]:
    """The arcs of a directed operation graph with their multiplicities, in
    sorted order, read off its ``out`` and ``twice`` rows."""
    return {
        (u, v): 1 + (gs.twice[u] >> v & 1)
        for u, row in enumerate(gs.out)
        for v in set_bits(row)
    }


def reference_min_f_join(gs, f) -> DirectedFJoin | None:
    """``min_f_join`` as an SPFA over an explicit residual edge list: every arc
    of G_S in sorted order, then source arcs to the supplying vertices and
    arcs from the demanding vertices to the sink, both sorted."""
    f = {v: x for v, x in f.items() if x}
    if sum(f.values()) != 0:
        return None
    if not f:
        return DirectedFJoin({})
    mult = copies(gs)
    source, sink = gs.n, gs.n + 1
    net = _FlowNetwork(gs.n + 2)
    arc_edge = {arc: net.add(*arc, x, 1) for arc, x in mult.items()}
    for v, x in sorted(f.items()):
        if x > 0:
            net.add(source, v, x, 0)
        else:
            net.add(v, sink, -x, 0)
    if net.min_cost_max_flow(source, sink) != sum(x for x in f.values() if x > 0):
        return None
    used = {arc: mult[arc] - net.cap[e] for arc, e in arc_edge.items()}
    return DirectedFJoin({arc: x for arc, x in used.items() if x > 0})


def reference_min_t_join(gs, t_set) -> TJoin | None:
    """``min_t_join`` with a full BFS from every terminal to the end of the
    base graph, instead of a search that stops at the last later terminal."""
    base = gs.base
    for comp in components(base):
        if len(comp & t_set) % 2:
            return None

    terminals = sorted(t_set)
    index = {s: i for i, s in enumerate(terminals)}
    tmask = sum(1 << s for s in terminals)
    bits = base.adjacency_bits
    everyone = (1 << base.n) - 1
    layers = {s: bfs_layers(bits, s, everyone) for s in terminals}
    k = len(terminals)
    rows, edges = [], []
    for i, s in enumerate(terminals):
        row = [None] * k
        rows.append(row)
        later = (tmask >> s + 1) << s + 1
        for d, layer in enumerate(layers[s]):
            for t in set_bits(layer & later):
                row[index[t]] = d
        edges += [(i, j, d) for j, d in enumerate(row[i + 1 :], i + 1) if d is not None]
    matching = min_weight_perfect_matching(WeightedCompleteGraph(k, edges))
    if matching is None:
        raise SolverInvariantError("no perfect matching of T, yet T-joins exist")

    join: set[tuple[int, int]] = set()
    for i, j in matching.edges:
        s = terminals[i]
        v = terminals[j]
        for layer in reversed(layers[s][: rows[i][j]]):
            low = bits[v] & layer
            u = (low & -low).bit_length() - 1
            e = (u, v) if u < v else (v, u)
            join.symmetric_difference_update({e})
            v = u
    return TJoin(frozenset(join))


def reference_cross_swap(join: dict, comp_of: dict, crossable, pair):
    """``cdpe._cross_swap`` as a nested scan: for each crossable uv, the join
    is sorted again and scanned for the first xy of another component."""
    for uv in sorted(join):
        if not crossable(uv):
            continue
        u, v = uv
        for xy in sorted(join):
            x, y = xy
            if comp_of[x] != comp_of[u]:
                return _swap(join, (uv, xy), (pair(u, y), pair(x, v)))
    return None


def reference_edge_detour_swap(g, edges: dict, comps, comp_of: dict):
    """The undirected ``cdpe._detour_swap`` as a body of its own: the pairs of
    edges at each mid, trying the first edge's end before the second's."""
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in sorted(edges):
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)
    for mid in sorted(incident):
        stars = incident[mid]
        for i, e1 in enumerate(stars):
            for e2 in stars[i + 1 :]:
                a = e1[0] if e1[1] == mid else e1[1]
                b = e2[0] if e2[1] == mid else e2[1]
                h2 = g.apply(additions=edges.keys() - {e1, e2})
                comp2 = {v: j for j, c in enumerate(components(h2)) for v in c}
                if comp2[a] == comp2[mid]:
                    u, w = a, b
                elif comp2[b] == comp2[mid]:
                    u, w = b, a
                else:
                    continue
                x = min(
                    min(c) for c in comps if comp_of[next(iter(c))] != comp_of[mid]
                )
                return _swap(edges, (e1, e2), (_edge(u, x), _edge(x, w)))
    return None


def reference_arc_detour_swap(g, arcs: dict, comps, comp_of: dict):
    """The directed ``cdpe._detour_swap`` as a body of its own: each arc into
    mid with each arc out of it, the detour keeping the direction."""
    heads: dict[int, list[tuple[int, int]]] = {}
    tails: dict[int, list[tuple[int, int]]] = {}
    for a in sorted(arcs):
        heads.setdefault(a[1], []).append(a)
        tails.setdefault(a[0], []).append(a)
    for mid in sorted(heads):
        for uv in heads[mid]:
            u = uv[0]
            for vw in tails.get(mid, ()):
                w = vw[1]
                if w == u:
                    continue
                h2 = _apply_join(g, _swap(arcs, (uv, vw), ()))
                comp2 = {x: i for i, c in enumerate(components(h2)) for x in c}
                if comp2[u] != comp2[mid]:
                    continue
                x = min(
                    min(c) for c in comps if comp_of[next(iter(c))] != comp_of[mid]
                )
                return _swap(arcs, (uv, vw), ((u, x), (x, w)))
    return None


def reference_parse_instance(text: str) -> InstanceFile:
    """``cli.parse_instance`` as a filtered list of stripped, numbered lines,
    each split again when it is read."""
    lines = [
        (i, line)
        for i, raw in enumerate(text.splitlines(), 1)
        if (line := raw.strip()) and not line.startswith("c")
    ]
    if not lines:
        raise ParseError(1, "empty instance")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) not in (5, 6) or fields[0] != "p":
        raise ParseError(lineno, "expected header 'p <kind> <opset> <n> <m> [k]'")
    kind = fields[1]
    if kind not in KINDS:
        raise ParseError(lineno, f"unknown problem kind {kind!r}")
    try:
        opset = OperationSet.from_string(fields[2])
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from exc
    try:
        n, m = int(fields[3]), int(fields[4])
        budget = int(fields[5]) if len(fields) == 6 else None
    except ValueError as exc:
        raise ParseError(lineno, "n, m and k must be integers") from exc
    if n <= 0:
        raise ParseError(lineno, "n must be positive")
    if n > MAX_VERTICES:
        raise ParseError(lineno, f"n must be at most {MAX_VERTICES}")
    if budget is not None and budget < 0:
        raise ParseError(lineno, "budget must be non-negative")

    directed = kind in ("cdbe", "dbe")
    tag = "a" if directed else "e"
    rows = [0] * n
    delta: dict[int, int] = {}
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] == tag:
            if len(parts) != 3:
                raise ParseError(lineno, f"expected '{tag} <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(lineno, "endpoints must be integers") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"vertex out of range 0..{n - 1}")
            if u == v:
                raise ParseError(lineno, "loops are not allowed")
            if rows[u] >> v & 1:
                raise ParseError(lineno, f"duplicate {tag} {u} {v}")
            rows[u] |= 1 << v
            if not directed:
                rows[v] |= 1 << u
        elif parts[0] == "d":
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'd <v> <value>'")
            try:
                v, value = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(lineno, "delta entries must be integers") from exc
            if not 0 <= v < n:
                raise ParseError(lineno, f"vertex out of range 0..{n - 1}")
            if v in delta:
                raise ParseError(lineno, f"duplicate delta for vertex {v}")
            if not directed and value not in (0, 1):
                raise ParseError(lineno, "parity targets must be 0 or 1")
            delta[v] = value
        else:
            raise ParseError(lineno, f"unknown line type {parts[0]!r}")
    found = sum(row.bit_count() for row in rows) // (1 if directed else 2)
    if found != m:
        raise ParseError(lines[-1][0], f"expected {m} {tag}-lines, found {found}")

    targets = tuple(delta.get(v, 0) for v in range(n))
    if directed:
        arcs = frozenset((u, v) for u, row in enumerate(rows) for v in set_bits(row))
        instance = BalanceInstance(Digraph(n, arcs), targets, budget)
    else:
        instance = ParityInstance(Graph._from_rows(n, rows), targets, budget)
    return InstanceFile(kind, opset, instance)
