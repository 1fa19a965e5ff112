"""Immutable graph/digraph types and the structural queries the solvers share.

Vertices are dense integer indices 0..n-1.  External vertex names are the
CLI layer's business.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class GraphError(ValueError):
    """Raised for structurally invalid graphs or instances."""


class SolverInvariantError(RuntimeError):
    """Raised when a solver's witness fails its own check: a solver bug."""


class UnsupportedOperationSetError(ValueError):
    """Raised when an operation set outside {ea}, {ea,ed} is requested."""


class OperationSet(enum.Enum):
    """Which edit operations the solver may use."""

    ADD = "ea"
    ADD_DELETE = "ea+ed"

    @classmethod
    def from_string(cls, text: str) -> "OperationSet":
        normalized = text.strip().lower().replace(" ", "")
        for member in cls:
            if member.value == normalized:
                return member
        if normalized in {"ea,ed", "ed,ea", "ea_ed", "ea+ed"}:
            return cls.ADD_DELETE
        raise UnsupportedOperationSetError(f"unsupported operation set: {text!r}")


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"negative vertex count: {self.n}")
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise GraphError(f"bad edge ({u}, {v}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset(_normalize_edge(u, v) for u, v in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        # Neighborhoods as bitmasks; makes BFS/components O(n^2 / wordsize).
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return self.adjacency_bits[v].bit_count()

    def complement(self) -> "Graph":
        missing = (
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in self.edges
        )
        return Graph(self.n, frozenset(missing))

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the sorted original labels of its vertices."""
        labels = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(labels)}
        edges = frozenset(
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        )
        return Graph(len(labels), edges), labels

    def apply(
        self,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> "Graph":
        added = {_normalize_edge(u, v) for u, v in additions}
        removed = {_normalize_edge(u, v) for u, v in deletions}
        return Graph(self.n, (self.edges | added) - removed)


@dataclass(frozen=True)
class Digraph:
    """A finite digraph on vertices 0..n-1.

    Plain instance digraphs are simple.  The arc-multigraph used as the
    directed operation graph may carry a second copy of an arc; those arcs
    are listed in ``doubled``.  A doubled (u, v) never coexists with (v, u).
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    doubled: frozenset[tuple[int, int]] = field(default=frozenset())

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"negative vertex count: {self.n}")
        for u, v in self.arcs:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"bad arc ({u}, {v}) for n={self.n}")
        for u, v in self.doubled:
            if (u, v) not in self.arcs:
                raise GraphError(f"doubled arc ({u}, {v}) not present")
            if (v, u) in self.arcs:
                raise GraphError(f"doubled arc ({u}, {v}) with reverse present")

    @property
    def m(self) -> int:
        return len(self.arcs) + len(self.doubled)

    def multiplicity(self, arc: tuple[int, int]) -> int:
        if arc not in self.arcs:
            return 0
        return 2 if arc in self.doubled else 1

    @cached_property
    def balances(self) -> tuple[int, ...]:
        # out-degree minus in-degree per vertex, doubled arcs counted twice.
        bal = [0] * self.n
        for u, v in self.arcs:
            bal[u] += 1
            bal[v] -= 1
        for u, v in self.doubled:
            bal[u] += 1
            bal[v] -= 1
        return tuple(bal)

    @cached_property
    def underlying(self) -> Graph:
        return Graph.from_edges(self.n, self.arcs)

    def apply(
        self,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> "Digraph":
        if self.doubled:
            raise GraphError("apply is only defined on simple digraphs")
        return Digraph(self.n, (self.arcs | set(additions)) - set(deletions))


@dataclass(frozen=True)
class ParityInstance:
    """An undirected instance: graph plus target degree parities."""

    graph: Graph
    delta: tuple[int, ...]
    budget: int | None = None

    def __post_init__(self) -> None:
        if len(self.delta) != self.graph.n:
            raise GraphError("delta must assign a parity to every vertex")
        if any(d not in (0, 1) for d in self.delta):
            raise GraphError("parity targets must be 0 or 1")
        if self.budget is not None and self.budget < 0:
            raise GraphError("budget must be non-negative")


@dataclass(frozen=True)
class BalanceInstance:
    """A directed instance: simple digraph plus target degree balances."""

    digraph: Digraph
    delta: tuple[int, ...]
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.digraph.doubled:
            raise GraphError("instance digraphs must be simple")
        if len(self.delta) != self.digraph.n:
            raise GraphError("delta must assign a balance to every vertex")
        if self.budget is not None and self.budget < 0:
            raise GraphError("budget must be non-negative")


@dataclass(frozen=True)
class StructuralCounts:
    """The quantities the optimum formulas are written in.

    ``deficient`` is the set of vertices whose degree parity (or balance)
    disagrees with the target.  ``plain_components`` counts components of
    the (underlying) graph that avoid the deficient set, and
    ``deficient_components`` those that meet it.  ``total_imbalance`` is
    the sum of |imbalance| over deficient vertices in the directed case and
    simply the size of the deficient set in the undirected case.
    """

    deficient: frozenset[int]
    plain_components: int
    deficient_components: int
    total_imbalance: int
    imbalance: Mapping[int, int] | None = None


def bfs_layers(bits: Sequence[int], source: int) -> list[int]:
    """BFS from ``source`` over neighbourhood bitmasks ``bits``.

    Layer d is the bitmask of the vertices at distance d from ``source``.
    """
    seen = frontier = 1 << source
    layers: list[int] = []
    while frontier:
        layers.append(frontier)
        grow = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            grow |= bits[v]
        frontier = grow & ~seen
        seen |= frontier
    return layers


def components(g: Graph | Digraph) -> list[frozenset[int]]:
    """Vertex sets of connected components, ordered by smallest member."""
    graph = g.underlying if isinstance(g, Digraph) else g
    bits = graph.adjacency_bits
    unseen = (1 << graph.n) - 1
    result: list[frozenset[int]] = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = 0
        for layer in bfs_layers(bits, start):
            comp |= layer
        unseen &= ~comp
        members = []
        c = comp
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            members.append(v)
        result.append(frozenset(members))
    return result


def is_connected(g: Graph | Digraph) -> bool:
    graph = g.underlying if isinstance(g, Digraph) else g
    if graph.n <= 1:
        return True
    return len(components(graph)) == 1


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """All bridges of ``g``, by one iterative lowpoint DFS."""
    n = g.n
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    found: set[tuple[int, int]] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # Stack frames: (vertex, parent, iterator index over adjacency).
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, i = stack.pop()
            if i < len(adj[v]):
                stack.append((v, parent, i + 1))
                w = adj[v][i]
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, 0))
                elif w != parent:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                if parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        found.add(_normalize_edge(parent, v))
    return frozenset(found)


def parity_counts(inst: ParityInstance) -> StructuralCounts:
    """Deficient vertices and component counts for an undirected instance."""
    g = inst.graph
    deficient = frozenset(
        v for v in range(g.n) if g.degree(v) % 2 != inst.delta[v]
    )
    plain = 0
    hit = 0
    for comp in components(g):
        if comp & deficient:
            hit += 1
        else:
            plain += 1
    return StructuralCounts(
        deficient=deficient,
        plain_components=plain,
        deficient_components=hit,
        total_imbalance=len(deficient),
    )


def balance_counts(inst: BalanceInstance) -> StructuralCounts:
    """Deficient vertices, their imbalance, and component counts."""
    g = inst.digraph
    bal = g.balances
    imbalance = {
        v: inst.delta[v] - bal[v] for v in range(g.n) if bal[v] != inst.delta[v]
    }
    deficient = frozenset(imbalance)
    plain = 0
    hit = 0
    for comp in components(g):
        if comp & deficient:
            hit += 1
        else:
            plain += 1
    return StructuralCounts(
        deficient=deficient,
        plain_components=plain,
        deficient_components=hit,
        total_imbalance=sum(abs(x) for x in imbalance.values()),
        imbalance=imbalance,
    )
