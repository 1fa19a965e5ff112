"""Immutable graph/digraph types and the structural queries the solvers share.

Vertices are dense integer indices 0..n-1.  External vertex names are the
CLI layer's business.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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


def _check_edge(n: int, u: int, v: int) -> None:
    if u == v:
        raise GraphError(f"loop at vertex {u}")
    if not (0 <= u < v < n):
        raise GraphError(f"bad edge ({u}, {v}) for n={n}")


def set_bits(mask: int):
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, init=False)
class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    Its state is one neighbourhood bitmask per vertex: bit v of
    ``adjacency_bits[u]`` is set when uv is an edge.  Equality and hashing
    compare these rows; the edge set is derived from them when first read.
    """

    n: int
    adjacency_bits: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise GraphError(f"negative vertex count: {n}")
        edges = frozenset(edges)
        rows = [0] * n
        for u, v in edges:
            _check_edge(n, u, v)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency_bits", tuple(rows))
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _from_rows(cls, n: int, rows: Iterable[int]) -> "Graph":
        """A graph on trusted rows: symmetric, loop-free and within n bits."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adjacency_bits", tuple(rows))
        return g

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (u, v)
            for u, row in enumerate(self.adjacency_bits)
            for v in set_bits(row >> u << u)
        )

    @cached_property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adjacency_bits) // 2

    def has_edge(self, u: int, v: int) -> bool:
        n = self.n
        return 0 <= u < n and 0 <= v < n and self.adjacency_bits[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        return self.adjacency_bits[v].bit_count()

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._from_rows(
            self.n, [full ^ row ^ 1 << v for v, row in enumerate(self.adjacency_bits)]
        )

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the sorted original labels of its vertices."""
        labels = tuple(sorted(set(vertices)))
        if not labels:
            return Graph._from_rows(0, []), labels
        if labels[0] < 0 or labels[-1] >= self.n:
            raise GraphError(f"vertices out of range 0..{self.n - 1}")
        # Row i of the subgraph keeps the bits of labels[i]'s row at the label
        # positions: pick those characters of the row's n-digit binary form,
        # highest label first.
        pick = itemgetter(*(self.n - 1 - v for v in reversed(labels)))
        digits = f"0{self.n}b"
        rows = [
            int("".join(pick(format(self.adjacency_bits[v], digits))), 2)
            for v in labels
        ]
        return Graph._from_rows(len(labels), rows), labels

    def apply(
        self,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> "Graph":
        """G with the additions set, then the deletions cleared."""
        rows = list(self.adjacency_bits)
        for u, v in additions:
            _check_edge(self.n, *_normalize_edge(u, v))
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        for u, v in deletions:
            _check_edge(self.n, *_normalize_edge(u, v))
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return Graph._from_rows(self.n, rows)


@dataclass(frozen=True)
class Digraph:
    """A finite simple digraph on vertices 0..n-1.  The directed operation
    multigraph is not one: it lives in ``fjoin.DirectedOperationGraph``."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"negative vertex count: {self.n}")
        for u, v in self.arcs:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"bad arc ({u}, {v}) for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.arcs)

    @cached_property
    def balances(self) -> tuple[int, ...]:
        # out-degree minus in-degree per vertex.
        bal = [0] * self.n
        for u, v in self.arcs:
            bal[u] += 1
            bal[v] -= 1
        return tuple(bal)

    @cached_property
    def underlying(self) -> Graph:
        rows = [0] * self.n
        for u, v in self.arcs:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._from_rows(self.n, rows)

    def apply(
        self,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> "Digraph":
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


def bfs_layers(bits: Sequence[int], source: int, targets: int) -> list[int]:
    """BFS from ``source`` over neighbourhood bitmasks ``bits``, up to the
    layer that holds the last reachable vertex of the bitmask ``targets``.

    Layer d is the bitmask of the vertices at distance d from ``source``.
    Every layer but the last is complete; the last may hold only its
    targets.  With every vertex a target, these are all the layers.  The
    search pushes (ORs the rows of the frontier) until fewer targets are
    left unreached than the frontier has vertices.  Then it first pulls: if
    every remaining target's row meets the frontier, they are the next layer
    and the search stops there.
    """
    seen = frontier = 1 << source
    left = targets & ~seen
    layers: list[int] = []
    while frontier:
        layers.append(frontier)
        if not left:
            break
        if left.bit_count() < frontier.bit_count() and all(
            bits[t] & frontier for t in set_bits(left)
        ):
            layers.append(left)
            break
        grow = 0
        for v in set_bits(frontier):
            grow |= bits[v]
        frontier = grow & ~seen
        seen |= frontier
        left &= ~frontier
    return layers


def components(g: Graph | Digraph) -> list[frozenset[int]]:
    """Vertex sets of connected components, ordered by smallest member."""
    graph = g.underlying if isinstance(g, Digraph) else g
    bits = graph.adjacency_bits
    unseen = everyone = (1 << graph.n) - 1
    result: list[frozenset[int]] = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = 0
        for layer in bfs_layers(bits, start, everyone):
            comp |= layer
        unseen &= ~comp
        result.append(frozenset(set_bits(comp)))
    return result


def is_connected(g: Graph | Digraph) -> bool:
    return len(components(g)) <= 1


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """All bridges of ``g``, by one iterative lowpoint DFS."""
    n = g.n
    rows = g.adjacency_bits
    disc = [-1] * n
    low = [0] * n
    found: set[tuple[int, int]] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # Stack frames: (vertex, parent, neighbour bits not yet scanned),
        # scanned lowest bit first.
        stack = [(root, -1, rows[root])]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, left = stack.pop()
            if left:
                bit = left & -left
                stack.append((v, parent, left ^ bit))
                w = bit.bit_length() - 1
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, rows[w]))
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
    return _counts(g, deficient, len(deficient))


def balance_counts(inst: BalanceInstance) -> StructuralCounts:
    """Deficient vertices, their imbalance, and component counts."""
    g = inst.digraph
    bal = g.balances
    imbalance = {
        v: inst.delta[v] - bal[v] for v in range(g.n) if bal[v] != inst.delta[v]
    }
    total = sum(abs(x) for x in imbalance.values())
    return _counts(g, frozenset(imbalance), total, imbalance)


def _counts(g, deficient, total_imbalance, imbalance=None) -> StructuralCounts:
    # The tail both counts share; every solver takes its counts first, so
    # this is where an empty instance is refused.
    if g.n == 0:
        raise GraphError("instances must have at least one vertex")
    comps = components(g)
    hit = sum(1 for comp in comps if comp & deficient)
    plain = len(comps) - hit
    return StructuralCounts(deficient, plain, hit, total_imbalance, imbalance)
