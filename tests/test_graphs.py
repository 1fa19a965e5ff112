import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from euleredit import (
    BalanceInstance,
    Digraph,
    Graph,
    GraphError,
    OperationSet,
    ParityInstance,
    UnsupportedOperationSetError,
)
from euleredit.graphs import (
    balance_counts,
    bridges,
    components,
    is_connected,
    parity_counts,
    set_bits,
)

from conftest import from_arcs, from_edges

graphs = st.integers(1, 8).flatmap(
    lambda n: st.builds(
        Graph,
        st.just(n),
        st.frozensets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e)))
        ),
    )
)


def test_graph_rejects_loops_and_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(GraphError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(GraphError):
        Graph(3, frozenset({(2, 1)}))  # edges must be normalized
    with pytest.raises(GraphError):
        Graph(-1, frozenset())


def test_from_edges_normalizes():
    g = from_edges(3, [(2, 0), (1, 0)])
    assert g.edges == {(0, 2), (0, 1)}
    assert g.has_edge(2, 0) and g.has_edge(0, 1)
    assert g.degree(0) == 2


def test_complement_and_complete():
    g = from_edges(4, [(0, 1)])
    assert g.complement().m == 5


def test_induced_relabels():
    g = from_edges(5, [(1, 3), (3, 4), (0, 1)])
    sub, labels = g.induced({1, 3, 4})
    assert labels == (1, 3, 4)
    assert sub.edges == {(0, 1), (1, 2)}


def test_apply_roundtrip():
    g = from_edges(4, [(0, 1), (2, 3)])
    h = g.apply(additions=[(1, 2)], deletions=[(0, 1)])
    assert h.edges == {(1, 2), (2, 3)}


def test_digraph_invariants():
    with pytest.raises(GraphError):
        Digraph(3, frozenset({(1, 1)}))
    with pytest.raises(GraphError, match="negative vertex count"):
        Digraph(-1, frozenset())
    with pytest.raises(GraphError, match="bad arc"):
        Digraph(3, frozenset({(0, 3)}))
    g = Digraph(3, frozenset({(0, 1), (1, 2)}))
    assert g.m == 2
    assert g.balances == (1, 0, -1)
    assert g.underlying.edges == {(0, 1), (1, 2)}


def test_operation_set_parsing():
    assert OperationSet.from_string("ea") is OperationSet.ADD
    assert OperationSet.from_string(" EA+ED ") is OperationSet.ADD_DELETE
    assert OperationSet.from_string("ea,ed") is OperationSet.ADD_DELETE
    with pytest.raises(UnsupportedOperationSetError):
        OperationSet.from_string("ed")


def test_instance_validation():
    g = from_edges(2, [(0, 1)])
    with pytest.raises(GraphError):
        ParityInstance(g, (0,))
    with pytest.raises(GraphError):
        ParityInstance(g, (0, 2))
    with pytest.raises(GraphError):
        ParityInstance(g, (0, 0), budget=-1)
    d = Digraph(2, frozenset({(0, 1)}))
    with pytest.raises(GraphError):
        BalanceInstance(d, (1,))
    with pytest.raises(GraphError, match="budget"):
        BalanceInstance(d, (0, 0), budget=-1)


@given(graphs)
def test_components_partition(g):
    comps = components(g)
    seen = set()
    for c in comps:
        assert not (c & seen)
        seen |= c
    assert seen == set(range(g.n))
    # Ordered by smallest member; edges never cross components.
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)
    lookup = {v: i for i, c in enumerate(comps) for v in c}
    assert all(lookup[u] == lookup[v] for u, v in g.edges)
    assert is_connected(g) == (len(comps) == 1)


def _assert_bridges_by_removal(g):
    base = len(components(g))
    found = bridges(g)
    for e in g.edges:
        split = len(components(Graph(g.n, g.edges - {e}))) > base
        assert (e in found) == split


@given(graphs)
def test_bridges_match_removal_definition(g):
    _assert_bridges_by_removal(g)


def test_bridges_match_removal_definition_at_large_sizes():
    # The hypothesis graphs stop at 8 vertices.  Paths and random trees of
    # hundreds of vertices run the DFS hundreds of frames deep; sparse graphs
    # with m = n mix bridges with cycles.  Vertex labels are shuffled so that
    # the lowest-bit scan order is not the path order.
    rng = random.Random(0xB21D)
    for n in (200, 350, 500):
        label = rng.sample(range(n), n)
        path = [(label[v], label[v + 1]) for v in range(n - 1)]
        tree = [(label[v], label[rng.randrange(max(0, v - 4), v)]) for v in range(1, n)]
        sparse = rng.sample(list(combinations(range(n), 2)), n)
        for edges in (path, tree, sparse):
            _assert_bridges_by_removal(from_edges(n, edges))


@given(graphs, st.data())
def test_parity_counts_handshake(g, data):
    delta = tuple(data.draw(st.integers(0, 1)) for _ in range(g.n))
    counts = parity_counts(ParityInstance(g, delta))
    assert counts.plain_components + counts.deficient_components == len(components(g))
    assert counts.total_imbalance == len(counts.deficient)
    # Odd-degree vertices are even in number, so |T| and sum(delta) agree mod 2.
    assert len(counts.deficient) % 2 == sum(delta) % 2


def test_balance_counts():
    g = from_arcs(4, [(0, 1), (2, 3)])
    counts = balance_counts(BalanceInstance(g, (1, -1, 0, 0)))
    assert counts.deficient == {2, 3}
    assert counts.imbalance == {2: -1, 3: 1}
    assert counts.total_imbalance == 2
    assert counts.plain_components == 1
    assert counts.deficient_components == 1


def _norm(pairs):
    return frozenset((u, v) if u < v else (v, u) for u, v in pairs)


def test_row_graph_matches_edge_set_definitions():
    # Every Graph method against its definition on plain edge sets.
    rng = random.Random(0x6A7F)
    for _ in range(150):
        n = rng.randint(0, 40)
        pairs = list(combinations(range(n), 2))
        density = rng.random()
        edges = frozenset(e for e in pairs if rng.random() < density)
        g = Graph(n, edges)
        assert g.edges == edges and g.m == len(edges)
        for v in range(n):
            nbrs = tuple(sorted(w for e in edges if v in e for w in e if w != v))
            assert tuple(set_bits(g.adjacency_bits[v])) == nbrs
            assert g.degree(v) == len(nbrs)
        for u in range(-2, n + 2):
            for v in range(-2, n + 2):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
        flipped = [(v, u) for u, v in edges]
        assert from_edges(n, flipped) == g
        assert hash(from_edges(n, flipped)) == hash(g)

        missing = frozenset(pairs) - edges
        comp = g.complement()
        assert comp == Graph(n, missing) and comp.edges == missing
        assert comp.m == len(missing) and hash(comp) == hash(Graph(n, missing))

        additions, deletions = (
            [e[:: rng.choice((1, -1))] for e in rng.sample(pairs, len(pairs) // 4)]
            for _ in range(2)
        )
        h = g.apply(additions, deletions)
        want = (edges | _norm(additions)) - _norm(deletions)
        assert h == Graph(n, want) and h.edges == want and h.m == len(want)
        assert hash(h) == hash(Graph(n, want))
        assert g.apply(additions=additions) == Graph(n, edges | _norm(additions))
        assert g.apply(deletions=deletions) == Graph(n, edges - _norm(deletions))

        vertices = rng.sample(range(n), rng.randint(0, n))
        sub, labels = g.induced(vertices)
        assert labels == tuple(sorted(vertices))
        index = {v: i for i, v in enumerate(labels)}
        kept = {(index[u], index[v]) for u, v in edges if u in index and v in index}
        assert sub == Graph(len(labels), frozenset(kept)) and sub.edges == kept

        arcs = frozenset(e[:: rng.choice((1, -1))] for e in edges)
        assert from_arcs(n, arcs).underlying == g


def test_row_graph_rejects_what_the_edge_set_graph_rejects():
    g = Graph(3, frozenset({(1, 2)}))
    # Row 2 has bit 1 set, so a negative index would wrap round to it.
    assert not g.has_edge(-1, 1) and not g.has_edge(1, -1)
    assert not g.has_edge(1, 3) and not g.has_edge(3, 1)
    for pair in ((1, 1), (0, 3), (-1, 2), (3, 0)):
        with pytest.raises(GraphError):
            g.apply(additions=[pair])
        with pytest.raises(GraphError):
            g.apply(deletions=[pair])
    with pytest.raises(GraphError, match="loop at vertex 1"):
        g.apply(additions=[(1, 1)])
    with pytest.raises(GraphError, match=r"bad edge \(0, 3\) for n=3"):
        g.apply(additions=[(3, 0)])
    with pytest.raises(GraphError):
        g.induced({0, 3})
    assert g != Graph(3, frozenset({(0, 1)})) and g != Graph(4, frozenset({(1, 2)}))
