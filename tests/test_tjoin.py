import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euleredit import Graph, OperationSet, ParityInstance, Verdict, solve_dpe
from euleredit.graphs import bfs_layers, components, parity_counts
from euleredit.matching import min_weight_perfect_matching
from euleredit.oracle import oracle_min_t_join
from euleredit.tjoin import OperationGraph, TJoin, build_gs, min_t_join

from conftest import (
    from_edges,
    odd_vertices,
    random_graph,
    reference_min_t_join,
    weight_table,
)


def test_build_gs_modes():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert build_gs(g).base.edges == g.complement().edges


def test_tjoin_odd_vertices():
    j = TJoin(frozenset({(0, 1), (1, 2), (2, 3)}))
    assert odd_vertices(j.edges) == {0, 3}
    assert j.size == 3


def test_min_t_join_nonexistence():
    g = from_edges(4, [(0, 1), (2, 3)])
    gs = OperationGraph(g)
    assert min_t_join(gs, {0, 1, 2}) is None  # odd T
    assert min_t_join(gs, {0, 2}) is None  # one terminal per component
    assert min_t_join(gs, frozenset()).size == 0


def test_min_t_join_path():
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    gs = OperationGraph(g)
    j = min_t_join(gs, {0, 4})
    assert j.size == 4 and odd_vertices(j.edges) == {0, 4}
    j = min_t_join(gs, {0, 1, 3, 4})
    assert j.size == 2


def test_min_t_join_prefers_pairing():
    # Matching terminals greedily by one pair at a time is suboptimal here.
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    gs = OperationGraph(g)
    assert min_t_join(gs, {0, 2, 3, 5}).size == 4


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 6), st.floats(0.1, 0.9))
def test_min_t_join_matches_oracle(seed, n, density):
    g = random_graph(random.Random(seed), n, density)
    rng = random.Random(seed + 1)
    t = frozenset(v for v in range(n) if rng.random() < 0.5)
    if len(t) % 2:
        t = t - {min(t)}
    j = min_t_join(OperationGraph(g), t)
    want = oracle_min_t_join(g, t)
    if want is None:
        assert j is None
    else:
        assert j is not None
        assert j.size == want
        assert odd_vertices(j.edges) == t
        assert j.edges <= g.edges


def test_min_t_join_deterministic():
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    gs = OperationGraph(g)
    first = min_t_join(gs, {0, 2})
    assert all(min_t_join(gs, {0, 2}) == first for _ in range(5))


def test_min_t_join_parent_is_smallest_neighbour():
    # 3 has two neighbours at distance 1 from 0; the path runs through the smaller.
    g = from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)])
    assert min_t_join(OperationGraph(g), {0, 3}).edges == {(0, 1), (1, 3)}


def test_uniform_weights_give_nested_pairing():
    # solve_dpe under ea+ed pairs T this way instead of running the blossom.
    for k in range(0, 65, 2):
        weight = dict.fromkeys(combinations(range(k), 2), 1)
        matching = min_weight_perfect_matching(weight_table(k, weight))
        assert matching.edges == {(i, k - 1 - i) for i in range(k // 2)}


def test_dpe_ea_ed_equals_t_join_of_complete_graph():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.random())
        inst = ParityInstance(g, tuple(rng.randrange(2) for _ in range(n)))
        outcome = solve_dpe(inst, OperationSet.ADD_DELETE)
        complete = from_edges(n, combinations(range(n), 2))
        join = min_t_join(OperationGraph(complete), parity_counts(inst).deficient)
        if join is None:
            assert outcome.verdict is Verdict.NO_INSTANCE
        else:
            assert outcome.solution.additions == join.edges - g.edges
            assert outcome.solution.deletions == join.edges & g.edges


def test_component_parity_decides_existence():
    for seed in range(200):
        g = random_graph(random.Random(seed), 6, 0.3)
        rng = random.Random(seed * 7 + 1)
        t = frozenset(v for v in range(6) if rng.random() < 0.5)
        j = min_t_join(OperationGraph(g), t)
        feasible = len(t) % 2 == 0 and all(
            len(c & t) % 2 == 0 for c in components(g)
        )
        assert (j is not None) == feasible


def test_min_t_join_size_matches_networkx():
    # Beyond the oracle's reach: the T-join under ea against a min-weight
    # perfect matching of T on the BFS distances in the complement, both
    # from networkx.
    nx = pytest.importorskip("networkx")
    rng = random.Random(0x7A11)
    for _ in range(40):
        n = rng.randint(2, 60)
        g = random_graph(rng, n, rng.uniform(0.02, 0.97))
        t = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        base = nx.Graph(list(g.edges))
        base.add_nodes_from(range(n))
        co = nx.complement(base)
        pairs = nx.Graph()
        pairs.add_nodes_from(t)
        for s in t:
            dist = nx.single_source_shortest_path_length(co, s)
            pairs.add_weighted_edges_from(
                (s, v, dist[v]) for v in t if v > s and v in dist
            )
        pairing = nx.min_weight_matching(pairs)
        j = min_t_join(build_gs(g), frozenset(t))
        if 2 * len(pairing) < len(t):
            assert j is None, (n, sorted(g.edges), t)
        else:
            want = sum(pairs[u][v]["weight"] for u, v in pairing)
            assert j is not None and j.size == want, (n, sorted(g.edges), t)
            assert odd_vertices(j.edges) == frozenset(t)
            assert not j.edges & g.edges


def _even_terminals(rng, n, comps):
    """An even random T, or one with an even share of every component."""
    if rng.random() < 0.5:
        t = [v for v in range(n) if rng.random() < 0.5]
        return frozenset(t[: len(t) // 2 * 2])
    t = set()
    for comp in comps:
        t.update(rng.sample(sorted(comp), len(comp) // 2 * 2 if rng.random() < 0.7 else 0))
    return frozenset(t)


def _assert_same_join(g, t):
    gs = build_gs(g)
    got, want = min_t_join(gs, t), reference_min_t_join(gs, t)
    assert (got is None) == (want is None), (g.n, sorted(g.edges), sorted(t))
    if want is not None:
        assert got.edges == want.edges, (g.n, sorted(g.edges), sorted(t))
    return want


def test_min_t_join_matches_full_depth_reference():
    # The search from each terminal stops at its farthest later terminal; the
    # full-depth BFS of the reference must give the same join, edge for edge.
    rng = random.Random(0x7E57)
    covered = set()
    for _ in range(400):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.uniform(0.02, 0.97))
        co = g.complement()
        comps = components(co)
        t = _even_terminals(rng, n, comps)
        if _assert_same_join(g, t) is None:
            continue
        if len(comps) > 1:
            covered.add("disconnected complement")
        if sum(1 for c in comps if c & t) > 1:
            covered.add("forbidden pair")
        tmask = sum(1 << v for v in t)
        for s in t:
            layers = bfs_layers(co.adjacency_bits, s, (1 << n) - 1)
            if any(layer & tmask for layer in layers[3:]):
                covered.add("distance >= 3")
    assert covered == {"disconnected complement", "forbidden pair", "distance >= 3"}

    n = 300
    sparse = Graph(n, rng.sample(list(combinations(range(n), 2)), n))
    dense = random_graph(rng, n, 0.9)
    for g in (sparse, dense):
        t = _even_terminals(rng, n, components(g.complement()))
        assert _assert_same_join(g, t) is not None
