import random

from hypothesis import given, settings
from hypothesis import strategies as st

from euleredit import (
    Graph,
    OperationSet,
    TJoin,
    build_gs,
    components,
    min_t_join,
    oracle_min_t_join,
)
from euleredit.tjoin import OperationGraph

from conftest import random_graph


def test_build_gs_modes():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert build_gs(g, OperationSet.ADD).base.edges == g.complement().edges
    assert build_gs(g, OperationSet.ADD_DELETE).base.edges == Graph.complete(4).edges


def test_tjoin_odd_vertices():
    j = TJoin(frozenset({(0, 1), (1, 2), (2, 3)}))
    assert j.odd_vertices() == {0, 3}
    assert j.size == 3


def test_min_t_join_nonexistence():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    gs = OperationGraph(g)
    assert min_t_join(gs, {0, 1, 2}) is None  # odd T
    assert min_t_join(gs, {0, 2}) is None  # one terminal per component
    assert min_t_join(gs, frozenset()).size == 0


def test_min_t_join_path():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    gs = OperationGraph(g)
    j = min_t_join(gs, {0, 4})
    assert j.size == 4 and j.odd_vertices() == {0, 4}
    j = min_t_join(gs, {0, 1, 3, 4})
    assert j.size == 2


def test_min_t_join_prefers_pairing():
    # Matching terminals greedily by one pair at a time is suboptimal here.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
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
        assert j.odd_vertices() == t
        assert j.edges <= g.edges


def test_min_t_join_deterministic():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    gs = OperationGraph(g)
    first = min_t_join(gs, {0, 2})
    assert all(min_t_join(gs, {0, 2}) == first for _ in range(5))


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
