import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euleredit import Graph
from euleredit.matching import (
    FORBIDDEN,
    Matching,
    WeightedCompleteGraph,
    max_matching,
    min_weight_perfect_matching,
)
from euleredit.oracle import (
    brute_force_max_matching_size,
    brute_force_min_perfect_cost,
    matching_cost,
)

from conftest import covered, random_graph

graphs = st.integers(0, 12).flatmap(
    lambda n: st.builds(
        Graph,
        st.just(n),
        st.frozensets(
            st.tuples(st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1)))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e)))
        ),
    )
)


def test_matching_rejects_shared_vertices():
    with pytest.raises(ValueError):
        Matching(frozenset({(0, 1), (1, 2)}))
    with pytest.raises(ValueError):
        Matching(frozenset({(3, 3)}))


def test_weighted_graph_validation():
    with pytest.raises(ValueError):
        WeightedCompleteGraph(2, {})
    with pytest.raises(ValueError):
        WeightedCompleteGraph(2, {(0, 1): -1})
    w = WeightedCompleteGraph(2, {(1, 0): 5})
    assert w.get(0, 1) == 5


def test_max_matching_small_cases():
    assert max_matching(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])).size == 2
    # Odd cycle: needs a blossom to see the answer is 2.
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert max_matching(c5).size == 2
    # Petersen graph has a perfect matching.
    petersen = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
         (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert max_matching(petersen).size == 5


def test_min_weight_perfect_matching_basics():
    w = WeightedCompleteGraph(4, {(0, 1): 1, (0, 2): 2, (0, 3): 9,
                                  (1, 2): 9, (1, 3): 2, (2, 3): 1})
    m = min_weight_perfect_matching(w)
    assert m is not None and matching_cost(m, w) == 2
    assert min_weight_perfect_matching(WeightedCompleteGraph(3, {
        (0, 1): 1, (0, 2): 1, (1, 2): 1})) is None
    # All pairings of some vertex forbidden -> no perfect matching.
    blocked = WeightedCompleteGraph(4, {(0, 1): FORBIDDEN, (0, 2): FORBIDDEN,
                                        (0, 3): FORBIDDEN, (1, 2): 1,
                                        (1, 3): 1, (2, 3): 1})
    assert min_weight_perfect_matching(blocked) is None


@settings(max_examples=300, deadline=None)
@given(graphs)
def test_max_matching_against_subset_dp(g):
    m = max_matching(g)
    assert m.edges <= g.edges
    assert m.size == brute_force_max_matching_size(g)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 12))
def test_min_weight_perfect_matching_against_subset_dp(data, k):
    weight = {
        (u, v): data.draw(
            st.one_of(st.integers(0, 9), st.just(FORBIDDEN)), label=f"w({u},{v})"
        )
        for u in range(k)
        for v in range(u + 1, k)
    }
    w = WeightedCompleteGraph(k, weight)
    expected = brute_force_min_perfect_cost(w)
    m = min_weight_perfect_matching(w)
    if expected is None:
        assert m is None
    else:
        assert m is not None
        assert covered(m.edges) == frozenset(range(k))
        assert matching_cost(m, w) == expected


def test_max_matching_size_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(0x3A7C)
    for _ in range(40):
        n = rng.randint(2, 60)
        g = random_graph(rng, n, rng.uniform(0.02, 0.5))
        m = max_matching(g)
        assert m.edges <= g.edges
        want = nx.max_weight_matching(nx.Graph(list(g.edges)), maxcardinality=True)
        assert m.size == len(want), (n, sorted(g.edges))
