import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euleredit import Graph
from euleredit.matching import Matching, max_matching, min_weight_perfect_matching
from euleredit.tjoin import build_gs, min_t_join

from conftest import FORBIDDEN, covered, from_edges, random_graph, weight_table
from oracles import (
    brute_force_max_matching_size,
    brute_force_min_perfect_cost,
    matching_cost,
)

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


def test_max_matching_small_cases():
    assert max_matching(from_edges(4, [(0, 1), (1, 2), (2, 3)])).size == 2
    # Odd cycle: needs a blossom to see the answer is 2.
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert max_matching(c5).size == 2
    # Petersen graph has a perfect matching.
    petersen = from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
         (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert max_matching(petersen).size == 5


def test_min_weight_perfect_matching_basics():
    w = weight_table(4, {(0, 1): 1, (0, 2): 2, (0, 3): 9,
                         (1, 2): 9, (1, 3): 2, (2, 3): 1})
    m = min_weight_perfect_matching(w)
    assert m is not None and matching_cost(m, w) == 2
    assert min_weight_perfect_matching(weight_table(3, {
        (0, 1): 1, (0, 2): 1, (1, 2): 1})) is None
    # All pairings of some vertex forbidden -> no perfect matching.
    blocked = weight_table(4, {(0, 1): FORBIDDEN, (0, 2): FORBIDDEN,
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
    w = weight_table(k, weight)
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
    # (least n, largest n, density range): forty graphs up to n = 60, ten up
    # to n = 200 and one sparse graph at n = 1000.
    shapes = [(2, 60, 0.02, 0.5)] * 40 + [(61, 200, 0.005, 0.1)] * 10
    shapes.append((1000, 1000, 0.002, 0.002))
    for low, high, sparse, dense in shapes:
        n = rng.randint(low, high)
        g = random_graph(rng, n, rng.uniform(sparse, dense))
        m = max_matching(g)
        assert m.edges <= g.edges
        want = nx.max_weight_matching(nx.Graph(list(g.edges)), maxcardinality=True)
        assert m.size == len(want), (n, sorted(g.edges))


def _digest(results) -> str:
    text = json.dumps(results, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pairs(m) -> list | None:  # a Matching or a TJoin
    return None if m is None else sorted(map(list, m.edges))


def _blossom_decisions() -> dict[str, str]:
    """Digests of the exact matchings and joins chosen at bench sizes.

    Any two optimal matchings have the same size and cost, so the size
    checks above cannot see a change in the blossom's tie-breaks; these
    digests can.  They were computed with the blossom's earlier, dict-based
    state.
    """
    rng = random.Random(0xB10550)
    tables = []
    for _ in range(200):
        k = 2 * rng.randint(1, 30)
        weight = {
            (u, v): FORBIDDEN if rng.random() < 0.1 else rng.randint(0, 3)
            for u in range(k)
            for v in range(u + 1, k)
        }
        w = weight_table(k, weight)
        tables.append(_pairs(min_weight_perfect_matching(w)))
    graphs = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 60), rng.uniform(0.02, 0.6))
        graphs.append(_pairs(max_matching(g)))
    joins = []
    for _ in range(8):
        g = random_graph(rng, 100, 0.5)
        t = frozenset(rng.sample(range(100), 2 * rng.randint(10, 30)))
        joins.append(_pairs(min_t_join(build_gs(g), t)))
    return {
        "min_weight_perfect_matching": _digest(tables),
        "max_matching": _digest(graphs),
        "min_t_join": _digest(joins),
    }


def test_blossom_decisions_at_bench_sizes_are_pinned():
    assert _blossom_decisions() == {
        "min_weight_perfect_matching": "174109b569a7ec33",
        "max_matching": "94bd4d017bbd5043",
        "min_t_join": "1c3c100c87746f6e",
    }
