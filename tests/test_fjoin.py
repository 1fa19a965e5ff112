import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euleredit import OperationSet
from euleredit.cdbe import extract_af_df
from euleredit.fjoin import DirectedFJoin, build_gs_directed, min_f_join

from conftest import (
    balance,
    copies,
    from_arcs,
    paths,
    random_digraph,
    reference_min_f_join,
)
from oracles import oracle_min_f_join


def test_build_gs_add_only():
    g = from_arcs(3, [(0, 1)])
    mult = copies(build_gs_directed(g, OperationSet.ADD))
    assert 2 not in mult.values()
    # The single copy of (1,0) stands for adding it; (0,1) stands for nothing.
    assert mult[1, 0] == 1
    add = extract_af_df(DirectedFJoin({(1, 0): 1}), g)
    assert add.additions == {(1, 0)} and not add.deletions
    assert (0, 1) not in mult


def test_build_gs_add_delete():
    g = from_arcs(3, [(0, 1)])
    mult = copies(build_gs_directed(g, OperationSet.ADD_DELETE))
    # (1,0) is both addable and stands for deleting (0,1): a doubled arc.
    assert mult[1, 0] == 2
    both = extract_af_df(DirectedFJoin({(1, 0): 2}), g)
    assert both.additions == {(1, 0)} and both.deletions == {(0, 1)}
    assert (0, 1) not in mult
    assert mult[0, 2] == 1


def test_operation_graph_counts_every_arc_copy():
    # The benchmark's per-layer count fjoin.build_gs_directed.arcs is base.m.
    g = from_arcs(3, [(0, 1), (1, 2)])
    for mode, want in ((OperationSet.ADD, 4), (OperationSet.ADD_DELETE, 6)):
        gs = build_gs_directed(g, mode)
        assert gs.base.m == sum(copies(gs).values()) == want
    assert copies(gs)[1, 0] == 2  # ea+ed: add (1,0) and delete (0,1)


def test_min_f_join_basics():
    g = from_arcs(3, [])
    gs = build_gs_directed(g, OperationSet.ADD)
    assert min_f_join(gs, {0: 1, 1: -1}).size == 1
    assert min_f_join(gs, {}).size == 0
    assert min_f_join(gs, {0: 1}) is None  # unbalanced demand
    j = min_f_join(gs, {0: 2, 1: -1, 2: -1})
    assert j.size == 2 and balance(j.arcs) == {0: 2, 1: -1, 2: -1}


def test_min_f_join_uses_doubled_arcs():
    # Under ea+ed the arc (1,0) can be used twice: add it and delete (0,1).
    g = from_arcs(2, [(0, 1)])
    gs = build_gs_directed(g, OperationSet.ADD_DELETE)
    j = min_f_join(gs, {1: 2, 0: -2})
    assert j is not None and j.size == 2
    assert j.arcs == {(1, 0): 2}
    add_only = build_gs_directed(g, OperationSet.ADD)
    assert min_f_join(add_only, {1: 2, 0: -2}) is None


def test_min_f_join_infeasible():
    g = from_arcs(2, [(0, 1), (1, 0)])
    gs = build_gs_directed(g, OperationSet.ADD)
    assert min_f_join(gs, {0: 1, 1: -1}) is None


def _check_paths(j, f):
    decomposition = paths(j.arcs)
    counts: dict = {}
    for path in decomposition:
        assert path, "paths must be non-empty"
        for (a, b), (c, d) in zip(path, path[1:]):
            assert b == c, "paths must be contiguous"
        for arc in path:
            counts[arc] = counts.get(arc, 0) + 1
    assert counts == dict(j.arcs)
    starts: dict = {}
    ends: dict = {}
    for path in decomposition:
        starts[path[0][0]] = starts.get(path[0][0], 0) + 1
        ends[path[-1][1]] = ends.get(path[-1][1], 0) + 1
    assert starts == {v: x for v, x in f.items() if x > 0}
    assert ends == {v: -x for v, x in f.items() if x < 0}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 4), st.floats(0.1, 0.9))
def test_min_f_join_matches_oracle(seed, n, density):
    g = random_digraph(random.Random(seed), n, density)
    rng = random.Random(seed ^ 0x5F5F)
    f = [0] * n
    for _ in range(2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            f[u] += 1
            f[v] -= 1
    fmap = {v: f[v] for v in range(n) if f[v]}
    for mode in OperationSet:
        gs = build_gs_directed(g, mode)
        j = min_f_join(gs, fmap)
        want = oracle_min_f_join(gs, fmap)
        if want is None:
            assert j is None
        else:
            assert j is not None and j.size == want
            assert balance(j.arcs) == fmap
            mult = copies(gs)
            assert all(x <= mult.get(arc, 0) for arc, x in j.arcs.items())
            _check_paths(j, fmap)


def _random_f(rng: random.Random, n: int, units: int) -> dict[int, int]:
    """Up to ``units`` transfers of 1 to 3 from one vertex to another, and
    one time in ten a unit that goes nowhere, so the demand is unbalanced."""
    f = [0] * n
    for _ in range(units):
        u, v = rng.randrange(n), rng.randrange(n)
        x = rng.randint(1, 3)
        f[u] += x
        f[v] -= x
    if rng.random() < 0.1:
        f[rng.randrange(n)] += 1
    return {v: f[v] for v in range(n) if f[v]}


def test_min_f_join_matches_reference_ssp():
    # The bitmask SPFA must take the edge-list SPFA's paths, so the joins
    # agree arc for arc, in the same order, and on infeasibility.
    rng = random.Random(0xF10E)
    cases = [(rng.randint(1, 12), rng.uniform(0.05, 0.95), 6) for _ in range(3000)]
    cases += [(rng.randint(85, 95), rng.uniform(0.01, 0.95), 30) for _ in range(8)]
    # The directed benchmark's shape: sparse, with up to 40 transfers of supply.
    # Drawn apart so the cases above keep their graphs, from a seed whose
    # cases also make the sink re-label a drained vertex, which is rare here.
    shaped = random.Random(0xD1F6)
    cases += [
        (shaped.randint(72, 108), shaped.uniform(0.01, 0.03), 40) for _ in range(8)
    ]
    for n, density, units in cases:
        g = random_digraph(rng, n, density)
        f = _random_f(rng, n, rng.randint(0, units))
        for mode in OperationSet:
            gs = build_gs_directed(g, mode)
            got, want = min_f_join(gs, f), reference_min_f_join(gs, f)
            if want is None:
                assert got is None, (n, sorted(g.arcs), f, mode)
            else:
                assert got is not None, (n, sorted(g.arcs), f, mode)
                assert list(got.arcs.items()) == list(want.arcs.items())
                # No antiparallel pair: the directed detour swap relies on it.
                assert not any((v, u) in got.arcs for u, v in got.arcs)


def test_min_f_join_size_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(0x4E58)
    for _ in range(40):
        n = rng.randint(2, 60)
        g = random_digraph(rng, n, rng.uniform(0.02, 0.9))
        f = _random_f(rng, n, rng.randint(1, n))
        for mode in OperationSet:
            gs = build_gs_directed(g, mode)
            mult = copies(gs)
            net = nx.DiGraph()
            net.add_nodes_from((v, {"demand": -f.get(v, 0)}) for v in range(n))
            net.add_edges_from(
                (u, v, {"capacity": x, "weight": 1}) for (u, v), x in mult.items()
            )
            try:
                want = nx.min_cost_flow_cost(net)
            except nx.NetworkXUnfeasible:
                want = None
            j = min_f_join(gs, f)
            if want is None:
                assert j is None, (n, sorted(g.arcs), f, mode)
            else:
                assert j is not None and j.size == want, (n, sorted(g.arcs), f, mode)
                assert balance(j.arcs) == f
                assert all(x <= mult.get(a, 0) for a, x in j.arcs.items())
