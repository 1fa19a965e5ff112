import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euleredit import Digraph, GraphError, OperationSet
from euleredit.cdbe import extract_af_df
from euleredit.fjoin import DirectedFJoin, build_gs_directed, min_f_join
from euleredit.oracle import oracle_min_f_join

from conftest import balance, from_arcs, paths, random_digraph


def test_build_gs_add_only():
    g = from_arcs(3, [(0, 1)])
    gs = build_gs_directed(g, OperationSet.ADD)
    assert (0, 1) not in gs.base.arcs
    assert (1, 0) in gs.base.arcs
    assert not gs.base.doubled
    # The single copy of (1,0) stands for adding it; (0,1) stands for nothing.
    assert gs.base.multiplicity((1, 0)) == 1
    add = extract_af_df(DirectedFJoin({(1, 0): 1}), g)
    assert add.additions == {(1, 0)} and not add.deletions
    assert gs.base.multiplicity((0, 1)) == 0


def test_build_gs_add_delete():
    g = from_arcs(3, [(0, 1)])
    gs = build_gs_directed(g, OperationSet.ADD_DELETE)
    # (1,0) is both addable and stands for deleting (0,1): a doubled arc.
    assert gs.base.multiplicity((1, 0)) == 2
    both = extract_af_df(DirectedFJoin({(1, 0): 2}), g)
    assert both.additions == {(1, 0)} and both.deletions == {(0, 1)}
    assert gs.base.multiplicity((0, 1)) == 0
    assert gs.base.multiplicity((0, 2)) == 1


def test_build_gs_rejects_multigraphs():
    with pytest.raises(GraphError):
        build_gs_directed(
            Digraph(2, frozenset({(0, 1)}), frozenset({(0, 1)})), OperationSet.ADD
        )


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
            assert all(
                mult <= gs.base.multiplicity(arc) for arc, mult in j.arcs.items()
            )
            _check_paths(j, fmap)
