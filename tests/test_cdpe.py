import random

import pytest

from euleredit import (
    Graph,
    GraphError,
    OperationSet,
    ParityInstance,
    Verdict,
    solve_cdpe_ea,
    solve_cdpe_ea_ed,
    solve_dpe,
    verify_parity,
)
from itertools import combinations

import euleredit.cdpe as cdpe
from euleredit.cdpe import rewire_tjoin_for_connectivity
from euleredit.graphs import components
from euleredit.tjoin import TJoin

from conftest import (
    from_edges,
    odd_vertices,
    random_graph,
    reference_cross_swap,
    reference_edge_detour_swap,
)


def _inst(n, edges, deficient=()):
    g = from_edges(n, edges)
    delta = tuple((g.degree(v) + (v in set(deficient))) % 2 for v in range(n))
    return ParityInstance(g, delta, None)


def test_rejects_empty_graph():
    inst = ParityInstance(Graph(0, frozenset()), ())
    with pytest.raises(GraphError):
        solve_cdpe_ea(inst)
    with pytest.raises(GraphError):
        solve_cdpe_ea_ed(inst)
    with pytest.raises(GraphError):
        solve_dpe(inst, OperationSet.ADD)


def test_single_vertex():
    assert solve_cdpe_ea(ParityInstance(Graph(1, frozenset()), (0,))).opt == 0
    out = solve_cdpe_ea(ParityInstance(Graph(1, frozenset()), (1,)))
    assert out.verdict is Verdict.NO_INSTANCE
    assert solve_cdpe_ea_ed(ParityInstance(Graph(1, frozenset()), (1,))).verdict \
        is Verdict.NO_INSTANCE


def test_already_solved():
    inst = _inst(3, [(0, 1), (1, 2), (0, 2)])
    for out in (solve_cdpe_ea(inst), solve_cdpe_ea_ed(inst)):
        assert out.verdict is Verdict.SOLVED
        assert out.opt == 0 and out.solution.size == 0


def test_ea_rep_cycle_for_plain_components():
    inst = _inst(9, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                     (6, 7), (6, 8), (7, 8)])
    out = solve_cdpe_ea(inst)
    assert out.opt == 3
    assert not out.solution.deletions


def test_ea_two_cliques_need_a_square():
    inst = _inst(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    out = solve_cdpe_ea(inst)
    assert out.opt == 4


def test_ea_isolated_vertex_plus_clique_infeasible():
    inst = _inst(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert solve_cdpe_ea(inst).verdict is Verdict.NO_INSTANCE
    # Addition+deletion can break the clique instead.
    assert solve_cdpe_ea_ed(inst).opt == 3


def test_ea_general_case_lower_bounds():
    inst = _inst(6, [(0, 1), (2, 3), (4, 5)], deficient=(0, 1))
    out = solve_cdpe_ea(inst)
    assert out.verdict is Verdict.SOLVED
    counts = out.counts
    p, q = counts.plain_components, counts.deficient_components
    assert out.opt >= max(out.join_size, p + q - 1, p + len(counts.deficient) // 2)


def test_ea_ed_two_vertices():
    edge = from_edges(2, [(0, 1)])
    empty = Graph(2, frozenset())
    assert solve_cdpe_ea_ed(ParityInstance(edge, (0, 0))).verdict \
        is Verdict.NO_INSTANCE  # T = V on K2
    assert solve_cdpe_ea_ed(ParityInstance(edge, (1, 1))).opt == 0
    assert solve_cdpe_ea_ed(ParityInstance(empty, (0, 0))).verdict \
        is Verdict.NO_INSTANCE  # connecting flips both parities
    assert solve_cdpe_ea_ed(ParityInstance(empty, (1, 1))).opt == 1


def test_ea_ed_star_bridge_case():
    # G[T] = K_{1,3} with every star edge a bridge: opt is |T|/2 + 1.
    g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    delta = tuple((g.degree(v) + (v in {0, 1, 2, 3})) % 2 for v in range(5))
    out = solve_cdpe_ea_ed(ParityInstance(g, delta))
    assert out.counts.deficient == {0, 1, 2, 3}
    assert out.opt == len(out.counts.deficient) // 2 + 1


def test_budget_feasibility_flag():
    inst = ParityInstance(Graph(4, frozenset()), (0, 0, 0, 0), budget=3)
    out = solve_cdpe_ea(inst)
    assert out.opt == 4 and out.feasible_within_budget is False
    out = solve_cdpe_ea(ParityInstance(Graph(4, frozenset()), (0, 0, 0, 0), budget=4))
    assert out.feasible_within_budget is True
    out = solve_cdpe_ea(ParityInstance(Graph(4, frozenset()), (0, 0, 0, 0)))
    assert out.feasible_within_budget is None


def test_rewire_preserves_join_and_size():
    g = from_edges(6, [(0, 1), (2, 3), (4, 5)])
    join = TJoin(frozenset({(0, 2), (1, 3)}))
    rewired = rewire_tjoin_for_connectivity(g, join)
    assert rewired.size == join.size
    assert odd_vertices(rewired.edges) == odd_vertices(join.edges)
    h = g.apply(additions=rewired.edges)
    assert len(components(h)) <= len(components(g.apply(additions=join.edges)))


def test_rewire_rejects_existing_edges():
    g = from_edges(2, [(0, 1)])
    with pytest.raises(GraphError):
        rewire_tjoin_for_connectivity(g, TJoin(frozenset({(0, 1)})))


def _detour(g, join):
    """The shared detour swap and the undirected reference on one G+F."""
    comps = components(g.apply(additions=join))
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    shared = cdpe._detour_swap(
        g, join, comps, cdpe._apply_edges, cdpe._edge_meetings, cdpe._edge
    )
    return shared, reference_edge_detour_swap(g, join, comps, comp_of)


def test_detour_takes_the_second_end_when_only_it_stays_with_mid():
    # Edges 0-1 and 1-2 of F meet at mid 1.  Without them 0 is cut off
    # from 1 while 2 still reaches it through 3, so the detour runs 2-x-0.
    g = from_edges(5, [(1, 3), (2, 3)])
    join = {(0, 1): 1, (1, 2): 1}
    shared, reference = _detour(g, join)
    assert shared == reference == {(2, 4): 1, (0, 4): 1}
    rewired = rewire_tjoin_for_connectivity(g, TJoin(frozenset(join)))
    assert rewired.edges == {(2, 4), (0, 4)}


def test_detour_swap_matches_reference_on_seeded_joins():
    rng = random.Random(20261020)
    found = 0
    for _ in range(1500):
        n = rng.randrange(3, 10)
        g = random_graph(rng, n, rng.uniform(0.05, 0.4))
        missing = [e for e in combinations(range(n), 2) if not g.has_edge(*e)]
        size = min(len(missing), rng.randrange(2, 7))
        join = dict.fromkeys(rng.sample(missing, size), 1)
        if len(components(g.apply(additions=join))) == 1:
            continue
        shared, reference = _detour(g, join)
        assert shared == reference
        found += shared is not None
    assert found > 50


def test_detour_swap_matches_reference_in_the_solvers(monkeypatch):
    shared = cdpe._detour_swap
    found = []

    def checked(g, join, comps, apply_join, meetings, pair):
        swapped = shared(g, join, comps, apply_join, meetings, pair)
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        assert swapped == reference_edge_detour_swap(g, join, comps, comp_of)
        found.append(swapped is not None)
        return swapped

    monkeypatch.setattr(cdpe, "_detour_swap", checked)
    rng = random.Random(16)
    for _ in range(3000):
        n = rng.randrange(3, 12)
        g = random_graph(rng, n, rng.uniform(0.02, 0.5))
        deficient = rng.sample(range(n), 2 * rng.randrange(n // 2 + 1))
        inst = _inst(n, g.edges, deficient)
        solve_cdpe_ea(inst)
        solve_cdpe_ea_ed(inst)
    assert any(found) and not all(found)


def _cross_cases(rng):
    """Seeded (join, comp_of, crossable) triples, with the edge cases first:
    an empty join, every element in one component (no xy for any uv),
    and crossable elements that share the first element's component."""
    yield {}, {v: 0 for v in range(4)}, lambda uv: True
    yield {(0, 1): 1, (1, 2): 2}, {0: 0, 1: 0, 2: 0, 3: 1}, lambda uv: True
    comp_of = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
    join = {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1}
    yield join, comp_of, lambda uv: uv != (0, 1)
    for _ in range(3000):
        n = rng.randrange(2, 9)
        comp_of = {v: rng.randrange(rng.randrange(1, 4)) for v in range(n)}
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        picked = rng.sample(pairs, rng.randrange(len(pairs)))
        join = {e: rng.choice((1, 1, 2)) for e in picked}
        crossable = set(rng.sample(sorted(join), rng.randrange(len(join) + 1)))
        yield join, comp_of, crossable.__contains__


def test_cross_swap_matches_the_nested_scan():
    swaps = 0
    for join, comp_of, crossable in _cross_cases(random.Random(5)):
        for pair in (cdpe._edge, lambda a, b: (a, b)):
            swapped = cdpe._cross_swap(join, comp_of, crossable, pair)
            assert swapped == reference_cross_swap(join, comp_of, crossable, pair)
            swaps += swapped is not None
    assert swaps > 1000


def test_solve_dpe_ignores_connectivity():
    inst = _inst(4, [(0, 1), (2, 3)], deficient=(0, 2))
    for s in OperationSet:
        out = solve_dpe(inst, s)
        assert out.opt == out.join_size
        report = verify_parity(
            inst, out.solution.additions, out.solution.deletions,
            claimed_opt=out.opt, require_connected=False,
        )
        assert report.valid
    assert solve_dpe(inst, OperationSet.ADD).opt <= solve_cdpe_ea(inst).opt


def test_witnesses_verify_on_random_instances(rng):
    for _ in range(150):
        n = rng.randrange(2, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        delta = [rng.randrange(2) for _ in range(n)]
        if sum(1 for v in range(n) if g.degree(v) % 2 != delta[v]) % 2:
            delta[0] ^= 1
        inst = ParityInstance(g, tuple(delta))
        for solver in (solve_cdpe_ea, solve_cdpe_ea_ed):
            out = solver(inst)
            if out.verdict is Verdict.SOLVED:
                report = verify_parity(
                    inst, out.solution.additions, out.solution.deletions, out.opt
                )
                assert report.valid, report.failures
                if solver is solve_cdpe_ea:
                    assert not out.solution.deletions
