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
from euleredit.cdpe import rewire_tjoin_for_connectivity
from euleredit.graphs import components
from euleredit.tjoin import TJoin

from conftest import odd_vertices, random_graph


def _inst(n, edges, deficient=()):
    g = Graph.from_edges(n, edges)
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
    edge = Graph.from_edges(2, [(0, 1)])
    empty = Graph(2, frozenset())
    assert solve_cdpe_ea_ed(ParityInstance(edge, (0, 0))).verdict \
        is Verdict.NO_INSTANCE  # T = V on K2
    assert solve_cdpe_ea_ed(ParityInstance(edge, (1, 1))).opt == 0
    assert solve_cdpe_ea_ed(ParityInstance(empty, (0, 0))).verdict \
        is Verdict.NO_INSTANCE  # connecting flips both parities
    assert solve_cdpe_ea_ed(ParityInstance(empty, (1, 1))).opt == 1


def test_ea_ed_star_bridge_case():
    # G[T] = K_{1,3} with every star edge a bridge: opt is |T|/2 + 1.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
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
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    join = TJoin(frozenset({(0, 2), (1, 3)}))
    rewired = rewire_tjoin_for_connectivity(g, join)
    assert rewired.size == join.size
    assert odd_vertices(rewired.edges) == odd_vertices(join.edges)
    h = g.apply(additions=rewired.edges)
    assert len(components(h)) <= len(components(g.apply(additions=join.edges)))


def test_rewire_rejects_existing_edges():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(GraphError):
        rewire_tjoin_for_connectivity(g, TJoin(frozenset({(0, 1)})))


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
