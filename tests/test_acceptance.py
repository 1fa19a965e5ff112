"""Acceptance suite: exhaustive sweeps against the enumeration oracles,
known closed-form optima, large random batches, subroutine cross-checks,
and performance bounds.  Everything here is deterministic."""

import hashlib
import json
import random
import time
from itertools import combinations, product

import pytest

from euleredit import (
    BalanceInstance,
    Digraph,
    Graph,
    OperationSet,
    ParityInstance,
    Verdict,
    solve_cdbe,
    solve_cdpe_ea,
    solve_cdpe_ea_ed,
    solve_dbe,
    solve_dpe,
    verify_balance,
    verify_parity,
)
from euleredit.fjoin import build_gs_directed, min_f_join
from euleredit.matching import max_matching, min_weight_perfect_matching
from euleredit.oracle import (
    OracleBudget,
    brute_force_max_matching_size,
    brute_force_min_perfect_cost,
    matching_cost,
    oracle_cdbe,
    oracle_cdpe,
    oracle_min_f_join,
    oracle_min_t_join,
)
from euleredit.tjoin import OperationGraph, min_t_join

from conftest import (
    FORBIDDEN,
    all_digraphs,
    all_graphs,
    balance,
    covered,
    from_arcs,
    from_edges,
    graph_orbits,
    odd_vertices,
    random_digraph,
    random_graph,
    weight_table,
)

BUDGET = OracleBudget(12)

UNDIRECTED_SOLVERS = {
    OperationSet.ADD: solve_cdpe_ea,
    OperationSet.ADD_DELETE: solve_cdpe_ea_ed,
}


def _opt(outcome):
    return outcome.opt if outcome.verdict is Verdict.SOLVED else None


def _record(digest, outcome) -> None:
    """Add the outcome's verdict, opt and sorted edit sets to ``digest``.

    The sweeps pin their digests, so that they also fail on a witness that
    changed but is still valid and optimal.  The pinned values were computed
    before the blossom lost its unit-weight mode.
    """
    sol = outcome.solution
    edits = [] if sol is None else [sorted(sol.additions), sorted(sol.deletions)]
    digest.update(json.dumps([outcome.verdict.value, outcome.opt, *edits]).encode())

# -- Exhaustive undirected sweep vs oracle -------------------------------


def test_undirected_sweep_n5():
    start = time.perf_counter()
    digest = hashlib.sha256()
    for g in all_graphs(5):
        for delta in product((0, 1), repeat=5):
            inst = ParityInstance(g, delta)
            for s, solver in UNDIRECTED_SOLVERS.items():
                expected = oracle_cdpe(inst, s, BUDGET)
                outcome = solver(inst)
                _record(digest, outcome)
                got = _opt(outcome)
                assert got == expected, (sorted(g.edges), delta, s, got, expected)
                if got is not None:
                    sol = outcome.solution
                    assert verify_parity(
                        inst, sol.additions, sol.deletions, claimed_opt=got
                    ).valid
    assert digest.hexdigest()[:16] == "487be3ce5d29d97b"
    assert time.perf_counter() - start < 300


def test_undirected_sweep_n6_by_orbits():
    graphs = [Graph(6, e) for e in graph_orbits(6, list(combinations(range(6), 2)))]
    assert len(graphs) == 156  # OEIS A000088
    digest = hashlib.sha256()
    for g in graphs:
        for delta in product((0, 1), repeat=6):
            inst = ParityInstance(g, delta)
            for s, solver in UNDIRECTED_SOLVERS.items():
                outcomes = {True: solver(inst), False: solve_dpe(inst, s)}
                for connected, outcome in outcomes.items():
                    _record(digest, outcome)
                    expected = oracle_cdpe(inst, s, BUDGET, connected=connected)
                    got = _opt(outcome)
                    assert got == expected, (sorted(g.edges), delta, s, connected, got)
                    if got is not None:
                        sol = outcome.solution
                        assert verify_parity(
                            inst,
                            sol.additions,
                            sol.deletions,
                            claimed_opt=got,
                            require_connected=connected,
                        ).valid
    assert digest.hexdigest()[:16] == "ae2db15b2019a551"


# -- Exhaustive directed sweep vs oracle ---------------------------------


def test_directed_sweep_n4():
    start = time.perf_counter()
    deltas = [d for d in product((-1, 0, 1), repeat=4) if sum(d) == 0]
    digest = hashlib.sha256()
    for g in all_digraphs(4):
        for delta in deltas:
            inst = BalanceInstance(g, delta)
            for s in OperationSet:
                expected = oracle_cdbe(inst, s, BUDGET)
                outcome = solve_cdbe(inst, s)
                _record(digest, outcome)
                got = _opt(outcome)
                assert got == expected, (sorted(g.arcs), delta, s, got, expected)
                if got is not None:
                    sol = outcome.solution
                    assert verify_balance(
                        inst, sol.additions, sol.deletions, claimed_opt=got
                    ).valid
    assert digest.hexdigest()[:16] == "4d94d8b8e9e8de3d"
    assert time.perf_counter() - start < 600


def test_directed_sweep_n5_by_orbit_sample():
    """Eulerian editing (δ ≡ 0) and two seeded δ of one to three unit
    transfers, on 1,000 of the 9,608 digraph classes on 5 vertices: those at
    the indices ``random.Random(0xD5).sample(range(9608), 1000)`` of the
    ascending list ``graph_orbits`` gives, under ``solve_cdbe`` and
    ``solve_dbe`` with both operation sets."""
    arcs = [(u, v) for u in range(5) for v in range(5) if u != v]
    classes = list(graph_orbits(5, arcs))
    assert len(classes) == 9608  # OEIS A000273
    rng = random.Random(0xD5)
    digest = hashlib.sha256()
    for index in sorted(rng.sample(range(len(classes)), 1000)):
        g = Digraph(5, classes[index])
        deltas = [(0,) * 5]
        for _ in range(2):
            delta = [0] * 5
            for _ in range(rng.randint(1, 3)):
                u, v = rng.sample(range(5), 2)
                delta[u] += 1
                delta[v] -= 1
            deltas.append(tuple(delta))
        for delta in deltas:
            inst = BalanceInstance(g, delta)
            for s in OperationSet:
                outcomes = {True: solve_cdbe(inst, s), False: solve_dbe(inst, s)}
                for connected, outcome in outcomes.items():
                    _record(digest, outcome)
                    expected = oracle_cdbe(inst, s, BUDGET, connected=connected)
                    got = _opt(outcome)
                    assert got == expected, (sorted(g.arcs), delta, s, connected, got)
                    if got is not None:
                        sol = outcome.solution
                        assert verify_balance(
                            inst,
                            sol.additions,
                            sol.deletions,
                            claimed_opt=got,
                            require_connected=connected,
                        ).valid
    assert digest.hexdigest()[:16] == "4ab1b9661e0e27a8"


# -- Known closed-form optima ----------------------------------


def _zero_parity_instance(g: Graph) -> ParityInstance:
    return ParityInstance(g, tuple(g.degree(v) % 2 for v in range(g.n)))


def _cliques(*sizes: int) -> Graph:
    edges = []
    offset = 0
    for size in sizes:
        edges.extend((offset + a, offset + b) for a, b in combinations(range(size), 2))
        offset += size
    return from_edges(offset, edges)


def test_isolated_vertex_plus_k4_is_infeasible_under_addition():
    out = solve_cdpe_ea(_zero_parity_instance(_cliques(1, 4)))
    assert out.verdict is Verdict.NO_INSTANCE


def test_k2_plus_k3_needs_four_additions():
    assert solve_cdpe_ea(_zero_parity_instance(_cliques(2, 3))).opt == 4


@pytest.mark.parametrize("p", [3, 4, 5])
def test_p_disjoint_triangles_need_p_additions(p):
    inst = _zero_parity_instance(_cliques(*([3] * p)))
    assert solve_cdpe_ea(inst).opt == p


def test_two_disjoint_edges_need_three_edits():
    assert solve_cdpe_ea_ed(_zero_parity_instance(_cliques(2, 2))).opt == 3


def test_p3_star_bridge_case():
    inst = ParityInstance(from_edges(3, [(0, 1), (1, 2)]), (1, 1, 0))
    out = solve_cdpe_ea_ed(inst)
    assert out.counts.deficient == {1, 2}
    assert out.opt == 2


def test_k2_with_every_vertex_deficient_is_infeasible():
    inst = ParityInstance(from_edges(2, [(0, 1)]), (0, 0))
    assert solve_cdpe_ea_ed(inst).verdict is Verdict.NO_INSTANCE


def test_two_directed_triangles_need_two_additions():
    g = from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    out = solve_cdbe(BalanceInstance(g, g.balances), OperationSet.ADD)
    assert out.opt == 2


# -- Random batches with full witness checking -----------------


def _check_undirected_outcome(inst, outcome, exact: bool):
    if outcome.verdict is not Verdict.SOLVED:
        return
    sol = outcome.solution
    report = verify_parity(inst, sol.additions, sol.deletions, claimed_opt=outcome.opt)
    assert report.valid, report.failures
    counts = outcome.counts
    p, q = counts.plain_components, counts.deficient_components
    assert outcome.opt >= outcome.join_size
    assert outcome.opt >= p + q - 1
    if q > 0:
        bound = max(outcome.join_size, p + q - 1, p + len(counts.deficient) // 2)
        assert outcome.opt >= p + len(counts.deficient) // 2
        if exact:
            assert outcome.opt == bound
        else:
            # Under addition+deletion one exceptional case pays one extra.
            assert bound <= outcome.opt <= bound + 1


@pytest.mark.parametrize("s", list(OperationSet), ids=lambda s: s.value)
def test_random_undirected_batch(s):
    rng = random.Random(0xCD9E + (0 if s is OperationSet.ADD else 1))
    solver = UNDIRECTED_SOLVERS[s]
    solved = 0
    for _ in range(10_000):
        n = rng.randrange(2, 61)
        g = random_graph(rng, n, rng.choice([0.05, 0.2, 0.5, 0.9]))
        delta = tuple(rng.randrange(2) for _ in range(n))
        inst = ParityInstance(g, delta)
        outcome = solver(inst)
        _check_undirected_outcome(inst, outcome, exact=s is OperationSet.ADD)
        solved += outcome.verdict is Verdict.SOLVED
    assert solved > 1000  # the batch genuinely exercises the solved path


def _check_directed_outcome(inst, outcome):
    if outcome.verdict is not Verdict.SOLVED:
        return
    sol = outcome.solution
    report = verify_balance(inst, sol.additions, sol.deletions, claimed_opt=outcome.opt)
    assert report.valid, report.failures
    counts = outcome.counts
    p, q, t = counts.plain_components, counts.deficient_components, counts.total_imbalance
    assert outcome.opt >= outcome.join_size
    assert outcome.opt >= p + q - 1
    if q > 0:
        assert outcome.opt >= p + t // 2
        assert outcome.opt == max(outcome.join_size, p + q - 1, p + t // 2)


@pytest.mark.parametrize("s", list(OperationSet), ids=lambda s: s.value)
def test_random_directed_batch(s):
    rng = random.Random(0xDBE + (0 if s is OperationSet.ADD else 1))
    solved = 0
    for _ in range(10_000):
        n = rng.randrange(2, 41)
        g = random_digraph(rng, n, rng.choice([0.05, 0.2, 0.5]))
        delta = [0] * n
        for _ in range(rng.randrange(4)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                delta[u] += 1
                delta[v] -= 1
        inst = BalanceInstance(g, tuple(delta))
        outcome = solve_cdbe(inst, s)
        _check_directed_outcome(inst, outcome)
        solved += outcome.verdict is Verdict.SOLVED
    assert solved > 1000


# -- Subroutines against their own oracles ---------------------


def test_min_t_join_exhaustive_up_to_n6():
    for n in range(1, 7):
        for g in all_graphs(n):
            gs = OperationGraph(g)
            for tmask in range(1 << n):
                if bin(tmask).count("1") % 2:
                    continue
                t = frozenset(v for v in range(n) if tmask >> v & 1)
                join = min_t_join(gs, t)
                expected = oracle_min_t_join(g, t)
                if expected is None:
                    assert join is None
                else:
                    assert join is not None
                    assert join.size == expected
                    assert odd_vertices(join.edges) == t
                    assert join.edges <= g.edges


def test_min_f_join_exhaustive_up_to_n4():
    for n in range(1, 5):
        fs = [
            f
            for f in product(range(-2, 3), repeat=n)
            if sum(f) == 0 and sum(abs(x) for x in f) <= 4
        ]
        for g in all_digraphs(n):
            for s in OperationSet:
                gs = build_gs_directed(g, s)
                for f in fs:
                    fmap = {v: f[v] for v in range(n) if f[v]}
                    join = min_f_join(gs, fmap)
                    expected = oracle_min_f_join(gs, fmap)
                    if expected is None:
                        assert join is None
                    else:
                        assert join is not None
                        assert join.size == expected
                        assert balance(join.arcs) == fmap


def test_matchers_against_subset_dp():
    rng = random.Random(0xA7C4)
    for _ in range(2_000):
        k = rng.randrange(0, 13)
        g = random_graph(rng, k, rng.uniform(0.1, 0.9))
        assert max_matching(g).size == brute_force_max_matching_size(g)
        weight = {
            (u, v): FORBIDDEN if rng.random() < 0.2 else rng.randrange(10)
            for u, v in combinations(range(k), 2)
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


# -- Performance envelope -----------------------------------------------


def _timed_solve(n: int, solve=solve_cdpe_ea) -> float:
    rng = random.Random(0xBE2C + n)
    g = random_graph(rng, n, 0.5)
    delta = [rng.randrange(2) for _ in range(n)]
    if sum(1 for v in range(n) if g.degree(v) % 2 != delta[v]) % 2:
        delta[0] ^= 1
    return _best_of_three(solve, ParityInstance(g, tuple(delta)))


def _best_of_three(solve, inst) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        outcome = solve(inst)
        best = min(best, time.perf_counter() - start)
        assert outcome.verdict is Verdict.SOLVED
    return best


def test_addition_solver_scales():
    times = {n: _timed_solve(n) for n in (75, 150, 300)}
    assert times[300] < 10.0
    # At most cubic growth: a factor of 10 per doubling of n, with a floor
    # so that sub-millisecond noise cannot dominate the ratio.
    assert times[150] <= 10 * max(times[75], 0.005)
    assert times[300] <= 10 * max(times[150], 0.005)


def test_dense_solvers_at_n600():
    assert _timed_solve(600) < 3.0
    pair_directly = lambda inst: solve_dpe(inst, OperationSet.ADD_DELETE)
    assert _timed_solve(600, pair_directly) < 3.0


def test_dense_solvers_at_n1000():
    assert _timed_solve(1000) < 2.0
    assert _timed_solve(1000, solve_cdpe_ea_ed) < 1.2


def test_directed_solver_at_n200():
    # Targets in [-2, 2] leave 338 units of supply for the f-join's flow.
    rng = random.Random(0xD1E5)
    g = random_digraph(rng, 200, 0.05)
    delta = [rng.randint(-2, 2) for _ in range(200)]
    delta[0] -= sum(delta)
    inst = BalanceInstance(g, tuple(delta))
    for s in OperationSet:
        assert _best_of_three(lambda inst: solve_cdbe(inst, s), inst) < 1.0


def test_sparse_directed_solver_at_n1000():
    # 1.5n random arcs and n/4 unit shifts of the balances: a sparse digraph
    # with many components, whose minimum f-join has about 200 arcs.
    n = 1000
    rng = random.Random(0xD1E5 + n)
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < 3 * n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    delta = [0] * n
    for u, v in arcs:
        delta[u] += 1
        delta[v] -= 1
    for _ in range(n // 4):
        u, v = rng.sample(range(n), 2)
        delta[u] += 1
        delta[v] -= 1
    inst = BalanceInstance(Digraph(n, frozenset(arcs)), tuple(delta))
    for s in OperationSet:
        assert _best_of_three(lambda inst: solve_cdbe(inst, s), inst) < 1.5


# -- The no-connectivity variants ------------------------------


def test_dpe_matches_unconnected_oracle_n5():
    for g in all_graphs(5):
        for delta in product((0, 1), repeat=5):
            inst = ParityInstance(g, delta)
            for s in OperationSet:
                expected = oracle_cdpe(inst, s, BUDGET, connected=False)
                outcome = solve_dpe(inst, s)
                got = _opt(outcome)
                assert got == expected, (sorted(g.edges), delta, s, got, expected)
                if got is not None:
                    assert got == outcome.join_size
                    sol = outcome.solution
                    assert verify_parity(
                        inst,
                        sol.additions,
                        sol.deletions,
                        claimed_opt=got,
                        require_connected=False,
                    ).valid


def test_dbe_matches_unconnected_oracle_n4():
    deltas = [d for d in product((-1, 0, 1), repeat=4) if sum(d) == 0]
    for g in all_digraphs(4):
        for delta in deltas:
            inst = BalanceInstance(g, delta)
            for s in OperationSet:
                expected = oracle_cdbe(inst, s, BUDGET, connected=False)
                outcome = solve_dbe(inst, s)
                got = _opt(outcome)
                assert got == expected, (sorted(g.arcs), delta, s, got, expected)
                if got is not None:
                    assert got == outcome.join_size
                    sol = outcome.solution
                    assert verify_balance(
                        inst,
                        sol.additions,
                        sol.deletions,
                        claimed_opt=got,
                        require_connected=False,
                    ).valid
