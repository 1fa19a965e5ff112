import json
import random

import pytest

from euleredit import (
    BalanceInstance,
    Digraph,
    GraphError,
    OperationSet,
    Verdict,
    solve_cdbe,
    solve_dbe,
    verify_balance,
)
import euleredit.cdpe as cdpe
from euleredit.cdbe import (
    _apply_join,
    _arc,
    _arc_meetings,
    extract_af_df,
    rewire_fjoin_for_connectivity,
)
from euleredit.cli import main, parse_instance
from euleredit.fjoin import DirectedFJoin
from euleredit.graphs import components

from conftest import balance, from_arcs, random_digraph, reference_arc_detour_swap


def _inst(n, arcs, delta=None):
    g = from_arcs(n, arcs)
    return BalanceInstance(g, tuple(delta) if delta else g.balances)


def test_rejects_empty_digraph():
    inst = BalanceInstance(Digraph(0, frozenset()), ())
    for solve in (solve_cdbe, solve_dbe):
        for s in OperationSet:
            with pytest.raises(GraphError, match="at least one vertex"):
                solve(inst, s)


def test_extract_af_df():
    g = from_arcs(3, [(0, 1), (1, 2), (2, 1)])
    # A single copy prefers addition; deleting the reverse is the fallback.
    sol = extract_af_df(DirectedFJoin({(1, 2): 1, (1, 0): 1}), g)
    assert sol.additions == {(1, 0)}
    assert sol.deletions == {(2, 1)}
    g = from_arcs(3, [(0, 1)])
    doubled = extract_af_df(DirectedFJoin({(1, 0): 2}), g)
    assert doubled.additions == {(1, 0)} and doubled.deletions == {(0, 1)}
    with pytest.raises(GraphError):
        extract_af_df(DirectedFJoin({(0, 1): 1}), g)  # already present
    with pytest.raises(GraphError):
        extract_af_df(DirectedFJoin({(1, 2): 2}), g)  # nothing to delete


def test_already_balanced_and_connected():
    out = solve_cdbe(_inst(3, [(0, 1), (1, 2), (2, 0)]), OperationSet.ADD)
    assert out.verdict is Verdict.SOLVED and out.opt == 0


def test_plain_components_get_directed_cycle():
    out = solve_cdbe(
        _inst(4, [(0, 1), (1, 0), (2, 3), (3, 2)]), OperationSet.ADD
    )
    assert out.opt == 2
    assert not out.solution.deletions


def test_reverse_single_arc():
    inst = _inst(2, [(0, 1)], delta=(-1, 1))
    assert solve_cdbe(inst, OperationSet.ADD).verdict is Verdict.NO_INSTANCE
    out = solve_cdbe(inst, OperationSet.ADD_DELETE)
    assert out.opt == 2
    assert out.solution.additions == {(1, 0)}
    assert out.solution.deletions == {(0, 1)}


def test_two_directed_triangles():
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    out = solve_cdbe(_inst(6, arcs), OperationSet.ADD)
    assert out.opt == 2


def test_unbalanced_targets_are_infeasible():
    inst = _inst(2, [], delta=(1, 0))
    for s in OperationSet:
        assert solve_cdbe(inst, s).verdict is Verdict.NO_INSTANCE
        assert solve_dbe(inst, s).verdict is Verdict.NO_INSTANCE


def test_general_case_lower_bounds():
    inst = _inst(5, [(0, 1), (2, 3)], delta=(2, -2, 0, 0, 0))
    out = solve_cdbe(inst, OperationSet.ADD)
    counts = out.counts
    p, q = counts.plain_components, counts.deficient_components
    t = counts.total_imbalance
    assert out.opt == max(out.join_size, p + q - 1, p + t // 2)


def test_rewire_preserves_size_and_balance():
    g = from_arcs(6, [(0, 1), (2, 3), (4, 5)])
    f = DirectedFJoin({(1, 0): 1, (3, 2): 1})
    rewired = rewire_fjoin_for_connectivity(g, f)
    assert rewired.size == f.size
    assert balance(rewired.arcs) == balance(f.arcs)


def test_solve_dbe_ignores_connectivity():
    inst = _inst(4, [(0, 1), (2, 3)], delta=(0, 0, 1, -1))
    out = solve_dbe(inst, OperationSet.ADD_DELETE)
    assert out.opt == out.join_size
    report = verify_balance(
        inst, out.solution.additions, out.solution.deletions,
        claimed_opt=out.opt, require_connected=False,
    )
    assert report.valid
    assert solve_dbe(inst, OperationSet.ADD).opt <= \
        solve_cdbe(inst, OperationSet.ADD).opt


def test_instance_components_never_split():
    # Weak connectivity only ever improves: H keeps every G-component whole.
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(2, 8)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.6))
        delta = [0] * n
        for _ in range(2):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                delta[u] += 1
                delta[v] -= 1
        inst = BalanceInstance(g, tuple(delta))
        for s in OperationSet:
            out = solve_cdbe(inst, s)
            if out.verdict is not Verdict.SOLVED:
                continue
            h = g.apply(out.solution.additions, out.solution.deletions)
            comp_of = {v: i for i, c in enumerate(components(h)) for v in c}
            for comp in components(g):
                assert len({comp_of[v] for v in comp}) == 1


DOUBLED_ARC_DETOURS = [
    ("p cdbe ea+ed 4 1\na 0 3\nd 1 -2\nd 3 2\n", 4),
    ("p cdbe ea+ed 7 3\na 1 5\na 3 0\na 5 3\nd 0 -1\nd 3 -2\nd 5 3\n", 6),
]


@pytest.mark.parametrize("text,opt", DOUBLED_ARC_DETOURS, ids=["n4", "n7"])
def test_detour_through_a_doubled_arc(tmp_path, capsys, text, opt):
    # The only detour trades one copy of a doubled join arc.  Dropping that
    # copy keeps the other copy's edit, so the detour test must look at the
    # digraph the reduced join gives, not at H minus the arc.
    path = tmp_path / "inst.txt"
    path.write_text(text)
    assert main(["solve", "--in", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["opt"] == opt
    additions = {tuple(a) for a in record["additions"]}
    deletions = {tuple(d) for d in record["deletions"]}
    assert len(additions) + len(deletions) == opt
    report = verify_balance(parse_instance(text).instance, additions, deletions, opt)
    assert report.valid


def test_random_batch_with_shifted_balances():
    # Targets near the digraph's own balances leave few deficient vertices,
    # so the splice often needs a detour: 4 of these 12,000 solves paid an
    # edit more than the optimum when the detour test dropped a doubled arc.
    rng = random.Random(20261018)
    for _ in range(6000):
        n = rng.randrange(2, 10)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.6))
        delta = list(g.balances)
        for _ in range(rng.randrange(4)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                delta[u] += 1
                delta[v] -= 1
        for s in OperationSet:
            out = solve_cdbe(BalanceInstance(g, tuple(delta)), s)
            if out.verdict is Verdict.SOLVED:
                edits = out.solution.additions | out.solution.deletions
                assert len(edits) == out.opt


def _detour(g, arcs):
    """The shared detour swap and the directed reference on one G+F."""
    comps = components(_apply_join(g, arcs))
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    shared = cdpe._detour_swap(g, arcs, comps, _apply_join, _arc_meetings, _arc)
    return shared, reference_arc_detour_swap(g, arcs, comps, comp_of)


def _random_join(rng, g):
    """Arcs of the ea+ed operation graph: an addition, a deletion written as
    the reverse arc, or a doubled arc that does both; no antiparallel pair."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    arcs = {}
    for u, v in rng.sample(pairs, min(len(pairs), rng.randrange(2, 6))):
        if rng.random() < 0.5:
            u, v = v, u
        if (u, v) in g.arcs and (v, u) not in g.arcs:
            continue
        doubled = (v, u) in g.arcs and (u, v) not in g.arcs and rng.random() < 0.5
        arcs[(u, v)] = 2 if doubled else 1
    return arcs


def test_detour_swap_matches_reference_on_seeded_joins():
    rng = random.Random(20261020)
    found = 0
    for _ in range(1500):
        g = random_digraph(rng, rng.randrange(3, 9), rng.uniform(0.05, 0.3))
        arcs = _random_join(rng, g)
        if len(components(_apply_join(g, arcs))) == 1:
            continue
        shared, reference = _detour(g, arcs)
        assert shared == reference
        found += shared is not None
    assert found > 50


def test_detour_swap_matches_reference_in_the_solvers(monkeypatch):
    shared = cdpe._detour_swap
    found = []

    def checked(g, arcs, comps, apply_join, meetings, pair):
        swapped = shared(g, arcs, comps, apply_join, meetings, pair)
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        assert swapped == reference_arc_detour_swap(g, arcs, comps, comp_of)
        found.append(swapped is not None)
        return swapped

    monkeypatch.setattr(cdpe, "_detour_swap", checked)
    for text, opt in DOUBLED_ARC_DETOURS:
        inst_file = parse_instance(text)
        found.clear()
        assert solve_cdbe(inst_file.instance, inst_file.opset).opt == opt
        assert any(found)
    rng = random.Random(16)
    for _ in range(1500):
        n = rng.randrange(2, 10)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.6))
        delta = list(g.balances)
        for _ in range(rng.randrange(4)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                delta[u] += 1
                delta[v] -= 1
        for s in OperationSet:
            solve_cdbe(BalanceInstance(g, tuple(delta)), s)
    assert any(found) and not all(found)
