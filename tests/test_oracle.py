import numpy as np
import pytest

from euleredit import BalanceInstance, Digraph, Graph, OperationSet, ParityInstance
from euleredit.fjoin import build_gs_directed
from euleredit.oracle import (
    OracleBudget,
    _balance_tables,
    _connectivity,
    oracle_cdbe,
    oracle_cdpe,
)

from conftest import from_arcs, from_edges
from oracles import oracle_min_f_join, oracle_min_t_join

B = OracleBudget(12)


def test_budget_validation():
    with pytest.raises(ValueError):
        OracleBudget(-1)


def test_oracle_cdpe_small_cases():
    path = ParityInstance(from_edges(3, [(0, 1), (1, 2)]), (1, 0, 1))
    assert oracle_cdpe(path, OperationSet.ADD, B) == 0
    two = ParityInstance(from_edges(4, [(0, 1), (2, 3)]), (0, 0, 0, 0))
    assert oracle_cdpe(two, OperationSet.ADD, B) == 2
    # Odd deficient set is infeasible under either operation set.
    odd = ParityInstance(Graph(3, frozenset()), (1, 0, 0))
    assert oracle_cdpe(odd, OperationSet.ADD, B) is None
    assert oracle_cdpe(odd, OperationSet.ADD_DELETE, B) is None


def test_oracle_cdpe_budget_cutoff():
    inst = ParityInstance(Graph(4, frozenset()), (0, 0, 0, 0))
    assert oracle_cdpe(inst, OperationSet.ADD, B) == 4  # C4 is forced
    assert oracle_cdpe(inst, OperationSet.ADD, OracleBudget(3)) is None
    assert oracle_cdpe(inst, OperationSet.ADD, B, connected=False) == 0


def test_oracle_cdpe_rejects_large():
    with pytest.raises(ValueError):
        oracle_cdpe(ParityInstance(Graph(7, frozenset()), (0,) * 7), OperationSet.ADD, B)
    with pytest.raises(ValueError, match="empty graph"):
        oracle_cdpe(ParityInstance(Graph(0, frozenset()), ()), OperationSet.ADD, B)


def test_oracle_cdbe_rejects_large():
    six = BalanceInstance(Digraph(6, frozenset()), (0,) * 6)
    with pytest.raises(ValueError, match="n <= 5"):
        oracle_cdbe(six, OperationSet.ADD, B)
    with pytest.raises(ValueError, match="empty digraph"):
        oracle_cdbe(BalanceInstance(Digraph(0, frozenset()), ()), OperationSet.ADD, B)


def test_oracle_cdbe_small_cases():
    cyc = BalanceInstance(from_arcs(3, [(0, 1), (1, 2), (2, 0)]), (0, 0, 0))
    assert oracle_cdbe(cyc, OperationSet.ADD, B) == 0
    rev = BalanceInstance(from_arcs(2, [(0, 1)]), (-1, 1))
    # Reversing an arc needs one deletion and one addition.
    assert oracle_cdbe(rev, OperationSet.ADD, B) is None
    assert oracle_cdbe(rev, OperationSet.ADD_DELETE, B) == 2
    assert oracle_cdbe(
        BalanceInstance(Digraph(2, frozenset()), (3, -3)), OperationSet.ADD, B
    ) is None


def test_oracle_cdbe_connectivity_toggle():
    two = BalanceInstance(Digraph(2, frozenset()), (0, 0))
    # Connecting two isolated vertices while keeping balances zero takes
    # both arcs of a 2-cycle.
    assert oracle_cdbe(two, OperationSet.ADD, B) == 2
    assert oracle_cdbe(two, OperationSet.ADD, B, connected=False) == 0


def test_oracle_min_t_join():
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert oracle_min_t_join(path, {0, 3}) == 3
    assert oracle_min_t_join(path, {0, 1, 2, 3}) == 2
    assert oracle_min_t_join(path, frozenset()) == 0
    split = from_edges(4, [(0, 1), (2, 3)])
    assert oracle_min_t_join(split, {0, 2}) is None
    k7 = from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    with pytest.raises(ValueError, match="at most 20 edges"):
        oracle_min_t_join(k7, frozenset())


def test_oracle_min_f_join():
    g = from_arcs(3, [(0, 1)])
    gs = build_gs_directed(g, OperationSet.ADD_DELETE)
    assert oracle_min_f_join(gs, {1: 1, 0: -1}) == 1
    assert oracle_min_f_join(gs, {1: 2, 0: -2}) == 2  # doubled (1,0)
    assert oracle_min_f_join(gs, {0: 1}) is None
    assert oracle_min_f_join(gs, {}) == 0
    # Outside n <= 4 and supply * (n-1) <= 7 the nibble table is not exact;
    # an unbalanced f is still None before that check.
    two = build_gs_directed(from_arcs(2, [(0, 1)]), OperationSet.ADD_DELETE)
    assert oracle_min_f_join(two, {0: 7, 1: -7}) is None
    for big, f in ((two, {0: 8, 1: -8}), (gs, {0: 4, 1: -4})):
        with pytest.raises(ValueError, match="supply"):
            oracle_min_f_join(big, f)
    five = build_gs_directed(from_arcs(5, [(0, 1)]), OperationSet.ADD_DELETE)
    assert oracle_min_f_join(five, {0: 1}) is None
    with pytest.raises(ValueError, match="n <= 4"):
        oracle_min_f_join(five, {0: 1, 1: -1})


def test_arc_connectivity_is_read_from_the_pair_table():
    for n in range(1, 5):
        arcs, _, _, connected = _balance_tables(n)
        assert arcs == tuple((u, v) for u in range(n) for v in range(n) if u != v)
        assert np.array_equal(connected, _connectivity(n, arcs))
