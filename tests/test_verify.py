from euleredit import (
    BalanceInstance,
    Graph,
    ParityInstance,
    verify_balance,
    verify_parity,
)

from conftest import from_arcs


def _p3():
    return ParityInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), (1, 0, 1))


def test_verify_parity_accepts_identity():
    assert verify_parity(_p3(), set(), set()).valid


def test_verify_parity_legality_failures():
    inst = _p3()
    assert "addition-is-edge" in verify_parity(inst, {(0, 1)}, set()).failures
    assert "deletion-not-edge" in verify_parity(inst, set(), {(0, 2)}).failures
    assert "not-disjoint" in verify_parity(inst, {(0, 2)}, {(0, 2)}).failures


def test_verify_parity_semantic_failures():
    inst = _p3()
    report = verify_parity(inst, {(0, 2)}, set())
    assert set(report.failures) == {"parity-violation(0)", "parity-violation(2)"}
    report = verify_parity(inst, set(), {(0, 1)})
    assert "disconnected" in report.failures
    assert set(
        verify_parity(inst, set(), {(0, 1)}, require_connected=False).failures
    ) == {"parity-violation(0)", "parity-violation(1)"}


def test_verify_parity_size_and_normalization():
    inst = _p3()
    assert "size-mismatch" in verify_parity(inst, {(2, 0)}, set(), claimed_opt=2).failures
    # Unordered edge tuples are accepted.
    good = verify_parity(
        ParityInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), (0, 1, 1)),
        {(2, 0)},
        {(2, 1)},
        claimed_opt=2,
    )
    assert good.valid


def _d3():
    return BalanceInstance(from_arcs(3, [(0, 1), (1, 2)]), (1, 0, -1))


def test_verify_balance():
    inst = _d3()
    assert verify_balance(inst, set(), set()).valid
    assert "addition-is-edge" in verify_balance(inst, {(0, 1)}, set()).failures
    assert "deletion-not-edge" in verify_balance(inst, set(), {(1, 0)}).failures
    report = verify_balance(inst, {(2, 0)}, set())
    assert set(report.failures) == {"balance-violation(0)", "balance-violation(2)"}
    # Direction matters: (2,0) and (0,2) are different arcs.
    assert verify_balance(
        BalanceInstance(from_arcs(3, [(0, 1), (1, 2)]), (0, 0, 0)),
        {(2, 0)},
        set(),
    ).valid


def test_verify_balance_connectivity_is_weak():
    inst = BalanceInstance(from_arcs(2, [(0, 1)]), (1, -1))
    assert verify_balance(inst, set(), set()).valid
    split = BalanceInstance(from_arcs(2, []), (0, 0))
    assert verify_balance(split, set(), set()).failures == ("disconnected",)
    assert verify_balance(split, set(), set(), require_connected=False).valid
