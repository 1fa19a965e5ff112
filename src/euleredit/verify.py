"""Independent solution checking.

Validates a claimed (A, D) edit set straight from the problem definition;
deliberately imports nothing from the solver or join modules so it can act
as an unbiased witness in tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import BalanceInstance, ParityInstance, is_connected


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a check; ``failures`` lists every violated clause."""

    failures: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.failures


def verify_parity(
    inst: ParityInstance,
    additions: frozenset[tuple[int, int]] | set[tuple[int, int]],
    deletions: frozenset[tuple[int, int]] | set[tuple[int, int]],
    claimed_opt: int | None = None,
    require_connected: bool = True,
) -> VerifyReport:
    g = inst.graph
    additions = {(u, v) if u < v else (v, u) for u, v in additions}
    deletions = {(u, v) if u < v else (v, u) for u, v in deletions}
    failures: list[str] = []
    if additions & deletions:
        failures.append("not-disjoint")
    if any(g.has_edge(u, v) for u, v in additions):
        failures.append("addition-is-edge")
    if not all(g.has_edge(u, v) for u, v in deletions):
        failures.append("deletion-not-edge")
    if failures:
        return VerifyReport(tuple(failures))

    # Raises GraphError on an addition that is a loop or out of range.
    h = g.apply(additions, deletions)
    if require_connected and not is_connected(h):
        failures.append("disconnected")
    for v in range(g.n):
        if h.degree(v) % 2 != inst.delta[v]:
            failures.append(f"parity-violation({v})")
    if claimed_opt is not None and len(additions) + len(deletions) != claimed_opt:
        failures.append("size-mismatch")
    return VerifyReport(tuple(failures))


def verify_balance(
    inst: BalanceInstance,
    additions: frozenset[tuple[int, int]] | set[tuple[int, int]],
    deletions: frozenset[tuple[int, int]] | set[tuple[int, int]],
    claimed_opt: int | None = None,
    require_connected: bool = True,
) -> VerifyReport:
    g = inst.digraph
    additions = set(additions)
    deletions = set(deletions)
    failures: list[str] = []
    if additions & deletions:
        failures.append("not-disjoint")
    if any(a in g.arcs for a in additions):
        failures.append("addition-is-edge")
    if any(a not in g.arcs for a in deletions):
        failures.append("deletion-not-edge")
    if failures:
        return VerifyReport(tuple(failures))

    # Raises GraphError on an addition that is a loop or out of range.
    h = g.apply(additions, deletions)
    if require_connected and not is_connected(h):
        failures.append("disconnected")
    bal = h.balances
    for v in range(g.n):
        if bal[v] != inst.delta[v]:
            failures.append(f"balance-violation({v})")
    if claimed_opt is not None and len(additions) + len(deletions) != claimed_opt:
        failures.append("size-mismatch")
    return VerifyReport(tuple(failures))
