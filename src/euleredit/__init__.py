"""Exact solvers for connected degree parity / balance editing.

The package namespace holds the solvers, the instance and outcome types,
the verifiers and the errors.  Subroutines (joins, matchings, components)
live in their submodules; the brute-force reference solvers live in
``euleredit.oracle``, which needs numpy and is never imported by a solve.
"""

from .cdbe import solve_cdbe, solve_dbe
from .cdpe import (
    EditSolution,
    SolveOutcome,
    Verdict,
    solve_cdpe_ea,
    solve_cdpe_ea_ed,
    solve_dpe,
)
from .graphs import (
    BalanceInstance,
    Digraph,
    Graph,
    GraphError,
    OperationSet,
    ParityInstance,
    SolverInvariantError,
    UnsupportedOperationSetError,
)
from .verify import VerifyReport, verify_balance, verify_parity

__all__ = [
    "BalanceInstance",
    "Digraph",
    "EditSolution",
    "Graph",
    "GraphError",
    "OperationSet",
    "ParityInstance",
    "SolveOutcome",
    "SolverInvariantError",
    "UnsupportedOperationSetError",
    "Verdict",
    "VerifyReport",
    "solve_cdbe",
    "solve_cdpe_ea",
    "solve_cdpe_ea_ed",
    "solve_dbe",
    "solve_dpe",
    "verify_balance",
    "verify_parity",
]

__version__ = "0.1.0"
