"""Exact solvers for connected degree parity / balance editing."""

from .cdbe import extract_af_df, rewire_fjoin_for_connectivity, solve_cdbe, solve_dbe
from .cdpe import (
    EditSolution,
    SolveOutcome,
    Verdict,
    rewire_tjoin_for_connectivity,
    solve_cdpe_ea,
    solve_cdpe_ea_ed,
    solve_dpe,
)
from .fjoin import DirectedFJoin, DirectedOperationGraph, build_gs_directed, min_f_join
from .graphs import (
    BalanceInstance,
    Digraph,
    Graph,
    GraphError,
    OperationSet,
    ParityInstance,
    SolverInvariantError,
    StructuralCounts,
    UnsupportedOperationSetError,
    balance_counts,
    bridges,
    components,
    is_connected,
    parity_counts,
)
from .matching import (
    Matching,
    WeightedCompleteGraph,
    max_matching,
    min_weight_perfect_matching,
)
from .oracle import (
    OracleBudget,
    oracle_cdbe,
    oracle_cdpe,
    oracle_min_f_join,
    oracle_min_t_join,
)
from .tjoin import OperationGraph, TJoin, build_gs, min_t_join
from .verify import VerifyReport, verify_balance, verify_parity

__all__ = [
    "BalanceInstance",
    "Digraph",
    "DirectedFJoin",
    "DirectedOperationGraph",
    "EditSolution",
    "Graph",
    "GraphError",
    "Matching",
    "OperationGraph",
    "OperationSet",
    "OracleBudget",
    "ParityInstance",
    "SolveOutcome",
    "SolverInvariantError",
    "StructuralCounts",
    "TJoin",
    "UnsupportedOperationSetError",
    "Verdict",
    "VerifyReport",
    "WeightedCompleteGraph",
    "balance_counts",
    "bridges",
    "build_gs",
    "build_gs_directed",
    "components",
    "extract_af_df",
    "is_connected",
    "max_matching",
    "min_f_join",
    "min_t_join",
    "min_weight_perfect_matching",
    "oracle_cdbe",
    "oracle_cdpe",
    "oracle_min_f_join",
    "oracle_min_t_join",
    "parity_counts",
    "rewire_fjoin_for_connectivity",
    "rewire_tjoin_for_connectivity",
    "solve_cdbe",
    "solve_cdpe_ea",
    "solve_cdpe_ea_ed",
    "solve_dbe",
    "solve_dpe",
    "verify_balance",
    "verify_parity",
]

__version__ = "0.1.0"
