"""Exact solvers for connected degree balance editing of digraphs.

The optimum follows the closed formulas in |F|, p, q, t; the witness comes
from the constructive replacement procedure: extract the edit sets from a
minimum directed f-join, rewire the join to sweep up stray components at
constant size, then splice a directed chain of additions through whatever
components remain.  The outcome type, the rewiring driver with both swaps
and the splice are ``cdpe``'s; only the directed rules live here: how a join
is applied, which arc may be crossed and which arc pairs a detour replaces.
"""

from __future__ import annotations

from .cdpe import (
    EditSolution,
    SolveOutcome,
    _chain,
    _edge,
    _no_instance,
    _rewire,
    _solved,
    _splice_chain,
)
from .fjoin import DirectedFJoin, build_gs_directed, min_f_join
from .graphs import (
    BalanceInstance,
    Digraph,
    GraphError,
    OperationSet,
    balance_counts,
    components,
)


def extract_af_df(f: DirectedFJoin, g: Digraph) -> EditSolution:
    """The canonical edit sets (A_F, D_F) of a directed f-join.

    A single copy of (u,v) adds the missing arc (u,v), or deletes (v,u)
    when (u,v) is already present; a double copy does both.
    """
    additions: set[tuple[int, int]] = set()
    deletions: set[tuple[int, int]] = set()
    for (u, v), mult in f.arcs.items():
        present = (u, v) in g.arcs
        reverse = (v, u) in g.arcs
        if mult == 2:
            if present or not reverse:
                raise GraphError(f"doubled arc ({u}, {v}) not in the operation graph")
            additions.add((u, v))
            deletions.add((v, u))
        elif not present:
            additions.add((u, v))
        elif reverse:
            deletions.add((v, u))
        else:
            raise GraphError(f"arc ({u}, {v}) not in the operation graph")
    return EditSolution(frozenset(additions), frozenset(deletions))


def _apply_join(g: Digraph, arcs: dict) -> Digraph:
    sol = extract_af_df(DirectedFJoin(dict(arcs)), g)
    return g.apply(sol.additions, sol.deletions)


def _arc(u: int, v: int) -> tuple[int, int]:
    return (u, v)


def _arc_crossable(g, h, arcs, arc, bridge_set) -> bool:
    # Deletions and doubled arcs always qualify; an addition only when it is
    # no bridge of H: its reverse is present or its underlying edge no bridge.
    u, v = arc
    if arc in g.arcs or arcs[arc] == 2 or (v, u) in h.arcs:
        return True
    return _edge(u, v) not in bridge_set


def _arc_meetings(arcs: dict):
    # Each arc (u, mid) into mid with each arc (mid, w) out of it, mids and
    # arcs in sorted order; the detour keeps the direction u to w.  w != u
    # always: a minimum f-join holds no antiparallel pair, as dropping one
    # copy each of (u, mid) and (mid, u) keeps every balance and saves 2, and
    # both swaps keep the join's size, so every join rewired here is minimum.
    heads: dict[int, list[tuple[int, int]]] = {}
    tails: dict[int, list[tuple[int, int]]] = {}
    for a in sorted(arcs):
        heads.setdefault(a[1], []).append(a)
        tails.setdefault(a[0], []).append(a)
    for mid in sorted(heads):
        for uv in heads[mid]:
            for vw in tails.get(mid, ()):
                yield mid, uv, vw, ((uv[0], vw[1]),)


def rewire_fjoin_for_connectivity(g: Digraph, f: DirectedFJoin) -> DirectedFJoin:
    """Rewire a minimum directed f-join without changing its size so that
    the edited digraph has as few (weak) components as possible.

    Two component-merging swaps are applied exhaustively: replace arcs
    (u,v), (u',v') of different components by the cross pair (u,v'),
    (u',v) when (u,v) is a deletion or a non-bridge addition; and replace
    a two-arc path (u,v), (v,w) whose removal keeps u and v together by a
    detour (u,x), (x,w) through a vertex x of another component.
    """
    arcs = _rewire(g, dict(f.arcs), _apply_join, _arc_crossable, _arc_meetings, _arc)
    return DirectedFJoin(arcs)


def solve_cdbe(inst: BalanceInstance, s: OperationSet) -> SolveOutcome:
    """Optimum and witness for CDBE under the given operation set."""
    g = inst.digraph
    counts = balance_counts(inst)
    p, q = counts.plain_components, counts.deficient_components
    gs = build_gs_directed(g, s)
    f = min_f_join(gs, counts.imbalance)
    if f is None:
        return _no_instance(counts, inst.budget)

    if q == 0:
        if p <= 1:
            return _solved(inst, counts, 0, set(), set(), f.size)
        reps = [min(c) for c in components(g)]
        return _solved(inst, counts, p, _chain([*reps, reps[0]], _arc), set(), f.size)

    opt = max(f.size, p + q - 1, p + counts.total_imbalance // 2)
    rewired = rewire_fjoin_for_connectivity(g, f)
    arcs = _splice_chain(g, dict(rewired.arcs), _apply_join, _arc)
    solution = extract_af_df(DirectedFJoin(arcs), g)
    return _solved(inst, counts, opt, solution.additions, solution.deletions, f.size)


def solve_dbe(inst: BalanceInstance, s: OperationSet) -> SolveOutcome:
    """Degree balance editing without the connectivity requirement."""
    g = inst.digraph
    counts = balance_counts(inst)
    f = min_f_join(build_gs_directed(g, s), counts.imbalance)
    if f is None:
        return _no_instance(counts, inst.budget)
    solution = extract_af_df(f, g)
    return _solved(
        inst,
        counts,
        f.size,
        solution.additions,
        solution.deletions,
        f.size,
        require_connected=False,
    )
