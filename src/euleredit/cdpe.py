"""Exact solvers for connected degree parity editing of undirected graphs,
and the construction both the parity and the balance solvers share.

``solve_cdpe_ea`` handles edge addition only, ``solve_cdpe_ea_ed`` addition
plus deletion, and ``solve_dpe`` drops the connectivity requirement.  Each
returns the true optimum together with a witness edit set; the optimum
follows closed formulas in the structural quantities (|F|, p, q, |T|) and
the witness is built by the constructive case analysis: start from a
minimum T-join (or matching) and rewire it to sweep up stray components
without changing its size, then splice a chain of additions through the
components that remain.  The directed solvers in ``cdbe`` reuse the outcome
type, the rewiring driver and the splice defined here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import (
    BalanceInstance,
    Digraph,
    Graph,
    GraphError,
    OperationSet,
    ParityInstance,
    SolverInvariantError,
    StructuralCounts,
    _normalize_edge as _edge,
    bridges,
    components,
    parity_counts,
    set_bits,
)
from .matching import max_matching
from .tjoin import TJoin, build_gs, min_t_join
from .verify import verify_balance, verify_parity


class Verdict(enum.Enum):
    SOLVED = "Solved"
    NO_INSTANCE = "NoInstance"


@dataclass(frozen=True)
class EditSolution:
    """An edit set: additions are missing pairs of G, deletions present ones."""

    additions: frozenset[tuple[int, int]]
    deletions: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.additions) + len(self.deletions)


@dataclass(frozen=True)
class SolveOutcome:
    verdict: Verdict
    counts: StructuralCounts
    opt: int | None = None
    solution: EditSolution | None = None
    join_size: int | None = None
    feasible_within_budget: bool | None = None


def _chain(u: int, stops: list[int], v: int) -> set[tuple[int, int]]:
    """Edges of the path u, stops..., v."""
    route = [u, *stops, v]
    return {_edge(a, b) for a, b in zip(route, route[1:])}


def _no_instance(counts: StructuralCounts, budget: int | None) -> SolveOutcome:
    feasible = None if budget is None else False
    return SolveOutcome(Verdict.NO_INSTANCE, counts, feasible_within_budget=feasible)


def _solved(
    inst: ParityInstance | BalanceInstance,
    counts: StructuralCounts,
    opt: int,
    additions: frozenset[tuple[int, int]] | set[tuple[int, int]],
    deletions: frozenset[tuple[int, int]] | set[tuple[int, int]],
    join_size: int | None,
    require_connected: bool = True,
) -> SolveOutcome:
    solution = EditSolution(frozenset(additions), frozenset(deletions))
    if solution.size != opt:
        raise SolverInvariantError(
            f"witness has {solution.size} edits but the optimum is {opt}"
        )
    verify = verify_balance if isinstance(inst, BalanceInstance) else verify_parity
    report = verify(
        inst, additions, deletions, claimed_opt=opt, require_connected=require_connected
    )
    if not report.valid:
        raise SolverInvariantError(
            "witness fails verification: " + ", ".join(report.failures)
        )
    feasible = None if inst.budget is None else opt <= inst.budget
    return SolveOutcome(
        Verdict.SOLVED,
        counts,
        opt=opt,
        solution=solution,
        join_size=join_size,
        feasible_within_budget=feasible,
    )


# -- The rewiring driver and the splice, shared with ``cdbe`` ---------------
#
# A join is a ``{pair: multiplicity}`` dict: undirected edges or directed
# arcs, the latter possibly doubled.  ``apply_join(g, join)`` is the edited
# graph H = G+F, ``pair(a, b)`` writes a new join element from a to b, and
# ``crossable(g, h, join, element, bridge_set)`` says whether the cross swap
# may take that element apart, given the bridges of H (of its underlying
# graph when directed).


def _bump(join: dict, pair: tuple[int, int], by: int) -> None:
    count = join.get(pair, 0) + by
    if count:
        join[pair] = count
    else:
        join.pop(pair, None)


def _swap(join: dict, old, new) -> dict:
    """A copy of ``join`` with one copy of each ``old`` pair traded for ``new``."""
    swapped = dict(join)
    for pair in old:
        _bump(swapped, pair, -1)
    for pair in new:
        _bump(swapped, pair, 1)
    return swapped


def _rewire(g, join: dict, apply_join, crossable, detour, pair) -> dict:
    """Apply the cross swap and ``detour`` until neither merges components.

    At the fixed point either H = G+F is connected or no swap applies.
    """
    while True:
        h = apply_join(g, join)
        comps = components(h)
        if len(comps) == 1:
            return join
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        bridge_set = bridges(h.underlying if isinstance(h, Digraph) else h)
        swapped = _cross_swap(
            join, comp_of, lambda uv: crossable(g, h, join, uv, bridge_set), pair
        ) or detour(g, join, comps, comp_of)
        if not swapped:
            return join
        join = swapped


def _cross_swap(join: dict, comp_of: dict, crossable, pair):
    """Trade a crossable uv and an xy of another component for uy and xv."""
    for uv in sorted(join):
        if not crossable(uv):
            continue
        u, v = uv
        for xy in sorted(join):
            x, y = xy
            if comp_of[x] != comp_of[u]:
                return _swap(join, (uv, xy), (pair(u, y), pair(x, v)))
    return None


def _splice_chain(g, join: dict, apply_join, pair) -> dict:
    """Replace one join element by a chain through every other component."""
    comps = components(apply_join(g, join))
    if len(comps) == 1:
        return join
    u, v = uv = min(join)
    route = [u, *(min(c) for c in comps if u not in c), v]
    return _swap(join, (uv,), [pair(a, b) for a, b in zip(route, route[1:])])


# -- The undirected case ----------------------------------------------------


def _apply_edges(g: Graph, edges: dict) -> Graph:
    return g.apply(additions=edges)


def _edge_crossable(g, h, edges, e, bridge_set) -> bool:
    return e not in bridge_set


def _detour_swap(g, edges, comps, comp_of):
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in sorted(edges):
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)
    for mid in sorted(incident):
        stars = incident[mid]
        for i, e1 in enumerate(stars):
            for e2 in stars[i + 1 :]:
                a = e1[0] if e1[1] == mid else e1[1]
                b = e2[0] if e2[1] == mid else e2[1]
                h2 = g.apply(additions=edges.keys() - {e1, e2})
                comp2 = {v: j for j, c in enumerate(components(h2)) for v in c}
                if comp2[a] == comp2[mid]:
                    u, w = a, b
                elif comp2[b] == comp2[mid]:
                    u, w = b, a
                else:
                    continue
                x = min(
                    min(c) for c in comps if comp_of[next(iter(c))] != comp_of[mid]
                )
                return _swap(edges, (e1, e2), (_edge(u, x), _edge(x, w)))
    return None


def rewire_tjoin_for_connectivity(g: Graph, f: TJoin) -> TJoin:
    """Rewire a minimum T-join without changing its size so that G+F has as
    few components as possible.

    Two swaps are applied exhaustively, each merging two components:
    replace a non-bridge edge uv and an edge u'v' of another component by
    the cross pair u'v, uv'; and replace a two-edge path u-v-w whose
    removal keeps u and v together by a detour u-x, x-w through a vertex x
    of another component.  At the fixed point either every F-edge is a
    bridge of G+F or all F-edges share one component.
    """
    for u, v in f.edges:
        if g.has_edge(u, v):
            raise GraphError(f"join edge ({u}, {v}) is an edge of the graph")
    edges = _rewire(
        g, dict.fromkeys(f.edges, 1), _apply_edges, _edge_crossable, _detour_swap, _edge
    )
    return TJoin(frozenset(edges))


def _rewired_and_spliced(g: Graph, f: TJoin) -> set[tuple[int, int]]:
    rewired = rewire_tjoin_for_connectivity(g, f)
    return set(_splice_chain(g, dict.fromkeys(rewired.edges, 1), _apply_edges, _edge))


def _component_cliques(g: Graph, comps) -> list[bool]:
    return [all(g.degree(v) == len(c) - 1 for v in c) for c in comps]


def solve_cdpe_ea(inst: ParityInstance) -> SolveOutcome:
    """Optimum and witness for CDPE under edge addition only."""
    g = inst.graph
    if g.n == 0:
        raise GraphError("instances must have at least one vertex")
    counts = parity_counts(inst)
    t_set = counts.deficient
    p, q = counts.plain_components, counts.deficient_components
    f = min_t_join(build_gs(g), t_set)
    if f is None:
        return _no_instance(counts, inst.budget)

    if q == 0:
        if p == 1:
            return _solved(inst, counts, 0, set(), set(), f.size)
        comps = components(g)
        if p == 2:
            cliques = _component_cliques(g, comps)
            if all(cliques):
                if min(len(c) for c in comps) == 1:
                    return _no_instance(counts, inst.budget)
                # Shortest complement cycle between two cliques is a C_4.
                (u, v), (x, y) = (sorted(c)[:2] for c in comps)
                square = {_edge(u, x), _edge(x, v), _edge(v, y), _edge(y, u)}
                return _solved(inst, counts, 4, square, set(), f.size)
            which = cliques.index(False)
            cu, cv = next(
                (a, b)
                for a in sorted(comps[which])
                for b in sorted(comps[which])
                if a < b and not g.has_edge(a, b)
            )
            z = min(comps[1 - which])
            triangle = {_edge(cu, cv), _edge(cv, z), _edge(z, cu)}
            return _solved(inst, counts, 3, triangle, set(), f.size)
        reps = [min(c) for c in comps]
        cycle = {_edge(a, b) for a, b in zip(reps, reps[1:] + reps[:1])}
        return _solved(inst, counts, p, cycle, set(), f.size)

    opt = max(f.size, p + q - 1, p + len(t_set) // 2)
    return _solved(inst, counts, opt, _rewired_and_spliced(g, f), set(), f.size)


def _star_bridge_case(
    g: Graph, sub: Graph, labels: tuple[int, ...]
) -> tuple[int, list[int]] | None:
    """Detect G[T] = K_{1,r} with every star edge a bridge of G.

    ``sub`` is G[T] and ``labels`` the sorted T, as ``g.induced(T)`` returns
    them.  Returns (center, sorted leaves) or None.  Callers guarantee p=0, q=1.
    """
    if sub.m == 0 or sub.m != sub.n - 1:
        return None
    centers = [i for i in range(sub.n) if sub.degree(i) == sub.m]
    if not centers:
        return None
    center = labels[centers[0]]
    bridge_set = bridges(g)
    leaves = [v for v in labels if v != center]
    if any(_edge(center, leaf) not in bridge_set for leaf in leaves):
        return None
    return center, leaves


def solve_cdpe_ea_ed(inst: ParityInstance) -> SolveOutcome:
    """Optimum and witness for CDPE under edge addition and deletion."""
    g = inst.graph
    if g.n == 0:
        raise GraphError("instances must have at least one vertex")
    counts = parity_counts(inst)
    t_set = counts.deficient
    p, q = counts.plain_components, counts.deficient_components
    join_size = len(t_set) // 2

    if len(t_set) % 2:
        return _no_instance(counts, inst.budget)
    if g.n == 1:
        return _solved(inst, counts, 0, set(), set(), 0)
    if g.n == 2:
        if g.m == 1 and len(t_set) == 2:
            return _no_instance(counts, inst.budget)
        if g.m == 0 and not t_set:
            return _no_instance(counts, inst.budget)
        if g.m == 0:
            return _solved(inst, counts, 1, {(0, 1)}, set(), join_size)
        return _solved(inst, counts, 0, set(), set(), join_size)

    if q == 0:
        if p == 1:
            return _solved(inst, counts, 0, set(), set(), join_size)
        comps = components(g)
        if p == 2:
            which = 0 if len(comps[0]) > 1 else 1
            xy = min(e for e in g.edges if e[0] in comps[which])
            x, y = xy
            z = min(comps[1 - which])
            return _solved(
                inst, counts, 3, {_edge(x, z), _edge(y, z)}, {xy}, join_size
            )
        reps = [min(c) for c in comps]
        cycle = {_edge(a, b) for a, b in zip(reps, reps[1:] + reps[:1])}
        return _solved(inst, counts, max(3, p), cycle, set(), join_size)

    sub, labels = g.induced(t_set)
    if p == 0 and q == 1:
        star = _star_bridge_case(g, sub, labels)
        if star is not None:
            center, leaves = star
            opt = join_size + 1
            if len(leaves) == 1:
                additions, deletions = _single_bridge_witness(g, center, leaves[0])
            else:
                v = [center, *leaves]
                r = len(leaves)
                additions = {_edge(v[1], v[2]), _edge(v[2], v[3])}
                additions |= {
                    _edge(v[2 * i], v[2 * i + 1]) for i in range(2, (r - 1) // 2 + 1)
                }
                deletions = {_edge(center, v[2])}
            return _solved(inst, counts, opt, additions, deletions, join_size)

    opt = max(p + q - 1, p + join_size)
    additions, deletions = _general_editing_witness(g, sub, labels)
    return _solved(inst, counts, opt, additions, deletions, join_size)


def _single_bridge_witness(g: Graph, center: int, leaf: int):
    # Some third vertex neighbors the center or the leaf; re-hang the
    # bridge through it.
    for x in set_bits(g.adjacency_bits[center]):
        if x != leaf:
            return {_edge(x, leaf)}, {_edge(x, center)}
    for x in set_bits(g.adjacency_bits[leaf]):
        if x != center:
            return {_edge(x, center)}, {_edge(x, leaf)}
    raise SolverInvariantError("star-bridge case requires a third vertex nearby")


def _general_editing_witness(g: Graph, sub: Graph, labels: tuple[int, ...]):
    """``sub`` is G[T] and ``labels`` the sorted T, as ``g.induced(T)`` returns them."""
    matching = max_matching(sub.complement())
    m_edges = {_edge(labels[a], labels[b]) for a, b in matching.edges}
    matched = {v for e in m_edges for v in e}
    unmatched = [v for v in labels if v not in matched]

    if not unmatched:
        return _rewired_and_spliced(g, TJoin(frozenset(m_edges))), set()

    plain_reps = [min(c) for c in components(g) if c.isdisjoint(labels)]
    z = len(unmatched)
    u1, u2 = unmatched[0], unmatched[1]
    if z >= 4:
        pairs = {
            _edge(unmatched[2 * i], unmatched[2 * i + 1]) for i in range(z // 2)
        }
        if not plain_reps:
            return set(m_edges), pairs
        additions = m_edges | _chain(u1, plain_reps, u2)
        return additions, pairs - {_edge(u1, u2)}

    if plain_reps:
        return m_edges | _chain(u1, plain_reps, u2), set()

    h = g.apply(additions=m_edges)
    if _edge(u1, u2) not in bridges(h):
        return set(m_edges), {_edge(u1, u2)}

    # u1u2 is a bridge of G+M; all matching edges sit on one side of it.
    h_cut = h.apply(deletions=[_edge(u1, u2)])
    side = {v: i for i, c in enumerate(components(h_cut)) for v in c}
    m_sides = {side[e[0]] for e in m_edges}
    if len(m_sides) != 1:
        raise SolverInvariantError("matching edges must share a side of the bridge")
    a, b = (u1, u2) if m_sides == {side[u1]} else (u2, u1)
    bridge_set = bridges(g)
    x = min(
        v
        for e in m_edges
        for v in e
        if g.has_edge(a, v) and _edge(a, v) not in bridge_set
    )
    y = next(w for e in m_edges if x in e for w in e if w != x)
    return (m_edges - {_edge(x, y)}) | {_edge(y, b)}, {_edge(a, x)}


def solve_dpe(inst: ParityInstance, s: OperationSet) -> SolveOutcome:
    """Degree parity editing without the connectivity requirement."""
    g = inst.graph
    if g.n == 0:
        raise GraphError("instances must have at least one vertex")
    counts = parity_counts(inst)
    if s is OperationSet.ADD_DELETE:
        # Every pair is an operation, so any pairing of T is a minimum
        # T-join; this nested one is what the blossom returns on equal weights.
        t = sorted(counts.deficient)
        if len(t) % 2:
            return _no_instance(counts, inst.budget)
        join = {_edge(t[i], t[-1 - i]) for i in range(len(t) // 2)}
    else:
        f = min_t_join(build_gs(g), counts.deficient)
        if f is None:
            return _no_instance(counts, inst.budget)
        join = f.edges
    deletions = {e for e in join if g.has_edge(*e)}
    additions = set(join) - deletions
    size = len(join)
    return _solved(
        inst, counts, size, additions, deletions, size, require_connected=False
    )
