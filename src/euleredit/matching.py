"""Matching subroutines: maximum matching and minimum-weight perfect matching.

The workhorse is a primal-dual blossom algorithm for maximum-weight
maximum-cardinality matching (Galil's formulation, O(n^3)), with one mode.
Vertex duals are kept multiplied by two so that all arithmetic stays in the
integers.  Both public operations are thin reductions onto it:

* maximum-cardinality matching = the engine with unit weights, where every
  maximum-cardinality matching has maximum weight;
* minimum-weight perfect matching = the engine after the transformation
  w' = max_w - w.  Its weight table, ``WeightedCompleteGraph``, is the list
  of allowed pairs with their weights; a forbidden pair is one the list
  leaves out.

The tests check these against brute-force matchers in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, set_bits


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges."""

    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for u, v in self.edges:
            if u == v or u in seen or v in seen:
                raise ValueError("edges of a matching must be vertex-disjoint")
            seen.add(u)
            seen.add(v)

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class WeightedCompleteGraph:
    """Non-negative integer weights on pairs of 0..k-1.

    ``edges`` lists the allowed pairs as (u, v, weight), u < v, in (u, v)
    order; a pair left out is forbidden to a perfect matching.
    """

    k: int
    edges: list[tuple[int, int, int]]


def max_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching of ``g`` (blossom algorithm)."""
    rows = enumerate(g.adjacency_bits)
    edges = [(u, v, 1) for u, row in rows for v in set_bits(row >> u + 1 << u + 1)]
    mate = _max_weight_matching(g.n, edges)
    return Matching(frozenset((u, mate[u]) for u in range(g.n) if u < mate[u] != -1))


def min_weight_perfect_matching(w: WeightedCompleteGraph) -> Matching | None:
    """A minimum-weight perfect matching avoiding forbidden pairs, or None."""
    if w.k % 2 != 0:
        return None
    maxw = max((wt for _, _, wt in w.edges), default=0)
    # Flip weights so that maximum-weight maximum-cardinality matching on the
    # allowed pairs is exactly the minimum-weight perfect matching.
    flipped = [(u, v, maxw - wt) for u, v, wt in w.edges]
    mate = _max_weight_matching(w.k, flipped)
    if any(m == -1 for m in mate):
        return None
    return Matching(frozenset((u, mate[u]) for u in range(w.k) if u < mate[u]))


# ---------------------------------------------------------------------------
# The blossom engine.


class _Blossom:
    """A non-trivial (sub-)blossom in the primal-dual search structure."""

    __slots__ = ["childs", "edges", "mybestedges"]

    def leaves(self):
        stack = list(self.childs)
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def _unwind(step, args) -> None:
    """Run the recursion ``step(*args)`` on an explicit stack of generators,
    so that deep blossom nestings meet no recursion limit: each tuple a step
    yields is the arguments of a nested call, run before the step resumes."""
    stack = [step(*args)]
    while stack:
        for nested in stack[-1]:
            stack.append(step(*nested))
            break
        else:
            stack.pop()


def _max_weight_matching(n: int, edges: list[tuple[int, int, int]]) -> list[int]:
    """Maximum-weight maximum-cardinality matching over integer-weighted edges.

    Returns mate[v] per vertex (-1 when single): among the matchings of
    maximum size, one of maximum weight.
    """
    if n == 0 or not edges:
        return [-1] * n

    # Vertex-indexed state lives in lists; maps that also hold blossoms stay
    # dicts, whose insertion order fixes the scan order and so the tie-breaks.
    weight: list[dict[int, int]] = [{} for _ in range(n)]
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v, wt in edges:
        weight[u][v] = weight[v][u] = wt
        neighbors[u].append(v)
        neighbors[v].append(u)
    maxweight = max(max(row.values()) for row in weight if row)

    mate = [-1] * n
    label: dict = {}
    labeledge: dict = {}
    inblossom: list = list(range(n))
    blossomparent: dict = {v: None for v in range(n)}
    blossombase = {v: v for v in range(n)}
    bestedge: dict = {}
    dualvar = [maxweight] * n
    blossomdual: dict = {}
    allowedge: dict = {}
    queue: list[int] = []

    def slack(v, w):
        return dualvar[v] + dualvar[w] - 2 * weight[v][w]

    def assign_label(w, t, v):
        b = inblossom[w]
        assert label.get(w) is None and label.get(b) is None
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if isinstance(b, _Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        elif t == 2:
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        # Trace back from both ends; the first common ancestor is the base
        # of a new blossom, no common ancestor means an augmenting path.
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                assert mate[blossombase[b]] == -1
                v = None
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                v = labeledge[b][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Collect least-slack edges to neighboring S-blossoms (for delta3).
        bestedgeto: dict = {}
        for bv in path:
            if isinstance(bv, _Blossom):
                if bv.mybestedges is not None:
                    nblist = bv.mybestedges
                    bv.mybestedges = None
                else:
                    nblist = [(x, y) for x in bv.leaves() for y in neighbors[x]]
            else:
                nblist = [(bv, y) for y in neighbors[bv]]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label.get(bj) == 1
                    and ((bj not in bestedgeto) or slack(i, j) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        b.mybestedges = list(bestedgeto.values())
        mybestedge = None
        mybestslack = None
        bestedge[b] = None
        for k in b.mybestedges:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    # The two blossom recursions are steps for ``_unwind``: each yields the
    # arguments of its nested calls.
    def expand_blossom(b, endstage):
        for s in b.childs:
            blossomparent[s] = None
            if isinstance(s, _Blossom):
                if endstage and blossomdual[s] == 0:
                    yield s, endstage
                else:
                    for v in s.leaves():
                        inblossom[v] = s
            else:
                inblossom[s] = s
        if (not endstage) and label.get(b) == 2:
            entrychild = inblossom[labeledge[b][1]]
            j = b.childs.index(entrychild)
            if j & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = b.edges[j]
                else:
                    q, p = b.edges[j - 1]
                label[w] = None
                label[q] = None
                assign_label(w, 2, v)
                allowedge[(p, q)] = allowedge[(q, p)] = True
                j += jstep
                if jstep == 1:
                    v, w = b.edges[j]
                else:
                    w, v = b.edges[j - 1]
                allowedge[(v, w)] = allowedge[(w, v)] = True
                j += jstep
            bw = b.childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            j += jstep
            while b.childs[j] != entrychild:
                bv = b.childs[j]
                if label.get(bv) == 1:
                    j += jstep
                    continue
                if isinstance(bv, _Blossom):
                    for v in bv.leaves():
                        if label.get(v):
                            break
                else:
                    v = bv
                if label.get(v):
                    assert label[v] == 2
                    assert inblossom[v] == bv
                    label[v] = None
                    label[mate[blossombase[bv]]] = None
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        label.pop(b, None)
        labeledge.pop(b, None)
        bestedge.pop(b, None)
        del blossomparent[b]
        del blossombase[b]
        del blossomdual[b]

    def augment_blossom(b, v):
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if isinstance(t, _Blossom):
            yield t, v
        i = j = b.childs.index(t)
        if i & 1:
            j -= len(b.childs)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = b.childs[j]
            if jstep == 1:
                w, x = b.edges[j]
            else:
                x, w = b.edges[j - 1]
            if isinstance(t, _Blossom):
                yield t, w
            j += jstep
            t = b.childs[j]
            if isinstance(t, _Blossom):
                yield t, x
            mate[w] = x
            mate[x] = w
        b.childs = b.childs[i:] + b.childs[:i]
        b.edges = b.edges[i:] + b.edges[:i]
        blossombase[b] = blossombase[b.childs[0]]
        assert blossombase[b] == v

    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                if isinstance(bs, _Blossom):
                    _unwind(augment_blossom, (bs, s))
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j = labeledge[bt]
                assert blossombase[bt] == t
                if isinstance(bt, _Blossom):
                    _unwind(augment_blossom, (bt, j))
                mate[j] = s

    while 1:
        label.clear()
        labeledge.clear()
        bestedge.clear()
        for b in blossomdual:
            b.mybestedges = None
        allowedge.clear()
        queue[:] = []

        for v in range(n):
            if mate[v] == -1 and label.get(inblossom[v]) is None:
                assign_label(v, 1, None)

        augmented = 0
        while 1:
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                for w in neighbors[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if (v, w) not in allowedge:
                        kslack = slack(v, w)
                        if kslack <= 0:
                            allowedge[(v, w)] = allowedge[(w, v)] = True
                    if (v, w) in allowedge:
                        if label.get(bw) is None:
                            assign_label(w, 2, v)
                        elif label.get(bw) == 1:
                            base = scan_blossom(v, w)
                            if base is not None:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = 1
                                break
                        elif label.get(w) is None:
                            assert label[bw] == 2
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label.get(bw) == 1:
                        if bestedge.get(bv) is None or kslack < slack(*bestedge[bv]):
                            bestedge[bv] = (v, w)
                    elif label.get(w) is None:
                        if bestedge.get(w) is None or kslack < slack(*bestedge[w]):
                            bestedge[w] = (v, w)

            if augmented:
                break

            # Dual adjustment: pick the smallest of the classic deltas 2-4.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            for v in range(n):
                if label.get(inblossom[v]) is None and bestedge.get(v) is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            for b in blossomparent:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 1
                    and bestedge.get(b) is not None
                ):
                    kslack = slack(*bestedge[b])
                    assert (kslack % 2) == 0
                    d = kslack // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # Maximum cardinality reached; normalize duals and stop.
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in range(n):
                lbl = label.get(inblossom[v])
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label.get(b) == 1:
                        blossomdual[b] += delta
                    elif label.get(b) == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                (v, w) = deltaedge
                assert label[inblossom[v]] == 1
                allowedge[(v, w)] = allowedge[(w, v)] = True
                queue.append(v)
            elif deltatype == 3:
                (v, w) = deltaedge
                allowedge[(v, w)] = allowedge[(w, v)] = True
                assert label[inblossom[v]] == 1
                queue.append(v)
            else:
                _unwind(expand_blossom, (deltablossom, False))

        for v in range(n):
            assert mate[v] == -1 or mate[mate[v]] == v
        if not augmented:
            break

        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue
            if blossomparent[b] is None and label.get(b) == 1 and blossomdual[b] == 0:
                _unwind(expand_blossom, (b, True))

    return mate
