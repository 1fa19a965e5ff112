"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds every name
in every ``euleredit.*`` module and class namespace that refers to the
original object, so that calls made through ``from .x import f`` aliases
are traced too.  Each call records a span: name, start, end, parent span
and instance id.  Spans stay in memory until the run ends; counts that
need a call's arguments or result are derived then, outside the timed
calls.  A layer's self time is its span's duration minus the durations of
its child spans (calls are nested, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, defining module, qualified name).  Several functions may share a
# span name: ``cdpe.solve`` is whichever undirected entry point ran.
TRACED = (
    ("cli.main", "euleredit.cli", "main"),
    ("cli.parse_instance", "euleredit.cli", "parse_instance"),
    ("tjoin.min_t_join", "euleredit.tjoin", "min_t_join"),
    ("tjoin.build_gs", "euleredit.tjoin", "build_gs"),
    ("graphs.Graph.complement", "euleredit.graphs", "Graph.complement"),
    ("graphs.components", "euleredit.graphs", "components"),
    ("graphs.bridges", "euleredit.graphs", "bridges"),
    ("graphs.parity_counts", "euleredit.graphs", "parity_counts"),
    ("graphs.balance_counts", "euleredit.graphs", "balance_counts"),
    ("matching.min_weight_perfect_matching", "euleredit.matching", "min_weight_perfect_matching"),
    ("matching.max_matching", "euleredit.matching", "max_matching"),
    ("fjoin.min_f_join", "euleredit.fjoin", "min_f_join"),
    ("fjoin.build_gs_directed", "euleredit.fjoin", "build_gs_directed"),
    ("cdpe.rewire_tjoin_for_connectivity", "euleredit.cdpe", "rewire_tjoin_for_connectivity"),
    ("cdpe.solve", "euleredit.cdpe", "solve_cdpe_ea"),
    ("cdpe.solve", "euleredit.cdpe", "solve_cdpe_ea_ed"),
    ("cdpe.solve", "euleredit.cdpe", "solve_dpe"),
    ("cdbe.rewire_fjoin_for_connectivity", "euleredit.cdbe", "rewire_fjoin_for_connectivity"),
    ("cdbe.extract_af_df", "euleredit.cdbe", "extract_af_df"),
    ("cdbe.solve", "euleredit.cdbe", "solve_cdbe"),
    ("cdbe.solve", "euleredit.cdbe", "solve_dbe"),
    ("verify.verify_parity", "euleredit.verify", "verify_parity"),
    ("verify.verify_balance", "euleredit.verify", "verify_balance"),
)

REWIRES = ("cdpe.rewire_tjoin_for_connectivity", "cdbe.rewire_fjoin_for_connectivity")


def _component_count_after(g, join) -> int:
    from euleredit.graphs import Digraph, components

    if isinstance(g, Digraph):
        from euleredit.cdbe import extract_af_df

        edit = extract_af_df(join, g)
        return len(components(g.apply(edit.additions, edit.deletions)))
    return len(components(g.apply(additions=join.edges)))


def _merges(args, result) -> int:
    g, join = args[0], args[1]
    return _component_count_after(g, join) - _component_count_after(g, result)


# Counts derived from a call's arguments and result, per span name.
COUNTS = {
    "cli.parse_instance": lambda a, r: {"lines": len(a[0].splitlines())},
    "tjoin.min_t_join": lambda a, r: {"terminals": len(a[1])},
    "tjoin.build_gs": lambda a, r: {"edges": r.base.m},
    "matching.min_weight_perfect_matching": lambda a, r: {"k": a[0].k},
    "matching.max_matching": lambda a, r: {"vertices": a[0].n, "edges": a[0].m},
    "fjoin.min_f_join": lambda a, r: {"units": sum(x for x in a[1].values() if x > 0)},
    "fjoin.build_gs_directed": lambda a, r: {"arcs": r.base.m},
    "cdpe.rewire_tjoin_for_connectivity": lambda a, r: {"merges": _merges(a, r)},
    "cdbe.rewire_fjoin_for_connectivity": lambda a, r: {"merges": _merges(a, r)},
}

# The per-layer metrics: (metric name, unit).  Times and counts are per solved
# instance of the traced loop.
PER_INSTANCE_S = "s/instance"
PER_INSTANCE_COUNT = "count/instance"
LAYER_METRICS = (
    ("cli.parse_instance.self_s", PER_INSTANCE_S),
    ("cli.parse_instance.lines", PER_INSTANCE_COUNT),
    ("cli.main.self_s", PER_INSTANCE_S),
    ("tjoin.min_t_join.self_s", PER_INSTANCE_S),
    ("tjoin.min_t_join.terminals", PER_INSTANCE_COUNT),
    ("tjoin.build_gs.self_s", PER_INSTANCE_S),
    ("tjoin.build_gs.edges", PER_INSTANCE_COUNT),
    ("graphs.Graph.complement.self_s", PER_INSTANCE_S),
    ("graphs.components.calls", PER_INSTANCE_COUNT),
    ("graphs.components.self_s", PER_INSTANCE_S),
    ("graphs.bridges.calls", PER_INSTANCE_COUNT),
    ("graphs.bridges.self_s", PER_INSTANCE_S),
    ("graphs.parity_counts.self_s", PER_INSTANCE_S),
    ("graphs.balance_counts.self_s", PER_INSTANCE_S),
    ("matching.min_weight_perfect_matching.self_s", PER_INSTANCE_S),
    ("matching.min_weight_perfect_matching.k", PER_INSTANCE_COUNT),
    ("matching.max_matching.self_s", PER_INSTANCE_S),
    ("matching.max_matching.vertices", PER_INSTANCE_COUNT),
    ("matching.max_matching.edges", PER_INSTANCE_COUNT),
    ("fjoin.min_f_join.self_s", PER_INSTANCE_S),
    ("fjoin.min_f_join.units", PER_INSTANCE_COUNT),
    ("fjoin.build_gs_directed.self_s", PER_INSTANCE_S),
    ("fjoin.build_gs_directed.arcs", PER_INSTANCE_COUNT),
    ("cdpe.rewire_tjoin_for_connectivity.self_s", PER_INSTANCE_S),
    ("cdpe.rewire_tjoin_for_connectivity.merges", PER_INSTANCE_COUNT),
    ("cdpe.rewire_tjoin_for_connectivity.components_calls_per_merge", "ratio"),
    ("cdpe.solve.self_s", PER_INSTANCE_S),
    ("cdbe.rewire_fjoin_for_connectivity.self_s", PER_INSTANCE_S),
    ("cdbe.rewire_fjoin_for_connectivity.merges", PER_INSTANCE_COUNT),
    ("cdbe.rewire_fjoin_for_connectivity.components_calls_per_merge", "ratio"),
    ("cdbe.extract_af_df.self_s", PER_INSTANCE_S),
    ("cdbe.solve.self_s", PER_INSTANCE_S),
    ("verify.verify_parity.self_s", PER_INSTANCE_S),
    ("verify.verify_balance.self_s", PER_INSTANCE_S),
    ("trace.overhead_frac", "ratio"),
)


def resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def namespaces():
    """Every ``euleredit.*`` module, and every class defined in one."""
    seen: set[int] = set()
    for name, module in sorted(sys.modules.items()):
        if name != "euleredit" and not name.startswith("euleredit."):
            continue
        for owner in (module, *vars(module).values()):
            if owner is not module and not (
                isinstance(owner, type) and owner.__module__.startswith("euleredit")
            ):
                continue
            if id(owner) not in seen:
                seen.add(id(owner))
                yield owner


class Tracer:
    """Records spans of the ``TRACED`` functions while installed."""

    def __init__(self) -> None:
        # [name, start, end, parent index, instance id, args, result]
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in COUNTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                span[5], span[6] = args, result
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for name, module, qualname in TRACED:
            original = resolve(module, qualname)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for owner in namespaces():
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, instance, _, _ in self.spans:
                out.write(json.dumps([name, start, end, parent, instance]) + "\n")

    def layer_metrics(self, instances: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``instances`` traced solves."""
        if self._restore:
            raise RuntimeError("uninstall the tracer before deriving its metrics")
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _, args, result) in enumerate(spans):
            totals[f"{name}.self_s"] += end - start - child_time[i]
            totals[f"{name}.calls"] += 1
            if name in COUNTS:
                for key, value in COUNTS[name](args, result).items():
                    totals[f"{name}.{key}"] += value
            if name == "graphs.components":
                rewire = self._ancestor(i, REWIRES)
                if rewire is not None:
                    totals[f"{rewire}.components_calls"] += 1
        for rewire in REWIRES:
            # Each rewire ends with one check that finds nothing left to merge,
            # so the ratio counts that check as a step: 1.0 wastes no call.
            steps = totals[f"{rewire}.merges"] + totals[f"{rewire}.calls"]
            calls = totals[f"{rewire}.components_calls"]
            totals[f"{rewire}.components_calls_per_merge"] = calls / steps if steps else 0.0
        metrics = {}
        for metric, unit in LAYER_METRICS:
            if metric == "trace.overhead_frac":
                value = overhead_frac
            elif unit == "ratio":
                value = totals[metric]
            else:
                value = totals[metric] / instances
            metrics[metric] = (value, unit)
        return metrics

    def _ancestor(self, index: int, names) -> str | None:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return self.spans[parent][0]
            parent = self.spans[parent][3]
        return None
