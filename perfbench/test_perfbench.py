"""Tests of the benchmark itself: tracer rebinding, traced/untraced equality,
a tiny run of every workload, and agreement with BENCHMARK.json.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, generate, sizes  # noqa: E402

CLI = run.load_program()
TINY = {
    "dense-undirected": dict(n=14, m=45, deficient=6, pool=8),
    "directed": dict(n=12, m=8, deficient=6, pool=8),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def bindings(obj) -> list[tuple[object, str]]:
    return [
        (owner, attr)
        for owner in tracer.namespaces()
        for attr, value in vars(owner).items()
        if value is obj
    ]


def test_tracer_rebinds_every_alias():
    originals = {(m, q): tracer.resolve(m, q) for _, m, q in tracer.TRACED}
    before = {key: bindings(obj) for key, obj in originals.items()}
    import euleredit.cdbe as cdbe
    import euleredit.cdpe as cdpe
    import euleredit.graphs as graphs
    import euleredit.tjoin as tjoin

    with tracer.Tracer():
        for key, obj in originals.items():
            assert before[key], f"{key} is bound nowhere"
            assert bindings(obj) == [], f"{key} still reachable untraced"
            for owner, attr in before[key]:
                assert vars(owner)[attr].__wrapped__ is obj
        for module in (graphs, cdpe, cdbe, tjoin):
            assert module.components.__wrapped__ is originals[("euleredit.graphs", "components")]
        assert cdpe.min_t_join.__wrapped__ is originals[("euleredit.tjoin", "min_t_join")]
        assert tjoin.min_weight_perfect_matching.__wrapped__ is originals[
            ("euleredit.matching", "min_weight_perfect_matching")
        ]
    for key, obj in originals.items():
        assert bindings(obj) == before[key]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_records_are_identical(name, tmp_path):
    pool, paths, _ = run.setup(CLI, tiny(name), 3, tmp_path)
    trace = tracer.Tracer()
    for i, path in enumerate(paths):
        plain = run.solve(CLI, i, path)
        with trace:
            traced = run.solve(CLI, i, path)
        assert plain.exit_code == traced.exit_code == 0
        records = [json.loads(s.stdout) for s in (plain, traced)]
        for record in records:
            del record["millis"]
        assert records[0] == records[1]
    roots = [span for span in trace.spans if span[3] == -1]
    assert [span[0] for span in roots] == ["cli.main"] * len(paths)


def deficient_count(inst) -> int:
    if inst.directed:
        balance = [0] * inst.n
        for u, v in inst.links:
            balance[u] += 1
            balance[v] -= 1
        return sum(1 for v in range(inst.n) if balance[v] != inst.delta[v])
    degree = [0] * inst.n
    for u, v in inst.links:
        degree[u] += 1
        degree[v] += 1
    return sum(1 for v in range(inst.n) if degree[v] % 2 != inst.delta[v])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded_and_fixes_the_sizes(name):
    w = WORKLOADS[name]
    assert generate(w, 5) == generate(w, 5)
    assert generate(w, 5) != generate(w, 6)
    for i, inst in enumerate(generate(w, 5)):
        n, m, deficient = sizes(w, i)
        assert (inst.kind, inst.opset) == w.entries[i % len(w.entries)]
        assert inst.n == n and len(set(inst.links)) == len(inst.links) == m
        assert deficient_count(inst) == deficient and deficient % 2 == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_and_counts_a_tampered_record(name, trace):
    outcome = run.run(CLI, tiny(name), 3, 0.3, trace, None)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracer.LAYER_METRICS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())

    solves = outcome["solves"]
    record = json.loads(solves[0].stdout)
    assert record["additions"], "the first instance needs an addition to drop"
    dropped = dict(record, additions=record["additions"][1:], opt=record["opt"] - 1)
    tampered = [
        dataclasses.replace(solves[0], stdout=json.dumps(dict(record, opt=record["opt"] + 1))),
        dataclasses.replace(solves[0], stdout=json.dumps(dropped)),
        dataclasses.replace(solves[0], stdout=json.dumps(dict(record, verdict="NoInstance"))),
        dataclasses.replace(solves[0], exit_code=2),
        dataclasses.replace(solves[0], stdout="Traceback"),
    ]
    failed, _ = run.gate(outcome["pool"], [*solves, *tampered], None)
    assert [s for s, _ in failed] == tampered


def test_gate_compares_opt_and_witness_with_the_reference(tmp_path):
    pool, paths, _ = run.setup(CLI, tiny("dense-undirected"), 3, tmp_path)
    solves = [run.solve(CLI, i, p) for i, p in enumerate(paths)]
    records = [json.loads(s.stdout) for s in solves]
    ref = {
        "opt": [r["opt"] for r in records],
        "witness": [run.witness_digest(r) for r in records],
    }
    assert run.gate(pool, solves, ref) == ([], 0)
    ref["opt"][1] += 1
    ref["witness"][2] = "0" * 16
    failed, mismatched = run.gate(pool, solves, ref)
    assert [s.index for s, _ in failed] == [1]
    assert mismatched == 1

    # A repeat whose witness lists the same additions in another order is
    # still valid, but not byte-identical to the stored one.
    ref["opt"][1] -= 1
    ref["witness"][2] = run.witness_digest(records[2])
    i = next(i for i, r in enumerate(records) if len(r["additions"]) >= 2)
    reordered = dict(records[i], additions=records[i]["additions"][::-1])
    repeat = dataclasses.replace(solves[i], stdout=json.dumps(reordered))
    assert run.gate(pool, [*solves, repeat], ref) == ([], 1)
    assert run.gate(pool, [repeat, *solves], ref) == ([], 1)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)


def test_reference_covers_every_seed():
    stored = json.loads(run.REFERENCE.read_text())
    assert set(stored) == set(WORKLOADS)
    assert run.DEFAULT_SEED in reference.SEEDS
    for name, w in WORKLOADS.items():
        assert set(stored[name]) == {str(seed) for seed in reference.SEEDS}
        for ref in stored[name].values():
            assert len(ref["opt"]) == len(ref["witness"]) == w.pool
