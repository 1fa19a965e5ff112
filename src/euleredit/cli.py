"""Command-line front end.

Instance files are line-oriented and DIMACS-adjacent::

    p <kind> <opset> <n> <m> [k]
    e <u> <v>        (undirected edge; one line per edge)
    a <u> <v>        (directed arc)
    d <v> <value>    (target delta; missing vertices default to 0)

with kind one of cdpe, cdbe, dpe, dbe and opset ``ea`` or ``ea+ed``.
Parsing takes time linear in the file size.  A header ``n`` above
``MAX_VERTICES`` (10,000) is a parse error on the header line (exit code 1).
Results are a single JSON object on stdout and a human summary on stderr;
exit code 0 means Solved/valid, 2 NoInstance/invalid, 1 usage or parse
errors, 3 a solver whose witness failed its own check.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import dataclass

from .cdbe import solve_cdbe, solve_dbe
from .cdpe import Verdict, solve_cdpe_ea, solve_cdpe_ea_ed, solve_dpe
from .graphs import (
    BalanceInstance,
    Digraph,
    Graph,
    GraphError,
    OperationSet,
    ParityInstance,
    SolverInvariantError,
    set_bits,
)
from .verify import verify_balance, verify_parity

KINDS = ("cdpe", "cdbe", "dpe", "dbe")

# Largest n a header may declare.  Every solver keeps an n-bit adjacency row
# per vertex, and under ea the operation graph is the complement, with up to
# n²/2 edges, so a header n is checked before anything is sized by it.
MAX_VERTICES = 10_000


class ParseError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    opset: OperationSet
    instance: ParityInstance | BalanceInstance

    @property
    def directed(self) -> bool:
        return self.kind in ("cdbe", "dbe")

    @property
    def connected(self) -> bool:
        return self.kind in ("cdpe", "cdbe")


def parse_instance(text: str) -> InstanceFile:
    # One pass, one split per line; blank lines and "c..." comments are skipped.
    lines = enumerate(text.splitlines(), 1)
    for lineno, raw in lines:
        fields = raw.split()
        if fields and fields[0][0] != "c":
            break
    else:
        raise ParseError(1, "empty instance")
    if len(fields) not in (5, 6) or fields[0] != "p":
        raise ParseError(lineno, "expected header 'p <kind> <opset> <n> <m> [k]'")
    kind = fields[1]
    if kind not in KINDS:
        raise ParseError(lineno, f"unknown problem kind {kind!r}")
    try:
        opset = OperationSet.from_string(fields[2])
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from exc
    try:
        n, m = int(fields[3]), int(fields[4])
        budget = int(fields[5]) if len(fields) == 6 else None
    except ValueError as exc:
        raise ParseError(lineno, "n, m and k must be integers") from exc
    if n <= 0:
        raise ParseError(lineno, "n must be positive")
    if n > MAX_VERTICES:
        raise ParseError(lineno, f"n must be at most {MAX_VERTICES}")
    if budget is not None and budget < 0:
        raise ParseError(lineno, "budget must be non-negative")

    directed = kind in ("cdbe", "dbe")
    tag = "a" if directed else "e"
    rows = [0] * n  # bit v of rows[u]: the arc or edge uv has been read
    # The canonical spelling of each vertex; any other spelling ("+3", "03",
    # out-of-range or non-numbers) falls back to int() and the range check.
    names = {str(v): v for v in range(n)}
    delta: dict[int, int] = {}
    last = lineno  # the m-check names the last non-blank, non-comment line
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "c":
            continue
        last = lineno
        if parts[0] == tag:
            if len(parts) != 3:
                raise ParseError(lineno, f"expected '{tag} <u> <v>'")
            u, v = names.get(parts[1]), names.get(parts[2])
            if u is None or v is None:
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError as exc:
                    raise ParseError(lineno, "endpoints must be integers") from exc
                if not (0 <= u < n and 0 <= v < n):
                    raise ParseError(lineno, f"vertex out of range 0..{n - 1}")
            if u == v:
                raise ParseError(lineno, "loops are not allowed")
            if rows[u] >> v & 1:
                raise ParseError(lineno, f"duplicate {tag} {u} {v}")
            rows[u] |= 1 << v
            if not directed:
                rows[v] |= 1 << u
        elif parts[0] == "d":
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'd <v> <value>'")
            v = names.get(parts[1])
            try:
                if v is None:
                    v = int(parts[1])
                value = int(parts[2])
            except ValueError as exc:
                raise ParseError(lineno, "delta entries must be integers") from exc
            if not 0 <= v < n:
                raise ParseError(lineno, f"vertex out of range 0..{n - 1}")
            if v in delta:
                raise ParseError(lineno, f"duplicate delta for vertex {v}")
            if not directed and value not in (0, 1):
                raise ParseError(lineno, "parity targets must be 0 or 1")
            delta[v] = value
        else:
            raise ParseError(lineno, f"unknown line type {parts[0]!r}")
    found = sum(row.bit_count() for row in rows) // (1 if directed else 2)
    if found != m:
        raise ParseError(last, f"expected {m} {tag}-lines, found {found}")

    targets = tuple(delta.get(v, 0) for v in range(n))
    if directed:
        arcs = frozenset((u, v) for u, row in enumerate(rows) for v in set_bits(row))
        instance: ParityInstance | BalanceInstance = BalanceInstance(
            Digraph(n, arcs), targets, budget
        )
    else:
        instance = ParityInstance(Graph._from_rows(n, rows), targets, budget)
    return InstanceFile(kind, opset, instance)


def format_instance(inst_file: InstanceFile) -> str:
    inst = inst_file.instance
    if inst_file.directed:
        n = inst.digraph.n
        links = sorted(inst.digraph.arcs)
        tag = "a"
    else:
        n = inst.graph.n
        links = sorted(inst.graph.edges)
        tag = "e"
    head = f"p {inst_file.kind} {inst_file.opset.value} {n} {len(links)}"
    if inst.budget is not None:
        head += f" {inst.budget}"
    out = [head]
    out.extend(f"{tag} {u} {v}" for u, v in links)
    out.extend(f"d {v} {inst.delta[v]}" for v in range(n) if inst.delta[v])
    return "\n".join(out) + "\n"


def _solve(inst_file: InstanceFile, connected: bool):
    inst = inst_file.instance
    if inst_file.directed:
        if connected:
            return solve_cdbe(inst, inst_file.opset)
        return solve_dbe(inst, inst_file.opset)
    if not connected:
        return solve_dpe(inst, inst_file.opset)
    if inst_file.opset is OperationSet.ADD:
        return solve_cdpe_ea(inst)
    return solve_cdpe_ea_ed(inst)


def _result_record(outcome, millis: float) -> dict:
    counts = outcome.counts
    record = {
        "verdict": outcome.verdict.value,
        "opt": outcome.opt,
        "counts": {
            "p": counts.plain_components,
            "q": counts.deficient_components,
            "t": counts.total_imbalance,
            "T": len(counts.deficient),
            "F": outcome.join_size,
        },
        "millis": round(millis, 3),
    }
    if outcome.verdict is Verdict.SOLVED:
        record["additions"] = sorted(map(list, outcome.solution.additions))
        record["deletions"] = sorted(map(list, outcome.solution.deletions))
    if outcome.feasible_within_budget is not None:
        record["feasible_within_budget"] = outcome.feasible_within_budget
    return record


def _cmd_solve(args) -> int:
    inst_file = parse_instance(_read(args.infile))
    if args.opset:
        inst_file = InstanceFile(
            inst_file.kind, OperationSet.from_string(args.opset), inst_file.instance
        )
    connected = inst_file.connected and not args.no_connectivity
    start = time.perf_counter()
    outcome = _solve(inst_file, connected)
    millis = (time.perf_counter() - start) * 1000
    record = _result_record(outcome, millis)
    print(json.dumps(record))
    print(
        f"{inst_file.kind}({inst_file.opset.value}): {outcome.verdict.value}"
        + (f", opt={outcome.opt}" if outcome.opt is not None else ""),
        file=sys.stderr,
    )
    return 0 if outcome.verdict is Verdict.SOLVED else 2


def _pairs(sol: dict, key: str) -> set[tuple[int, int]]:
    # Types are compared exactly, so that a bool (an int subclass) is refused.
    pairs = sol.get(key, [])
    if type(pairs) is not list or any(
        type(e) is not list or [type(x) for x in e] != [int, int] for e in pairs
    ):
        raise ValueError(f"{key} must be a list of [u, v] integer pairs")
    return {tuple(e) for e in pairs}


def _cmd_verify(args) -> int:
    inst_file = parse_instance(_read(args.infile))
    sol = json.loads(_read(args.sol))
    if not isinstance(sol, dict):
        raise ValueError("a solution must be a JSON object")
    additions, deletions = _pairs(sol, "additions"), _pairs(sol, "deletions")
    opt = sol.get("opt")
    if type(opt) not in (int, type(None)):
        raise ValueError("opt must be an integer or null")
    verify = verify_balance if inst_file.directed else verify_parity
    report = verify(
        inst_file.instance,
        additions,
        deletions,
        opt,
        require_connected=inst_file.connected and not args.no_connectivity,
    )
    print(json.dumps({"valid": report.valid, "failures": list(report.failures)}))
    return 0 if report.valid else 2


def _cmd_oracle(args) -> int:
    # The brute-force oracle needs numpy, an optional dependency that no
    # solve loads.
    try:
        from .oracle import OracleBudget, oracle_cdbe, oracle_cdpe
    except ImportError as exc:
        print(f"error: euleredit oracle needs numpy: {exc}", file=sys.stderr)
        return 1

    inst_file = parse_instance(_read(args.infile))
    budget = OracleBudget(args.kmax)
    connected = inst_file.connected and not args.no_connectivity
    if inst_file.directed:
        opt = oracle_cdbe(inst_file.instance, inst_file.opset, budget, connected)
    else:
        opt = oracle_cdpe(inst_file.instance, inst_file.opset, budget, connected)
    verdict = "Solved" if opt is not None else "NoInstance"
    print(json.dumps({"verdict": verdict, "opt": opt}))
    return 0 if opt is not None else 2


def generate_instance(
    kind: str, opset: OperationSet, n: int, density: float, seed: int
) -> InstanceFile:
    rng = random.Random(seed)
    directed = kind in ("cdbe", "dbe")
    if directed:
        arcs = frozenset(
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < density
        )
        delta = [0] * n
        for _ in range(n // 2):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                delta[u] += 1
                delta[v] -= 1
        return InstanceFile(
            kind, opset, BalanceInstance(Digraph(n, arcs), tuple(delta))
        )
    edges = frozenset(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    )
    delta = [rng.randrange(2) for _ in range(n)]
    return InstanceFile(kind, opset, ParityInstance(Graph(n, edges), tuple(delta)))


def _cmd_gen(args) -> int:
    # parse_instance's bounds on n: no file is drawn that solve would refuse.
    if args.n <= 0:
        raise ValueError("n must be positive")
    if args.n > MAX_VERTICES:
        raise ValueError(f"n must be at most {MAX_VERTICES}")
    if not 0 <= args.density <= 1:
        raise ValueError("density must be between 0 and 1")
    inst_file = generate_instance(
        args.kind, OperationSet.from_string(args.opset), args.n, args.density, args.seed
    )
    sys.stdout.write(format_instance(inst_file))
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="euleredit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--opset", help="override the operation set in the file")
    solve.add_argument("--no-connectivity", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a solution against an instance")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--sol", required=True)
    verify.add_argument("--no-connectivity", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    oracle = sub.add_parser("oracle", help="brute-force a tiny instance")
    oracle.add_argument("--in", dest="infile", required=True)
    oracle.add_argument("--kmax", type=int, default=12)
    oracle.add_argument("--no-connectivity", action="store_true")
    oracle.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="emit a random instance (seeded)")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--opset", default="ea")
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--seed", type=int, required=True)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GraphError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
