"""Seeded end-to-end benchmark of ``euleredit solve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense-undirected --seed 1 --seconds 60 --trace 0

The benchmark writes the workload's seeded instance files under
``.perfbench_work/`` and then runs a closed loop with one client in this one
process: each solve is ``euleredit.cli.main(["solve", "--in", file])``,
called in-process, and the next starts only after it returns.  After the
loop it re-checks every captured JSON record from outside the program and
prints one summary line and, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves each
instance untraced and then traced (see ``tracer.py``), and reports the
per-layer metrics of the traced solves and the tracing overhead; the spans
are written to ``spans.jsonl`` in the run's work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Instance, Workload, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5

END_TO_END = (
    ("e2e_s.p50", "s"),
    ("e2e_s.p90", "s"),
    ("throughput_ips", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ``euleredit.cli`` from the checkout's ``src/``, and nowhere else."""
    package = SRC / "euleredit"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no euleredit package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import euleredit.cli

    if Path(euleredit.cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"euleredit was imported from {euleredit.cli.__file__}")
    return euleredit.cli


@dataclass(frozen=True)
class Solve:
    index: int  # position in the instance pool
    exit_code: int | None  # None when cli.main raised
    stdout: str
    seconds: float


def solve(cli, index: int, path: str) -> Solve:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(["solve", "--in", path])
        except Exception:  # a crash is a failed solve, not the end of the run
            code = None
        seconds = time.perf_counter() - start
    return Solve(index, code, out.getvalue(), seconds)


def setup(cli, workload: Workload, seed: int, workdir: Path) -> tuple[list[Instance], list[str], float]:
    """Generate and write the instance files, then solve one as a warm-up."""
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pool = generate(workload, seed)
    paths = []
    for i, inst in enumerate(pool):
        path = workdir / f"{i:03d}.txt"
        path.write_text(inst.text(), encoding="utf-8")
        paths.append(str(path))
    solve(cli, 0, paths[0])
    return pool, paths, time.perf_counter() - start


def closed_loop(cli, paths: list[str], seconds: float, tracer: Tracer | None = None):
    """Solve the pool round-robin for ``seconds``.

    With a tracer, each instance is solved twice in a row, untraced and then
    traced, so that both lists cover the same instances.  Returns the untraced
    solves, the traced solves and the loop's wall time.
    """
    plain, traced = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        i = len(plain)
        index = i % len(paths)
        plain.append(solve(cli, index, paths[index]))
        if tracer is not None:
            tracer.instance = i
            with tracer:
                traced.append(solve(cli, index, paths[index]))
        if time.perf_counter() >= deadline:
            return plain, traced, time.perf_counter() - start


def witness_digest(record: dict) -> str:
    text = json.dumps([record["additions"], record["deletions"]], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_record(inst: Instance, exit_code: int | None, stdout: str, reference_opt: int | None) -> str | None:
    """Why a captured solve is wrong, or None when it is right.

    The instance is rebuilt from the generator's data, not from the file, and
    checked with the independent verifier against the record's claimed opt.
    """
    from euleredit.graphs import BalanceInstance, Digraph, Graph, ParityInstance
    from euleredit.verify import verify_balance, verify_parity

    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        record = json.loads(stdout)
        opt = record["opt"]
        additions = {tuple(e) for e in record["additions"]}
        deletions = {tuple(e) for e in record["deletions"]}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"malformed record: {exc!r}"
    if record.get("verdict") != "Solved":
        return f"verdict {record.get('verdict')}"
    if inst.directed:
        report = verify_balance(
            BalanceInstance(Digraph(inst.n, frozenset(inst.links)), inst.delta),
            additions, deletions, claimed_opt=opt, require_connected=inst.connected,
        )
    else:
        report = verify_parity(
            ParityInstance(Graph(inst.n, frozenset(inst.links)), inst.delta),
            additions, deletions, claimed_opt=opt, require_connected=inst.connected,
        )
    if not report.valid:
        return f"verifier: {', '.join(report.failures)}"
    if reference_opt is not None and opt != reference_opt:
        return f"opt {opt}, reference {reference_opt}"
    return None


def load_reference(workload: str, seed: int) -> dict | None:
    """Stored opt values and witness digests for this workload and seed, if any."""
    if not REFERENCE.is_file():
        return None
    stored = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return stored.get(workload, {}).get(str(seed))


def gate(pool: list[Instance], solves: list[Solve], reference: dict | None):
    """Failed solves and the number of instances with a passing record whose
    witness differs from the stored digest.  Identical records of one instance
    are checked once."""
    verdicts: dict[tuple, str | None] = {}
    mismatched: set[int] = set()
    failed = []
    for s in solves:
        try:
            record = json.loads(s.stdout)
            record.pop("millis", None)
            key = (s.index, s.exit_code, json.dumps(record, sort_keys=True))
        except json.JSONDecodeError:
            key = (s.index, s.exit_code, s.stdout)
            record = None
        if key not in verdicts:
            ref_opt = reference["opt"][s.index] if reference else None
            verdicts[key] = check_record(pool[s.index], s.exit_code, s.stdout, ref_opt)
            if verdicts[key] is None and reference:
                if witness_digest(record) != reference["witness"][s.index]:
                    mismatched.add(s.index)
        if verdicts[key] is not None:
            failed.append((s, verdicts[key]))
    return failed, len(mismatched)


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def run(cli, workload: Workload, seed: int, seconds: float, trace: bool, reference: dict | None) -> dict:
    """One benchmark run: the result object, the solves and what the gate found."""
    workdir = WORK / f"{workload.name}-{seed}"
    if not trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            pool, paths, seconds_taken = setup(cli, workload, seed, workdir)
            setup_times.append(seconds_taken)
        solves, _, wall = closed_loop(cli, paths, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = [s.seconds for s in solves]
        metrics = {
            "e2e_s.p50": statistics.median(times),
            "e2e_s.p90": percentile_90(times),
            "throughput_ips": len(solves) / wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        pool, paths, _ = setup(cli, workload, seed, workdir)
        tracer = Tracer()
        plain, traced, _ = closed_loop(cli, paths, seconds, tracer)
        overhead = (
            statistics.median(s.seconds for s in traced)
            / statistics.median(s.seconds for s in plain)
            - 1
        )
        layers = tracer.layer_metrics(len(traced), overhead)
        tracer.write(workdir / "spans.jsonl")
        solves = plain + traced
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    failed, mismatched = gate(pool, solves, reference)
    return {
        "result": {
            "correct": not failed,
            "attempted": len(solves),
            "failed": len(failed),
            "metrics": result_metrics,
        },
        "pool": pool,
        "solves": solves,
        "failures": failed,
        "witness_digest_mismatches": mismatched,
        "reference": reference is not None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        cli = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    reference = load_reference(args.workload, args.seed)
    outcome = run(cli, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference)
    result = outcome["result"]
    for s, reason in outcome["failures"][:10]:
        print(f"failed: instance {s.index}: {reason}", file=sys.stderr)
    samples = (
        f"traced_solves={result['attempted'] // 2}"
        if args.trace
        else f"e2e_samples={result['attempted']} setup_samples={SETUP_REPEATS}"
    )
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} {samples} "
        f"solves={result['attempted']} failed={result['failed']} "
        f"failed_frac={result['failed'] / result['attempted']:.4f} "
        f"reference={'checked' if outcome['reference'] else 'absent'} "
        f"witness_digest_mismatches={outcome['witness_digest_mismatches']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
