"""Write ``reference.json``: the opt and witness digest of every pool instance.

Run from the root of a checkout, on a commit whose solvers are trusted::

    python3 perfbench/reference.py

Every record is checked with the independent verifier before it is stored.
The benchmark then fails any solve whose opt differs from the stored one,
and counts (without failing) the instances whose witness differs.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

SEEDS = range(16)


def main() -> int:
    cli = run.load_program()
    stored: dict[str, dict[str, dict]] = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            pool, paths, _ = run.setup(cli, workload, seed, run.WORK / f"reference-{name}")
            solves = [run.solve(cli, i, path) for i, path in enumerate(paths)]
            failed, _ = run.gate(pool, solves, None)
            if failed:
                s, reason = failed[0]
                print(f"{name} seed {seed} instance {s.index}: {reason}", file=sys.stderr)
                return 1
            records = [json.loads(s.stdout) for s in solves]
            stored.setdefault(name, {})[str(seed)] = {
                "opt": [r["opt"] for r in records],
                "witness": [run.witness_digest(r) for r in records],
            }
            print(f"{name} seed {seed}: {len(records)} instances", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as out:
        json.dump(stored, out, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
