"""Golden witnesses: every entry point returns byte-identical edit sets.

Each row names a seeded instance and the digest of its
``(opt, sorted additions, sorted deletions)``.  The rows are all Solved,
and many of them have p+q >= 3, so the rewiring swaps and the chain splice
run; a refactor that changes any witness fails here even when the optimum
stays the same.
"""

import hashlib
import json
import random

import pytest

from euleredit import (
    BalanceInstance,
    OperationSet,
    ParityInstance,
    Verdict,
    solve_cdbe,
    solve_cdpe_ea,
    solve_cdpe_ea_ed,
    solve_dbe,
    solve_dpe,
)

from conftest import random_digraph, random_graph

EA, EA_ED = OperationSet.ADD, OperationSet.ADD_DELETE


def _parity_instance(n: int, density: float, seed: int) -> ParityInstance:
    rng = random.Random(seed)
    g = random_graph(rng, n, density)
    delta = [rng.randrange(2) for _ in range(n)]
    if sum(g.degree(v) % 2 != delta[v] for v in range(n)) % 2:
        delta[0] ^= 1
    return ParityInstance(g, tuple(delta))


def _balance_instance(n: int, density: float, seed: int) -> BalanceInstance:
    rng = random.Random(seed)
    g = random_digraph(rng, n, density)
    delta = list(g.balances)
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            delta[u] += 1
            delta[v] -= 1
    return BalanceInstance(g, tuple(delta))


SOLVERS = {
    ("cdpe", EA): solve_cdpe_ea,
    ("cdpe", EA_ED): solve_cdpe_ea_ed,
    ("dpe", EA): lambda inst: solve_dpe(inst, EA),
    ("dpe", EA_ED): lambda inst: solve_dpe(inst, EA_ED),
    ("cdbe", EA): lambda inst: solve_cdbe(inst, EA),
    ("cdbe", EA_ED): lambda inst: solve_cdbe(inst, EA_ED),
    ("dbe", EA): lambda inst: solve_dbe(inst, EA),
    ("dbe", EA_ED): lambda inst: solve_dbe(inst, EA_ED),
}

# (kind, opset, n, density, seed, digest)
WITNESSES = [
    ("cdpe", EA, 10, 0.4, 0, "6f95fc4d9ca4f452"),
    ("cdpe", EA, 13, 0.1, 1, "1aa022dace913f10"),
    ("cdpe", EA, 23, 0.03, 4, "dc04b553525c8e0e"),
    ("cdpe", EA, 9, 0.1, 5, "fecb015bcf9154e7"),
    ("cdpe", EA, 6, 0.2, 75, "07a385e68dac9ce0"),
    ("cdpe", EA, 11, 0.2, 670, "28e1550ccfab0d86"),
    ("cdpe", EA, 8, 0.3, 397, "5b14aa3e4501aebb"),
    ("cdpe", EA_ED, 10, 0.4, 0, "6f95fc4d9ca4f452"),
    ("cdpe", EA_ED, 12, 0.03, 2, "f6a8515f4763cb1f"),
    ("cdpe", EA_ED, 9, 0.1, 5, "fecb015bcf9154e7"),
    ("cdpe", EA_ED, 25, 0.03, 47, "0c1a07f1f196a9d4"),
    ("cdpe", EA_ED, 17, 0.1, 56, "fc04057dda402fa6"),
    ("dpe", EA, 10, 0.4, 0, "6f95fc4d9ca4f452"),
    ("dpe", EA, 13, 0.1, 1, "9ea1baf2be045932"),
    ("dpe", EA, 23, 0.03, 4, "1fa43ffa6f20a461"),
    ("dpe", EA_ED, 10, 0.4, 0, "84c66c0fd3b7cb41"),
    ("dpe", EA_ED, 12, 0.03, 2, "8acc225f3bbe436e"),
    ("dpe", EA_ED, 16, 0.03, 5, "c5f680a5359361b5"),
    ("cdbe", EA, 10, 0.4, 0, "83cf680eed679d5f"),
    ("cdbe", EA, 23, 0.03, 4, "4a29001300609950"),
    ("cdbe", EA, 8, 0.1, 33, "dc84122a984cd6f1"),
    ("cdbe", EA, 29, 0.03, 46, "735d886fb44879ab"),
    ("cdbe", EA, 6, 0.1, 786, "3d37162ba8feeb69"),
    ("cdbe", EA, 9, 0.1, 679, "248868542961c30d"),
    ("cdbe", EA_ED, 10, 0.4, 0, "83cf680eed679d5f"),
    ("cdbe", EA_ED, 21, 0.03, 9, "8a9af69b21c9caae"),
    ("cdbe", EA_ED, 11, 0.1, 74, "97c301759386fb1b"),
    ("cdbe", EA_ED, 6, 0.1, 786, "3d37162ba8feeb69"),
    ("cdbe", EA_ED, 8, 0.1, 1049, "13369904c2f6151e"),
    ("dbe", EA, 10, 0.4, 0, "83cf680eed679d5f"),
    ("dbe", EA, 12, 0.03, 2, "69cbf64d1a365be4"),
    ("dbe", EA, 7, 0.1, 6, "acb9b45dd87efe1e"),
    ("dbe", EA_ED, 10, 0.4, 0, "83cf680eed679d5f"),
    ("dbe", EA_ED, 12, 0.03, 2, "69cbf64d1a365be4"),
    ("dbe", EA_ED, 23, 0.03, 4, "9b3495db71da6a27"),
]


def _solve(kind, s, n, density, seed):
    make = _balance_instance if kind in ("cdbe", "dbe") else _parity_instance
    return SOLVERS[(kind, s)](make(n, density, seed))


def _digest(outcome) -> str:
    sol = outcome.solution
    record = [outcome.opt, sorted(sol.additions), sorted(sol.deletions)]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def test_table_covers_every_entry_point_with_long_splices():
    assert {(kind, s) for kind, s, *_ in WITNESSES} == set(SOLVERS)
    long = 0
    for kind, s, n, density, seed, _ in WITNESSES:
        counts = _solve(kind, s, n, density, seed).counts
        long += counts.plain_components + counts.deficient_components >= 3
    assert long >= 10


@pytest.mark.parametrize(
    "kind,s,n,density,seed,digest",
    WITNESSES,
    ids=[f"{k}-{s.value}-{seed}" for k, s, _, _, seed, _ in WITNESSES],
)
def test_witness_is_unchanged(kind, s, n, density, seed, digest):
    outcome = _solve(kind, s, n, density, seed)
    assert outcome.verdict is Verdict.SOLVED
    assert _digest(outcome) == digest
