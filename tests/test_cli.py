import ast
import importlib
import inspect
import json
import random
import time
from itertools import product

import pytest

import euleredit.cdpe
import euleredit.cli
import euleredit.tjoin
from euleredit import SolverInvariantError, VerifyReport, verify_parity
from euleredit.tjoin import build_gs, min_t_join
from euleredit.cli import (
    ParseError,
    _solve,
    format_instance,
    generate_instance,
    main,
    parse_instance,
)
from euleredit.graphs import OperationSet

from conftest import reference_parse_instance as reference

P3 = "p cdpe ea 3 2\ne 0 1\ne 1 2\nd 0 1\nd 2 1\n"


def test_parse_basic():
    inst_file = parse_instance(P3)
    assert inst_file.kind == "cdpe"
    assert inst_file.opset.value == "ea"
    assert inst_file.instance.graph.edges == {(0, 1), (1, 2)}
    assert inst_file.instance.delta == (1, 0, 1)
    assert inst_file.instance.budget is None


def test_parse_budget_and_comments():
    inst_file = parse_instance("c a comment\np dpe ea+ed 2 1 5\ne 0 1\n")
    assert inst_file.kind == "dpe"
    assert inst_file.instance.budget == 5
    assert not inst_file.connected


def test_parse_directed():
    inst_file = parse_instance("p cdbe ea 3 2\na 0 1\na 1 0\nd 1 2\nd 2 -2\n")
    assert inst_file.directed
    # An arc and its reverse are two arcs, not a duplicate.
    assert inst_file.instance.digraph.arcs == {(0, 1), (1, 0)}
    assert inst_file.instance.digraph.m == 2
    assert inst_file.instance.delta == (0, 2, -2)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("p what ea 2 0\n", "unknown problem kind"),
        ("p cdpe ed 2 0\n", "unsupported operation set"),
        ("p cdpe ea 2 x\n", "integers"),
        ("p cdpe ea 0 0\n", "positive"),
        ("p cdpe ea 3 0 -1\n", "budget must be non-negative"),
        ("p cdpe ea 2 1\n", "expected 1 e-lines"),
        ("p cdpe ea 2 1\ne 0 2\n", "out of range"),
        ("p cdpe ea 2 1\ne 1 1\n", "loops"),
        ("p cdpe ea 2 2\ne 0 1\ne 1 0\n", "duplicate"),
        ("p cdpe ea 2 1\na 0 1\n", "unknown line type"),
        ("p cdbe ea 2 1\ne 0 1\n", "unknown line type"),
        ("p cdpe ea 2 0\nd 0 2\n", "0 or 1"),
        ("p cdpe ea 2 0\nd 0 1\nd 0 1\n", "duplicate delta"),
        ("p cdbe ea 2 2\na 0 1\na 0 1\n", "duplicate"),
        ("p cdpe ea 3 2\ne 1 2\ne 2 01\n", "line 3: duplicate e 2 1"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)
    assert str(err.value).startswith("line ")


def test_header_n_is_bounded(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(euleredit.cli, "MAX_VERTICES", 8)
    assert parse_instance("p cdpe ea 8 1\ne 0 7\n").instance.graph.n == 8
    with pytest.raises(ParseError, match=r"^line 1: n must be at most 8$"):
        parse_instance("p cdpe ea 9 1\ne 0 8\n")
    path = tmp_path / "big.txt"
    path.write_text("c comment lines do not move the bound's line\np dbe ea 9 0\n")
    code, out, err = _run(capsys, "solve", "--in", str(path))
    assert code == 1 and not out
    assert err.startswith("error: line 2: n must be at most 8")


def _dense_file(m: int) -> str:
    rng = random.Random(m)
    pairs = rng.sample([(u, v) for u in range(300) for v in range(u + 1, 300)], m)
    body = "".join(f"e {v} {u}\n" if rng.random() < 0.5 else f"e {u} {v}\n"
                   for u, v in pairs)
    return f"p cdpe ea 300 {m}\n{body}d 0 1\nd 299 1\n"


def test_parse_is_linear():
    times = {}
    for m in (10_000, 20_000, 40_000):
        text = _dense_file(m)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            inst_file = parse_instance(text)
            best = min(best, time.perf_counter() - start)
        assert inst_file.instance.graph.m == m
        times[m] = best
    assert times[40_000] < 1.0
    # Linear: about 2x per doubling of the line count, with room for noise,
    # and a floor so that sub-millisecond noise cannot decide the ratio.
    assert times[20_000] <= 4 * max(times[10_000], 0.005)
    assert times[40_000] <= 4 * max(times[20_000], 0.005)


# Lines a mutation may insert: blanks, indented comments, wrong arity,
# non-integers (int() accepts "+3" and Unicode digits), out-of-range
# vertices and loops.
_NOISE = [
    "", "   ", "\t", "  c indented comment", "\tc", "cx", "c", "e", "a", "d", "x 1 2",
    "e 0", "e 0 1 2", "a 1", "a 0 1 2", "d 0", "d 0 1 1", "e x 1", "a 0 y",
    "d z 1", "e 0 +3", "a +1 0", "d +1 1", "e \u0661 0", "a 0 \u0663", "d \u0660 1",
    "e 1.0 2", "e -1 0", "a 0 99", "d 99 1", "e 2 2", "a 1 1", "d 1 -1", "d 0 2",
    "e 01 2", "a 00 1", "e -0 1", "d 01 1", "p cdpe ea 3 0",
]
_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"]


def _mutant(rng: random.Random, lines: list[str]) -> str:
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        at = rng.randint(0, len(lines))
        if op == 0:
            lines.insert(at, rng.choice(_NOISE))
        elif op == 1 and lines:
            lines.insert(at, rng.choice(lines))  # a duplicate
        elif op == 2 and lines:
            u, *rest = lines.pop(rng.randrange(len(lines))).split() or [""]
            lines.insert(at, " ".join([u, *reversed(rest)]))
        elif op == 3 and len(lines) > 1:
            del lines[rng.randrange(1, len(lines))]  # an m-mismatch or a lost d-line
            lines += ["c trailing"] * rng.randint(0, 2) + [""] * rng.randint(0, 1)
        elif op == 4 and lines:
            pad = rng.choice(["", " ", "\t"])
            lines[at - 1] = " " * rng.randint(0, 2) + lines[at - 1] + pad
        elif op == 5 and lines:
            head = lines[0].split()
            if len(head) >= 5:
                value = rng.choice(["0", "-1", "x", "+2", "99999", "dbe", "ea+ed"])
                head[rng.randrange(1, len(head))] = value
                lines[0] = " ".join(head)
    out = []
    for line in lines:
        out += [line, rng.choice(_BREAKS)]
    return "".join(out[: rng.choice([-1, len(out)])])


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # any difference in type or message counts
        return type(exc), str(exc)


def test_parse_matches_reference_on_mutated_files():
    rng = random.Random(0xF11E)
    bases = [[], ["", "   "], ["c only comments", "  c"], ["p cdbe ea+ed 3 0 2"]]
    for kind in ("cdpe", "dpe", "cdbe", "dbe"):
        for n in (1, 2, 5, 9):
            for opset in (OperationSet.ADD, OperationSet.ADD_DELETE):
                seed = rng.randrange(1 << 30)
                inst_file = generate_instance(kind, opset, n, 0.4, seed)
                bases.append(format_instance(inst_file).splitlines())
    for _ in range(40):
        for lines in bases:
            text = _mutant(rng, lines)
            assert _outcome(parse_instance, text) == _outcome(reference, text), text
    for lines in bases:
        text = "\n".join(lines)
        assert _outcome(parse_instance, text) == _outcome(reference, text), text


def test_format_parse_roundtrip():
    inst_file = parse_instance(P3)
    assert parse_instance(format_instance(inst_file)) == inst_file
    directed = parse_instance("p dbe ea+ed 3 2 7\na 2 0\na 1 0\nd 1 1\nd 0 -1\n")
    assert parse_instance(format_instance(directed)) == directed


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_command(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(P3)
    code, out, err = _run(capsys, "solve", "--in", str(path))
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "Solved"
    assert record["opt"] == 0
    assert record["counts"] == {"p": 1, "q": 0, "t": 0, "T": 0, "F": 0}
    assert "Solved" in err
    assert "feasible_within_budget" not in record
    # With a header budget k the record says whether opt <= k; the
    # edgeless graph on 4 vertices needs a C4, opt = 4.
    for k, feasible in ((4, True), (3, False)):
        path.write_text(f"p cdpe ea 4 0 {k}\n")
        code, out, _ = _run(capsys, "solve", "--in", str(path))
        record = json.loads(out)
        assert code == 0 and record["opt"] == 4
        assert record["feasible_within_budget"] is feasible


def test_solve_no_instance_exit_code(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("p cdpe ea 1 0\nd 0 1\n")
    code, out, _ = _run(capsys, "solve", "--in", str(path))
    assert code == 2
    assert json.loads(out)["verdict"] == "NoInstance"


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p cdpe ea 2 1\n")
    code, _, err = _run(capsys, "solve", "--in", str(path))
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "solve", "--in", str(tmp_path / "missing.txt"))
    assert code == 1


def test_solve_no_connectivity_flag(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("p cdpe ea 4 2\ne 0 1\ne 2 3\nd 0 1\nd 1 1\nd 2 1\nd 3 1\n")
    code, out, _ = _run(capsys, "solve", "--in", str(path))
    assert json.loads(out)["opt"] == 4  # two K2s must be joined by a C4
    code, out, _ = _run(capsys, "solve", "--in", str(path), "--no-connectivity")
    assert json.loads(out)["opt"] == 0
    # The parser is built once per process; no parsed flag outlives its call.
    code, out, _ = _run(capsys, "solve", "--in", str(path))
    assert json.loads(out)["opt"] == 4


@pytest.mark.parametrize(
    "verifier,text",
    [("verify_parity", P3), ("verify_balance", "p cdbe ea 3 3\na 0 1\na 1 2\na 2 0\n")],
)
def test_failed_self_check_exit_code(tmp_path, capsys, monkeypatch, verifier, text):
    # A witness that fails the solver's own check is a bug, not bad input.
    failing = lambda *args, **kwargs: VerifyReport(("disconnected",))
    monkeypatch.setattr(euleredit.cdpe, verifier, failing)
    inst_file = parse_instance(text)
    with pytest.raises(SolverInvariantError, match="disconnected"):
        _solve(inst_file, connected=True)
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code, out, err = _run(capsys, "solve", "--in", str(path))
    assert code == 3 and not out
    assert err.startswith("error: witness fails verification")


def test_witness_size_check_exit_code(tmp_path, capsys, monkeypatch):
    # The path 0-1-2 with every target even: T = {0, 2}, opt = 1 (add 02).
    # A witness listing that edge as both (0, 2) and (2, 0) passes the
    # verifier, which normalises pairs, so only the solver's size check sees it.
    text = "p cdpe ea+ed 3 2\ne 0 1\ne 1 2\n"
    inst_file = parse_instance(text)
    twice = {(0, 2), (2, 0)}
    assert verify_parity(inst_file.instance, twice, set(), claimed_opt=1).valid
    witness = lambda g, sub, labels: (twice, set())
    monkeypatch.setattr(euleredit.cdpe, "_general_editing_witness", witness)
    message = "witness has 2 edits but the optimum is 1"
    with pytest.raises(SolverInvariantError, match=message):
        _solve(inst_file, connected=True)
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code, out, err = _run(capsys, "solve", "--in", str(path))
    assert code == 3 and not out
    assert err == f"error: {message}\n"


def test_missing_perfect_matching_exit_code(tmp_path, capsys, monkeypatch):
    # Every vertex of an empty K4 is deficient, so a T-join exists.
    text = "p cdpe ea 4 0\nd 0 1\nd 1 1\nd 2 1\nd 3 1\n"
    monkeypatch.setattr(euleredit.tjoin, "min_weight_perfect_matching", lambda w: None)
    g = parse_instance(text).instance.graph
    with pytest.raises(SolverInvariantError, match="perfect matching"):
        min_t_join(build_gs(g), {0, 1, 2, 3})
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code, out, err = _run(capsys, "solve", "--in", str(path))
    assert code == 3 and not out
    assert err.startswith("error: no perfect matching")


@pytest.mark.parametrize(
    "module", ["cdpe", "cdbe", "tjoin", "fjoin", "graphs", "verify", "cli"]
)
def test_solver_path_has_no_assert(module):
    # python -O strips assert statements; checks on the solver path must raise.
    tree = ast.parse(inspect.getsource(importlib.import_module(f"euleredit.{module}")))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert in euleredit.{module} at lines {lines}"


def test_verify_command(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text(P3)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"additions": [], "deletions": [], "opt": 0}))
    code, out, _ = _run(capsys, "verify", "--in", str(inst), "--sol", str(sol))
    assert code == 0 and json.loads(out)["valid"]
    sol.write_text(json.dumps({"additions": [[0, 2]], "deletions": []}))
    code, out, _ = _run(capsys, "verify", "--in", str(inst), "--sol", str(sol))
    assert code == 2 and not json.loads(out)["valid"]
    # An addition outside the vertex range is an input error, not a verdict.
    for bad in ([0, 3], [-1, 2], [1, 1]):
        sol.write_text(json.dumps({"additions": [bad], "deletions": []}))
        code, out, err = _run(capsys, "verify", "--in", str(inst), "--sol", str(sol))
        assert code == 1 and out == "" and err.startswith("error:")
    # A directed file is checked for balance: the arc 0->1 fixes it.
    inst.write_text("p cdbe ea 2 0\nd 0 1\nd 1 -1\n")
    sol.write_text(json.dumps({"additions": [[0, 1]], "deletions": [], "opt": 1}))
    code, out, _ = _run(capsys, "verify", "--in", str(inst), "--sol", str(sol))
    assert code == 0 and json.loads(out)["valid"]
    sol.write_text(json.dumps({"additions": [[1, 0]], "deletions": []}))
    code, out, _ = _run(capsys, "verify", "--in", str(inst), "--sol", str(sol))
    assert code == 2 and not json.loads(out)["valid"]


@pytest.mark.parametrize(
    "sol,fragment",
    [
        ([[0, 2]], "a solution must be a JSON object"),
        ({"additions": 5}, "additions must be a list"),
        ({"additions": None}, "additions must be a list"),
        ({"additions": [["0", "2"]]}, "additions must be a list"),
        ({"additions": [[0.0, 2]]}, "additions must be a list"),
        ({"additions": [[True, 2]]}, "additions must be a list"),
        ({"additions": [[[0], 2]]}, "additions must be a list"),
        ({"deletions": [[0, "1"]]}, "deletions must be a list"),
        ({"additions": [[0, 2]], "opt": "x"}, "opt must be an integer or null"),
        ({"additions": [[0, 2]], "opt": 1.0}, "opt must be an integer or null"),
        ({"additions": [[0, 2]], "opt": True}, "opt must be an integer or null"),
    ],
    ids=[
        "array", "additions-int", "additions-null", "string-ends", "float-end",
        "bool-end", "list-end", "string-deletion", "opt-string", "opt-float",
        "opt-bool",
    ],
)
def test_verify_rejects_malformed_solutions(tmp_path, capsys, sol, fragment):
    inst = tmp_path / "inst.txt"
    inst.write_text(P3)
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(sol))
    code, out, err = _run(capsys, "verify", "--in", str(inst), "--sol", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and fragment in err


def test_oracle_command(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("p cdpe ea 4 0\n")
    code, out, _ = _run(capsys, "oracle", "--in", str(path))
    assert code == 0 and json.loads(out)["opt"] == 4
    code, out, _ = _run(capsys, "oracle", "--in", str(path), "--kmax", "3")
    assert code == 2 and json.loads(out)["verdict"] == "NoInstance"
    # Digraphs up to 5 vertices: five isolated ones need a directed 5-cycle.
    path.write_text("p cdbe ea 5 0\n")
    code, out, _ = _run(capsys, "oracle", "--in", str(path))
    assert code == 0 and json.loads(out)["opt"] == 5
    path.write_text("p cdbe ea 6 0\n")
    code, out, err = _run(capsys, "oracle", "--in", str(path))
    assert code == 1 and not out
    assert err == "error: oracle_cdbe supports n <= 5\n"


def test_oracle_agrees_with_solve(tmp_path, capsys):
    for kind, seed in product(("cdpe", "cdbe"), range(10)):
        gen_code, text, _ = _run(
            capsys, "gen", "--kind", kind, "-n", "5", "--seed", str(seed)
        )
        assert gen_code == 0
        path = tmp_path / "inst.txt"
        path.write_text(text)
        s_code, s_out, _ = _run(capsys, "solve", "--in", str(path))
        o_code, o_out, _ = _run(capsys, "oracle", "--in", str(path))
        assert s_code == o_code
        assert json.loads(s_out)["opt"] == json.loads(o_out)["opt"]


def test_gen_is_deterministic(capsys):
    runs = [
        _run(capsys, "gen", "--kind", "cdbe", "-n", "6", "--seed", "42")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    other = _run(capsys, "gen", "--kind", "cdbe", "-n", "6", "--seed", "43")[1]
    assert other != runs[0]
    parsed = parse_instance(runs[0])
    assert sum(parsed.instance.delta) == 0


def test_gen_keeps_to_the_parsers_bounds_on_n(capsys, monkeypatch):
    monkeypatch.setattr(euleredit.cli, "MAX_VERTICES", 8)
    for n, message in (("0", "n must be positive"), ("-2", "n must be positive"),
                       ("9", "n must be at most 8")):
        code, out, err = _run(capsys, "gen", "--kind", "dbe", "-n", n, "--seed", "1")
        assert code == 1 and out == "" and err == f"error: {message}\n"
    code, out, _ = _run(capsys, "gen", "--kind", "dbe", "-n", "8", "--seed", "1")
    assert code == 0 and parse_instance(out).instance.digraph.n == 8


def test_gen_keeps_density_between_0_and_1(capsys):
    for density in ("7", "-0.1", "nan", "inf"):
        code, out, err = _run(
            capsys, "gen", "--kind", "cdpe", "-n", "4", "--density", density,
            "--seed", "1",
        )
        assert code == 1 and out == ""
        assert err == "error: density must be between 0 and 1\n"
    for density in ("0", "1"):
        code, out, _ = _run(
            capsys, "gen", "--kind", "cdpe", "-n", "4", "--density", density,
            "--seed", "1",
        )
        assert code == 0 and parse_instance(out).instance.graph.m == 6 * float(density)


def test_gen_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--kind", "cdpe", "-n", "5"])


def test_opset_override(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    # Isolated vertex plus triangle: infeasible for ea, solvable for ea+ed.
    path.write_text("p cdpe ea 4 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, _, _ = _run(capsys, "solve", "--in", str(path))
    assert code == 2
    code, out, _ = _run(capsys, "solve", "--in", str(path), "--opset", "ea+ed")
    assert code == 0 and json.loads(out)["opt"] == 3
