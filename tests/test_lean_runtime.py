"""The solve path loads neither numpy nor the brute-force oracle.

Each test runs a fresh interpreter, so that modules an earlier test
imported do not hide an import the solve path makes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Makes every import of numpy fail, as in an install without the oracle extra.
BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}")

sys.meta_path.insert(0, BlockNumpy())
"""

CLI = BLOCK_NUMPY + "from euleredit.cli import main\nsys.exit(main(sys.argv[1:]))\n"

P3 = "p cdpe ea 3 2\ne 0 1\ne 1 2\nd 0 1\nd 2 1\n"
DETOUR = "p cdbe ea+ed 4 1\na 0 3\nd 1 -2\nd 3 2\n"


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


@pytest.mark.parametrize("module", ["euleredit", "euleredit.cli"])
def test_import_loads_neither_numpy_nor_the_oracle(module):
    run = _python(
        "-c",
        f"import sys, {module}\n"
        "print(sorted({'numpy', 'euleredit.oracle'} & set(sys.modules)))",
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("text", [P3, DETOUR], ids=["cdpe", "cdbe"])
def test_solve_without_numpy(tmp_path, text):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    run = _python("-c", CLI, "solve", "--in", str(path))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["verdict"] == "Solved"


def test_oracle_without_numpy_is_an_error_line(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("p cdpe ea 4 0\n")
    run = _python("-c", CLI, "oracle", "--in", str(path))
    assert run.returncode == 1
    assert run.stderr.startswith("error:") and "numpy" in run.stderr
    assert "Traceback" not in run.stderr


def test_self_check_survives_optimize_flag(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(DETOUR)
    run = _python("-O", "-m", "euleredit.cli", "solve", "--in", str(path))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["opt"] == 4
