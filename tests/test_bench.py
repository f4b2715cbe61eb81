"""The benchmark's contract with the package: every workload of
``bench/run.py`` runs one traced round of its operations and checks them.

The benchmark builds ``Cube`` and ``CubeVertex`` positionally and reads
``star_word`` and the ``Differential`` mapping; a change that breaks any of
this fails here, and not only when the benchmark is next run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["kh-torus", "corpus-refine",
                                      "cube-moves"])
def test_workload_runs_and_checks(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
