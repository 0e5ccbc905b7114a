"""The parity tool, tools/parity.py, on the `tiny` benchmark config."""

import json
import subprocess
import sys
from pathlib import Path

import krylovflow

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(krylovflow.__file__).resolve().parents[1])


def parity(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py"),
                           *args], capture_output=True, text=True,
                          timeout=300)


def test_two_runs_of_tiny_have_no_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        proc = parity("run", SRC, str(out), "--only", "tiny")
        assert proc.returncode == 0, proc.stderr
    runs = json.loads((a / "runs.json").read_text())
    assert list(runs) == ["tiny"]
    assert runs["tiny"]["exit"] == 0 and runs["tiny"]["warnings"] == []
    # The raw N = 3 chain (complete at K = 40) and its projection, both
    # short enough for the vector kernel, with their Taylor plans [s, r].
    assert [(k, kernel, plan) for k, _, kernel, plan
            in runs["tiny"]["propagations"]] \
        == [(40, "vector", [2, 1]), (40, "vector", [6, 1])]
    proc = parity("diff", str(a), str(b))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1].endswith(", 0 differ")

    # One moved cell is reported by column, relative to its maximum.
    moments = b / "tiny" / "moments.csv"
    lines = moments.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 0.5)   # P at t = 0 is 1
    lines[1] = ",".join(cells)
    moments.write_text("\n".join(lines) + "\n")
    proc = parity("diff", str(a), str(b))
    assert proc.returncode == 1
    assert "tiny/moments.csv: differs" in proc.stdout
    assert "P: max |delta| 5.000e-01 = 5.000e-01 of the column maximum" \
        in proc.stdout
