"""The benchmark recorder, tools/bench.py, with this checkout on both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = {m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def bench(out, *args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"),
                           str(ROOT), str(ROOT), str(out), "--pairs", "1",
                           "--seconds", "0", "--only", *args],
                          capture_output=True, text=True, timeout=300)


def test_one_pair_of_tiny_is_recorded(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = bench(out, "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(out.read_text())
    assert record["failed_runs"] == 0
    assert (record["pairs"], record["seconds"]) == (1, 0.0)
    for side in ("parent", "change"):
        assert len(record["trees"][side]["revision"]) == 40
        assert isinstance(record["trees"][side]["dirty"], bool)
        assert record["fingerprint"][side]["blas_threads"] == "2"
    tiny = record["workloads"]["tiny"]
    assert list(record["workloads"]) == ["tiny"]
    (pair,) = tiny["runs"]
    assert (pair["pair"], pair["first"]) == (0, "parent")
    for run in [pair["parent"], pair["change"], *tiny["traced"].values()]:
        assert run["ok"] and run["correct"]
        assert run["failed"] == 0 and run["attempted"] >= 1
    assert set(pair["parent"]["metrics"]) == END_TO_END
    assert "bilanczos.lanczos_s" in tiny["traced"]["change"]["metrics"]
    assert set(tiny["metrics"]) == END_TO_END
    for m in tiny["metrics"].values():
        assert m["parent_wins"] + m["change_wins"] <= 1
        for side in ("parent", "change"):
            (x,) = m[side]["samples"]
            assert m[side]["median"] == m[side]["q1"] == m[side]["q3"] == x
        assert set(m) >= {"rel_change", "within_bound", "bound", "unit"}


def test_a_failed_run_is_recorded_and_exits_one(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = bench(out, "no_such_workload")
    assert proc.returncode == 1
    record = json.loads(out.read_text())
    assert record["failed_runs"] == 4   # one pair and one traced run a side
    (pair,) = record["workloads"]["no_such_workload"]["runs"]
    assert not pair["parent"]["ok"] and pair["parent"]["returncode"] == 2
