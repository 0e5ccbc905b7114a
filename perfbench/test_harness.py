"""Self-check of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_harness.py

Takes seconds.  It checks that every metric BENCHMARK.json names is
emitted with its unit, that the layer times of a traced run add up to its
pipeline time, that the output checks pass on a clean run and fire on
corrupted artifacts, and that the benchmark fails without the program's
source.  Nothing here gates on wall time.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(trace, kind):
    proc = run_benchmark("--workload", "tiny", "--seed", "1",
                         "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(values[name] for name in metrics.LAYER_TIMES)
        assert layers == pytest.approx(values["trace.pipeline_s"], rel=1e-9)


def test_layer_map_names_benchmark_metrics():
    with open(HERE / "layer_map.json") as fh:
        rows = json.load(fh)["rows"]
    mapped = {name for row in rows for name in row["layer_metrics"]}
    assert mapped == {m["name"] for m in BENCHMARK["per_layer"]}
    workload_names = {w["name"] for w in BENCHMARK["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    for row in rows:
        assert set(row["shows_on"] + row["bypassed_on"]) <= workload_names


def test_sweep_is_seeded():
    assert workloads.sweep_small(7) == workloads.sweep_small(7)
    assert workloads.sweep_small(7) != workloads.sweep_small(8)
    lo, hi = workloads.SWEEP_RATE_RANGE
    rates = {cfg["model"][key] for cfg in workloads.sweep_small(7)
             for key in ("alpha", "gamma")}
    assert {lo, hi, 0.0} <= rates
    assert all(r == 0.0 or lo <= r <= hi for r in rates)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from krylovflow import cli
    cfg, = workloads.tiny(0)
    out = tmp_path_factory.mktemp("tiny")
    with worker.bound_inputs(cli) as captured:
        rc = cli.run_pipeline(cfg, "full", str(out), quiet=True)
    return cfg, out, rc, captured[-1]


@pytest.fixture(scope="module")
def tiny_ref(tiny_run):
    return checks.reference_for(tiny_run[0], worker.stored_reference("tiny"))


def test_checks_pass_on_clean_run(tiny_run, tiny_ref):
    cfg, out, rc, m = tiny_run
    problems, devs = checks.check_full_run(cfg, str(out), rc, m, tiny_ref)
    assert problems == []
    assert set(devs) == {"coeff", "chain", "oracle"}


def _edit_csv(path, row, column, edit):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = repr(edit(float(cells[i])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _flip_verdict(out):
    path = out / "bound_summary.json"
    summary = json.loads(path.read_text())
    summary["verdict"] = not summary["verdict"]
    path.write_text(json.dumps(summary))


CORRUPTIONS = {
    "coefficient": lambda out: _edit_csv(out / "coefficients.csv", 5,
                                         "a_im", lambda x: x * (1 + 1e-6)),
    "verdict": _flip_verdict,
    "oracle": lambda out: _edit_csv(out / "oracle.csv", 10, "relC",
                                    lambda x: 1e-3),
    "missing": lambda out: os.remove(out / "full_summary.json"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checks_fire_on_corrupted_artifact(tiny_run, tiny_ref, tmp_path,
                                           corruption):
    cfg, out, rc, m = tiny_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    CORRUPTIONS[corruption](copy)
    assert checks.check_full_run(cfg, str(copy), rc, m, tiny_ref)[0]


def test_checks_fire_on_wrong_bound_chain(tiny_run, tiny_ref):
    cfg, out, rc, m = tiny_run
    m_wrong = type(m)(t=m.t, C=m.C * (1 + 1e-5), P=m.P, M2=m.M2,
                      Ctilde=m.Ctilde)
    assert checks.check_full_run(cfg, str(out), rc, m_wrong, tiny_ref)[0]


def test_checks_fire_on_exit_code(tiny_run, tiny_ref):
    cfg, out, _, m = tiny_run
    assert checks.check_full_run(cfg, str(out), 2, m, tiny_ref)[0]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "n5_full", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
