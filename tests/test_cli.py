import json
import os
import subprocess
import sys

import numpy as np
import pytest

import krylovflow
from krylovflow.cli import (EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK,
                            EXIT_USAGE, main)
from krylovflow.lindbladian import MAX_QUBITS

MODEL = {"N": 2, "g": -1.05, "h": 0.5, "alpha": 0.01, "gamma": 0.01}


def write_config(path, **overrides):
    cfg = {
        "model": dict(MODEL),
        "t_max": 3.0,
        "n_samples": 61,
        "continuum": {"case": "constant_a", "alpha": 3.0, "beta": 2.0},
        "saturation": {"alpha0": 1.0, "gamma0": 1.0, "K": 60,
                       "t_max": 2.0, "n_samples": 201},
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return cfg


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def test_full_pipeline_artifacts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    code = main(["full", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"])
    assert code == EXIT_OK
    expected = ["coefficients.csv", "structure.json", "moments.csv",
                "bound.csv", "bound_summary.json", "oracle.csv",
                "continuum.csv", "saturation.csv",
                "saturation_summary.json", "filtered_b_abs.csv",
                "filtered_a_im.csv", "full_summary.json"]
    for name in expected:
        path = out / name
        assert path.exists(), name
        sidecar = json.loads((out / (name + ".json")).read_text())
        assert sidecar["artifact"] == name
        assert "version" in sidecar
        assert sidecar["config"]["model"]["N"] == 2


# Exact output file sets, sidecars aside, of each subcommand on the
# default config.
SUBCOMMAND_ARTIFACTS = {
    "lanczos": ["coefficients.csv", "structure.json"],
    "evolve": ["coefficients.csv", "structure.json", "moments.csv"],
    "bound": ["coefficients.csv", "structure.json", "moments.csv",
              "bound.csv", "bound_summary.json"],
    "oracle": ["coefficients.csv", "structure.json", "moments.csv",
               "oracle.csv"],
    "continuum": ["continuum.csv"],
    "saturation": ["saturation.csv", "saturation_summary.json"],
    "filter": ["coefficients.csv", "structure.json", "filtered_b_abs.csv",
               "filtered_a_im.csv"],
}


@pytest.mark.parametrize("command", SUBCOMMAND_ARTIFACTS)
def test_subcommand_artifact_set(tmp_path, command):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    expected = SUBCOMMAND_ARTIFACTS[command]
    assert sorted(os.listdir(out)) == sorted(
        expected + [name + ".json" for name in expected])


def test_full_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["full", "--config", str(cfg_path), "--out", str(out1),
                 "--quiet"]) == EXIT_OK
    assert main(["full", "--config", str(cfg_path), "--out", str(out2),
                 "--quiet"]) == EXIT_OK
    for name in sorted(os.listdir(out1)):
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_lanczos_closed_structure(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path,
                 model={"N": 2, "g": -1.05, "h": 0.5,
                        "alpha": 0.0, "gamma": 0.0})
    out = tmp_path / "out"
    assert main(["lanczos", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    report = json.loads((out / "structure.json").read_text())
    assert report["label"] == "closed structure"
    assert report["max_im_a"] < 1e-10


def test_continuum_constant_a_columns(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["continuum", "--config", str(cfg_path), "--out",
                 str(out), "--quiet"]) == EXIT_OK
    table = read_csv(out / "continuum.csv")
    assert table["relC"].max() < 1e-10
    assert table["relP"].max() < 1e-10


def test_filter_external_csv(tmp_path):
    src = tmp_path / "series.csv"
    lines = ["n,raw"] + [f"{i},{v}" for i, v in
                         enumerate([1, 1, 1, 1, 50, 1, 1, 1, 1, 1])]
    src.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, coefficients_csv=str(src))
    out = tmp_path / "out"
    assert main(["filter", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    table = read_csv(out / "filtered.csv")
    assert table["raw"][4] == 50
    assert table["cleaned"][4] == 1


def test_filter_rejects_malformed_coefficients_csv(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["lanczos", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    lines = (out / "coefficients.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[3] = "x"  # the b_re cell of n = 2
    lines[3] = ",".join(cells)
    src = tmp_path / "bad.csv"
    src.write_text("\n".join(lines) + "\n")
    write_config(cfg_path, coefficients_csv=str(src))
    out = tmp_path / "filtered"
    assert main(["filter", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_USAGE
    assert os.listdir(out) == ["error.json"]


def test_continuum_time_grid_defaults_to_pipeline_grid(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    del cfg["t_max"]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["continuum", "--config", str(cfg_path), "--out",
                 str(out), "--quiet"]) == EXIT_OK
    assert read_csv(out / "continuum.csv")["t"][-1] == 10.0


# Config values that must stop a `full` run before or during its stages
# with exit 1, error.json and no artifacts left behind.
BAD_CONFIGS = {
    "t_max": {"t_max": "abc"},
    "n_samples": {"n_samples": "x"},
    "qubit_cap": {"model": dict(MODEL, N=MAX_QUBITS + 1)},
    "max_iter": {"bilanczos": {"max_iter": "abc"}},
    "max_iter_zero": {"bilanczos": {"max_iter": 0}},
    "saturation_K": {"saturation": {"K": 1}},
    "seed_not_npy": {"seed_kind": {"kind": "custom", "path": "seed.txt"}},
    # t_max keeps the truncated chain's tail under its warning cutoff
    "chain_shorter_than_filter": {"bilanczos": {"max_iter": 5},
                                  "t_max": 0.02},
}


@pytest.mark.parametrize("overrides", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_bad_config_value_is_usage_error(tmp_path, monkeypatch, overrides):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.txt").write_text("not an array\n")
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **overrides)
    out = tmp_path / "out"
    assert main(["full", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_USAGE
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "usage"
    assert os.listdir(out) == ["error.json"]


CLOSED_MODEL = dict(MODEL, alpha=0.0, gamma=0.0)


def identity_seed_config(tmp_path):
    """Closed N = 2 with the identity as seed: L I = 0, so K = 1."""
    np.save(tmp_path / "eye.npy", np.eye(4))
    return {"model": dict(CLOSED_MODEL),
            "seed_kind": {"kind": "custom",
                          "path": str(tmp_path / "eye.npy")}}


def test_bound_on_one_coefficient_chain(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **identity_seed_config(tmp_path))
    out = tmp_path / "out"
    assert main(["bound", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    assert json.loads((out / "structure.json").read_text())["K"] == 1
    assert json.loads((out / "bound_summary.json").read_text())["verdict"]


# A chain that ended by breakdown short of the filter window: `full`
# skips the filter and keeps every other artifact.
@pytest.mark.parametrize("identity_seed,n", [(False, 6), (True, 0)],
                         ids=["closed_n2", "identity_seed"])
def test_full_skips_filter_on_short_complete_chain(tmp_path, identity_seed,
                                                   n):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **(identity_seed_config(tmp_path)
                              if identity_seed else {"model": CLOSED_MODEL}))
    out = tmp_path / "out"
    assert main(["full", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    summary = json.loads((out / "full_summary.json").read_text())
    assert summary["skipped"] == [
        f"filter (series length {n} < filter window 9)"]
    expected = SUBCOMMAND_ARTIFACTS["bound"] + [
        "oracle.csv", "continuum.csv", "saturation.csv",
        "saturation_summary.json", "full_summary.json"]
    assert sorted(os.listdir(out)) == sorted(
        expected + [name + ".json" for name in expected])
    # Requested by name, the same filter is a usage error.
    out = tmp_path / "filter"
    assert main(["filter", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_USAGE
    assert os.listdir(out) == ["error.json"]


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["explode", "--config", str(cfg_path)]) == EXIT_USAGE
    capsys.readouterr()


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["lanczos", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_missing_config_is_usage_error(tmp_path):
    assert main(["lanczos", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_oracle_size_cap(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path,
                 model={"N": 5, "g": -1.05, "h": 0.5,
                        "alpha": 0.01, "gamma": 0.01},
                 n_samples=5, t_max=0.1)
    out = tmp_path / "out"
    code = main(["oracle", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"])
    assert code == EXIT_USAGE
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "usage"
    # partial artifacts from earlier stages were rolled back
    assert not (out / "coefficients.csv").exists()


def test_numerical_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, t_max=500.0,
                 continuum={"case": "constant_a", "alpha": 3.0,
                            "beta": 2.0})
    out = tmp_path / "out"
    code = main(["continuum", "--config", str(cfg_path), "--out",
                 str(out), "--quiet"])
    assert code == EXIT_NUMERICAL
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "numerical"
    assert not (out / "continuum.csv").exists()


def test_continuum_without_block_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    del cfg["continuum"]
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["continuum", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o"), "--quiet"]) == EXIT_USAGE


def test_full_skips_oracle_above_cap(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path,
                 model={"N": 5, "g": -1.05, "h": 0.5,
                        "alpha": 0.01, "gamma": 0.01},
                 bilanczos={"max_iter": 40},
                 t_max=1.0, n_samples=21)
    out = tmp_path / "out"
    assert main(["full", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    summary = json.loads((out / "full_summary.json").read_text())
    assert any("oracle" in item for item in summary["skipped"])
    assert not (out / "oracle.csv").exists()


def test_csv_format_is_plain_lf(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    raw = (out / "moments.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.decode("ascii").splitlines()[0] == "t,C,P,M2,Ctilde"


def test_full_closed_model_with_two_blas_threads(tmp_path):
    # This closed model once exited 2 ("non-finite values encountered in
    # coefficients") under two BLAS threads and 0 under one.  Thread
    # counts are fixed at BLAS load time, hence the fresh process.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={"N": 4, "g": -1.08593, "h": 0.498819})
    src = os.path.dirname(os.path.dirname(krylovflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.update({var: "2" for var in ("OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run(
        [sys.executable, "-m", "krylovflow.cli", "full", "--config",
         str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
