import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import krylovflow
from krylovflow import cli
from krylovflow.bilanczos import bilanczos
from krylovflow.bound import saturation_report
from krylovflow.cli import (EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK,
                            EXIT_USAGE, _coefficient_table, _seed_vector,
                            csv_table, main)
from krylovflow.exceptions import InvariantViolation
from krylovflow.lindbladian import MAX_QUBITS, build_model_lindbladian, \
    uniform_seed
from krylovflow.spin_algebra import PAULI_Y, PAULI_Z, ModelSpec
from perfbench.workloads import ALL as WORKLOADS

MODEL = {"N": 2, "g": -1.05, "h": 0.5, "alpha": 0.01, "gamma": 0.01}
ROOT = Path(__file__).resolve().parents[1]


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


def test_coefficients_csv_is_an_unknown_key(tmp_path):
    # The filter reads only the chain its own run computes; a saved
    # coefficients.csv is no input.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["lanczos", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    write_config(cfg_path, coefficients_csv=str(out / "coefficients.csv"))
    out = tmp_path / "filtered"
    assert main(["filter", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_USAGE
    assert os.listdir(out) == ["error.json"]
    error = json.loads((out / "error.json").read_text())
    assert "unknown config keys ['coefficients_csv']" in error["message"]


# A subcommand reads the time grid and the blocks of the stages it runs:
# continuum and saturation need no model block.
@pytest.mark.parametrize("command,cfg", [
    ("continuum", {"continuum": {"case": "constant_a", "alpha": 3.0,
                                 "beta": 2.0}}),
    ("saturation", {})])
def test_model_free_stages_need_no_model(tmp_path, command, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    expected = SUBCOMMAND_ARTIFACTS[command]
    assert sorted(os.listdir(out)) == sorted(
        expected + [name + ".json" for name in expected])


def test_saturation_defaults_are_the_library_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    out = tmp_path / "out"
    assert main(["saturation", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    assert (out / "saturation.csv").read_text() == csv_table(
        cli._bound_table(saturation_report(1.0, 1.0)))


def test_evolve_default_time_grid(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    del cfg["t_max"], cfg["n_samples"]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    t = read_csv(out / "moments.csv")["t"]
    assert (t.size, t[0], t[-1]) == (400, 0.0, 10.0)


# A continuum block absent, null or empty names no continuum case: `full`
# skips the stage.
@pytest.mark.parametrize("continuum", [None, {}, "absent"],
                         ids=["null", "empty", "absent"])
def test_full_skips_continuum_without_a_case(tmp_path, continuum):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path, continuum=continuum)
    if continuum == "absent":
        del cfg["continuum"]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["full", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    summary = json.loads((out / "full_summary.json").read_text())
    assert summary["skipped"] == ["continuum (no continuum block)"]


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
    "t_max_zero": {"t_max": 0},
    "t_max_negative": {"t_max": -1},
    # steps t_max / 60 below the smallest normal float
    "t_max_subnormal_step": {"t_max": 1e-310},
    "t_max_subnormal": {"t_max": 1e-320},
    "n_samples": {"n_samples": "x"},
    "n_samples_two": {"n_samples": 2},
    # one sample short of the derivative stencils
    "n_samples_four": {"n_samples": 4},
    "saturation_t_max_zero": {"saturation": {"t_max": 0}},
    "saturation_n_samples_two": {"saturation": {"n_samples": 2}},
    "saturation_n_samples_four": {"saturation": {"n_samples": 4}},
    "seed_kind_name": {"seed_kind": "gaussian"},
    # written by the test: a 3 x 3 seed at N = 2, and a zero matrix
    "seed_shape": {"seed_kind": {"kind": "custom", "path": "seed_eye3.npy"}},
    "seed_zero": {"seed_kind": {"kind": "custom", "path": "seed_zero.npy"}},
    "filter_not_object": {"filter": [3]},
    "model_not_object": {"model": 5},
    "qubit_cap": {"model": dict(MODEL, N=MAX_QUBITS + 1)},
    "max_iter": {"bilanczos": {"max_iter": "abc"}},
    "max_iter_zero": {"bilanczos": {"max_iter": 0}},
    # A count must be an integer, not a number int() would truncate.
    "fractional_N": {"model": dict(MODEL, N=2.9)},
    "boolean_N": {"model": dict(MODEL, N=True)},
    "fractional_max_iter": {"bilanczos": {"max_iter": 7.8}},
    # Every config block rejects a key it does not know.  The bilanczos
    # block takes max_iter only; the breakdown tolerance is a module
    # constant.
    "breakdown_tol": {"bilanczos": {"breakdown_tol": 1e-10}},
    "model_key": {"model": dict(MODEL, gama=0.2)},
    "continuum_key": {"continuum": {"case": "constant_a", "alpha": 3.0,
                                    "beta": 2.0, "C": 2.0}},
    "saturation_key": {"saturation": {"k": 40}},
    "filter_key": {"filter": {"smooth": 3}},
    "seed_kind_key": {"seed_kind": {"kind": "custom", "path": "seed_eye.npy",
                                    "normalize": False}},
    "fractional_filter_window": {"filter": {"smooth_window": 7.5}},
    "saturation_K": {"saturation": {"K": 1}},
    "saturation_nan_string": {"saturation": {"alpha0": "nan"}},
    "seed_not_npy": {"seed_kind": {"kind": "custom", "path": "seed.txt"}},
    # written by the test: one NaN, and all inf
    "seed_nan": {"seed_kind": {"kind": "custom", "path": "seed_nan.npy"}},
    "seed_inf": {"seed_kind": {"kind": "custom", "path": "seed_inf.npy"}},
    # t_max keeps the truncated chain's tail under its warning cutoff
    "chain_shorter_than_filter": {"bilanczos": {"max_iter": 5},
                                  "t_max": 0.02},
    # The top level rejects unknown keys too: a misspelt grid or block
    # would otherwise fall back to its default silently.
    "t_mx": {"t_mx": 2.0, "n_sample": 41},
    "continum": {"continum": {"case": "constant_a", "alpha": 3.0,
                              "beta": 2.0}},
    # Sizes no machine can allocate: 10**15 float64 samples are 7.1 PiB,
    # which a 64-bit allocator refuses at once.  Both grids are made when
    # the config is checked, before any stage writes.  Never use a size a
    # machine could allocate.
    "huge_n_samples": {"n_samples": 10 ** 15},
    "huge_saturation_K": {"saturation": {"K": 10 ** 15}},
    "huge_saturation_n_samples": {"saturation": {"n_samples": 10 ** 15}},
    # An integer literal beyond the float range is a usage error, not an
    # OverflowError.
    "t_max_beyond_float": {"t_max": 10 ** 400},
    "n_samples_beyond_float": {"n_samples": 10 ** 400},
    "g_beyond_float": {"model": dict(MODEL, g=10 ** 400)},
    # A config number is a JSON number: not a bool, not a string.
    "t_max_boolean": {"t_max": True},
    "t_max_string": {"t_max": "2.5"},
    # Only an absent or null block means the defaults.
    "saturation_zero": {"saturation": 0},
    "filter_false": {"filter": False},
    # A config string is a JSON string.  The test writes a valid seed to a
    # file named 7, which str(7) would name.
    "seed_path_number": {"seed_kind": {"kind": "custom", "path": 7}},
    # output_dir is checked under --out too, which overrides it.
    "output_dir_number": {"output_dir": 5},
    "output_dir_bool": {"output_dir": True},
    "output_dir_null": {"output_dir": None},
    "output_dir_list": {"output_dir": [1]},
    # A key the library object has no default for is required.
    "seed_path_missing": {"seed_kind": {"kind": "custom"}},
    "model_N_missing": {"model": {"g": -1.05, "h": 0.5}},
    "continuum_case_missing": {"continuum": {"alpha": 3.0, "beta": 2.0}},
    "continuum_beta_missing": {"continuum": {"case": "constant_a",
                                             "alpha": 3.0}},
}

# The config path the message of a BAD_CONFIGS case names.
KEY_IN_MESSAGE = {
    "t_max_zero": "config.t_max", "t_max_subnormal_step": "config.t_max",
    "n_samples_two": "config.n_samples", "n_samples_four": "config.n_samples",
    "saturation_t_max_zero": "config.saturation.t_max",
    "saturation_n_samples_two": "config.saturation.n_samples",
    "saturation_n_samples_four": "config.saturation.n_samples",
    "seed_path_missing": "config.seed_kind.path",
    "model_N_missing": "config.model.N",
    "continuum_case_missing": "config.continuum.case",
    "continuum_beta_missing": "config.continuum.beta",
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_bad_config_value_is_usage_error(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.txt").write_text("not an array\n")
    nan_seed = np.eye(4)
    nan_seed[1, 2] = np.nan
    np.save(tmp_path / "seed_nan.npy", nan_seed)
    np.save(tmp_path / "seed_inf.npy", np.full((4, 4), np.inf))
    np.save(tmp_path / "seed_eye.npy", np.eye(4))
    np.save(tmp_path / "seed_eye3.npy", np.eye(3))
    np.save(tmp_path / "seed_zero.npy", np.zeros((4, 4)))
    with open(tmp_path / "7", "wb") as fh:
        np.save(fh, np.eye(4))
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **BAD_CONFIGS[case])
    out = tmp_path / "out"
    assert main(["full", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_USAGE
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "usage"
    assert os.listdir(out) == ["error.json"]
    if case in KEY_IN_MESSAGE:
        assert KEY_IN_MESSAGE[case] in error["message"]


@pytest.mark.parametrize("output_dir", [5, True, None, [1]],
                         ids=["number", "bool", "null", "list"])
def test_bad_output_dir_without_out_is_usage_error(tmp_path, monkeypatch,
                                                   capsys, output_dir):
    # With no output directory there is no error.json: the usage error is
    # the JSON on stderr alone, in the payload every error has.
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "cfg.json", output_dir=output_dir)
    assert main(["lanczos", "--config", "cfg.json", "--quiet"]) == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)
    assert (error["error"], error["command"]) == ("usage", "lanczos")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_readme_config_table_lists_the_config_keys():
    # README's config table names the top-level keys of cli.CONFIG, and a
    # block row names exactly its block's keys in backticks; a quoted value
    # such as `"uniform"` is not a key.
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | rule | default | read by |") + 2
    rows = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"),
                                    lines[start:]):
        key, rule = re.match(r"\| `(\w+)` \| ([^|]*) \|", line).groups()
        if "block" in rule:
            rows[key] = set(re.findall(r"`([A-Za-z_]\w*)`", rule))
        else:
            rows[key] = None
    blocks = {key: set(rule[1]) for key, rule in cli.CONFIG.items()
              if isinstance(rule, tuple)}
    blocks["seed_kind"] = set(cli.SEED_KIND[1])
    blocks["continuum"] = set(cli.CONTINUUM[1])
    assert set(rows) == set(cli.CONFIG)
    assert {k: v for k, v in rows.items() if v is not None} == blocks


def test_benchmark_configs_use_known_keys():
    for workload in WORKLOADS.values():
        for cfg in workload(0):
            assert set(cfg) <= set(cli.CONFIG)


def test_integral_float_counts_parse(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model=dict(MODEL, N=2.0),
                 bilanczos={"max_iter": 5.0})
    out = tmp_path / "out"
    assert main(["lanczos", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    assert json.loads((out / "structure.json").read_text())["K"] == 5


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


def test_bound_truncates_at_probability_underflow(tmp_path):
    # At alpha = gamma = 60 the projected chain's P falls below
    # krylov_chain.P_UNDERFLOW at t = 4.135: moments warns and cuts the
    # bound's series there, while the raw chain's moments keep all 400.
    # The bound holds: at t = 0, where lhs = rhs = 0, dC/dt is exactly 0.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={"N": 3, "g": -1.05, "h": 0.5,
                                  "alpha": 60.0, "gamma": 60.0},
                 t_max=10.0, n_samples=400)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="underflowed"):
        assert main(["bound", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == EXIT_OK
    assert read_csv(out / "moments.csv").size == 400
    assert read_csv(out / "bound.csv").size == 165
    assert json.loads((out / "bound_summary.json").read_text())["verdict"]


def test_bound_fails_when_underflow_leaves_too_few_samples(tmp_path):
    # At alpha = gamma = 1000 the projected chain's P underflows at
    # t ~ 0.2, before the second grid point (dt = 0.256): the bound's
    # series keeps 1 sample, too few for its derivative stencils.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={"N": 3, "g": -1.05, "h": 0.5,
                                  "alpha": 1000.0, "gamma": 1000.0},
                 t_max=10.0, n_samples=40)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="underflowed"):
        assert main(["bound", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == EXIT_NUMERICAL
    assert json.loads((out / "error.json").read_text())["error"] \
        == "numerical"
    assert os.listdir(out) == ["error.json"]


# A complete chain short of the filter window: `full` skips the filter
# and keeps every other artifact.  Closed N = 2 and the identity seed end
# by breakdown; open N = 1 runs to max_iter at K = 4, the whole operator
# space; open N = 2 exhausts its 10-dimensional reflection-even sector at
# K = 10.
@pytest.mark.parametrize("model,n,window", [
    (CLOSED_MODEL, 6, 9), (None, 0, 9),
    ({"N": 1, "g": -1.05, "h": 0.5, "alpha": 0.1}, 3, 9), (MODEL, 9, 11)],
    ids=["closed_n2", "identity_seed", "open_n1", "open_n2_sector"])
def test_full_skips_filter_on_short_complete_chain(tmp_path, model, n,
                                                   window):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, filter={"outlier_window": window},
                 **({"model": model} if model is not None
                    else identity_seed_config(tmp_path)))
    out = tmp_path / "out"
    assert main(["full", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    summary = json.loads((out / "full_summary.json").read_text())
    assert summary["skipped"] == [
        f"filter (series length {n} < filter window {window})"]
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


def config_text(**overrides):
    """JSON text of the default model plus ``overrides``; non-finite
    floats come out as NaN, Infinity or -Infinity."""
    return json.dumps(dict({"model": MODEL}, **overrides))


# Config text that is not plain JSON, with the subcommand it would reach.
# Python's json module reads NaN and +-Infinity and overflows 1e999 to
# inf; such a number would get past the range checks.
MALFORMED_CONFIGS = {
    "not_json": ("lanczos", "{ not json"),
    "not_object": ("lanczos", "[1, 2]"),
    "saturation_nan": ("saturation",
                       config_text(saturation={"alpha0": float("nan")})),
    "continuum_nan": ("continuum", config_text(continuum={
        "case": "constant_a", "alpha": 3.0, "beta": float("nan")})),
    "outlier_k_nan": ("filter",
                      config_text(filter={"outlier_k": float("nan")})),
    "outlier_k_overflow": ("filter", config_text(
        filter={"outlier_k": 1e300}).replace("1e+300", "1e999")),
    "breakdown_tol_nan": ("lanczos", config_text(
        bilanczos={"breakdown_tol": float("nan")})),
    "breakdown_tol_inf": ("lanczos", config_text(
        bilanczos={"breakdown_tol": float("inf")})),
}


@pytest.mark.parametrize("command,text", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS)
def test_malformed_config_is_usage_error(tmp_path, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main([command, "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert not (tmp_path / "o").exists()


def test_out_at_a_regular_file_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    out.write_text("kept\n")
    assert main(["lanczos", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_USAGE
    assert out.read_text() == "kept\n"


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


def test_overflowing_taylor_plan_is_numerical_failure(tmp_path):
    # At t_max = 1e308 the propagator's substep count overflows float64:
    # exit 2 with the lanczos stage rolled back, and no overflow warning.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, t_max=1e308)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == EXIT_NUMERICAL
    assert os.listdir(out) == ["error.json"]
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "numerical"


def test_taylor_plan_past_the_budget_is_numerical_failure(tmp_path):
    # At t_max = 1e300 the plan is finite, about 5.4e299 substeps, but past
    # the propagator's budget: exit 2 with rollback, not a loop that never
    # ends.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, t_max=1e300)
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_NUMERICAL
    assert os.listdir(out) == ["error.json"]


def test_invariant_violation_exit_code(tmp_path, monkeypatch):
    def broken(m, b1):
        raise InvariantViolation("renormalized lhs deviates")
    monkeypatch.setattr(cli, "renormalized_bound_check", broken)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["bound", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_INVARIANT
    assert os.listdir(out) == ["error.json"]
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "invariant"


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


def run_cli(command, cfg_path, out, threads):
    """Run the CLI in a fresh process with ``threads`` BLAS threads (BLAS
    fixes the count at load time); returns the exit code and stderr."""
    src = os.path.dirname(os.path.dirname(krylovflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.update({var: str(threads) for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run(
        [sys.executable, "-m", "krylovflow.cli", command, "--config",
         str(cfg_path), "--out", str(out), "--quiet"],
        env=env, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr


def test_full_closed_model_with_two_blas_threads(tmp_path):
    # This closed model once exited 2 ("non-finite values encountered in
    # coefficients") under two BLAS threads and 0 under one.
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model={"N": 4, "g": -1.08593, "h": 0.498819})
    code, stderr = run_cli("full", cfg_path, tmp_path / "out", 2)
    assert code == EXIT_OK, stderr


# Closed chains run in the reflection-even sector and end by breakdown.
# The 50-digit reference breaks down at K = 31 and 91 (N = 3, 4); the
# float64 chain meets the first exactly but leaves the exact N = 4 chain
# near n = 66 and runs on with noise to 121, since c_n = sqrt|w| falls
# below BREAKDOWN_TOL only once |w| is below float64 roundoff.  In full
# space roundoff carries them further (to K = 58 and 243).
@pytest.mark.parametrize("N,K", [(3, 31), (4, 121)])
def test_closed_model_ends_by_breakdown(tmp_path, N, K):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model=dict(CLOSED_MODEL, N=N))
    out = tmp_path / "out"
    assert main(["lanczos", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    report = json.loads((out / "structure.json").read_text())
    assert (report["K"], report["termination"]) == (K, "breakdown")


def test_lanczos_is_thread_count_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model=dict(CLOSED_MODEL, N=4))
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        code, stderr = run_cli("lanczos", cfg_path, out, threads)
        assert code == EXIT_OK, stderr
        outs.append(out)
    reports = [json.loads((out / "structure.json").read_text())
               for out in outs]
    assert [(r["K"], r["termination"]) for r in reports] == \
        [(121, "breakdown")] * 2
    one, two = (read_csv(out / "coefficients.csv") for out in outs)
    for name in one.dtype.names[1:]:
        np.testing.assert_allclose(two[name], one[name], rtol=0,
                                   atol=1e-12, equal_nan=True)


def test_non_even_seed_runs_in_full_space(tmp_path):
    # sigma^z on site 1 is not reversal-even (it maps to site 3), so the
    # run takes the full-space recursion, which ends by breakdown at the
    # Krylov dimension 63.
    model = dict(MODEL, N=3)
    seed = {"kind": "custom", "path": str(tmp_path / "z1.npy")}
    np.save(seed["path"], np.kron(PAULI_Z, np.eye(4)).real)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model=model, seed_kind=seed)
    out = tmp_path / "out"
    assert main(["lanczos", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    assert json.loads((out / "structure.json").read_text())["K"] == 63
    v = _seed_vector(seed, 8)
    tri = bilanczos(build_model_lindbladian(ModelSpec(**model)), v)
    assert (out / "coefficients.csv").read_text() == \
        csv_table(_coefficient_table(tri))


# Without bilanczos.max_iter the chain stops at the first block end where
# the time grid no longer reaches its end: the N = 3 sector (40) is spent
# before the first block, while N = 4 and 5 stop at DEPTH_BLOCK = 128.
@pytest.mark.parametrize("N,K,termination", [
    pytest.param(3, 40, "max_iter", id="3-40"),
    pytest.param(4, 128, "grid", id="4-128"),
    pytest.param(5, 128, "grid", id="5-128")])
def test_cli_writes_the_library_chain(tmp_path, N, K, termination):
    # One chain for every caller: the lanczos stage writes the first K
    # coefficients of the library's bilanczos, here the reflection-even
    # sector's, byte for byte.
    model = dict(MODEL, N=N)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model=model)
    out = tmp_path / "out"
    assert main(["lanczos", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    structure = json.loads((out / "structure.json").read_text())
    assert (structure["K"], structure["termination"]) == (K, termination)
    v = uniform_seed(2 ** N)
    tri = bilanczos(build_model_lindbladian(ModelSpec(**model)), v)
    assert tri.complete
    rows = csv_table(_coefficient_table(tri)).splitlines(keepends=True)
    assert (out / "coefficients.csv").read_text() == "".join(rows[:K + 1])


def test_complex_seed_runs_two_sided_recursion(tmp_path):
    # sigma^y on site 1 is imaginary, so the seed is not its conjugate: the
    # left seed W' conj(seed) is minus the right one, and the recursion keeps
    # its dual basis.  The seed is not reversal-even, so the run is in full
    # space and ends by breakdown at the Krylov dimension 63.
    seed = {"kind": "custom", "path": str(tmp_path / "y1.npy")}
    np.save(seed["path"], np.kron(PAULI_Y, np.eye(4)))
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, model=dict(MODEL, N=3), seed_kind=seed)
    out = tmp_path / "out"
    assert main(["full", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    structure = json.loads((out / "structure.json").read_text())
    assert structure["K"] == 63
    assert structure["termination"] == "breakdown"
    assert structure["residual_biortho"] < 1e-12
    oracle = read_csv(out / "oracle.csv")
    assert oracle["relC"].max() < 1e-6 and oracle["relP"].max() < 1e-6


# The acceptance model (tests/test_acceptance.py) on its time grid.
PAPER = {"model": dict(MODEL, N=5), "t_max": 10.0, "n_samples": 400}
slow = pytest.mark.skipif(os.environ.get("KRYLOVFLOW_SLOW_TESTS") != "1",
                          reason="set KRYLOVFLOW_SLOW_TESTS=1 to run")


def run_paper(tmp_path, monkeypatch, name, command="full", **overrides):
    """Run ``command`` on PAPER with ``overrides``; returns the output
    directory, its structure.json and the moments the bound stage checked
    (None if it did not run)."""
    checked = []
    check = cli.dispersion_bound_check
    monkeypatch.setattr(cli, "dispersion_bound_check",
                        lambda m, b1: checked.append(m) or check(m, b1))
    cfg_path = tmp_path / f"{name}.json"
    write_config(cfg_path, **{**PAPER, **overrides})
    out = tmp_path / name
    assert main([command, "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    structure = json.loads((out / "structure.json").read_text())
    return out, structure, checked[-1] if checked else None


def assert_grid_depth_matches_full_depth(tmp_path, monkeypatch, model, K,
                                         space_dim):
    # C and P of both chains, the raw one of moments.csv and the bound
    # chain, within 1e-10 of their peaks, and the same bound verdict.
    out, structure, bound = run_paper(tmp_path, monkeypatch, "grid",
                                      model=model)
    ref_out, ref_structure, ref_bound = run_paper(
        tmp_path, monkeypatch, "deep", model=model,
        bilanczos={"max_iter": space_dim})
    assert (structure["K"], structure["termination"]) == (K, "grid")
    assert ref_structure["K"] == space_dim
    m, ref = read_csv(out / "moments.csv"), read_csv(ref_out / "moments.csv")
    for x, y in ((m["C"], ref["C"]), (m["P"], ref["P"]),
                 (bound.C, ref_bound.C), (bound.P, ref_bound.P)):
        assert x.shape == y.shape
        assert np.abs(x - y).max() <= 1e-10 * np.abs(y).max()
    summary, ref_summary = (json.loads((o / "bound_summary.json").read_text())
                            for o in (out, ref_out))
    for key in ("verdict", "n_violations"):
        assert summary[key] == ref_summary[key]


def test_n5_grid_depth_matches_full_depth(tmp_path, monkeypatch):
    assert_grid_depth_matches_full_depth(tmp_path, monkeypatch,
                                         dict(MODEL, N=5), 128, 544)


@slow
def test_n6_grid_depth_matches_full_depth(tmp_path, monkeypatch):
    # The full-depth N = 6 run takes about 7 s.
    assert_grid_depth_matches_full_depth(tmp_path, monkeypatch,
                                         dict(MODEL, N=6), 256, 2080)


def test_longer_grid_grows_a_deeper_chain(tmp_path, monkeypatch):
    # At t_max = 20 the raw chain's tail passes TAIL_CUTOFF at K = 128: the
    # first check fails and the chain grows a block.  The probes raise no
    # RuntimeWarning, which tier-1 would turn into an error.
    depths = [run_paper(tmp_path, monkeypatch, f"t{t_max}", t_max=t_max)[1]
              for t_max in (10.0, 20.0)]
    assert [(s["K"], s["termination"]) for s in depths] == \
        [(128, "grid"), (256, "grid")]


def test_duhamel_check_deepens_a_closed_chain(tmp_path, monkeypatch):
    # Closed N = 5 at K = 128: the raw tail, 2.0e-17, passes TAIL_CUTOFF,
    # but the raw chain is the bound chain and its Duhamel bound exceeds
    # DEPTH_TOL, so the chain grows to the next block end.
    _, structure, _ = run_paper(tmp_path, monkeypatch, "closed", "lanczos",
                                model=dict(CLOSED_MODEL, N=5))
    assert (structure["K"], structure["termination"]) == (256, "grid")


# The projected chain is propagated only once the raw one passes its tail
# check (at t_max = 20 not at K = 128), and the two propagations at the
# final depth are the ones the evolve and bound stages use.
@pytest.mark.parametrize("t_max,depths", [(10.0, [128, 128]),
                                          (20.0, [128, 256, 256])])
def test_grid_depth_chains_are_propagated_once(tmp_path, monkeypatch, t_max,
                                               depths):
    evolved = []
    evolve = cli.evolve_chain
    monkeypatch.setattr(cli, "evolve_chain",
                        lambda tri, t: evolved.append(tri.K) or evolve(tri, t))
    run_paper(tmp_path, monkeypatch, "n5", t_max=t_max)
    assert evolved == depths


def recorded_trajectories(monkeypatch):
    """The trajectories of the evolve_chain calls cli makes from now on."""
    trajs = []
    evolve = cli.evolve_chain
    monkeypatch.setattr(cli, "evolve_chain", lambda tri, t:
                        trajs.append(evolve(tri, t)) or trajs[-1])
    return trajs


def test_n5_grid_depth_chains_span_the_grid(tmp_path, monkeypatch):
    # Both chains the stages use, raw and projected, keep their last-site
    # mass at or below TAIL_CUTOFF on the whole grid: a chain cut at the
    # grid depth needs no exemption from the truncation warning.
    trajs = recorded_trajectories(monkeypatch)
    run_paper(tmp_path, monkeypatch, "n5", "bound")
    assert [traj.horizon for traj in trajs] == [400, 400]


# N = 3 models cut at K = 20: the chain end shows on [0, 10].  The evolve
# stage warns of the raw chain, the bound stage of the projected chain it
# evolves, once each; a closed chain is its own bound chain and is not
# judged twice.
@pytest.mark.parametrize("command,model,tails", [
    ("evolve", MODEL, ["1.427e-02"]),
    ("bound", MODEL, ["1.427e-02", "1.151e-02"]),
    ("bound", CLOSED_MODEL, ["7.680e-02"])],
    ids=["evolve", "bound", "bound_closed"])
def test_stages_warn_of_their_chain_truncation(tmp_path, monkeypatch,
                                               command, model, tails):
    with pytest.warns(RuntimeWarning) as caught:
        run_paper(tmp_path, monkeypatch, command, command,
                  model=dict(model, N=3), bilanczos={"max_iter": 20})
    assert [str(w.message) for w in caught] == [
        f"truncation tail |phi_K-1|^2 reached {tail} (cutoff 1.0e-10); "
        "results beyond that time are affected by the finite chain"
        for tail in tails]


def test_complete_chain_end_is_not_judged(tmp_path, monkeypatch):
    # Open N = 2 is complete at K = 10, and both its chains' last-site
    # masses pass TAIL_CUTOFF on [0, 10]: that mass is physical, so no
    # stage warns (tier-1 would turn a warning into an error).
    trajs = recorded_trajectories(monkeypatch)
    run_paper(tmp_path, monkeypatch, "n2", "bound", model=dict(MODEL))
    assert [traj.horizon < 400 for traj in trajs] == [True, True]


def test_n6_full_run_stops_at_grid_depth(tmp_path, monkeypatch):
    _, structure, _ = run_paper(tmp_path, monkeypatch, "n6",
                                model=dict(MODEL, N=6))
    assert structure["termination"] == "grid"
    assert structure["K"] <= 256


@pytest.mark.parametrize("max_iter", [100, 200])
def test_explicit_max_iter_fixes_the_depth(tmp_path, monkeypatch, max_iter):
    _, structure, _ = run_paper(tmp_path, monkeypatch, "fixed", "lanczos",
                                bilanczos={"max_iter": max_iter})
    assert (structure["K"], structure["termination"]) == \
        (max_iter, "max_iter")


def test_lanczos_and_full_write_the_same_chain(tmp_path, monkeypatch):
    outs = [run_paper(tmp_path, monkeypatch, command, command)[0]
            for command in ("lanczos", "full")]
    one, two = ((out / "coefficients.csv").read_bytes() for out in outs)
    assert one == two
