"""Configuration-driven command line for end-to-end pipeline runs.

Usage:  krylovflow <subcommand> --config <file.json> [--out DIR] [--quiet]

The pipeline is one table of stages, run in this order: lanczos, evolve,
bound, oracle, continuum, saturation, filter.  A subcommand runs its
stage and the stages that one needs (evolve and filter need lanczos,
filter not when the config names a ``coefficients_csv``; bound and oracle
need evolve); ``full`` runs them all.  A skip rule is checked just before
its stage (oracle: N > ORACLE_MAX_N; continuum: no ``continuum`` block;
filter: a complete chain is shorter than the filter window).  A skipped
stage is a usage error when requested by name and an entry of
``full_summary.json["skipped"]`` under ``full``.  Every config value the
chosen stages use is checked before any stage runs; no number in a config
may be non-finite.  Each artifact is a deterministic CSV (17 significant
digits, LF endings) with a JSON sidecar echoing the config and version.
Exit codes: 0 success, 1 usage error (including a bad config value), 2
numerical failure, 3 invariant violation; on failure the run's artifacts
are removed and ``error.json`` is written.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from . import __version__
from .analysis import FilterConfig, filter_series
from .bilanczos import BiLanczosConfig, bilanczos, check_open_structure, \
    project_dissipative_structure
from .bound import bound_summary, dispersion_bound_check, \
    renormalized_bound_check, saturating_coefficients, saturation_report
from .continuum import ContinuumSpec, continuum_vs_paper_report
from .exceptions import InvariantViolation, NumericalFailure
from .krylov_chain import direct_evolution_oracle, evolve_chain, moments
from .lindbladian import MAX_QUBITS, build_model_lindbladian, \
    uniform_seed, vectorize
from .spin_algebra import ModelSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3

ORACLE_MAX_N = 4
STRUCTURE_COEFFS = 50   # leading coefficients used for structure verdicts


class UsageError(Exception):
    pass


def csv_table(columns):
    """CSV text of ``columns``, a mapping of header name to cell values.

    Integer columns print as integers, None as a blank cell and every
    other value with 17 significant digits, which round-trips a float
    exactly; lines end in LF.
    """
    cells = []
    for values in columns.values():
        values = np.asarray(values)
        fmt = "%d" if values.dtype.kind in "iu" else "%.17g"
        cells.append(["" if v is None else fmt % v
                      for v in values.tolist()])
    rows = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(rows) + "\n"


def read_table(text):
    """Columns of CSV text as {header name: [cell text, ...]}."""
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty CSV table")
    header = rows[0]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"CSV rows differ in length from header {header}")
    return {name: [row[j] for row in rows[1:]]
            for j, name in enumerate(header)}


def _coefficient_table(tri):
    """coefficients.csv columns; b and c are absent on the n = 0 row."""
    table = {"n": np.arange(tri.K), "a_re": tri.a.real, "a_im": tri.a.imag}
    for name, x in (("b", tri.b), ("c", tri.c)):
        table[name + "_re"] = [None] + x.real.tolist()
        table[name + "_im"] = [None] + x.imag.tolist()
    return table


def _bound_table(report):
    return {"t": report.t, "lhs": report.lhs, "rhs": report.rhs,
            "margin": report.margin, "tau_K": report.tau_K}


def _filter_inputs(a, b):
    """(artifact, series, sidecar extra) of the two filtered coefficients."""
    return [("filtered_b_abs.csv", np.abs(b), {"series": "b_abs"}),
            ("filtered_a_im.csv", np.asarray(a).imag, {"series": "a_im"})]


def _finite(value):
    """A config number (JSON literal or value) as a finite float."""
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"non-finite number {value}")
    return x


def _count(value):
    """A config count as an int: 5 and 5.0 pass, 2.9 and true do not."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"count {value!r} is not an integer")
    return int(value)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except ValueError as exc:   # JSONDecodeError, non-finite, bad UTF-8
        raise UsageError(f"malformed config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


# Config parsers: each returns the values one stage uses and raises
# KeyError, TypeError, ValueError or OSError on a bad value.

def _block(cfg, key):
    node = cfg.get(key) or {}
    if not isinstance(node, dict):
        raise TypeError(f"{key} must be a JSON object")
    return node


def _grid(node, t_max, n_samples):
    t_max = _finite(node.get("t_max", t_max))
    n_samples = _count(node.get("n_samples", n_samples))
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if n_samples < 3:
        raise ValueError("n_samples must be at least 3")
    return t_max, n_samples


def _seed_vector(kind, dim_d):
    if kind == "uniform":
        return uniform_seed(dim_d)
    if not (isinstance(kind, dict) and kind.get("kind") == "custom"):
        raise ValueError(f"unknown seed_kind {kind!r}")
    path = kind.get("path")
    M = np.load(path)
    if not isinstance(M, np.ndarray) or M.shape != (dim_d, dim_d):
        raise ValueError(f"seed {path} is not a {dim_d}x{dim_d} .npy array")
    v = vectorize(M.astype(complex))
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("seed matrix is zero")
    return v / nrm


def _parse_lanczos(cfg):
    node = _block(cfg, "model")
    model = ModelSpec(N=_count(node["N"]), g=_finite(node["g"]),
                      h=_finite(node["h"]),
                      alpha=_finite(node.get("alpha", 0.0)),
                      gamma=_finite(node.get("gamma", 0.0)))
    if model.N > MAX_QUBITS:
        raise ValueError(f"N = {model.N} exceeds {MAX_QUBITS} qubits")
    node = _block(cfg, "bilanczos")
    max_iter = node.get("max_iter")
    lanczos_cfg = BiLanczosConfig(
        max_iter=None if max_iter is None else _count(max_iter),
        breakdown_tol=_finite(node.get("breakdown_tol", 1e-10)))
    return {"model": model, "lanczos_cfg": lanczos_cfg,
            "seed": _seed_vector(cfg.get("seed_kind", "uniform"),
                                 model.dim)}


def _parse_continuum(cfg):
    if cfg.get("continuum") is None:
        return {"continuum": None}
    node = _block(cfg, "continuum")
    return {"continuum": ContinuumSpec(
        case=node["case"], alpha=_finite(node["alpha"]),
        beta=_finite(node["beta"]), c=_finite(node.get("c", 1.0)))}


def _parse_saturation(cfg):
    node = _block(cfg, "saturation")
    kw = {"alpha0": _finite(node.get("alpha0", 1.0)),
          "gamma0": _finite(node.get("gamma0", 1.0)),
          "K": _count(node.get("K", 400))}
    saturating_coefficients(**kw)  # raises on out-of-range chain values
    kw["t_max"], kw["n_samples"] = _grid(node, 6.0, 1201)
    return {"saturation": kw}


def _parse_filter(cfg):
    node = _block(cfg, "filter")
    fcfg = FilterConfig(outlier_window=_count(node.get("outlier_window", 9)),
                        outlier_k=_finite(node.get("outlier_k", 3.0)),
                        smooth_window=_count(node.get("smooth_window", 7)))
    path = cfg.get("coefficients_csv")
    if path is None:
        return {"filter": fcfg, "series": None}
    with open(path, "r", encoding="utf-8") as fh:
        table = read_table(fh.read())
    if "a_re" in table:
        # A coefficients.csv table: every cell is a number except the
        # b and c cells of the n = 0 row.
        v = {name: np.array([_finite(x) for x in
                             (cells[1:] if name[0] in "bc" else cells)])
             for name, cells in table.items()}
        series = _filter_inputs(v["a_re"] + 1j * v["a_im"],
                                v["b_re"] + 1j * v["b_im"])
    else:
        names = list(table)
        if names[0] != "n" or len(names) < 2:
            raise ValueError(
                "expected CSV header starting with 'n,<series>'")
        series = [("filtered.csv",
                   np.array([_finite(x) for x in table[names[1]]]), {})]
    return {"filter": fcfg, "series": series}


def _parse(cfg, stages):
    """Parse and check every config value the stages use."""
    run = SimpleNamespace()
    grid = lambda cfg: {"t": np.linspace(0.0, *_grid(cfg, 10.0, 400))}
    parsers = [("time grid", grid)] + [
        (f"{stage.name} config", stage.parse) for stage in stages
        if stage.parse is not None]
    for what, parse in parsers:
        try:
            vars(run).update(parse(cfg))
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise UsageError(f"bad {what}: {exc}")
    return run


class ArtifactWriter:
    """Writes artifacts plus sidecars; can roll back on failure."""

    def __init__(self, out_dir, cfg, command, quiet):
        self.out_dir = out_dir
        self.cfg = cfg
        self.command = command
        self.quiet = quiet
        self.written = []
        try:
            os.makedirs(out_dir, exist_ok=True)
            probe = os.path.join(out_dir, ".write_probe")
            open(probe, "w").close()
            os.remove(probe)
        except OSError as exc:
            raise UsageError(f"output dir {out_dir} not writable: {exc}")

    def write_text(self, name, text, extra=None):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        self.written.append(path)
        side = path + ".json"
        meta = {"artifact": name, "command": self.command,
                "version": __version__, "config": self.cfg, **(extra or {})}
        with open(side, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.written.append(side)
        if not self.quiet:
            print(f"wrote {path}")

    def write_table(self, name, columns, extra=None):
        self.write_text(name, csv_table(columns), extra)

    def write_json(self, name, obj):
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True)
                        + "\n")

    def rollback(self):
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass
        self.written = []


# Stages.  Each reads the parsed config and the results of the stages it
# needs from ``run`` and leaves its own results there.  Layer functions
# are looked up as module globals at call time.

def _run_lanczos(run, writer):
    run.L = build_model_lindbladian(run.model)
    run.tri = tri = bilanczos(run.L, run.seed, run.seed, run.lanczos_cfg)
    n_struct = min(STRUCTURE_COEFFS, tri.K)
    run.structure = report = check_open_structure(tri, n_coeffs=n_struct)
    writer.write_table("coefficients.csv", _coefficient_table(tri))
    writer.write_json("structure.json", {
        **asdict(report),
        "n_coeffs": n_struct,
        "K": tri.K,
        "termination": tri.termination,
        "residual_biortho": tri.residual_biortho,
        "residual_tridiag": tri.residual_tridiag,
    })


def _run_evolve(run, writer):
    run.moments = m = moments(evolve_chain(run.tri, run.t))
    writer.write_table("moments.csv", {"t": m.t, "C": m.C, "P": m.P,
                                       "M2": m.M2, "Ctilde": m.Ctilde})


def _run_bound(run, writer):
    # The bound applies to the dissipative chain.  For open runs the
    # coefficients are projected onto the a = i|a|, b = c = |b| form and
    # re-evolved; closed runs already have psi = phi and are used as is.
    projected = run.structure.label != "closed structure"
    if projected:
        tri_b = project_dissipative_structure(run.tri)
        m = moments(evolve_chain(tri_b, run.t))
    else:
        tri_b, m = run.tri, run.moments
    # A K = 1 chain has no b1 and C = M2 = 0 on it: b1 = 0 gives 0 <= 0.
    b1 = tri_b.b[0] if tri_b.K > 1 else 0.0
    report = dispersion_bound_check(m, b1)
    renormalized_bound_check(m, b1)  # identity check; raises if broken
    writer.write_table("bound.csv", _bound_table(report))
    summary = bound_summary(report)
    summary["projected_structure"] = projected
    writer.write_json("bound_summary.json", summary)


def _run_oracle(run, writer):
    mc = run.moments
    mo = direct_evolution_oracle(run.L, run.seed, run.tri, run.t)
    # Zero-crossings (e.g. C at t = 0) are compared against a floor tied
    # to the series peak rather than the pointwise value.
    floor_C = 1e-12 * max(float(np.abs(mo.C).max()), 1e-300)
    floor_P = 1e-12 * max(float(np.abs(mo.P).max()), 1e-300)
    writer.write_table("oracle.csv", {
        "t": run.t, "C_chain": mc.C, "P_chain": mc.P,
        "C_direct": mo.C, "P_direct": mo.P,
        "relC": np.abs(mc.C - mo.C) / np.maximum(np.abs(mo.C), floor_C),
        "relP": np.abs(mc.P - mo.P) / np.maximum(np.abs(mo.P), floor_P)})


def _run_continuum(run, writer):
    writer.write_table("continuum.csv",
                       continuum_vs_paper_report(run.continuum, run.t))


def _run_saturation(run, writer):
    report = saturation_report(**run.saturation)
    writer.write_table("saturation.csv", _bound_table(report))
    writer.write_json("saturation_summary.json", bound_summary(report))


def _filter_skip(run):
    """A series shorter than the filter window: a reason to skip when it
    comes from a complete Lanczos chain, else a usage error."""
    window = max(run.filter.outlier_window, run.filter.smooth_window)
    for name, series, _ in (run.series or
                            _filter_inputs(run.tri.a, run.tri.b)):
        if series.size < window:
            reason = f"series length {series.size} < filter window {window}"
            if run.series is None and run.tri.complete:
                return reason
            raise UsageError(f"{name}: {reason}")
    return None


def _run_filter(run, writer):
    fcfg = run.filter
    for name, series, extra in (run.series or
                                _filter_inputs(run.tri.a, run.tri.b)):
        cleaned, smoothed, _ = filter_series(series, fcfg)
        writer.write_table(name, {"n": np.arange(series.size),
                                  "raw": series, "cleaned": cleaned,
                                  "smoothed": smoothed},
                           extra={"filter": fcfg.__dict__, **extra})


# needs(cfg) -> stage names; skip(run) -> reason or None; parse(cfg) ->
# parsed values (see _parse); run(run, writer) does the stage's work.
Stage = namedtuple("Stage", "name needs artifacts skip parse run")


def _needs(*names):
    return lambda cfg: names


# The pipeline in run order; a stage needs only earlier rows.
STAGES = (
    Stage("lanczos", _needs(), ("coefficients.csv", "structure.json"),
          None, _parse_lanczos, _run_lanczos),
    Stage("evolve", _needs("lanczos"), ("moments.csv",),
          None, None, _run_evolve),
    Stage("bound", _needs("evolve"), ("bound.csv", "bound_summary.json"),
          None, None, _run_bound),
    Stage("oracle", _needs("evolve"), ("oracle.csv",),
          lambda run: (f"N > {ORACLE_MAX_N}"
                       if run.model.N > ORACLE_MAX_N else None),
          None, _run_oracle),
    Stage("continuum", _needs(), ("continuum.csv",),
          lambda run: ("no continuum block"
                       if run.continuum is None else None),
          _parse_continuum, _run_continuum),
    Stage("saturation", _needs(),
          ("saturation.csv", "saturation_summary.json"),
          None, _parse_saturation, _run_saturation),
    Stage("filter",
          lambda cfg: (() if cfg.get("coefficients_csv") is not None
                       else ("lanczos",)),
          ("filtered_b_abs.csv", "filtered_a_im.csv", "filtered.csv"),
          _filter_skip, _parse_filter, _run_filter),
)

SUBCOMMANDS = tuple(stage.name for stage in STAGES) + ("full",)


def _plan(command, cfg):
    """The rows a subcommand runs: its stage and, transitively, its needs."""
    if command == "full":
        return STAGES
    if command not in SUBCOMMANDS:
        raise UsageError(f"unknown subcommand {command!r}")
    names = {command}
    for stage in reversed(STAGES):
        if stage.name in names:
            names.update(stage.needs(cfg))
    return [stage for stage in STAGES if stage.name in names]


# The error.json kind and exit code of each failure a run reports.
ERRORS = {UsageError: ("usage", EXIT_USAGE),
          NumericalFailure: ("numerical", EXIT_NUMERICAL),
          InvariantViolation: ("invariant", EXIT_INVARIANT)}


def run_pipeline(cfg, command, out_dir, quiet=False):
    """Run one subcommand; returns the exit code."""
    writer = ArtifactWriter(out_dir, cfg, command, quiet)
    try:
        stages = _plan(command, cfg)
        run = _parse(cfg, stages)
        skipped = []
        for stage in stages:
            reason = stage.skip(run) if stage.skip else None
            if reason is None:
                stage.run(run, writer)
            elif command == "full":
                skipped.append(f"{stage.name} ({reason})")
            else:
                raise UsageError(f"{stage.name} cannot run: {reason}")
        if command == "full":
            writer.write_json("full_summary.json",
                              {"skipped": skipped, "completed": True})
    except tuple(ERRORS) as exc:
        writer.rollback()
        kind, code = next(v for k, v in ERRORS.items() if isinstance(exc, k))
        _emit_error(out_dir, command, kind, str(exc))
        return code
    return EXIT_OK


def _emit_error(out_dir, command, kind, message):
    payload = {"error": kind, "command": command, "message": message,
               "version": __version__}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text, file=sys.stderr)
    try:
        with open(os.path.join(out_dir, "error.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    except OSError:
        pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="krylovflow",
        description="Krylov-complexity pipelines for dissipative spin "
                    "chains",
        epilog="stages, in run order: " + "; ".join(
            f"{stage.name} ({', '.join(stage.artifacts)})"
            for stage in STAGES))
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True,
                        help="JSON configuration file")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress messages")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg.get("output_dir", ".")
        return run_pipeline(cfg, args.command, out_dir, quiet=args.quiet)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc),
                          "version": __version__}, indent=2,
                         sort_keys=True), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
