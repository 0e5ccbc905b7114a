"""Configuration-driven command line for end-to-end pipeline runs.

Usage:  krylovflow <subcommand> --config <file.json> [--out DIR] [--quiet]

The pipeline is one table of stages, run in this order: lanczos, evolve,
bound, oracle, continuum, saturation, filter.  A subcommand runs its
stage and the stages that one needs (evolve and filter need lanczos;
bound and oracle need evolve); ``full`` runs them all.  A skip rule is
checked just before its stage (oracle: N > ORACLE_MAX_N; continuum: no
``continuum`` block; filter: a complete chain is shorter than the filter
window).  A skipped stage is a usage error when requested by name and
an entry of ``full_summary.json["skipped"]`` under ``full``.  The config
table CONFIG gives each key one rule: a finite JSON number, a count, a
JSON string, or a block (a JSON object, absent or null for the library's
defaults).  The top level and the keys the chosen stages read are checked
by it before any stage runs; a key the table does not list is an error.
``bilanczos`` runs in the reflection-even sector of L for every model with
the uniform seed, and without ``bilanczos.max_iter`` only as deep as the
time grid reaches (see _deep_enough): termination "grid", and
coefficients.csv is the prefix of the full chain that the grid needs.
The evolve and bound stages warn where the end of an incomplete chain
shows on the grid (see _chain_moments).
Each artifact is a deterministic CSV (17 significant digits, LF endings)
with a JSON sidecar echoing the config and version.  Exit codes: 0
success, 1 usage error (including a bad config value or a size too
large to allocate), 2 numerical failure, 3 invariant violation; on
failure the run's artifacts are removed and ``error.json`` is written.
"""

import argparse
import inspect
import json
import os
import sys
import warnings
from collections import namedtuple
from dataclasses import asdict
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__, bound
from .analysis import FilterConfig, filter_series
from .bilanczos import bilanczos, check_open_structure, \
    project_dissipative_structure
from .bound import bound_summary, dispersion_bound_check, \
    renormalized_bound_check, saturating_coefficients, saturation_report
from .continuum import ContinuumSpec, continuum_vs_paper_report
from .exceptions import InvariantViolation, NumericalFailure
from .krylov_chain import TAIL_CUTOFF, direct_evolution_oracle, \
    evolve_chain, moments
from .lindbladian import MAX_QUBITS, build_model_lindbladian, \
    uniform_seed, vectorize
from .spin_algebra import ModelSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3

ORACLE_MAX_N = 4
STRUCTURE_COEFFS = 50   # leading coefficients used for structure verdicts
DEPTH_TOL = 1e-12       # Duhamel bound on what the grid-depth cut changes


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


def _finite(value, name="number"):
    """The config number ``name`` as a finite float: a JSON int or float
    passes, a bool or string does not, and an int beyond the float range
    raises OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} = {value!r} is not a number")
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"{name} = {value} is not finite")
    return x


def _count(value, name="count"):
    """The count ``name`` as an int: 5 and 5.0 pass, 2.9 and true do not."""
    if type(value) not in (int, float) or int(value) != value:
        raise ValueError(f"{name} = {value!r} is not an integer")
    return int(value)


def _string(value, name="string"):
    """The config string ``name``: any other JSON value is a TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"{name} = {value!r} is not a string")
    return value


def load_config(path):
    literal = lambda text: _finite(float(text))   # float, NaN or Infinity
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=literal, parse_constant=literal)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except ValueError as exc:   # JSONDecodeError, non-finite, bad UTF-8
        raise UsageError(f"malformed config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def _walk(node, table, where, keys=None):
    """The values of ``keys`` (default: those present) in the config object
    ``node`` by their rules in ``table``; an absent value is left out, and
    a key ``table`` lacks is a ValueError.  A block's rule is (make, table)."""
    if not isinstance(node, dict):
        raise TypeError(f"{where} must be a JSON object")
    unknown = sorted(set(node) - set(table))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}")
    values = {}
    for key in node if keys is None else keys:
        rule, value = table[key], node.get(key)
        if isinstance(rule, tuple):   # absent or null: {}
            values[key] = rule[0](**_walk({} if value is None else value,
                                          rule[1], f"{where}.{key}"))
        elif key in node:
            values[key] = rule(value, f"{where}.{key}")
    return values


# The config table, key -> rule.  A rule(value, name) checks and converts
# one JSON value; a block's rule makes its stage's object (library defaults).
SEED_KIND = {"kind": _string, "path": _string}
CONFIG = {
    "t_max": _finite, "n_samples": _count, "output_dir": _string,
    "model": (ModelSpec, {"N": _count, "g": _finite, "h": _finite,
                          "alpha": _finite, "gamma": _finite}),
    "bilanczos": (dict, {"max_iter": _count}),
    "seed_kind": lambda v, at: (_walk(v, SEED_KIND, at) if isinstance(v, dict)
                                else _string(v, at)),
    "continuum": (lambda **kw: ContinuumSpec(**kw) if kw else None,
                  {"case": _string, "alpha": _finite, "beta": _finite,
                   "c": _finite}),
    "saturation": (dict, {"alpha0": _finite, "gamma0": _finite, "K": _count,
                          "t_max": _finite, "n_samples": _count}),
    "filter": (FilterConfig, {"outlier_window": _count, "outlier_k": _finite,
                              "smooth_window": _count}),
}
DEFAULTS = {"t_max": 10.0, "n_samples": 400, "seed_kind": "uniform"}


def _grid(t_max, n_samples, where):
    if t_max <= 0:
        raise ValueError(f"{where}.t_max must be positive")
    if n_samples < 3:
        raise ValueError(f"{where}.n_samples must be at least 3")
    if t_max / (n_samples - 1) < np.finfo(float).tiny:
        raise ValueError(f"{where}: step t_max / (n_samples - 1) is subnormal")
    return t_max, n_samples


def _seed_vector(kind, dim_d):
    if kind == "uniform":
        return uniform_seed(dim_d)
    if not (isinstance(kind, dict) and kind.get("kind") == "custom"):
        raise ValueError(f"unknown seed_kind {kind!r}")
    path = kind["path"]
    M = np.load(path)
    if not isinstance(M, np.ndarray) or M.shape != (dim_d, dim_d):
        raise ValueError(f"seed {path} is not a {dim_d}x{dim_d} .npy array")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"seed {path} has non-finite entries")
    v = vectorize(M.astype(complex))
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("seed matrix is zero")
    return v / nrm


def _parse(cfg, stages):
    """The top level and the keys the stages read, walked by CONFIG, then
    the checks across values; a bad value is a UsageError."""
    keys = ["t_max", "n_samples", "output_dir"] + [
        key for stage in stages for key in stage.reads]
    try:
        run = SimpleNamespace(**DEFAULTS | _walk(cfg, CONFIG, "config", keys))
        run.t = np.linspace(0.0, *_grid(run.t_max, run.n_samples, "config"))
        if "model" in keys:
            if run.model.N > MAX_QUBITS:
                raise ValueError(f"config.model.N > {MAX_QUBITS} qubits")
            if run.bilanczos.get("max_iter", 1) < 1:
                raise ValueError("config.bilanczos.max_iter is below 1")
            run.seed = _seed_vector(run.seed_kind, run.model.dim)
        if "saturation" in keys:   # at saturation_report's defaults, read
            # in ``bound``: a tracer may wrap the ``cli`` name without them
            params = inspect.signature(bound.saturation_report).parameters
            kw = {k: p.default for k, p in params.items()} | run.saturation
            saturating_coefficients(kw["alpha0"], kw["gamma0"], kw["K"])
            _grid(kw["t_max"], kw["n_samples"], "config.saturation")
    except (KeyError, TypeError, ValueError, OverflowError,
            OSError) as exc:
        raise UsageError(f"bad config: {exc}")
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
            os.makedirs(_string(out_dir, "output_dir"), exist_ok=True)
            probe = os.path.join(out_dir, ".write_probe")
            open(probe, "w").close()
            os.remove(probe)
        except (OSError, TypeError) as exc:
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

def _bound_chain(tri):
    """The contractive chain the bound certifies: ``tri`` if its leading
    coefficients have closed structure, else its dissipative projection."""
    if check_open_structure(tri, STRUCTURE_COEFFS).label == \
            "closed structure":
        return tri
    return project_dissipative_structure(tri)


def _chain_moments(run, tri, probe):
    """Moments of ``tri`` (the lanczos stage's ``probe`` trajectory if any);
    warns where the end of an incomplete chain shows on the grid."""
    traj = run.probes.pop(probe, None) or evolve_chain(tri, run.t)
    if not tri.complete and traj.horizon < run.t.size:
        warnings.warn(
            f"truncation tail |phi_K-1|^2 reached {max(traj.tail_mass):.3e} "
            f"(cutoff {TAIL_CUTOFF:.1e}); results beyond that time are "
            "affected by the finite chain", RuntimeWarning)
    return moments(traj)


def _deep_enough(run, tri, b_next):
    """The depth rule without ``bilanczos.max_iter``: (i) the raw chain's
    horizon spans the grid; (ii) the bound chain's Duhamel bound t_max |b_K|
    max_t |phi_{K-1}| <= DEPTH_TOL.  The evolve and bound stages reuse both."""
    raw = evolve_chain(tri, run.t)
    if raw.horizon < run.t.size:
        return False
    tri_b = _bound_chain(tri)
    bound = raw if tri_b is tri else evolve_chain(tri_b, run.t)
    if run.t[-1] * b_next * np.abs(bound.phi[-1]).max() > DEPTH_TOL:
        return False
    run.probes = {"raw": raw} if bound is raw else {"raw": raw, "bound": bound}
    return True


def _run_lanczos(run, writer):
    run.L = build_model_lindbladian(run.model)
    run.probes = {}
    max_iter = run.bilanczos.get("max_iter")
    run.tri = tri = bilanczos(
        run.L, run.seed, max_iter=max_iter,
        deep_enough=None if max_iter else partial(_deep_enough, run))
    n_struct = min(STRUCTURE_COEFFS, tri.K)
    report = check_open_structure(tri, n_coeffs=n_struct)
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
    run.moments = m = _chain_moments(run, run.tri, "raw")
    writer.write_table("moments.csv", {"t": m.t, "C": m.C, "P": m.P,
                                       "M2": m.M2, "Ctilde": m.Ctilde})


def _run_bound(run, writer):
    # A closed chain is its own bound chain, already evolved and judged.
    tri_b = _bound_chain(run.tri)
    projected = tri_b is not run.tri
    m = _chain_moments(run, tri_b, "bound") if projected else run.moments
    if m.t.size < 3:
        raise NumericalFailure(f"total probability underflowed after "
                               f"{m.t.size} sample(s); the bound needs 3")
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
    """A series shorter than the filter window: a reason to skip when the
    chain is complete, else a usage error."""
    window = max(run.filter.outlier_window, run.filter.smooth_window)
    for name, series, _ in _filter_inputs(run.tri.a, run.tri.b):
        if series.size < window:
            reason = f"series length {series.size} < filter window {window}"
            if run.tri.complete:
                return reason
            raise UsageError(f"{name}: {reason}")
    return None


def _run_filter(run, writer):
    fcfg = run.filter
    for name, series, extra in _filter_inputs(run.tri.a, run.tri.b):
        cleaned, smoothed, _ = filter_series(series, fcfg)
        writer.write_table(name, {"n": np.arange(series.size),
                                  "raw": series, "cleaned": cleaned,
                                  "smoothed": smoothed},
                           extra={"filter": fcfg.__dict__, **extra})


# needs: stage names; reads: config keys (see _parse); skip(run) -> reason
# or None; run(run, writer) does the stage's work.
Stage = namedtuple("Stage", "name needs reads artifacts skip run")

# The pipeline in run order; a stage needs only earlier rows.
STAGES = (
    Stage("lanczos", (), ("model", "bilanczos", "seed_kind"),
          ("coefficients.csv", "structure.json"), None, _run_lanczos),
    Stage("evolve", ("lanczos",), (), ("moments.csv",), None, _run_evolve),
    Stage("bound", ("evolve",), (), ("bound.csv", "bound_summary.json"),
          None, _run_bound),
    Stage("oracle", ("evolve",), (), ("oracle.csv",),
          lambda run: (f"N > {ORACLE_MAX_N}"
                       if run.model.N > ORACLE_MAX_N else None),
          _run_oracle),
    Stage("continuum", (), ("continuum",), ("continuum.csv",),
          lambda run: ("no continuum block"
                       if run.continuum is None else None),
          _run_continuum),
    Stage("saturation", (), ("saturation",),
          ("saturation.csv", "saturation_summary.json"), None,
          _run_saturation),
    Stage("filter", ("lanczos",), ("filter",),
          ("filtered_b_abs.csv", "filtered_a_im.csv"), _filter_skip,
          _run_filter),
)

SUBCOMMANDS = tuple(stage.name for stage in STAGES) + ("full",)


def _plan(command):
    """The rows a subcommand runs: its stage and, transitively, its needs."""
    if command == "full":
        return STAGES
    if command not in SUBCOMMANDS:
        raise UsageError(f"unknown subcommand {command!r}")
    names = {command}
    for stage in reversed(STAGES):
        if stage.name in names:
            names.update(stage.needs)
    return [stage for stage in STAGES if stage.name in names]


# The error.json kind and exit code of each failure a run reports.  A
# MemoryError comes from a config size no machine can allocate.
ERRORS = {UsageError: ("usage", EXIT_USAGE),
          MemoryError: ("usage", EXIT_USAGE),
          NumericalFailure: ("numerical", EXIT_NUMERICAL),
          InvariantViolation: ("invariant", EXIT_INVARIANT)}


def run_pipeline(cfg, command, out_dir, quiet=False):
    """Run one subcommand; returns the exit code."""
    writer = ArtifactWriter(out_dir, cfg, command, quiet)
    try:
        stages = _plan(command)
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
    """Print the error payload, and write error.json to ``out_dir`` if set."""
    payload = {"error": kind, "command": command, "message": message,
               "version": __version__}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text, file=sys.stderr)
    if out_dir is None:
        return
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
        _emit_error(None, args.command, "usage", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
