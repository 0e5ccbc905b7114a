"""Configuration-driven command line for end-to-end pipeline runs.

Usage:  krylovflow <subcommand> --config <file.json> [--out DIR] [--quiet]

The pipeline is one table of stages, run in this order: lanczos, evolve,
bound, oracle, continuum, saturation, filter.  A subcommand runs its stage
and the stages that one needs (evolve and filter need lanczos; bound and
oracle need evolve); ``full`` runs them all.  A skip rule is checked just
before its stage (oracle: N > ORACLE_MAX_N; continuum: no ``continuum``
block; filter: a complete chain is shorter than the filter window); a
skipped stage is a usage error when requested by name and an entry of
``full_summary.json["skipped"]`` under ``full``.  The config table CONFIG
gives each key one rule: a finite JSON number, a count, a JSON string, or
a block (a JSON object, absent or null for the library's defaults, and
required where it has none).  The top level, the keys the chosen stages
read and their time grids (``krylov_chain.time_grid``) are checked before
any stage runs; a key the table does not list is an error.  The chain
policy is ``krylov_chain.ChainRun``: without ``bilanczos.max_iter`` the
chain grows only as deep as the time grid reaches (termination "grid"),
and the evolve and bound stages take their trajectories from it.  A stage
returns its row's artifacts, each a deterministic CSV (17 significant
digits, LF endings) or JSON, by its name's suffix, with a JSON sidecar
echoing the config and version.  Exit codes: 0 success, 1 usage error
(including a bad config value or a size too large to allocate), 2
numerical failure, 3 invariant violation; on failure the run's artifacts
are removed and ``error.json`` is written.
"""

import argparse
import inspect
import json
import os
import sys
from collections import namedtuple
from contextlib import suppress
from dataclasses import asdict
from functools import cache
from types import SimpleNamespace

import numpy as np

from . import __version__, bound
from .analysis import FilterConfig, filter_series
from .bilanczos import bilanczos
from .bound import bound_summary, dispersion_bound_check, \
    renormalized_bound_check, saturating_coefficients, saturation_report
from .continuum import ContinuumSpec, continuum_vs_paper_report
from .exceptions import InvariantViolation, NumericalFailure
# evolve_chain is not called here; perfbench's tracer wraps it by this name.
from .krylov_chain import ChainRun, direct_evolution_oracle, \
    evolve_chain, moments, time_grid  # noqa: F401
from .lindbladian import MAX_QUBITS, build_model_lindbladian, \
    uniform_seed, vectorize
from .spin_algebra import ModelSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3

ORACLE_MAX_N = 4


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


def _filter_inputs(tri):
    """The two filtered series by name, in the filter row's artifact order."""
    return {"b_abs": np.abs(tri.b), "a_im": np.asarray(tri.a).imag}


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
            values[key] = _block(*rule, {} if value is None else value,
                                 f"{where}.{key}")
        elif key in node:
            values[key] = rule(value, f"{where}.{key}")
    return values


@cache
def _parameters(fn):
    """``fn``'s signature parameters, read once per function."""
    return inspect.signature(fn).parameters


def _block(make, table, node, where):
    """A block's object; a parameter of make with no default is required."""
    values = _walk(node, table, where)
    params = {} if make is dict else _parameters(make)
    for name, p in params.items():
        if p.default is p.empty and p.kind != p.VAR_KEYWORD and \
                name not in values:
            raise ValueError(f"{where}.{name} is missing")
    return make(**values)


def _at(where, check, *args):
    """check(*args), its ValueError prefixed by ``where``, the config path."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{where}.{exc}") from None


# The config table, key -> rule.  A rule(value, name) checks and converts
# one JSON value; a block's rule makes its stage's object (library defaults).
SEED_KIND = (lambda kind, path: {"kind": kind, "path": path},
             {"kind": _string, "path": _string})
CONTINUUM = (ContinuumSpec, {"case": _string, "alpha": _finite,
                             "beta": _finite, "c": _finite})
CONFIG = {
    "t_max": _finite, "n_samples": _count, "output_dir": _string,
    "model": (ModelSpec, {"N": _count, "g": _finite, "h": _finite,
                          "alpha": _finite, "gamma": _finite}),
    "bilanczos": (dict, {"max_iter": _count}),
    "seed_kind": lambda v, at: (_block(*SEED_KIND, v, at)
                                if isinstance(v, dict) else _string(v, at)),
    # A null or empty block names no case: no continuum stage.
    "continuum": lambda v, at: (None if v in (None, {})
                                else _block(*CONTINUUM, v, at)),
    "saturation": (dict, {"alpha0": _finite, "gamma0": _finite, "K": _count,
                          "t_max": _finite, "n_samples": _count}),
    "filter": (FilterConfig, {"outlier_window": _count, "outlier_k": _finite,
                              "smooth_window": _count}),
}
DEFAULTS = {"t_max": 10.0, "n_samples": 400, "seed_kind": "uniform",
            "continuum": None}


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
        run.t = _at("config", time_grid, run.t_max, run.n_samples)
        if "model" in keys:
            if run.model.N > MAX_QUBITS:
                raise ValueError(f"config.model.N > {MAX_QUBITS} qubits")
            if run.bilanczos.get("max_iter", 1) < 1:
                raise ValueError("config.bilanczos.max_iter is below 1")
            run.seed = _seed_vector(run.seed_kind, run.model.dim)
        if "saturation" in keys:   # at saturation_report's defaults, read
            # in ``bound``: a tracer may wrap the ``cli`` name without them
            params = _parameters(bound.saturation_report)
            kw = {k: p.default for k, p in params.items()} | run.saturation
            saturating_coefficients(kw["alpha0"], kw["gamma0"], kw["K"])
            _at("config.saturation", time_grid, kw["t_max"], kw["n_samples"])
    except (KeyError, TypeError, ValueError, OverflowError,
            OSError) as exc:
        raise UsageError(f"bad config: {exc}")
    return run


def _text(name, content):
    """File ``name``'s text: a csv_table for .csv, else JSON ending in LF."""
    if name.endswith(".csv"):
        return csv_table(content)
    return json.dumps(content, indent=2, sort_keys=True) + "\n"


class ArtifactWriter:
    """Writes artifacts plus sidecars; can roll back on failure."""

    def __init__(self, out_dir, cfg, command, quiet):
        self.out_dir, self.quiet, self.written = out_dir, quiet, []
        self.meta = {"command": command, "version": __version__, "config": cfg}
        try:
            os.makedirs(_string(out_dir, "output_dir"), exist_ok=True)
            probe = os.path.join(out_dir, ".write_probe")
            open(probe, "w").close()
            os.remove(probe)
        except (OSError, TypeError) as exc:
            raise UsageError(f"output dir {out_dir} not writable: {exc}")

    def write(self, name, content, extra=None):
        """Artifact ``name`` (see _text) and its sidecar, plus ``extra``."""
        path = os.path.join(self.out_dir, name)
        meta = {"artifact": name, **self.meta, **(extra or {})}
        for target, obj in ((path, content), (path + ".json", meta)):
            with open(target, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_text(target, obj))
            self.written.append(target)
        if not self.quiet:
            print(f"wrote {path}")

    def rollback(self):
        for path in self.written:
            with suppress(OSError):
                os.remove(path)
        self.written = []


# Stages.  Each reads the parsed config and the results of the stages it
# needs from ``run`` and leaves its own results there.  Layer functions
# are looked up as module globals at call time.

def _run_lanczos(run):
    run.L = build_model_lindbladian(run.model)
    run.chain = chain = ChainRun(run.t)
    max_iter = run.bilanczos.get("max_iter")
    chain.tri = tri = bilanczos(
        run.L, run.seed, max_iter=max_iter,
        deep_enough=None if max_iter else chain.deep_enough)
    return _coefficient_table(tri), {
        **asdict(chain.structure), "K": tri.K, "termination": tri.termination,
        "residual_biortho": tri.residual_biortho,
        "residual_tridiag": tri.residual_tridiag}


def _run_evolve(run):
    run.moments = m = moments(run.chain.trajectory())
    return {"t": m.t, "C": m.C, "P": m.P, "M2": m.M2, "Ctilde": m.Ctilde},


def _run_bound(run):
    tri_b, b1 = run.chain.bound_chain
    projected = tri_b is not run.chain.tri
    m = moments(run.chain.trajectory(bound=True))
    report = dispersion_bound_check(m, b1)
    renormalized_bound_check(m, b1)  # identity check; raises if broken
    return _bound_table(report), {**bound_summary(report),
                                  "projected_structure": projected}


def _run_oracle(run):
    mc = run.moments
    mo = direct_evolution_oracle(run.L, run.seed, run.chain.tri, run.t)
    # Zero-crossings (e.g. C at t = 0) are compared against a floor tied
    # to the series peak rather than the pointwise value.
    rel = lambda x, y: np.abs(x - y) / np.maximum(
        np.abs(y), 1e-12 * max(float(np.abs(y).max()), 1e-300))
    return {"t": run.t, "C_chain": mc.C, "P_chain": mc.P, "C_direct": mo.C,
            "P_direct": mo.P, "relC": rel(mc.C, mo.C),
            "relP": rel(mc.P, mo.P)},


def _run_continuum(run):
    return continuum_vs_paper_report(run.continuum, run.t),


def _run_saturation(run):
    report = saturation_report(**run.saturation)
    return _bound_table(report), bound_summary(report)


def _filter_skip(run):
    """A series shorter than the filter window: a reason to skip when the
    chain is complete, else a usage error."""
    window = max(run.filter.outlier_window, run.filter.smooth_window)
    for name, series in _filter_inputs(run.chain.tri).items():
        if series.size < window:
            reason = f"series length {series.size} < filter window {window}"
            if run.chain.tri.complete:
                return reason
            raise UsageError(f"{name}: {reason}")
    return None


def _run_filter(run):
    for name, series in _filter_inputs(run.chain.tri).items():
        cleaned, smoothed, _ = filter_series(series, run.filter)
        yield ({"n": np.arange(series.size), "raw": series,
                "cleaned": cleaned, "smoothed": smoothed},
               {"filter": run.filter.__dict__, "series": name})


# needs: stage names; reads: config keys (see _parse); skip(run) -> reason
# or None; run(run) -> its artifacts in row order, (content, extra) or content.
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
                for name, art in zip(stage.artifacts, stage.run(run),
                                     strict=True):
                    writer.write(name, *art if isinstance(art, tuple)
                                 else (art,))
            elif command == "full":
                skipped.append(f"{stage.name} ({reason})")
            else:
                raise UsageError(f"{stage.name} cannot run: {reason}")
        if command == "full":
            writer.write("full_summary.json",
                         {"skipped": skipped, "completed": True})
    except tuple(ERRORS) as exc:
        writer.rollback()
        kind, code = next(v for k, v in ERRORS.items() if isinstance(exc, k))
        _emit_error(out_dir, command, kind, str(exc))
        return code
    return EXIT_OK


def _emit_error(out_dir, command, kind, message):
    """Print the error payload, and write error.json to ``out_dir`` if set."""
    text = _text("error.json", {"error": kind, "command": command,
                                "message": message, "version": __version__})
    sys.stderr.write(text)
    if out_dir is not None:
        path = os.path.join(out_dir, "error.json")
        with suppress(OSError), \
                open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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
