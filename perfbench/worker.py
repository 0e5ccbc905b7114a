"""One benchmark process: set-up, then a closed loop of `full` pipelines.

run.py starts this file in a fresh process per workload, so that peak RSS
belongs to that workload alone, and in a few more processes with
--setup-only that measure set-up time only.  Set-up time runs from the
parent's --spawned-at (a time.monotonic() reading, which is system-wide on
Linux) until krylovflow.cli is imported and a first tiny pipeline returns.
The last line on stdout is a JSON object for run.py.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
import warnings
from contextlib import contextmanager

import checks
import workloads
from metrics import LAYER_TIMES
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Layer time metric of each span; a span contributes its self time, so the
# layer times of one pipeline add up to its traced wall time.
SPAN_LAYER = {
    "cli.run_pipeline": "cli.self_s",
    "spin_algebra.build_tfim": "spin_algebra.build_s",
    "spin_algebra.build_jump_operators": "spin_algebra.build_s",
    "lindbladian.build_model_lindbladian": "lindbladian.build_s",
    "bilanczos.bilanczos": "bilanczos.lanczos_s",
    "krylov_chain.evolve_chain": None,   # evolve_raw_s or evolve_proj_s
    "krylov_chain.moments": "krylov_chain.moments_s",
    "krylov_chain.direct_evolution_oracle": "krylov_chain.oracle_s",
    "bound.dispersion_bound_check": "bound.check_s",
    "bound.renormalized_bound_check": "bound.check_s",
    "bound.saturation_report": "bound.saturation_s",
    "continuum.continuum_vs_paper_report": "continuum.report_s",
    "analysis.filter_series": "analysis.filter_s",
}


def array_mb(obj):
    """Size in MiB of a dense or scipy-sparse operator, from its arrays."""
    obj = getattr(obj, "matrix", obj)
    if hasattr(obj, "indptr"):
        nbytes = obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    else:
        nbytes = getattr(obj, "nbytes", 0)
    return nbytes / 2 ** 20


def instrument(tracer, cli):
    """Wrap the layer functions the pipeline reaches through ``cli``."""
    spin_algebra = sys.modules["krylovflow.spin_algebra"]
    lanczos = {}

    def on_lindbladian(span, L, args):
        span.attrs["matrix_mb"] = array_mb(L)

    def on_lanczos(span, tri, args):
        lanczos["tri"] = tri
        span.attrs.update(K=tri.K, residual_biortho=tri.residual_biortho)

    def on_evolve(span, traj, args):
        # The bound stage evolves a projected copy of the Lanczos chain.
        raw = args[0] is lanczos.get("tri")
        span.attrs.update(chain="raw" if raw else "proj",
                          refinements=traj.refinements)

    def on_bound(span, report, args):
        span.attrs["n_violations"] = int(report.violations.size)

    def on_filter(span, result, args):
        span.attrs["outliers"] = len(result[2])

    w = tracer.wrap
    w(cli, "build_model_lindbladian", "lindbladian.build_model_lindbladian",
      on_lindbladian)
    # build_model_lindbladian imports these from spin_algebra at call time.
    w(spin_algebra, "build_tfim", "spin_algebra.build_tfim")
    w(spin_algebra, "build_jump_operators",
      "spin_algebra.build_jump_operators")
    w(cli, "bilanczos", "bilanczos.bilanczos", on_lanczos)
    w(cli, "evolve_chain", "krylov_chain.evolve_chain", on_evolve)
    w(cli, "moments", "krylov_chain.moments")
    w(cli, "direct_evolution_oracle", "krylov_chain.direct_evolution_oracle")
    w(cli, "dispersion_bound_check", "bound.dispersion_bound_check",
      on_bound)
    w(cli, "renormalized_bound_check", "bound.renormalized_bound_check")
    w(cli, "saturation_report", "bound.saturation_report")
    w(cli, "continuum_vs_paper_report", "continuum.continuum_vs_paper_report")
    w(cli, "filter_series", "analysis.filter_series", on_filter)


def layer_record(tracer):
    """Per-layer times and counts of one traced pipeline (root span 0)."""
    rec = dict.fromkeys(LAYER_TIMES, 0.0)
    rec.update({"refinements_raw": 0, "refinements_proj": 0,
                "rk4_passes": [], "chain_warnings": 0, "n_violations": 0,
                "outliers": 0, "K": 0, "matrix_mb": 0.0,
                "residual_biortho": 0.0})
    for i, span in enumerate(tracer.spans):
        layer = SPAN_LAYER[span.name]
        attrs = span.attrs
        if span.name == "krylov_chain.evolve_chain":
            # A call that raised has no result, hence no attrs: count it raw.
            chain = attrs.get("chain", "raw")
            layer = f"krylov_chain.evolve_{chain}_s"
            if "refinements" in attrs:
                rec[f"refinements_{chain}"] += attrs["refinements"]
                rec["rk4_passes"].append(attrs["refinements"])
        rec[layer] += tracer.self_time(i)
        if span.name.startswith("krylov_chain."):
            rec["chain_warnings"] += attrs.get("runtime_warnings", 0)
        rec["n_violations"] += attrs.get("n_violations", 0)
        rec["outliers"] += attrs.get("outliers", 0)
        rec["K"] += attrs.get("K", 0)
        rec["matrix_mb"] += attrs.get("matrix_mb", 0.0)
        if attrs.get("residual_biortho") is not None:
            rec["residual_biortho"] = max(rec["residual_biortho"],
                                          attrs["residual_biortho"])
    return rec


def _dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


@contextmanager
def bound_inputs(cli):
    """Collect the moment series ``cli`` passes to the bound check."""
    original = cli.dispersion_bound_check
    captured = []

    def capture(m, *args, **kwargs):
        captured.append(m)
        return original(m, *args, **kwargs)

    cli.dispersion_bound_check = capture
    try:
        yield captured
    finally:
        cli.dispersion_bound_check = original


def run_one(cli, cfg, ref, out_dir, traced):
    """Run one `full` pipeline and check it; returns (record, tracer)."""
    tracer = Tracer()
    error = None
    with bound_inputs(cli) as captured, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if traced:
            instrument(tracer, cli)
        root = tracer.open("cli.run_pipeline")
        try:
            rc = cli.run_pipeline(cfg, "full", out_dir, quiet=True)
        except Exception:  # one broken run must not end the loop
            rc, error = None, traceback.format_exc(limit=4)
        finally:
            tracer.close(root)
            tracer.restore()
    if error is not None:
        problems, devs = [f"raised {error.strip().splitlines()[-1]}"], {}
    else:
        problems, devs = checks.check_full_run(
            cfg, out_dir, rc, captured[-1] if captured else None, ref)
    rec = {"traced": traced, "seconds": root.duration, "rc": rc,
           "problems": problems, "devs": devs,
           "warnings": sum(issubclass(w.category, RuntimeWarning)
                           for w in caught),
           "bytes_written": _dir_bytes(out_dir)}
    if traced:
        rec["layers"] = layer_record(tracer)
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec, tracer if traced else None


def stored_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "krylovflow": sys.modules["krylovflow"].__version__}


def measure(cli, workload, seed, seconds, trace, work_dir):
    """The closed loop: one client, the next run starts when one ends.

    Runs whole passes over the workload's configs until ``seconds`` have
    passed.  With ``trace`` each config runs untraced and then traced.
    """
    configs = workloads.ALL[workload](seed)
    stored = stored_reference(workload)
    refs = [checks.reference_for(cfg, stored) for cfg in configs]
    runs, tracers = [], []
    start = time.monotonic()
    n = 0
    while n == 0 or n % len(configs) or time.monotonic() - start < seconds:
        k = n % len(configs)
        for traced in ((False, True) if trace else (False,)):
            out_dir = os.path.join(work_dir, f"run{len(runs)}")
            rec, tracer = run_one(cli, configs[k], refs[k], out_dir, traced)
            rec["config"] = k
            runs.append(rec)
            if tracer is not None:
                tracers.append(tracer)
        n += 1
    return {"configs": configs, "runs": runs,
            "spans": [[vars(s) for s in t.spans] for t in tracers]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from krylovflow import cli
    warm_dir = os.path.join(args.work_dir, "warmup")
    rc = cli.run_pipeline(workloads.tiny(0)[0], "full", warm_dir, quiet=True)
    setup_s = time.monotonic() - args.spawned_at
    shutil.rmtree(warm_dir, ignore_errors=True)
    if rc != 0:
        sys.exit(f"warm-up pipeline exited with {rc}")
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(cli, args.workload, args.seed, args.seconds,
                              args.trace, args.work_dir))
        result["fingerprint"] = fingerprint()
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
