"""Metrics of one benchmark run, computed from the worker's records.

Standard library only, so that run.py never loads numpy itself.
"""

import statistics

LAYER_TIMES = (
    "spin_algebra.build_s", "lindbladian.build_s", "bilanczos.lanczos_s",
    "krylov_chain.evolve_raw_s", "krylov_chain.evolve_proj_s",
    "krylov_chain.moments_s", "krylov_chain.oracle_s", "bound.check_s",
    "bound.saturation_s", "continuum.report_s", "analysis.filter_s",
    "cli.self_s")


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def per_config_median(runs):
    """Mean over configs of each config's median run time.

    For a one-config workload this is the median; for the sweep it weights
    every config equally instead of picking whichever config sits in the
    middle of the pooled times.
    """
    by_config = {}
    for r in runs:
        by_config.setdefault(r["config"], []).append(r["seconds"])
    return statistics.fmean(statistics.median(v) for v in by_config.values())


def end_to_end(runs, setup_samples, peak_rss_mb):
    """The user-visible metrics, from the untraced runs."""
    untraced = [r for r in runs if not r["traced"]]
    verified = [r for r in untraced if not r["problems"]]
    busy = sum(r["seconds"] for r in untraced)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pipeline_s": (per_config_median(verified or untraced), "s"),
        "pipelines_per_min": (60.0 * len(verified) / busy, "1/min"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "verified_frac": (len(verified) / len(untraced), "ratio"),
    }


def per_layer(runs):
    """Per-layer metrics: means per traced pipeline, plus ratios of sums."""
    layers = [r["layers"] for r in runs if r["traced"]]
    n = len(layers)

    def mean(key):
        return sum(x[key] for x in layers) / n

    out = {name: (mean(name), "s") for name in LAYER_TIMES}
    lanczos_s = sum(x["bilanczos.lanczos_s"] for x in layers)
    steps = sum(x["K"] for x in layers)
    # Step doubling reruns the whole grid with 2^k substeps for k = 0..r,
    # so the accepted pass holds 2^r of the 2^(r+1) - 1 matvec units.
    passes = [r for x in layers for r in x["rk4_passes"]]
    accepted = sum(2 ** r for r in passes)
    attempted = sum(2 ** (r + 1) - 1 for r in passes)
    traced_s = [r["seconds"] for r in runs if r["traced"]]
    untraced_s = [r["seconds"] for r in runs if not r["traced"]]
    out.update({
        "lindbladian.matrix_mb": (mean("matrix_mb"), "MB"),
        "bilanczos.K": (mean("K"), "count"),
        "bilanczos.ms_per_step": (1000.0 * lanczos_s / steps if steps
                                  else 0.0, "ms"),
        "bilanczos.matvecs": (2 * mean("K"), "count"),
        "bilanczos.residual_biortho": (
            max(x["residual_biortho"] for x in layers), "ratio"),
        "krylov_chain.refinements_raw": (mean("refinements_raw"), "count"),
        "krylov_chain.refinements_proj": (mean("refinements_proj"), "count"),
        "krylov_chain.rk4_useful_ratio": (
            accepted / attempted if attempted else 0.0, "ratio"),
        "krylov_chain.runtime_warnings": (mean("chain_warnings"), "count"),
        "bound.n_violations": (mean("n_violations"), "count"),
        "analysis.outliers": (mean("outliers"), "count"),
        "cli.bytes_written": (sum(r["bytes_written"] for r in runs
                                  if r["traced"]) / n, "B"),
        "trace.pipeline_s": (statistics.fmean(traced_s), "s"),
        "trace.overhead_s": (statistics.fmean(traced_s)
                             - statistics.fmean(untraced_s), "s"),
    })
    return out
