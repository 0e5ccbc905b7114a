"""krylovflow benchmark: end-to-end and per-layer metrics of `full` runs.

    python3 perfbench/run.py --workload n5_full --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from the src/ directory next to
this one.  Each call measures one workload (see BENCHMARK.json):

- set-up time in SETUP_SAMPLES fresh processes (the workload's own one
  included): start, import krylovflow.cli, one tiny pipeline;
- a closed loop with one client of `cli.run_pipeline(cfg, "full", out)`
  over the workload's configs, in one fresh process whose peak RSS is the
  workload's, with every run's outputs checked (checks.py).  pipeline_s is
  the median wall time of the verified runs of each config, averaged over
  the workload's configs; pipelines_per_min counts the
  verified runs per minute of pipeline wall time (checks excluded);
  verified_frac is the share of attempted runs that exited 0 and passed
  the checks (1 - failed_frac);
- with --trace 1, each config runs untraced and then traced; the traced
  runs give the per-layer metrics, the pairs give the tracing overhead.

BLAS runs with at most BLAS_THREADS threads.  The report, with the machine
fingerprint and the configs, is printed and written with the spans under
.perfbench/ in the checkout.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    path = [SRC, HERE] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def spawn_worker(args, work_dir, deadline):
    """Run worker.py in a fresh process and return its JSON result."""
    os.makedirs(work_dir, exist_ok=True)
    spawned_at = time.monotonic()
    cmd = [sys.executable, WORKER, *args, "--work-dir", work_dir,
           "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=deadline - spawned_at)
    except subprocess.TimeoutExpired:
        raise HarnessError("worker passed the deadline and was stopped")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def report_lines(args, result, setup, values):
    """The human-readable report printed before the result line."""
    untraced = [r for r in result["runs"] if not r["traced"]]
    failed = [r for r in result["runs"] if r["problems"]]
    yield (f"krylovflow benchmark: workload={args.workload} seed={args.seed}"
           f" seconds={args.seconds} trace={args.trace}")
    yield "fingerprint " + json.dumps(result["fingerprint"], sort_keys=True)
    for i, cfg in enumerate(result["configs"]):
        yield f"config[{i}] " + json.dumps(cfg, sort_keys=True)
    yield ("setup_s samples " + ", ".join(f"{s:.4f}" for s in setup)
           + f" s (median of {len(setup)} fresh processes)")
    times = [r["seconds"] for r in untraced]
    tail = metrics.tail(times)
    yield (f"pipeline_s samples n={len(times)}: median "
           f"{statistics.median(times):.4f} s, max {max(times):.4f} s; "
           + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
              "no percentile has 10 samples above it below n=11"))
    for name, (value, unit) in values.items():
        yield f"{name:<32} {value:.6g} {unit}"
    yield (f"failed_frac {len(failed) / len(result['runs']):.4g} "
           f"({len(failed)} of {len(result['runs'])} attempted)")
    for key in ("coeff", "chain", "oracle"):
        devs = [r["devs"][key] for r in result["runs"] if key in r["devs"]]
        if devs:
            yield f"check {key}: max deviation {max(devs):.3g}"
    for r in failed:
        yield f"FAILED config[{r['config']}]: " + "; ".join(r["problems"])


def run(args):
    if not os.path.isfile(os.path.join(SRC, "krylovflow", "cli.py")):
        raise HarnessError(f"no program source under {SRC}")
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        # Set-up time is an end-to-end metric: traced runs skip its samples.
        setup = [spawn_worker(["--workload", args.workload, "--seed", "0",
                               "--seconds", "0", "--setup-only"],
                              work_dir, deadline)["setup_s"]
                 for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        result = spawn_worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup.append(result["setup_s"])
    runs = result["runs"]
    if args.trace:
        values = metrics.per_layer(runs)
    else:
        values = metrics.end_to_end(runs, setup, result["peak_rss_mb"])
    for line in report_lines(args, result, setup, values):
        print(line)

    failed = sum(1 for r in runs if r["problems"])
    # A run that reports a failure (non-zero exit) counts in `failed`; a run
    # that exits 0 with outputs failing the checks makes the result incorrect.
    correct = not any(r["problems"] for r in runs if r["rc"] == 0)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    spans = result.pop("spans")
    with open(stem + ".report.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "setup_samples": setup, "metrics": values,
                   "seconds": args.seconds, "seed": args.seed}, fh, indent=1)
    if spans:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="krylovflow benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.ALL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
