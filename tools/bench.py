"""Paired benchmark runs of two source trees, recorded as BENCH_<n>.json.

    python3 tools/bench.py <parent-tree> <change-tree> <out.json>
        [--pairs P] [--seconds S] [--only WORKLOAD ...]

Each tree is a checkout holding its own ``perfbench/run.py`` and ``src/``.
For each of P pairs and each workload (BENCHMARK.json's, or those
``--only`` names), both trees' ``run.py --trace 0`` run with the pair's
seed, the parent first in even pairs and the change first in odd ones; each
run's last stdout line is its result.  One ``--trace 1`` run per tree and
workload gives the layer split.  The trees' files are not changed, but
``run.py`` writes its reports under ``.perfbench/`` in its own tree.

``<out.json>`` holds per workload and end-to-end metric every sample of
each side, their median and quartiles, the change's pair wins, ties counted
for neither side, and the relative change of the medians against the
metric's bound; every run's correct, attempted and failed; the traced
layer metrics; each tree's ``git rev-parse HEAD`` with a dirty flag and the
fingerprint line ``run.py`` prints.  A run that fails is recorded, and the
tool then exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACE_SEED = 0
RUN_TIMEOUT_S = 600


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def revision(tree):
    """{"revision", "dirty"} of the git checkout ``tree``; None where it
    is not one."""
    def git(*args):
        proc = subprocess.run(["git", "-C", tree, *args], text=True,
                              capture_output=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if head else None
    return {"revision": head,
            "dirty": None if status is None else bool(status)}


def run_once(tree, workload, seed, seconds, trace):
    """One ``run.py`` process: its result line, or why there is none."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    record = {"seed": seed, "trace": trace}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**record, "ok": False, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        return {**record, "ok": False, "returncode": proc.returncode,
                "error": proc.stderr.strip()[-2000:]}
    fingerprint = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("fingerprint ")), None)
    return {**record, "fingerprint": fingerprint,
            "ok": result["correct"] and result["failed"] == 0,
            **{key: result[key] for key in ("correct", "attempted",
                                            "failed")},
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(samples):
    """Median and quartiles of ``samples``."""
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if len(samples) > 1 else samples * 3)
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def compare(runs, metric):
    """Both sides of one end-to-end metric over the paired runs."""
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    pairs = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
             for p in runs if "metrics" in p["parent"]
             and "metrics" in p["change"]]
    out = {"unit": metric["unit"], "better": metric["better"],
           "bound": metric["bound"]}
    if not pairs:
        return out
    sides = dict(zip(SIDES, (summary(list(s)) for s in zip(*pairs))))
    base, new = sides["parent"]["median"], sides["change"]["median"]
    worse = sign * (new - base) / abs(base) if base else 0.0
    return {**out, **sides,
            "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "parent_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "rel_change": (new - base) / abs(base) if base else None,
            "within_bound": worse <= metric["bound"]}


def bench(trees, workloads, pairs, seconds):
    """The record of the module docstring, as a dict."""
    made = []

    def run(side, workload, seed, trace):
        made.append(run_once(trees[side], workload, seed, seconds, trace))
        print(f"{workload} {side} seed {seed} trace {trace}: "
              f"{'ok' if made[-1]['ok'] else 'FAILED'}")
        return made[-1]

    runs = {w: [] for w in workloads}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            runs[w].append({"pair": i, "first": order[0],
                            **{side: run(side, w, i, 0) for side in order}})
    metrics = _benchmark()["end_to_end"]
    return {
        "pairs": pairs, "seconds": seconds, "trace_seed": TRACE_SEED,
        "trees": {side: revision(tree) for side, tree in trees.items()},
        "fingerprint": {side: next((r[side]["fingerprint"] for w in workloads
                                    for r in runs[w]
                                    if r[side].get("fingerprint")), None)
                        for side in SIDES},
        "workloads": {w: {
            "runs": runs[w],
            "traced": {side: run(side, w, TRACE_SEED, 1) for side in SIDES},
            "metrics": {m["name"]: compare(runs[w], m) for m in metrics}}
            for w in workloads},
        "failed_runs": sum(not r["ok"] for r in made)}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=_benchmark()["run_seconds"])
    parser.add_argument("--only", nargs="+", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    trees = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} holds no perfbench/run.py")
    workloads = args.only or [w["name"] for w in _benchmark()["workloads"]]
    record = bench(trees, workloads, args.pairs, args.seconds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{args.out}: {record['failed_runs']} failed run(s)")
    return 1 if record["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
