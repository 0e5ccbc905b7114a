"""Parity of `krylovflow full` runs between two source trees.

    python3 tools/parity.py run <src-dir> <out-dir> [--only WORKLOAD ...]
    python3 tools/parity.py diff <a> <b>

``run`` runs ``full`` on the benchmark configs of perfbench/workloads.py
(read only): n5_full, sweep_small's 8, n6_prefix and tiny, or the
workloads ``--only`` names.  ``<src-dir>`` is the directory that holds the
``krylovflow`` package (a checkout's ``src``).  Each config runs in a fresh
process with 2 BLAS threads and writes its artifacts to
``<out-dir>/<config>/``.  ``<out-dir>/runs.json`` records, per config, the
exit code, every warning as "<category>: <text>" (no source line, which
moves with any edit), and the propagations: the K and a digest of the
coefficients of each chain ``evolve_chain`` evolved, in call order.

``diff`` compares two ``run`` outputs file by file: byte-identical or not;
for a CSV the largest |delta| per column relative to the column's largest
|value| in ``<a>``; for a JSON file each leaf that moved.  It exits 0 when
every file is byte-identical and 1 otherwise.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

BLAS_THREADS = {var: "2" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}

# The child process: one `full` run of the config in argv[1] to argv[2],
# with every warning and propagation recorded; prints the record as JSON.
CHILD = r"""
import hashlib, json, sys, warnings
import numpy as np
from krylovflow import cli, krylov_chain

if not krylov_chain.__file__.startswith(sys.argv[3]):
    sys.exit(f"krylovflow was imported from {krylov_chain.__file__}")
evolved, evolve = [], krylov_chain.evolve_chain

def recording(tri, t):
    coeffs = b"".join(np.ascontiguousarray(x).tobytes()
                      for x in (tri.a, tri.b, tri.c))
    evolved.append([tri.K, hashlib.sha256(coeffs).hexdigest()[:16]])
    return evolve(tri, t)

krylov_chain.evolve_chain = recording
if getattr(cli, "evolve_chain", None) is evolve:
    cli.evolve_chain = recording
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    code = cli.main(["full", "--config", sys.argv[1], "--out", sys.argv[2],
                     "--quiet"])
print(json.dumps({"exit": code, "propagations": evolved, "warnings": [
    f"{w.category.__name__}: {w.message}" for w in caught]}))
"""


def configs(names):
    """(name, config) of each benchmark config of the workloads ``names``."""
    for workload in names:
        cfgs = workloads.ALL[workload](0)   # the seed only orders them
        for i, cfg in enumerate(cfgs):
            yield (workload if len(cfgs) == 1 else f"{workload}-{i}"), cfg


def run(src_dir, out_dir, names):
    src_dir = os.path.abspath(src_dir)
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src_dir, **BLAS_THREADS)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs(names):
            cfg_path = os.path.join(tmp, f"{name}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            out = os.path.abspath(os.path.join(out_dir, name))
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, cfg_path, out, src_dir],
                cwd=tmp, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{name}: the run process failed\n{proc.stderr}")
            runs[name] = json.loads(proc.stdout.splitlines()[-1])
            print(f"{name}: exit {runs[name]['exit']}, "
                  f"{len(runs[name]['warnings'])} warning(s)")
    with open(os.path.join(out_dir, "runs.json"), "w",
              encoding="utf-8") as fh:
        json.dump(runs, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _files(top):
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, files in os.walk(top) for f in files}


def _number(cell):
    return float(cell) if cell else float("nan")


def csv_changes(a_path, b_path):
    """Per column, the largest |delta| relative to the column's largest
    |value| in ``a_path``; a change of header or length is one line."""
    tables = []
    for path in (a_path, b_path):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)))
    (head_a, *rows_a), (head_b, *rows_b) = tables
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"header or row count differs: {head_a} x {len(rows_a)} "
                f"vs {head_b} x {len(rows_b)}"]
    lines = []
    for j, column in enumerate(head_a):
        x = [_number(row[j]) for row in rows_a]
        y = [_number(row[j]) for row in rows_b]
        if [v != v for v in x] != [v != v for v in y]:   # NaN = blank cell
            lines.append(f"{column}: blank cells differ")
            continue
        delta = max((abs(u - v) for u, v in zip(x, y) if u == u),
                    default=0.0)
        if delta:
            scale = max(abs(u) for u in x if u == u)
            lines.append(f"{column}: max |delta| {delta:.3e} = "
                         f"{delta / scale if scale else float('inf'):.3e} "
                         "of the column maximum")
    return lines


def json_changes(a, b, path="$"):
    """Each leaf of ``a`` and ``b`` that differs, numeric ones with delta."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [line for key in sorted(set(a) | set(b)) for line in
                json_changes(a.get(key), b.get(key), f"{path}.{key}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [line for i, (u, v) in enumerate(zip(a, b))
                for line in json_changes(u, v, f"{path}[{i}]")]
    if a == b and type(a) is type(b):
        return []
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (a, b))
    return [f"{path}: {a!r} -> {b!r}"
            + (f" (delta {b - a:.3e})" if numeric else "")]


def diff(a_dir, b_dir):
    files_a, files_b = _files(a_dir), _files(b_dir)
    differ = 0
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            print(f"{name}: only in {a_dir if name in files_a else b_dir}")
            differ += 1
            continue
        pa, pb = os.path.join(a_dir, name), os.path.join(b_dir, name)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                continue
        differ += 1
        if name.endswith(".csv"):
            lines = csv_changes(pa, pb)
        elif name.endswith(".json"):
            with open(pa, encoding="utf-8") as fa, \
                    open(pb, encoding="utf-8") as fb:
                lines = json_changes(json.load(fa), json.load(fb))
        else:
            lines = []
        print(f"{name}: differs")
        for line in lines or ["(bytes differ, values equal)"]:
            print(f"  {line}")
    n = len(files_a | files_b)
    print(f"{n} files: {n - differ} byte-identical, {differ} differ")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run full on the benchmark configs")
    p_run.add_argument("src_dir")
    p_run.add_argument("out_dir")
    p_run.add_argument("--only", nargs="+", choices=sorted(workloads.ALL),
                       default=["n5_full", "sweep_small", "n6_prefix",
                                "tiny"])
    p_diff = sub.add_parser("diff", help="compare two run outputs")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.src_dir, args.out_dir, args.only)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
