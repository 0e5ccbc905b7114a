"""Write the stored references of the fixed-config workloads.

    PYTHONPATH=src:perfbench python3 perfbench/make_reference.py [name ...]

Runs each config of each workload once and stores, in
reference/<name>.json, what checks.py holds later commits to: the leading
coefficients (a_n and b_n c_n), the bound verdict and, for open models, C
and P of the chain the bound stage evaluates.  Regenerate only on purpose, from a commit whose outputs are
trusted; the file records the versions it was made with.
"""

import json
import os
import shutil
import sys

import checks
import workloads
from run import OUT_DIR as RUN_DIR
from worker import REFERENCE_DIR, bound_inputs, fingerprint

OUT_DIR = os.path.join(RUN_DIR, "reference-run")


def reference_entry(cli, cfg):
    with bound_inputs(cli) as captured:
        rc = cli.run_pipeline(cfg, "full", OUT_DIR, quiet=True)
    if rc != 0:
        raise SystemExit(f"pipeline exited with {rc} on {cfg}")
    a, b, c = checks.read_coefficients(
        os.path.join(OUT_DIR, "coefficients.csv"))
    with open(os.path.join(OUT_DIR, "bound_summary.json")) as fh:
        verdict = json.load(fh)["verdict"]
    shutil.rmtree(OUT_DIR)
    n = checks.COEFF_PREFIX
    m = captured[-1]
    is_open = cfg["model"]["alpha"] > 0 or cfg["model"]["gamma"] > 0
    return {"config": cfg,
            "a": [[z.real, z.imag] for z in a[:n].tolist()],
            "bc": [[z.real, z.imag] for z in (b * c)[:n - 1].tolist()],
            "C": m.C.tolist() if is_open else None,
            "P": m.P.tolist() if is_open else None,
            "verdict": verdict}


def make(name):
    from krylovflow import cli
    ref = {"made_with": fingerprint(),
           "entries": [reference_entry(cli, cfg)
                       for cfg in workloads.ALL[name](0)]}
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in sys.argv[1:] or workloads.ALL:
        make(name)
