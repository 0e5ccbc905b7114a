"""Output checks of one `full` pipeline run.

Only numbers that equivalent algorithms reproduce are checked: the exit
code, the leading Lanczos coefficients (as a_n and b_n c_n), the bound
verdict, for N <= 4 the oracle agreement, and for open models C(t) and
P(t) of the chain the bound is evaluated on (the Lanczos chain projected
onto the dissipative structure).  The raw-chain moments.csv diverges across
equivalent kernels beyond a short time horizon and is only checked for
presence.  A closed model's Lanczos run can miss the breakdown of its small
Krylov space and go on with rounding noise; its bound chain then differs by
up to 4e-4 between one and two BLAS threads, so it is not checked.
"""

import csv
import json
import os

import numpy as np

COEFF_PREFIX = 20
COEFF_RTOL = 1e-10     # max |x - ref| over the prefix, relative to its scale
CHAIN_RTOL = 1e-7      # max |C - ref| (and P) relative to max |ref|
ORACLE_TOL = 1e-4      # max relC and relP of oracle.csv
ORACLE_MAX_N = 4


def read_coefficients(path):
    """(a, b, c) as complex arrays from a coefficients.csv table."""
    a, b, c = [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            a.append(complex(float(row["a_re"]), float(row["a_im"])))
            if row["b_re"] != "":
                b.append(complex(float(row["b_re"]), float(row["b_im"])))
                c.append(complex(float(row["c_re"]), float(row["c_im"])))
    return np.array(a), np.array(b), np.array(c)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel_dev(x, ref, scale=None):
    """max |x - ref| over max |ref| (or ``scale``); inf on a length change."""
    x, ref = np.asarray(x), np.asarray(ref)
    if x.shape != ref.shape:
        return np.inf
    if scale is None:
        scale = np.abs(ref).max()
    return float(np.abs(x - ref).max() / max(scale, 1e-300))


def reference_for(cfg, stored):
    """The expected values for ``cfg`` from a stored reference file.

    ``stored`` is the content of a file written by make_reference.py.
    """
    for entry in stored["entries"]:
        if entry["config"] == cfg:
            chain = entry["C"] is not None
            return {"a": np.array([complex(*z) for z in entry["a"]]),
                    "bc": np.array([complex(*z) for z in entry["bc"]]),
                    "C": np.array(entry["C"]) if chain else None,
                    "P": np.array(entry["P"]) if chain else None,
                    "verdict": entry["verdict"]}
    raise KeyError(f"no stored reference for config {cfg}")


def check_full_run(cfg, out_dir, rc, bound_moments, ref):
    """Check one run: (problems, deviations).

    ``problems`` is a list of strings, empty when the run is correct;
    ``deviations`` maps each measured deviation to its value, so that the
    margin to each tolerance can be reported.  ``bound_moments`` is the
    moment series the bound stage was given.
    """
    if rc != 0:
        return [f"exit code {rc}"], {}
    problems = []
    devs = {}

    def need(name):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"missing {name}")
            return None
        return path

    summary = need("full_summary.json")
    if summary and not _read_json(summary).get("completed"):
        problems.append("full_summary.json: not completed")
    need("moments.csv")

    coeffs = need("coefficients.csv")
    if coeffs:
        a, b, c = read_coefficients(coeffs)
        n = len(ref["a"])
        # a_n vanish in closed models, so they are compared on the scale of
        # the hoppings |b_n| ~ sqrt|b_n c_n| as well.
        scale = max(np.abs(ref["a"]).max(), np.sqrt(np.abs(ref["bc"]).max()))
        dev_a = _rel_dev(a[:n], ref["a"], scale)
        dev_bc = _rel_dev((b * c)[:n - 1], ref["bc"])
        devs["coeff"] = max(dev_a, dev_bc)
        if not max(dev_a, dev_bc) <= COEFF_RTOL:
            problems.append(f"leading coefficients: rel dev a {dev_a:.2e}, "
                            f"bc {dev_bc:.2e} > {COEFF_RTOL:.0e}")

    if bound_moments is None:
        problems.append("bound stage did not run")
    elif ref["C"] is not None:
        dev_C = _rel_dev(bound_moments.C, ref["C"])
        dev_P = _rel_dev(bound_moments.P, ref["P"])
        devs["chain"] = max(dev_C, dev_P)
        if not max(dev_C, dev_P) <= CHAIN_RTOL:
            problems.append(f"bound-chain moments: rel dev C {dev_C:.2e}, "
                            f"P {dev_P:.2e} > {CHAIN_RTOL:.0e}")

    bound = need("bound_summary.json")
    if bound and _read_json(bound).get("verdict") != ref["verdict"]:
        problems.append(f"bound verdict is not {ref['verdict']}")

    if cfg["model"]["N"] <= ORACLE_MAX_N:
        oracle = need("oracle.csv")
        if oracle:
            table = np.genfromtxt(oracle, delimiter=",", names=True)
            devs["oracle"] = float(max(table["relC"].max(),
                                       table["relP"].max()))
            if not devs["oracle"] <= ORACLE_TOL:
                problems.append(f"oracle disagreement {devs['oracle']:.2e}"
                                f" > {ORACLE_TOL:.0e}")
    return problems, devs
