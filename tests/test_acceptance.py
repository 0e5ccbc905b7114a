"""End-to-end acceptance checks for the whole package.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s`` or in
the captured output of a failing run) and asserts the stated tolerance.
The heavy N=5 dissipative run is computed once and shared.
"""

import json
import os
import time

import numpy as np
import pytest

from krylovflow.bilanczos import bilanczos, project_dissipative_structure
from krylovflow.bound import (dispersion_bound_check, mandelstam_tamm_tau,
                              saturation_report)
from krylovflow.cli import csv_table, main
from krylovflow.continuum import (CONSTANT_A, LINEAR_A, ContinuumSpec,
                                  analytic_C_P, characteristics_solver,
                                  continuum_vs_paper_report)
from krylovflow.krylov_chain import (direct_evolution_oracle, evolve_chain,
                                     moments)
from krylovflow.lindbladian import build_model_lindbladian, uniform_seed
from krylovflow.spin_algebra import ModelSpec

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")


def verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def n5_dissipative():
    """Shared N=5 dissipative run: Lindbladian, bi-Lanczos (timed),
    chain evolution on 400 samples of [0, 10]."""
    spec = ModelSpec(N=5, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    t0 = time.perf_counter()
    tri = bilanczos(L, seed)
    lanczos_seconds = time.perf_counter() - t0
    t = np.linspace(0.0, 10.0, 400)
    m = moments(evolve_chain(tri, t))
    return tri, t, m, lanczos_seconds


@pytest.fixture(scope="module")
def n3_closed():
    spec = ModelSpec(N=3, g=-1.05, h=0.5)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    t = np.linspace(0.0, 10.0, 2001)
    m = moments(evolve_chain(tri, t))
    return tri, t, m


def test_criterion_01_closed_system_conservation():
    spec = ModelSpec(N=4, g=-1.05, h=0.5, alpha=0.0, gamma=0.0)
    t0 = time.perf_counter()
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    t = np.linspace(0.0, 10.0, 400)
    m = moments(evolve_chain(tri, t))
    elapsed = time.perf_counter() - t0
    dev = np.abs(m.P - 1.0).max()
    verdict("criterion 1 (closed-system conservation)",
            dev < 1e-8 and elapsed < 30.0,
            f"max|P-1| = {dev:.3e} (< 1e-8), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_02_biorthogonality_and_tridiagonality():
    spec = ModelSpec(N=4, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    verdict("criterion 2 (bi-orthogonality / tridiagonality)",
            tri.residual_biortho < 1e-10 and tri.residual_tridiag < 1e-8,
            f"max|Q*P - I| = {tri.residual_biortho:.3e} (< 1e-10), "
            f"max|LP - PT| = {tri.residual_tridiag:.3e} (< 1e-8)")


def test_criterion_03_oracle_equivalence():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    t0 = time.perf_counter()
    tri = bilanczos(L, seed)
    t = np.linspace(0.0, 5.0, 201)
    mc = moments(evolve_chain(tri, t))
    mo = direct_evolution_oracle(L, seed, tri, t)
    elapsed = time.perf_counter() - t0
    floor_C = 1e-12 * np.abs(mo.C).max()
    floor_P = 1e-12 * np.abs(mo.P).max()
    relC = (np.abs(mc.C - mo.C) / np.maximum(np.abs(mo.C), floor_C)).max()
    relP = (np.abs(mc.P - mo.P) / np.maximum(np.abs(mo.P), floor_P)).max()
    verdict("criterion 3 (oracle equivalence)",
            relC < 1e-6 and relP < 1e-6 and elapsed < 60.0,
            f"rel C = {relC:.3e}, rel P = {relP:.3e} (< 1e-6), "
            f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_04_dissipative_coefficient_structure(n5_dissipative):
    tri, _, _, _ = n5_dissipative
    n = min(50, tri.K)
    a, b, c = tri.a[:n], tri.b[:n - 1], tri.c[:n - 1]
    bc = np.abs(b - c).max() / np.abs(b).max()
    re_a = np.abs(a.real).max() / np.abs(a.imag).max()
    min_im = a.imag.min()
    verdict("criterion 4 (dissipative coefficient structure)",
            bc < 1e-6 and re_a < 1e-6 and min_im >= -1e-10,
            f"rel max|b-c| = {bc:.3e} (< 1e-6), "
            f"rel max|Re a| = {re_a:.3e} (< 1e-6), "
            f"min Im a = {min_im:.3e} (>= -1e-10)")


def test_criterion_05_dispersion_bound_and_decay(n5_dissipative):
    # The bound is stated for the dissipative chain (a = i|a|, b = c),
    # so the coefficients are projected onto that form before evolving.
    tri_raw, t, _, _ = n5_dissipative
    tri = project_dissipative_structure(tri_raw)
    m = moments(evolve_chain(tri, t))
    report = dispersion_bound_check(m, tri.b[0])
    worst = report.margin.min() / max(report.rhs.max(), 1e-300)
    peak_idx = int(np.argmax(m.C))
    peak = m.C[peak_idx]
    final = m.C[-1]
    decays = peak_idx > 0 and final <= 0.5 * peak
    verdict("criterion 5 (dispersion bound + complexity decay)",
            worst >= -1e-6 and decays,
            f"min margin / max rhs = {worst:.3e} (>= -1e-6); "
            f"C peak {peak:.4f} at t = {t[peak_idx]:.2f}, "
            f"C(10) = {final:.4f} ({final / peak:.1%} of peak, <= 50%)")


def test_criterion_06_bound_saturation():
    t0 = time.perf_counter()
    report = saturation_report(alpha0=1.0, gamma0=1.0, K=400)
    elapsed = time.perf_counter() - t0
    ratio = report.saturation_ratio
    ratio = ratio[np.isfinite(ratio)]   # t = 0 has lhs = rhs = 0
    lo, hi = ratio.min(), ratio.max()
    verdict("criterion 6 (bound saturation)",
            lo >= 0.9999 and hi <= 1.0 and elapsed < 10.0,
            f"lhs/rhs in [{lo:.10f}, {hi:.10f}] (within [0.9999, 1]), "
            f"runtime {elapsed:.1f}s (< 10s)")


def test_criterion_07_mandelstam_tamm_analogue(n3_closed):
    tri, _, m = n3_closed
    report = dispersion_bound_check(m, tri.b[0])
    mt = mandelstam_tamm_tau(report, tri.b[0])
    verdict("criterion 7 (evolution-speed limit)",
            mt.min_product >= 0.4999,
            f"min tau_K * b1 = {mt.min_product:.6f} (>= 0.4999) over "
            f"{int(mt.valid.sum())} valid samples")


def test_criterion_08_continuum_constant_dissipation():
    t = np.linspace(0.0, 3.0, 301)
    worst_rel = 0.0
    worst_P = 0.0
    for alpha, beta in ((0.01, 2.0), (3.0, 2.0)):
        spec = ContinuumSpec(case=CONSTANT_A, alpha=alpha, beta=beta)
        # Against the numerical solver: the report's closed characteristics
        # are the printed CONSTANT_A form itself, so they would agree
        # whatever that form said.  Same relative-difference rule as
        # continuum_vs_paper_report.
        C, P = analytic_C_P(spec, t)
        C_s, P_s = characteristics_solver(spec.b_of_x(), spec.a_of_x(), t)
        zero = np.abs(C_s) < 1e-15
        relC = np.abs(C - C_s) / np.maximum(np.abs(C_s), 1e-300)
        relC[zero] = np.abs(C - C_s)[zero]
        relP = np.abs(P - P_s) / np.maximum(np.abs(P_s), 1e-300)
        worst_rel = max(worst_rel, relC.max(), relP.max())
        worst_P = max(worst_P,
                      np.abs(P - np.exp(-2 * alpha * t)).max())
    verdict("criterion 8 (continuum, constant dissipation rate)",
            worst_rel < 1e-10 and worst_P < 1e-14,
            f"formula vs solver rel diff = {worst_rel:.3e} (< 1e-10), "
            f"max|P - exp(-2 a t)| = {worst_P:.3e} (machine precision)")


def test_criterion_09_continuum_linear_dissipation():
    t = np.linspace(0.0, 3.0, 301)
    # solver must reproduce the closed-form zero-dissipation limit
    spec0 = ContinuumSpec(case=LINEAR_A, alpha=0.0, beta=2.0)
    C, P = characteristics_solver(spec0.b_of_x(), spec0.a_of_x(), t)
    C_exact = (spec0.c / spec0.beta) * (np.exp(2 * spec0.beta * t) - 1)
    relC = (np.abs(C - C_exact)
            / np.maximum(np.abs(C_exact), 1e-12 * C_exact.max())).max()
    relP = np.abs(P - 1.0).max()
    # archive the discrepancy table against the printed dissipative form
    spec = ContinuumSpec(case=LINEAR_A, alpha=0.5, beta=1.0)
    rep = continuum_vs_paper_report(spec, t)
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, "linear_a_discrepancy.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_table(rep))
    verdict("criterion 9 (continuum, linear dissipation rate)",
            relC < 1e-10 and relP < 1e-10 and os.path.exists(path),
            f"zero-dissipation limit rel diff = {max(relC, relP):.3e} "
            f"(< 1e-10); discrepancy table archived at {path} "
            f"(max relP = {rep['relP'].max():.3e}, no tolerance asserted)")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "model": {"N": 3, "g": -1.05, "h": 0.5,
                  "alpha": 0.01, "gamma": 0.01},
        "t_max": 5.0,
        "n_samples": 101,
        "continuum": {"case": "constant_a", "alpha": 3.0, "beta": 2.0},
        "saturation": {"alpha0": 1.0, "gamma0": 1.0, "K": 100,
                       "t_max": 3.0, "n_samples": 301},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        code = main(["full", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"])
        assert code == 0
    csvs = sorted(p for p in os.listdir(outs[0]) if p.endswith(".csv"))
    identical = all((outs[0] / p).read_bytes() == (outs[1] / p).read_bytes()
                    for p in csvs)
    verdict("criterion 10 (determinism)", identical and len(csvs) >= 7,
            f"{len(csvs)} CSV artifacts byte-identical across two runs")


def test_criterion_11_scale_ceiling(n5_dissipative):
    tri, _, _, seconds = n5_dissipative
    verdict("criterion 11 (scale ceiling)",
            seconds < 300.0,
            f"N=5 tridiagonalization (dim 1024, K = {tri.K}) took "
            f"{seconds:.1f}s (< 300s); N=6 left as an optional long run")
