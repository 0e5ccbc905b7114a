import dataclasses
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from krylovflow import bound
from krylovflow.bilanczos import bilanczos
from krylovflow.bound import (dispersion_bound_check,
                              mandelstam_tamm_tau,
                              renormalized_bound_check,
                              saturating_coefficients, saturation_report,
                              bound_summary)
from krylovflow.cli import _bound_table, csv_table
from krylovflow.exceptions import NumericalFailure
from krylovflow.krylov_chain import STENCIL, MomentSeries, evolve_chain, \
    finite_diff, moments
from krylovflow.lindbladian import build_model_lindbladian, uniform_seed
from krylovflow.spin_algebra import ModelSpec
from tests.csv_tables import read_table
from tests.su11_chain import SU11_CASES, su11_chain, su11_moments
from tests.test_chain import forced_kernels, two_site_rotation


def two_site_moments(t_max=10.0, n=401):
    t = np.linspace(0, t_max, n)
    return moments(evolve_chain(two_site_rotation(), t))


def test_bound_trivial_at_zero():
    m = two_site_moments()
    report = dispersion_bound_check(m, b1=1.0)
    assert report.lhs[0] == pytest.approx(0.0, abs=1e-10)
    assert report.rhs[0] == pytest.approx(0.0, abs=1e-12)


def test_bound_closed_reduction():
    # with P identically 1, lhs = |dC/dt|^2
    m = two_site_moments()
    report = dispersion_bound_check(m, b1=1.0)
    dC = finite_diff(m.C, m.t)
    assert_allclose(report.lhs, dC ** 2, atol=1e-12)
    assert_allclose(report.rhs, 4 * (m.M2 - m.C ** 2), atol=1e-7)
    assert report.holds


def test_bound_two_site_saturates():
    # C = sin^2 t: |dC|^2 = sin^2(2t) and 4(M2 - C^2) = 4 sin^2 t cos^2 t,
    # so the bound is saturated identically.
    m = two_site_moments()
    report = dispersion_bound_check(m, b1=1.0)
    keep = report.rhs > 1e-4
    assert np.abs(report.saturation_ratio[keep] - 1.0).max() < 1e-5


def test_renormalized_matches_plain_closed():
    m = two_site_moments()
    plain = dispersion_bound_check(m, b1=1.0)
    renorm = renormalized_bound_check(m, b1=1.0)
    assert_allclose(renorm.lhs, plain.lhs, atol=1e-12)
    assert renorm.lhs[0] == pytest.approx(0.0, abs=1e-10)


def test_renormalized_identity_dissipative():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(8))
    t = np.linspace(0, 10, 400)
    m = moments(evolve_chain(tri, t))
    plain = dispersion_bound_check(m, tri.b[0])
    renorm = renormalized_bound_check(m, tri.b[0])
    scale = max(plain.lhs.max(), 1.0)
    assert np.abs(renorm.lhs - plain.lhs).max() < 1e-8 * scale


def test_variance_nilpotent_example():
    # from the 2x2 upper-triangular hand run: b1 = -1/2, c1 = 1/2
    L = np.array([[0, 1], [0, 0]], dtype=complex)
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    tri = bilanczos(L, v)
    var = tri.b[0] * tri.c[0]   # <L^2> - <L>^2 = (a0^2 + b1 c1) - a0^2
    assert var == pytest.approx(-0.25)


def test_variance_matches_dense_expectation():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(4)
    tri = bilanczos(L, seed)
    var = tri.b[0] * tri.c[0]
    mean = np.vdot(seed, L @ seed)
    second = np.vdot(seed, L @ (L @ seed))
    assert abs(var - (second - mean ** 2)) < 1e-12


def test_mandelstam_tamm_two_site():
    # C = sin^2 t with b1 = 1 saturates tau_K * b1 = 1/2 exactly away
    # from turning points.
    m = two_site_moments()
    report = dispersion_bound_check(m, b1=1.0)
    mt = mandelstam_tamm_tau(report, b1=1.0)
    assert mt.verdict
    vals = mt.tau_b1[mt.valid]
    assert np.abs(vals - 0.5).max() < 1e-4


def test_mandelstam_tamm_closed_three_site():
    spec = ModelSpec(N=3, g=-1.05, h=0.5)
    seed = uniform_seed(8)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    t = np.linspace(0, 10, 2001)
    m = moments(evolve_chain(tri, t))
    report = dispersion_bound_check(m, tri.b[0])
    mt = mandelstam_tamm_tau(report, tri.b[0])
    assert mt.min_product >= 0.4999


def test_mandelstam_tamm_excludes_turning_points():
    m = two_site_moments()
    report = dispersion_bound_check(m, b1=1.0)
    mt = mandelstam_tamm_tau(report, b1=1.0)
    assert not np.all(mt.valid)          # turning points exist on [0, 10]
    assert np.all(np.isnan(mt.tau_b1[~mt.valid]))


def test_tau_K_is_undefined_at_turning_points():
    # C = (t - t0)^2 turns at t0 = 1 + 1e-7, between two grid points: at
    # t = 1, |dC/dt| = 2e-7 is not 0 but under MT_NOISE_FLOOR of its
    # maximum, 2.  The MT check takes its samples from tau_K alone.
    t = np.linspace(0, 2, 201)
    C = (t - (1 + 1e-7)) ** 2
    m = MomentSeries(t=t, C=C, P=np.ones_like(t), M2=C ** 2 + 1.0, Ctilde=C)
    report = dispersion_bound_check(m, b1=1.0)
    assert_array_equal(np.flatnonzero(np.isnan(report.tau_K)), [100])
    mt = mandelstam_tamm_tau(dataclasses.replace(report, lhs=None), b1=1.0)
    assert_array_equal(mt.valid, ~np.isnan(report.tau_K))


@pytest.mark.parametrize("check", [dispersion_bound_check,
                                   renormalized_bound_check])
def test_bound_needs_stencil_samples(check):
    # A series that underflow cut to fewer samples than the derivative
    # stencils span fails in the library, with or without the CLI.
    m = two_site_moments(t_max=0.3, n=STENCIL - 1)
    with pytest.raises(NumericalFailure, match=re.escape(
            f"underflowed after {STENCIL - 1} sample(s); the bound needs "
            f"{STENCIL}")):
        check(m, b1=1.0)


def test_mandelstam_tamm_needs_a_defined_tau():
    report = dispersion_bound_check(two_site_moments(), b1=1.0)
    report = dataclasses.replace(report,
                                 tau_K=np.full_like(report.tau_K, np.nan))
    with pytest.raises(NumericalFailure, match="noise floor"):
        mandelstam_tamm_tau(report, b1=1.0)


def test_renormalized_check_rejects_vanished_probability():
    m = two_site_moments()
    P = m.P.copy()
    P[-1] = 0.0
    with pytest.raises(NumericalFailure, match="underflowed"):
        renormalized_bound_check(dataclasses.replace(m, P=P), b1=1.0)


def test_saturating_coefficients_small_n():
    tri = saturating_coefficients(2.0, 3.0, 4)
    assert tri.b[0] == pytest.approx(np.sqrt(3.0 / 2))  # n(n-1) = 0
    tri11 = saturating_coefficients(1.0, 1.0, 4)
    assert tri11.b[1] == pytest.approx(np.sqrt(1.5))
    assert_allclose(tri11.b, tri11.c)
    assert_allclose(tri11.a, 0.0)


def test_saturating_coefficients_asymptote():
    tri = saturating_coefficients(4.0, 1.0, 201)
    b200 = tri.b[199].real          # n = 200
    assert abs(b200 - np.sqrt(4.0) * 200 / 2) / b200 < 0.01


def test_saturating_coefficients_validation():
    with pytest.raises(ValueError):
        saturating_coefficients(-1.0, 1.0, 10)
    with pytest.raises(ValueError):
        saturating_coefficients(1.0, 1.0, 1)


@pytest.mark.parametrize("K", [400.0, 2.5, True])
def test_saturating_chain_length_must_be_an_integer(K):
    # 400.0 once passed and failed later in NumPy with a TypeError.
    with pytest.raises(ValueError, match="K = .* is not an integer"):
        saturating_coefficients(1.0, 1.0, K)
    assert saturating_coefficients(1.0, 1.0, np.int64(40)).K == 40


def test_saturation_report_ratio_near_one():
    report = saturation_report(1.0, 1.0, K=400, t_max=6.0, n_samples=1201)
    ratio = report.saturation_ratio
    ratio = ratio[np.isfinite(ratio)]
    assert ratio.min() >= 0.9999
    assert ratio.max() <= 1.0
    assert report.holds


def test_saturation_report_ratio_may_exceed_one_at_the_grid_end():
    # The horizon spans [0, 6] here, so the last two samples take the
    # one-sided stencils, and the second-to-last overestimates the slope:
    # a ratio of 1 + 5.9e-12, no violation.  The ratio is not clipped.
    report = saturation_report(alpha0=0.3, gamma0=2.0)
    ratio = report.saturation_ratio
    ratio = ratio[np.isfinite(ratio)]
    assert ratio.size == 1200
    assert report.holds
    assert np.abs(ratio - 1.0).max() <= 1e-10
    assert np.nanargmax(report.saturation_ratio) == report.t.size - 2


def test_saturation_report_ignores_only_the_truncation_tail(monkeypatch):
    # The report cuts at the trajectory's horizon and silences no warning:
    # an overflow inside the propagation reaches the caller, and no
    # truncation warning is raised, although the packet reaches K = 40.
    def evolve_with_overflow(tri, t):
        warnings.warn("overflow encountered in multiply", RuntimeWarning)
        return evolve_chain(tri, t)

    monkeypatch.setattr(bound, "evolve_chain", evolve_with_overflow)
    with pytest.warns(RuntimeWarning, match="overflow") as caught:
        saturation_report(1.0, 1.0, K=40, t_max=2.0, n_samples=201)
    assert not any("truncation tail" in str(w.message) for w in caught)


# Both reports stop at the tail cut-off: K = 40 at t = 1.79 of [0, 2], and
# the default K = 400 at t = 4.165 of [0, 6].
@pytest.mark.parametrize("kw", [dict(K=40, t_max=2.0, n_samples=201), {}],
                         ids=["tail_cut", "default"])
def test_saturation_report_is_the_plain_check_sliced(kw):
    report = saturation_report(1.0, 1.0, **kw)
    # The plain check on the mirror-extended series, built here anew.
    tri = saturating_coefficients(1.0, 1.0, kw.get("K", 400))
    t = np.linspace(0.0, kw.get("t_max", 6.0), kw.get("n_samples", 1201))
    m = moments(evolve_chain(tri, t))
    h = t[1] - t[0]
    mirror = lambda y: np.concatenate((y[2:0:-1], y))
    m_ext = type(m)(t=np.concatenate(([-2 * h, -h], m.t)), C=mirror(m.C),
                    P=mirror(m.P), M2=mirror(m.M2), Ctilde=mirror(m.Ctilde))
    full = dispersion_bound_check(m_ext, tri.b[0])
    n = report.t.size
    assert n < t.size
    sl = slice(2, 2 + n)
    for name in ("t", "lhs", "rhs", "margin", "tau_K", "saturation_ratio"):
        assert np.array_equal(getattr(report, name), getattr(full, name)[sl],
                              equal_nan=True), name
    assert_array_equal(report.violations, np.flatnonzero(
        full.margin[sl] < -1e-6 * full.rhs[sl].max()))
    assert bound_summary(report)["tol"] == 1e-6


# Largest error of the chain's lhs and rhs against those of the closed-form
# series, relative to their maxima over the horizon: the measured
# (2.1e-13, 1.4e-14), (6.5e-14, 3.2e-14) and (2.0e-8, 1.8e-8) times 10,
# rounded down.
SU11_BOUND_TOL = {"chi0.3": (2.1e-12, 1.3e-13), "chi1": (6.4e-13, 3.1e-13),
                  "chi0": (1.9e-7, 1.8e-7)}


@pytest.mark.parametrize("case", SU11_CASES)
def test_bound_matches_exact_su11_series(case, monkeypatch):
    # The same check on the chain's moments and on the closed-form series,
    # with each propagator kernel.
    (alpha, eta, chi), t, horizon = SU11_CASES[case]
    tri = su11_chain(alpha, eta, chi, 400)
    ref = dispersion_bound_check(su11_moments(alpha, eta, chi, t), tri.b[0])
    for kernel in forced_kernels(monkeypatch):
        report = dispersion_bound_check(moments(evolve_chain(tri, t)),
                                        tri.b[0])
        assert report.holds, kernel
        for name, rtol in zip(("lhs", "rhs"), SU11_BOUND_TOL[case]):
            x = getattr(report, name)[:horizon]
            y = getattr(ref, name)[:horizon]
            assert np.abs(x - y).max() <= rtol * np.abs(y).max(), \
                (kernel, name)


def test_bound_holds_on_small_models():
    for alpha, gamma in ((0.0, 0.0), (0.01, 0.01)):
        spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=alpha, gamma=gamma)
        L = build_model_lindbladian(spec)
        seed = uniform_seed(8)
        tri = bilanczos(L, seed)
        t = np.linspace(0, 10, 400)
        m = moments(evolve_chain(tri, t))
        report = dispersion_bound_check(m, tri.b[0])
        assert report.margin.min() >= -1e-6 * report.rhs.max()


def test_bound_csv_and_summary():
    m = two_site_moments()
    report = dispersion_bound_check(m, b1=1.0)
    report.tau_K[3] = np.nan  # as at a turning point of C
    text = csv_table(_bound_table(report))
    assert text.splitlines()[0] == "t,lhs,rhs,margin,tau_K"
    assert len(text.splitlines()) == m.t.size + 1
    assert text.splitlines()[4].endswith(",nan")
    table = read_table(text)
    for name in ("t", "lhs", "rhs", "margin", "tau_K"):
        back = np.array([float(x) for x in table[name]])
        assert_array_equal(back, getattr(report, name))  # 17 digits: exact
    summary = bound_summary(report)
    assert summary["verdict"] is True
    assert summary["n_violations"] == 0
