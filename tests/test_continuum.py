import itertools
import json
import os
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from krylovflow.cli import EXIT_NUMERICAL, csv_table, main
from krylovflow.continuum import (CONSTANT_A, LINEAR_A, ContinuumSpec,
                                  analytic_C_P, continuum_vs_paper_report,
                                  exact_characteristics)
from krylovflow.exceptions import NumericalFailure
from tests.characteristics import a_of_x, b_of_x, characteristics_solver
from tests.csv_tables import read_table


def test_analytic_at_zero():
    for case in (LINEAR_A, CONSTANT_A):
        spec = ContinuumSpec(case=case, alpha=0.7, beta=2.0)
        C, P = analytic_C_P(spec, 0.0)
        assert C == pytest.approx(0.0)
        assert P == pytest.approx(1.0)


def test_analytic_constant_a_closed_limit():
    spec = ContinuumSpec(case=CONSTANT_A, alpha=0.0, beta=1.0)
    C, P = analytic_C_P(spec, 1.0)
    assert C == pytest.approx(np.exp(2) - 1)
    assert P == pytest.approx(1.0)


def test_analytic_constant_a_values():
    spec = ContinuumSpec(case=CONSTANT_A, alpha=3.0, beta=2.0)
    C, P = analytic_C_P(spec, 0.5)
    assert C == pytest.approx((np.exp(2) - 1) / 2 * np.exp(-3), rel=1e-12)
    assert C == pytest.approx(0.159046, rel=1e-5)
    assert P == pytest.approx(np.exp(-3), rel=1e-12)
    assert P == pytest.approx(0.049787, rel=1e-5)


def test_solver_no_dissipation():
    beta = 1.5
    t = np.linspace(0, 2, 101)
    C, P = characteristics_solver(lambda x: beta * x + 1.0,
                                  lambda x: 0.0 * x, t)
    assert_allclose(P, 1.0, atol=1e-12)
    assert_allclose(C, (np.exp(2 * beta * t) - 1) / beta, rtol=1e-11)


@pytest.mark.parametrize("alpha,beta", [(0.01, 2.0), (3.0, 2.0)])
def test_solver_matches_constant_a(alpha, beta):
    spec = ContinuumSpec(case=CONSTANT_A, alpha=alpha, beta=beta)
    t = np.linspace(0, 3, 151)
    C_a, P_a = analytic_C_P(spec, t)
    C_s, P_s = characteristics_solver(b_of_x(spec), a_of_x(spec), t)
    assert (np.abs(C_s - C_a)
            / np.maximum(np.abs(C_a), 1e-30)).max() < 1e-10
    assert (np.abs(P_s - P_a) / P_a).max() < 1e-10


def test_solver_linear_a_quadrature():
    # a = alpha x along x(y) = (c/beta)(e^{beta y} - 1) integrates to
    # P(t) = exp[(2 alpha c / beta)((1 - e^{2 beta t})/(2 beta) + t)]
    alpha, beta, c = 3.0, 2.0, 1.0
    t = np.linspace(0, 1.5, 76)
    C_s, P_s = characteristics_solver(lambda x: beta * x + c,
                                      lambda x: alpha * x, t)
    P_ref = np.exp((2 * alpha * c / beta)
                   * ((1 - np.exp(2 * beta * t)) / (2 * beta) + t))
    assert (np.abs(P_s - P_ref) / P_ref).max() < 1e-9
    x_ref = (c / beta) * (np.exp(2 * beta * t) - 1)
    assert_allclose(C_s, x_ref * P_ref, rtol=1e-9)


@pytest.mark.parametrize("case,alpha,beta,c", itertools.product(
    (CONSTANT_A, LINEAR_A), (0.0, 0.5, 3.0), (1.0, 2.0), (1.0, 2.5)))
def test_exact_characteristics_match_the_solver(case, alpha, beta, c):
    # Relative to the column maximum: where P is tiny the solver's absolute
    # error in J (rtol 1e-13 of J) shows pointwise.
    spec = ContinuumSpec(case=case, alpha=alpha, beta=beta, c=c)
    t = np.linspace(0, 1, 101)
    exact = exact_characteristics(spec, t)
    solved = characteristics_solver(b_of_x(spec), a_of_x(spec), t)
    for e, s in zip(exact, solved):
        assert np.abs(e - s).max() <= 1e-11 * np.abs(s).max()


# beta*y past the guard (constant_a at t = 200); x past the float range at
# a huge c.
@pytest.mark.parametrize("case,alpha,beta,c,t_max", [
    (CONSTANT_A, 0.0, 2.0, 1.0, 200.0), (CONSTANT_A, 1.0, 1.0, 1e308, 1.0)])
def test_exact_characteristics_overflow_guard(case, alpha, beta, c, t_max):
    spec = ContinuumSpec(case=case, alpha=alpha, beta=beta, c=c)
    t = np.linspace(0, t_max, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="overflow"):
            exact_characteristics(spec, t)


# J past the guard on [0, 10] at two linear_a points, and J = inf at a huge
# alpha: P = exp(-J) underflows toward 0, which is no overflow.
@pytest.mark.parametrize("case,alpha,beta,c,t_max", [
    (LINEAR_A, 0.3, 0.5, 1.0, 10.0), (LINEAR_A, 3.0, 2.0, 1.0, 10.0),
    (CONSTANT_A, 1e308, 1.0, 1.0, 1.0)])
def test_exact_characteristics_underflow_past_the_guard(case, alpha, beta, c,
                                                        t_max):
    spec = ContinuumSpec(case=case, alpha=alpha, beta=beta, c=c)
    t = np.linspace(0, t_max, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C, P = exact_characteristics(spec, t)
    assert np.all(np.isfinite(C)) and np.all(np.isfinite(P))
    assert P[0] == 1.0 and P[-1] == 0.0 and C[-1] == 0.0


def test_exact_characteristics_nan_decay_integral_fails():
    # alpha = inf makes J = inf * 0 = NaN at t = 0.
    spec = ContinuumSpec(case=CONSTANT_A, alpha=np.inf, beta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="decay integral"):
            exact_characteristics(spec, np.linspace(0, 1, 5))


def test_continuum_with_underflowing_probability_exits_ok(tmp_path):
    # J = 2 alpha t reaches 400 > EXP_GUARD: P >= exp(-400) ~ 1.9e-174.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "t_max": 10.0, "n_samples": 400,
        "continuum": {"case": "constant_a", "alpha": 20.0, "beta": 2.0}}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["continuum", "--config", str(cfg_path), "--out",
                     str(out), "--quiet"]) == 0
    table = read_table((out / "continuum.csv").read_text())
    P = np.array([float(x) for x in table["P_char"]])
    C = np.array([float(x) for x in table["C_char"]])
    assert np.all(np.isfinite(C)) and np.all(np.isfinite(P))
    assert 0.0 < P[-1] <= np.exp(-399.0)


def test_continuum_past_the_guard_exits_numerical(tmp_path):
    # beta * y = 400 at t = 10: the characteristic position overflows.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "t_max": 10.0, "n_samples": 400,
        "continuum": {"case": "constant_a", "alpha": 0.0, "beta": 20.0}}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["continuum", "--config", str(cfg_path), "--out",
                     str(out), "--quiet"]) == EXIT_NUMERICAL
    assert os.listdir(out) == ["error.json"]
    assert json.loads((out / "error.json").read_text())["error"] \
        == "numerical"


def test_report_constant_a_agreement():
    spec = ContinuumSpec(case=CONSTANT_A, alpha=3.0, beta=2.0)
    report = continuum_vs_paper_report(spec, np.linspace(0, 3, 61))
    assert report["relC"].max() < 1e-10
    assert report["relP"].max() < 1e-10


def test_report_linear_a_closed_limit():
    spec = ContinuumSpec(case=LINEAR_A, alpha=0.0, beta=2.0)
    report = continuum_vs_paper_report(spec, np.linspace(0, 2, 41))
    assert report["relC"].max() < 1e-10
    assert report["relP"].max() < 1e-10


def test_report_linear_a_discrepancy_documented():
    # printed linear-a forms disagree with the exact characteristics; the
    # report tabulates (does not hide) the discrepancy
    spec = ContinuumSpec(case=LINEAR_A, alpha=3.0, beta=2.0)
    report = continuum_vs_paper_report(spec, np.linspace(0, 1, 21))
    assert report["relP"].max() > 1e-3
    text = csv_table(report)
    header = "t,C_paper,P_paper,C_char,P_char,relC,relP"
    assert text.splitlines()[0] == header
    for name, cells in read_table(text).items():
        assert_array_equal([float(x) for x in cells], report[name])


def test_solver_probability_non_increasing():
    spec = ContinuumSpec(case=LINEAR_A, alpha=0.5, beta=1.0)
    _, P = characteristics_solver(b_of_x(spec), a_of_x(spec),
                                  np.linspace(0, 2, 101))
    assert np.diff(P).max() <= 1e-14


def test_constant_a_factorization():
    # C(t) = C_{alpha=0}(t) * P(t) for both formula and solver
    t = np.linspace(0, 2, 41)
    spec = ContinuumSpec(case=CONSTANT_A, alpha=1.3, beta=2.0)
    spec0 = ContinuumSpec(case=CONSTANT_A, alpha=0.0, beta=2.0)
    C, P = analytic_C_P(spec, t)
    C0, _ = analytic_C_P(spec0, t)
    assert_allclose(C, C0 * P, rtol=1e-12)
    C_s, P_s = characteristics_solver(b_of_x(spec), a_of_x(spec), t)
    C0_s, _ = characteristics_solver(b_of_x(spec0), a_of_x(spec0), t)
    assert_allclose(C_s, C0_s * P_s, rtol=1e-9)


def test_solver_on_an_all_zero_grid():
    # No characteristic is integrated: the packet is still at x = 0.
    spec = ContinuumSpec(case=LINEAR_A, alpha=3.0, beta=2.0, c=2.5)
    for C, P in (characteristics_solver(lambda x: 1.0, lambda x: 1.0,
                                        [0.0, 0.0]),
                 exact_characteristics(spec, [0.0, 0.0])):
        assert_array_equal(C, [0.0, 0.0])
        assert_array_equal(P, [1.0, 1.0])


def test_negative_time_rejected():
    spec = ContinuumSpec(case=LINEAR_A, alpha=0.7, beta=2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        analytic_C_P(spec, [0.0, -0.1])
    with pytest.raises(ValueError, match="nonnegative"):
        characteristics_solver(b_of_x(spec), a_of_x(spec), [0.0, -0.1])
    with pytest.raises(ValueError, match="nonnegative"):
        exact_characteristics(spec, [0.0, -0.1])


# LINEAR_A at alpha = 1000 on [0, 1]: C, evaluated before P, overflowed a
# bare exp with a RuntimeWarning before P's guard raised.  C's exponent,
# never larger than P's, goes through the guard too.
@pytest.mark.parametrize("spec,t", [
    (ContinuumSpec(case=CONSTANT_A, alpha=0.0, beta=2.0), 200.0),
    (ContinuumSpec(case=LINEAR_A, alpha=1000.0, beta=1.0),
     np.linspace(0.0, 1.0, 400))], ids=["constant_a", "linear_a"])
def test_overflow_guard(spec, t):
    with pytest.raises(NumericalFailure):
        analytic_C_P(spec, t)


def test_solver_rejects_nonpositive_hopping():
    with pytest.raises(NumericalFailure):
        characteristics_solver(lambda x: -1.0, lambda x: 0.0,
                               np.linspace(0, 1, 11))


def test_spec_validation():
    with pytest.raises(ValueError):
        ContinuumSpec(case="bogus", alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ContinuumSpec(case=LINEAR_A, alpha=-1.0, beta=1.0)
    with pytest.raises(ValueError):
        ContinuumSpec(case=LINEAR_A, alpha=1.0, beta=0.0)
    with pytest.raises(ValueError):
        ContinuumSpec(case=LINEAR_A, alpha=1.0, beta=1.0, c=0.0)
