"""Thermodynamic-limit closed forms for C(t), P(t), checked against the
characteristics of the underlying transport PDE.

The continuum model has hopping b(x) = beta*x + c and decay rate a(x);
two cases are implemented:

  LINEAR_A   a(x) = alpha*x
  CONSTANT_A a(x) = alpha

``analytic_C_P`` evaluates the printed closed forms verbatim.
``exact_characteristics`` evaluates the characteristics of both cases in
closed form, and ``continuum_vs_paper_report`` tabulates the printed forms
against it.  The LINEAR_A printed form is internally inconsistent, so the
report shows the discrepancy instead of asserting agreement.  The tests
integrate the characteristics numerically (``tests/characteristics.py``),
the independent cross-check of the closed form.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalFailure

LINEAR_A = "linear_a"
CONSTANT_A = "constant_a"

EXP_GUARD = 300.0  # largest exponent fed to exp()


@dataclass(frozen=True)
class ContinuumSpec:
    case: str
    alpha: float
    beta: float
    c: float = 1.0

    def __post_init__(self):
        if self.case not in (LINEAR_A, CONSTANT_A):
            raise ValueError(f"unknown case {self.case!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.c <= 0:
            raise ValueError("c must be positive")


def _guarded_exp(z, exp=np.exp):
    z = np.asarray(z, dtype=float)
    if np.any(z > EXP_GUARD):   # a NaN passes; callers check the result
        raise NumericalFailure(f"exponent {np.nanmax(z):.3g} exceeds "
                               f"overflow guard {EXP_GUARD:g}")
    return exp(z)


def _along_characteristic(x_at, J_at):
    """(C, P) from the position x and the decay integral J at y = 2t."""
    if not np.all(np.isfinite(x_at)):
        raise NumericalFailure("characteristic position overflows")
    # P = exp(-J) overflows only for -J past the guard; a large J
    # underflows P toward 0.  NaN fails too.
    if not np.all(-J_at <= EXP_GUARD):
        raise NumericalFailure("decay integral is NaN or -J exceeds "
                               "overflow guard")
    P = np.exp(-J_at)
    return x_at * P, P


def analytic_C_P(spec, t):
    """Closed-form (C(t), P(t)) for the two continuum cases.

    LINEAR_A (a = alpha*x):
        C = (c/beta)(e^{2bt} - 1) exp[(2*alpha*c/beta)((1 - e^{2bt}) + 5t)]
        P = exp[(2*alpha*c/beta)((1 - e^{-2bt}) + 5t)]
    CONSTANT_A (a = alpha):
        C = (c/beta)(e^{2bt} - 1) e^{-2*alpha*t},  P = e^{-2*alpha*t}
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    al, be, c = spec.alpha, spec.beta, spec.c
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        grow = _guarded_exp(2.0 * be * t)
        x = (c / be) * (grow - 1.0)
        if spec.case == CONSTANT_A:
            P = _guarded_exp(-2.0 * al * t)
            C = x * P
        else:   # LINEAR_A: the exponents' sign mismatch is kept verbatim
            k = 2.0 * al * c / be
            C = x * _guarded_exp(k * ((1.0 - grow) + 5.0 * t))
            P = _guarded_exp(k * ((1.0 - np.exp(-2.0 * be * t)) + 5.0 * t))
    if not np.all(np.isfinite(C) & np.isfinite(P)):
        raise NumericalFailure("printed forms overflow the float range")
    return C, P


def exact_characteristics(spec, t_grid):
    """(C(t), P(t)) of ``spec`` by the characteristics, in closed form.

    The initial packet is a delta at x = 0 transported along the
    characteristic y(t) = 2t of the coordinate y with dy/dx = 1/b(x),
    decaying by J(y) = int_0^y a(x(y')) dy'.  For b(x) = beta*x + c, along
    y = 2t,

        x(y) = (c/beta) * expm1(beta*y),
        J(y) = alpha*y                    (CONSTANT_A)
             = (alpha/beta)(x(y) - c*y)   (LINEAR_A),

    and P = exp(-J), C = x*P.  beta*y and -J pass the overflow guard
    ``EXP_GUARD``, and x is finite, or :class:`NumericalFailure` is raised;
    a J past the guard only underflows P toward 0.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative")
    al, be, c = spec.alpha, spec.beta, spec.c
    y = 2.0 * t_grid
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        x = (c / be) * _guarded_exp(be * y, np.expm1)
        J = al * y if spec.case == CONSTANT_A else (al / be) * (x - c * y)
    return _along_characteristic(x, J)


def continuum_vs_paper_report(spec, t_grid):
    """Per-time relative differences, printed formulas vs characteristics.

    Returns a dict of aligned arrays: t, C_paper, P_paper, C_char, P_char,
    relC, relP.  Relative differences are |paper - char| / max(|char|, eps)
    with eps guarding the t = 0 zeros; one past the float range, where the
    characteristic P underflowed and the printed one did not, reads inf.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    C_p, P_p = analytic_C_P(spec, t_grid)
    C_c, P_c = exact_characteristics(spec, t_grid)
    eps = 1e-300
    with np.errstate(over="ignore"):
        relC = np.abs(C_p - C_c) / np.maximum(np.abs(C_c), eps)
        relP = np.abs(P_p - P_c) / np.maximum(np.abs(P_c), eps)
    relC[np.abs(C_c) < 1e-15] = np.abs(C_p - C_c)[np.abs(C_c) < 1e-15]
    return {"t": t_grid, "C_paper": C_p, "P_paper": P_p,
            "C_char": C_c, "P_char": P_c, "relC": relC, "relP": relP}
