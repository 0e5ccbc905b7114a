"""Thermodynamic-limit closed forms for C(t), P(t) and a characteristics
solver for the underlying transport PDE.

The continuum model has hopping b(x) = beta*x + c and decay rate a(x);
two closed-form cases are implemented:

  LINEAR_A   a(x) = alpha*x
  CONSTANT_A a(x) = alpha

``analytic_C_P`` evaluates the printed closed forms verbatim.  The
LINEAR_A printed form is internally inconsistent (see
``characteristics_solver``); the solver is the PDE-faithful reference and
``continuum_vs_paper_report`` tabulates the discrepancy instead of
asserting agreement.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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

    def a_of_x(self):
        if self.case == LINEAR_A:
            return lambda x: self.alpha * x
        return lambda x: self.alpha + 0.0 * x   # keeps the shape of x

    def b_of_x(self):
        return lambda x: self.beta * x + self.c


def _guarded_exp(z):
    z = np.asarray(z, dtype=float)
    if np.any(z > EXP_GUARD):
        raise NumericalFailure(
            f"exponent {z.max():.3g} exceeds overflow guard {EXP_GUARD:g}")
    return np.exp(z)


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
    grow = _guarded_exp(2.0 * be * t)
    if spec.case == CONSTANT_A:
        P = np.exp(-2.0 * al * t)
        C = (c / be) * (grow - 1.0) * P
        return C, P
    # LINEAR_A, printed forms (note the sign mismatch in the exponents
    # between C and P; kept verbatim, arbitrated by the solver)
    k = 2.0 * al * c / be
    C = (c / be) * (grow - 1.0) * np.exp(k * ((1.0 - grow) + 5.0 * t))
    P = _guarded_exp(k * ((1.0 - np.exp(-2.0 * be * t)) + 5.0 * t))
    return C, P


def characteristics_solver(b, a, t_grid, rtol=1e-13, atol=1e-14):
    """Solve the continuum transport problem by characteristics.

    The initial packet is a delta at x = 0 transported along the
    characteristic y(t) = 2t of the advected coordinate y defined by
    dy/dx = 1/b(x).  Solving dx/dy = b(x) with x(0) = 0 and accumulating
    J(y) = int_0^y a(x(y')) dy' gives

        P(t) = exp(-J(2t)),   C(t) = x(2t) * P(t).

    ``b`` must stay positive on the reached interval; ``a`` nonnegative.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative")
    y_end = 2.0 * float(t_grid.max())

    def rhs(y, state):
        x = state[0]
        bx = b(x)
        if bx <= 0:
            raise NumericalFailure(f"b(x) = {bx:.3g} <= 0 at x = {x:.6g}")
        return [bx, a(x)]

    if y_end == 0.0:
        x_at = np.zeros_like(t_grid)
        J_at = np.zeros_like(t_grid)
    else:
        sol = solve_ivp(rhs, (0.0, y_end), [0.0, 0.0], method="DOP853",
                        t_eval=2.0 * t_grid, rtol=rtol, atol=atol,
                        dense_output=False)
        if not sol.success:
            raise NumericalFailure(
                f"characteristic integration failed: {sol.message}")
        x_at, J_at = sol.y
    if np.any(J_at > EXP_GUARD):
        raise NumericalFailure("decay integral exceeds overflow guard")
    P = np.exp(-J_at)
    C = x_at * P
    return C, P


def continuum_vs_paper_report(spec, t_grid):
    """Per-time relative differences, printed formulas vs solver.

    Returns a dict of aligned arrays: t, C_paper, P_paper, C_char, P_char,
    relC, relP.  Relative differences are |paper - char| / max(|char|, eps)
    with eps guarding the t = 0 zeros.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    C_p, P_p = analytic_C_P(spec, t_grid)
    C_s, P_s = characteristics_solver(spec.b_of_x(), spec.a_of_x(), t_grid)
    eps = 1e-300
    relC = np.abs(C_p - C_s) / np.maximum(np.abs(C_s), eps)
    relC[np.abs(C_s) < 1e-15] = np.abs(C_p - C_s)[np.abs(C_s) < 1e-15]
    relP = np.abs(P_p - P_s) / np.maximum(np.abs(P_s), eps)
    return {"t": t_grid, "C_paper": C_p, "P_paper": P_p,
            "C_char": C_s, "P_char": P_s, "relC": relC, "relP": relP}
