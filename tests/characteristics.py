"""The continuum transport problem integrated numerically: the independent
cross-check of :func:`krylovflow.continuum.exact_characteristics`.

The pipeline evaluates the characteristics in closed form; only the tests
integrate them, so this solver and its ``scipy.integrate`` import live here.
"""

import numpy as np
from scipy.integrate import solve_ivp

from krylovflow.continuum import LINEAR_A, _along_characteristic
from krylovflow.exceptions import NumericalFailure

SOLVER_RTOL = 1e-13  # DOP853 tolerances of the characteristics solver
SOLVER_ATOL = 1e-14


def a_of_x(spec):
    """The decay rate a(x) of a ``ContinuumSpec``."""
    if spec.case == LINEAR_A:
        return lambda x: spec.alpha * x
    return lambda x: spec.alpha + 0.0 * x   # keeps the shape of x


def b_of_x(spec):
    """The hopping b(x) = beta*x + c of a ``ContinuumSpec``."""
    return lambda x: spec.beta * x + spec.c


def characteristics_solver(b, a, t_grid):
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
                        t_eval=2.0 * t_grid, rtol=SOLVER_RTOL,
                        atol=SOLVER_ATOL, dense_output=False)
        if not sol.success:
            raise NumericalFailure(
                f"characteristic integration failed: {sol.message}")
        x_at, J_at = sol.y
    return _along_characteristic(x_at, J_at)
