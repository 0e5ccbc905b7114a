"""Dispersion (speed-limit) bound on Krylov-complexity growth.

For a chain run with moments C(t), P(t), M2(t) the bound compares

    lhs(t) = |dP/dt * C - dC/dt|^2        (growth-rate side)
    rhs(t) = 4 |b1|^2 (M2 - C^2)          (variance side)

and holds when rhs - lhs >= -BOUND_TOL * max(rhs) (finite-difference noise).
The renormalized form uses Ctilde = C/P and agrees to IDENTITY_TOL.  Each
report has tau_K = DeltaK/|dC/dt|, NaN at turning points of C (|dC/dt| <=
MT_NOISE_FLOOR max|dC/dt|), for the Mandelstam-Tamm-style limit of closed
systems (MT_TOL).  Also: the synthetic chain that saturates the bound.
"""

from dataclasses import dataclass

import numpy as np

from .bilanczos import TERM_SYNTHETIC, TridiagonalData
from .exceptions import InvariantViolation, NumericalFailure, \
    require_integer
from .krylov_chain import STENCIL, evolve_chain, finite_diff, moments, \
    time_grid

BOUND_TOL = 1e-6          # relative noise floor for bound violations
IDENTITY_TOL = 1e-8       # renormalized-vs-plain lhs agreement
MT_TOL = 1e-4             # slack on the verdict tau_K * b1 >= 1/2
MT_NOISE_FLOOR = 1e-6     # |dC/dt| cutoff (relative): turning points


@dataclass
class BoundReport:
    t: np.ndarray
    lhs: np.ndarray               # |dP*C - dC|^2
    rhs: np.ndarray               # 4|b1|^2 (M2 - C^2)
    margin: np.ndarray            # rhs - lhs
    violations: np.ndarray        # indices with margin < -BOUND_TOL*max(rhs)
    tau_K: np.ndarray             # sqrt(M2 - C^2) / |dC|, nan at turning pts
    saturation_ratio: np.ndarray  # lhs/rhs where rhs > 0, nan elsewhere

    @property
    def holds(self):
        return self.violations.size == 0

    @property
    def max_violation(self):
        """Largest bound excess, max(lhs - rhs, 0) over all samples."""
        return abs(float(max(np.max(-self.margin), 0.0)))


@dataclass
class MandelstamTammReport:
    t: np.ndarray
    tau_b1: np.ndarray       # tau_K * b1 per sample, nan where excluded
    valid: np.ndarray        # boolean mask of samples above the noise floor
    min_product: float       # min of tau_b1 over valid samples
    verdict: bool            # min_product >= 1/2 - MT_TOL


def _plain_lhs(m):
    """|dP/dt * C - dC/dt|^2, dC/dt and dP/dt by finite differences."""
    if m.t.size < STENCIL:
        raise NumericalFailure(
            f"total probability underflowed after {m.t.size} sample(s); "
            f"the bound needs {STENCIL}")
    dC = finite_diff(m.C, m.t)
    dC[m.M2 == 0] = 0.0   # phi on n = 0 alone (t = 0): dC/dt is exactly 0
    dP = finite_diff(m.P, m.t)
    return np.abs(dP * m.C - dC) ** 2, dC, dP


def _report(m, b1, lhs, dC, keep=slice(None)):
    """Bound report of ``lhs`` against 4|b1|^2 (M2 - C^2) on the samples
    ``keep`` of ``m``; M2 - C^2 is clipped at 0 (Cauchy-Schwarz makes it
    nonnegative up to roundoff when P <= 1), and tau_K is NaN where |dC/dt|
    <= MT_NOISE_FLOOR times its maximum over those samples."""
    lhs, dC = lhs[keep], np.abs(dC[keep])
    var = np.maximum(m.M2[keep] - m.C[keep] ** 2, 0.0)
    rhs = 4.0 * abs(b1) ** 2 * var
    margin = rhs - lhs
    floor = BOUND_TOL * float(rhs.max())

    moving = dC > MT_NOISE_FLOOR * dC.max()
    tau = np.full_like(var, np.nan)
    tau[moving] = np.sqrt(var[moving]) / dC[moving]

    ratio = np.full_like(rhs, np.nan)
    pos = rhs > 0
    ratio[pos] = lhs[pos] / rhs[pos]

    return BoundReport(t=m.t[keep], lhs=lhs, rhs=rhs, margin=margin,
                       violations=np.flatnonzero(margin < -floor),
                       tau_K=tau, saturation_ratio=ratio)


def dispersion_bound_check(m, b1):
    """Evaluate the dispersion bound for a moment series.

    ``b1`` is the first off-diagonal coefficient of the run.  Violations
    smaller than ``BOUND_TOL * max(rhs)`` are attributed to
    finite-difference noise and not listed.
    """
    lhs, dC, _ = _plain_lhs(m)
    return _report(m, b1, lhs, dC)


def renormalized_bound_check(m, b1):
    """Same bound written in terms of the renormalized complexity C/P.

    lhs' = |(1 - P) dP Ctilde + P dCtilde|^2, with dCtilde obtained from
    dC and dP by the quotient rule so that the algebraic identity
    lhs' == lhs survives the finite differencing.  A disagreement beyond
    ``IDENTITY_TOL`` relative is an invariant violation.
    """
    if np.any(m.P <= 0):
        raise NumericalFailure("total probability underflowed to <= 0")
    lhs_plain, dC, dP = _plain_lhs(m)
    dCt = (dC - m.Ctilde * dP) / m.P
    lhs = np.abs((1.0 - m.P) * dP * m.Ctilde + m.P * dCt) ** 2

    scale = max(float(lhs_plain.max()), 1.0)
    defect = float(np.abs(lhs - lhs_plain).max())
    if defect > IDENTITY_TOL * scale:
        raise InvariantViolation(
            f"renormalized lhs deviates from plain lhs by {defect:.3e} "
            f"(> {IDENTITY_TOL:.0e} * {scale:.3e})")
    return _report(m, b1, lhs, dC)


def mandelstam_tamm_tau(report, b1):
    """Check the speed limit tau_K * b1 >= 1/2 - MT_TOL of a closed run.

    ``report`` must come from a closed-system bound check.  The valid
    samples are those where ``report.tau_K`` is defined: the report has
    already set it to NaN at the turning points of C.
    """
    valid = ~np.isnan(report.tau_K)
    tau_b1 = report.tau_K * abs(b1)
    if not np.any(valid):
        raise NumericalFailure("no samples above the |dC/dt| noise floor")
    min_product = float(np.nanmin(tau_b1[valid]))
    return MandelstamTammReport(t=report.t, tau_b1=tau_b1, valid=valid,
                                min_product=min_product,
                                verdict=min_product >= 0.5 - MT_TOL)


def saturating_coefficients(alpha0, gamma0, K):
    """Synthetic closed chain that saturates the dispersion bound.

    b_n = sqrt(alpha0 * n(n-1)/4 + gamma0 * n/2) for n = 1..K-1, with
    a_n = 0 and c_n = b_n.  Note the algebraic large-n asymptote is
    b_n -> sqrt(alpha0) * n / 2.
    """
    require_integer(K, "K")
    if alpha0 < 0 or gamma0 < 0:
        raise ValueError("alpha0 and gamma0 must be nonnegative")
    if K < 2:
        raise ValueError("K must be at least 2")
    n = np.arange(1, K, dtype=float)
    b = np.sqrt(alpha0 * n * (n - 1) / 4.0 + gamma0 * n / 2.0)
    return TridiagonalData(a=np.zeros(K, dtype=complex),
                           b=b.astype(complex), c=b.astype(complex),
                           residual_biortho=0.0, residual_tridiag=0.0,
                           termination=TERM_SYNTHETIC)


def saturation_report(alpha0=1.0, gamma0=1.0, K=400, t_max=6.0,
                      n_samples=1201):
    """Bound report for the saturating synthetic chain.

    The chain is evolved on ``time_grid(t_max, n_samples)``, which checks
    both arguments; the report is restricted to the
    trajectory's ``horizon``, the times where the packet has not reached
    the finite chain end, and lists violations beyond
    ``BOUND_TOL * max(rhs)`` of those times.  Because a_n = 0 makes C, P
    and M2 exactly even in t, the series is mirror-extended across t = 0
    so every reported derivative near t = 0 uses a central stencil; samples
    past the horizon stay available as stencil neighbours but are not
    reported.  Where the horizon spans the grid, the last two samples take
    the one-sided stencils of :func:`finite_diff`, and a ratio may exceed 1
    by the truncation error: 1 + 5.9e-12 at alpha0 = 0.3, gamma0 = 2.0,
    where the defaults stay in [1 - 1.6e-9, 1 - 4.1e-11].
    """
    tri = saturating_coefficients(alpha0, gamma0, K)
    t = time_grid(t_max, n_samples)
    traj = evolve_chain(tri, t)
    m = moments(traj)

    h = t[1] - t[0]
    mirror = lambda y: np.concatenate((y[2:0:-1], y))
    m_ext = type(m)(t=np.concatenate(([-2 * h, -h], m.t)), C=mirror(m.C),
                    P=mirror(m.P), M2=mirror(m.M2), Ctilde=mirror(m.Ctilde))
    lhs, dC, _ = _plain_lhs(m_ext)

    stop = min(traj.horizon, m.t.size)
    # Drop the two ghost samples, then the tail.
    return _report(m_ext, tri.b[0], lhs, dC, slice(2, 2 + stop))


def bound_summary(report):
    """JSON-ready summary of a bound report."""
    finite = report.saturation_ratio[np.isfinite(report.saturation_ratio)]
    sat_range = ([float(finite.min()), float(finite.max())]
                 if finite.size else None)
    return {
        "max_violation": report.max_violation,
        "n_violations": int(report.violations.size),
        "saturation_ratio_range": sat_range,
        "verdict": bool(report.holds),
        "tol": BOUND_TOL,
    }
