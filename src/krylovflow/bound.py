"""Dispersion (speed-limit) bound on Krylov-complexity growth.

For a chain run with moments C(t), P(t), M2(t) the bound compares

    lhs(t) = |dP/dt * C - dC/dt|^2        (growth-rate side)
    rhs(t) = 4 |b1|^2 (M2 - C^2)          (variance side)

and holds when margin = rhs - lhs >= 0 up to finite-difference noise.
The renormalized form uses Ctilde = C/P and is algebraically identical.
Also provided: the Mandelstam-Tamm-style time scale tau_K = DeltaK/|dC/dt|
for closed systems and the synthetic coefficient family that saturates the
bound exactly.
"""

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .bilanczos import TERM_SYNTHETIC, TridiagonalData
from .exceptions import InvariantViolation, NumericalFailure
from .krylov_chain import evolve_chain, finite_diff, moments

BOUND_TOL = 1e-6          # relative noise floor for bound violations
IDENTITY_TOL = 1e-8       # renormalized-vs-plain lhs agreement
MT_NOISE_FLOOR = 1e-6     # |dC/dt| cutoff (relative) for tau_K samples


@dataclass
class BoundReport:
    t: np.ndarray
    lhs: np.ndarray               # |dP*C - dC|^2
    rhs: np.ndarray               # 4|b1|^2 (M2 - C^2)
    margin: np.ndarray            # rhs - lhs
    violations: np.ndarray        # indices with margin < -tol*max(rhs)
    tau_K: np.ndarray             # sqrt(M2 - C^2) / |dC|, nan where guarded
    saturation_ratio: np.ndarray  # lhs/rhs where rhs > 0, nan elsewhere
    tol: float = BOUND_TOL

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
    verdict: bool            # min_product >= 1/2 - tol
    tol: float


def _derivatives(m):
    """Finite-difference dC/dt and dP/dt on the series' uniform grid."""
    dC = finite_diff(m.C, m.t)
    dP = finite_diff(m.P, m.t)
    return dC, dP


def _variance(m):
    """Krylov-index variance M2 - C^2 (clipped at 0; Cauchy-Schwarz
    guarantees nonnegativity up to roundoff when P <= 1)."""
    return np.maximum(m.M2 - m.C ** 2, 0.0)


def _assemble(m, b1, lhs, tol):
    var = _variance(m)
    rhs = 4.0 * abs(b1) ** 2 * var
    margin = rhs - lhs
    floor = tol * max(float(rhs.max()), 0.0)
    violations = np.flatnonzero(margin < -floor)

    dC, _ = _derivatives(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.sqrt(var) / np.abs(dC)
    tau[np.abs(dC) == 0.0] = np.nan

    ratio = np.full_like(rhs, np.nan)
    pos = rhs > 0
    ratio[pos] = lhs[pos] / rhs[pos]

    return BoundReport(t=m.t, lhs=lhs, rhs=rhs, margin=margin,
                       violations=violations, tau_K=tau,
                       saturation_ratio=ratio, tol=tol)


def dispersion_bound_check(m, b1, tol=BOUND_TOL):
    """Evaluate the dispersion bound for a moment series.

    ``b1`` is the first off-diagonal coefficient of the run.  Violations
    smaller than ``tol * max(rhs)`` are attributed to finite-difference
    noise and not listed.
    """
    dC, dP = _derivatives(m)
    lhs = np.abs(dP * m.C - dC) ** 2
    return _assemble(m, b1, lhs, tol)


def renormalized_bound_check(m, b1, tol=BOUND_TOL):
    """Same bound written in terms of the renormalized complexity C/P.

    lhs' = |(1 - P) dP Ctilde + P dCtilde|^2, with dCtilde obtained from
    dC and dP by the quotient rule so that the algebraic identity
    lhs' == lhs survives the finite differencing.  A disagreement beyond
    1e-8 relative is an invariant violation.
    """
    if np.any(m.P <= 0):
        raise NumericalFailure("total probability underflowed to <= 0")
    dC, dP = _derivatives(m)
    dCt = (dC - m.Ctilde * dP) / m.P
    lhs = np.abs((1.0 - m.P) * dP * m.Ctilde + m.P * dCt) ** 2

    lhs_plain = np.abs(dP * m.C - dC) ** 2
    scale = max(float(lhs_plain.max()), 1.0)
    defect = float(np.abs(lhs - lhs_plain).max())
    if defect > IDENTITY_TOL * scale:
        raise InvariantViolation(
            f"renormalized lhs deviates from plain lhs by {defect:.3e} "
            f"(> {IDENTITY_TOL:.0e} * {scale:.3e})")
    return _assemble(m, b1, lhs, tol)


def mandelstam_tamm_tau(report, b1, tol=1e-4, noise_floor=MT_NOISE_FLOOR):
    """Check the speed-limit product tau_K * b1 >= 1/2 for a closed run.

    ``report`` must come from a closed-system bound check, where
    lhs = |dC/dt|^2; samples with |dC/dt| below ``noise_floor`` times its
    maximum (turning points of C) are excluded.
    """
    dC_abs = np.sqrt(report.lhs)
    valid = dC_abs > noise_floor * float(dC_abs.max())
    tau_b1 = np.full_like(dC_abs, np.nan)
    tau_b1[valid] = report.tau_K[valid] * abs(b1)
    if not np.any(valid):
        raise NumericalFailure("no samples above the |dC/dt| noise floor")
    min_product = float(np.nanmin(tau_b1[valid]))
    return MandelstamTammReport(t=report.t, tau_b1=tau_b1, valid=valid,
                                min_product=min_product,
                                verdict=min_product >= 0.5 - tol, tol=tol)


def saturating_coefficients(alpha0, gamma0, K):
    """Synthetic closed chain that saturates the dispersion bound.

    b_n = sqrt(alpha0 * n(n-1)/4 + gamma0 * n/2) for n = 1..K-1, with
    a_n = 0 and c_n = b_n.  Note the algebraic large-n asymptote is
    b_n -> sqrt(alpha0) * n / 2.
    """
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


def saturation_report(alpha0, gamma0, K=400, t_max=6.0, n_samples=1201,
                      tail_cutoff=1e-10, tol=BOUND_TOL):
    """Bound report for the saturating synthetic chain.

    The chain is evolved on [0, t_max]; the report is restricted to times
    where the packet has not reached the finite chain end
    (tail_mass < ``tail_cutoff``).  Because a_n = 0 makes C, P and M2
    exactly even in t, the series is mirror-extended across t = 0 so
    every reported derivative uses a central stencil; samples past the
    tail cutoff stay available as stencil neighbours but are not
    reported.
    """
    tri = saturating_coefficients(alpha0, gamma0, K)
    t = np.linspace(0.0, float(t_max), int(n_samples))
    with _warnings.catch_warnings():
        # The finite chain end is expected; the tail cutoff below handles it.
        _warnings.filterwarnings("ignore", message="truncation tail",
                                 category=RuntimeWarning)
        traj = evolve_chain(tri, t)
    m = moments(traj)

    h = t[1] - t[0]
    t_ext = np.concatenate(([-2 * h, -h], m.t))
    mirror = lambda y: np.concatenate((y[2:0:-1], y))
    m_ext = type(m)(t=t_ext, C=mirror(m.C), P=mirror(m.P),
                    M2=mirror(m.M2), Ctilde=mirror(m.Ctilde))
    full = dispersion_bound_check(m_ext, tri.b[0], tol)

    keep = traj.tail_mass[:m.t.size] < tail_cutoff
    stop = int(np.argmin(keep)) if not np.all(keep) else m.t.size
    sl = slice(2, 2 + stop)  # drop the two ghost samples, then the tail
    rhs = full.rhs[sl]
    margin = full.margin[sl]
    floor = tol * max(float(rhs.max()), 0.0)
    return BoundReport(t=full.t[sl], lhs=full.lhs[sl], rhs=rhs,
                       margin=margin,
                       violations=np.flatnonzero(margin < -floor),
                       tau_K=full.tau_K[sl],
                       saturation_ratio=full.saturation_ratio[sl], tol=tol)


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
        "tol": report.tol,
    }
