"""Exact su(1,1) chains: closed-form references for the chain propagator,
the moments and the bound.

The chain b_n = c_n = alpha sqrt(n (n - 1 + eta)), a_n = i chi n has a
generator in su(1,1) (Parker et al., PRX 9, 041017 (2019), for chi = 0),
so in the convention of ``evolve_chain`` (dphi/dt = A phi)

    phi_n(t) = f(t) sqrt((eta)_n / n!) u(t)^n,
    u' = alpha - chi u - alpha u^2,  u(0) = 0,
    f' = -alpha eta u f,             f(0) = 1.

With x = u^2, |phi_n|^2 / P is a negative binomial law in n, which gives
P, C and M2 in closed form.  chi = 0 is ``saturating_coefficients(a0, g0)``
with alpha = sqrt(a0) / 2 and eta = 2 g0 / a0: u = tanh(alpha t) and P = 1.
"""

import numpy as np

from krylovflow.bilanczos import TERM_SYNTHETIC, TridiagonalData
from krylovflow.krylov_chain import MomentSeries


def su11_chain(alpha, eta, chi, K):
    """The K-site chain of the module docstring."""
    n = np.arange(1, K, dtype=float)
    b = (alpha * np.sqrt(n * (n - 1 + eta))).astype(complex)
    return TridiagonalData(a=1j * chi * np.arange(K, dtype=complex), b=b,
                           c=b.copy(), termination=TERM_SYNTHETIC)


def su11_moments(alpha, eta, chi, t):
    """C, P and M2 of the infinite chain on the grid t, as a MomentSeries.

    lam = sqrt(chi^2 + 4 alpha^2) and u+- = (-chi +- lam) / (2 alpha), the
    roots of alpha u^2 + chi u - alpha, with r = u+ / u- and
    e = exp(-lam t), give u = u+ (1 - e) / (1 - r e),
    int_0^t u = u+ [t + (r - 1) / (r lam) ln((1 - r e) / (1 - r))] and
    f^2 = exp(-2 alpha eta int_0^t u).  With x = u^2, P = f^2 (1 - x)^-eta,
    C = P eta x / (1 - x) and M2 = P (eta x / (1 - x)^2 + (C / P)^2).
    """
    t = np.asarray(t, dtype=float)
    lam = np.hypot(chi, 2.0 * alpha)
    u_plus, u_minus = (-chi + lam) / (2 * alpha), (-chi - lam) / (2 * alpha)
    r = u_plus / u_minus
    e = np.exp(-lam * t)
    u = u_plus * (1 - e) / (1 - r * e)
    int_u = u_plus * (t + (r - 1) / (r * lam) * np.log((1 - r * e) / (1 - r)))
    x = u ** 2
    P = np.exp(-2 * alpha * eta * int_u) * (1 - x) ** -eta
    mean = eta * x / (1 - x)
    M2 = P * (eta * x / (1 - x) ** 2 + mean ** 2)
    return MomentSeries(t=t, C=P * mean, P=P, M2=M2, Ctilde=mean)


# Parameters (alpha, eta, chi), time grid and the horizon of the K = 400
# chain on it: two cases with chi > 0, and chi = 0 as
# saturating_coefficients(1, 1, 400) on the grid of the saturation report.
SU11_CASES = {
    "chi0.3": ((0.5, 2.0, 0.3), np.linspace(0, 4, 401), 401),
    "chi1": ((1.0, 3.0, 1.0), np.linspace(0, 20, 401), 401),
    "chi0": ((0.5, 2.0, 0.0), np.linspace(0, 6, 1201), 834),
}
