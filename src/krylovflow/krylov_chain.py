"""Amplitude evolution on the Krylov chain and moment extraction.

The two chain recursions

    dphi_n/dt   =  i a_n phi_n   - b_{n+1} phi_{n+1} + c_n phi_{n-1}
    dpsi*_n/dt  = -i a*_n psi*_n - c*_{n+1} psi*_{n+1} + b*_n psi*_{n-1}

define two tridiagonal K x K generators, A_phi and A_psi*. Both amplitude
vectors are propagated exactly, as exp(t A) e0 on the whole uniform time
grid, by a Taylor propagator for tridiagonal generators (algorithm 5.2 of
Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011); each Taylor term is one
product of the stacked diagonals with a sliding window of the last term.
psi is not assumed equal to phi: only when the two generators agree entry
for entry (a_n purely imaginary and b_n = c*_n, as on every projected
chain) is psi* taken to be phi. That holds exactly either way; propagating
the K-system alone instead of the 2K block system only saves time.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import expm
from scipy.linalg.blas import idamax

from .exceptions import NumericalFailure
from .lindbladian import as_matrix

TAIL_CUTOFF = 1e-10   # last-site mass that signals chain truncation
P_UNDERFLOW = 1e-300


@dataclass
class ChainTrajectory:
    t: np.ndarray          # time grid
    phi: np.ndarray        # K x T, real when the chain generator is
    psi: np.ndarray        # K x T (psi_n(t), un-starred)
    tail_mass: np.ndarray  # |phi_{K-1}|^2 per time
    # always 0; kept only because perfbench/worker.py reads it
    refinements: int = 0


@dataclass
class MomentSeries:
    t: np.ndarray
    C: np.ndarray          # Re sum_n n psi*_n phi_n
    P: np.ndarray          # sum_n |phi_n|^2
    M2: np.ndarray         # sum_n n^2 |phi_n|^2
    Ctilde: np.ndarray     # C / P
    imag_residue: float = 0.0   # max |Im sum n psi*_n phi_n|
    # Re sum_n psi*_n phi_n; set only when it differs from P, not written out
    P_overlap: np.ndarray = None


def chain_generators(tri):
    """Sparse generators for phi and for psi* (see module docstring)."""
    a = np.asarray(tri.a, dtype=complex)
    b = np.asarray(tri.b, dtype=complex)
    c = np.asarray(tri.c, dtype=complex)
    K = len(a)
    A_phi = sp.diags(
        [1j * a, -b, c], offsets=[0, 1, -1], shape=(K, K), format="csr",
        dtype=complex)
    A_psi_star = sp.diags(
        [-1j * a.conj(), -c.conj(), b.conj()], offsets=[0, 1, -1],
        shape=(K, K), format="csr", dtype=complex)
    return A_phi, A_psi_star


def _uniform_step(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2:
        raise ValueError("time grid needs at least 2 points")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform")
    return t, float(dt[0])


# theta_m of Al-Mohy & Higham (2011), table 3.1, in double precision: the
# truncated Taylor series of degree m, applied s times to exp(tA / s), is
# accurate to unit roundoff once the relevant norm of tA / s is below
# theta_m.  The entries m <= 30 are from Higham & Al-Mohy, Acta Numer. 19
# (2010), table A.3.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_M_MAX = 55
_P_MAX = 8            # largest p with p (p - 1) <= _M_MAX + 1
_ELL = 2              # norm-estimate columns the bound (3.13) assumes
_TOL = 2.0 ** -53


def _power_norms(A):
    """Exact 1-norms of A^p, p = 1 .. _P_MAX + 1, for a sparse banded A.

    A tridiagonal A has a (2p + 1)-diagonal A^p, so the powers stay cheap.
    """
    norms = np.empty(_P_MAX + 1)
    P = A
    for p in range(_P_MAX + 1):
        if p:
            P = P @ A
        norms[p] = abs(P).sum(axis=0).max()
    return norms


def _taylor_parameters(norms, t):
    """Taylor degree m and substep count s for exp(tA): fragment (3.1).

    ``norms`` are the 1-norms of A^p from :func:`_power_norms`; the pair
    minimizes the matvec count m s subject to the accuracy bound.
    """
    one_norm = t * norms[0]
    if one_norm == 0:
        return 0, 1
    # Condition (3.13): when it holds, ||tA||_1 alone sets s.
    if one_norm <= (2 * _ELL * _P_MAX * (_P_MAX + 3)
                    * _THETA[_M_MAX] / _M_MAX):
        cost = [(m, int(np.ceil(one_norm / theta)))
                for m, theta in _THETA.items()]
    else:
        d = t * norms ** (1.0 / np.arange(1, _P_MAX + 2))   # d_p, p = 1..
        cost = [(m, int(np.ceil(max(d[p - 1], d[p]) / _THETA[m])))
                for p in range(2, _P_MAX + 1)
                for m in _THETA if m >= p * (p - 1) - 1]
    m, s = min(cost, key=lambda ms: ms[0] * ms[1])
    return m, max(s, 1)


def _inf_norm(x):
    return np.abs(x).max()


def _real_inf_norm(x):
    return abs(x[idamax(x)])   # BLAS; the same value as _inf_norm


def _propagate(A, y0, h, q):
    """exp(k h A) y0 for k = 0 .. q, as the rows of a (q + 1) x n array.

    A is a sparse tridiagonal matrix.  This is algorithm 5.2 of Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33 (2011): A is shifted by its mean
    diagonal mu, and the Taylor degree m and substep count s for [0, q h]
    come from exact 1-norms of powers of the shifted A.  One Taylor loop
    walks [0, q h] in blocks.  If q > s, a block is d = q // s grid steps
    (the last one shorter when d does not divide q).  Otherwise the plan
    for one grid step sets m and a substep count r, a block is one
    substep of h / r, and every r-th block ends on a grid point.  A block
    of length tau sums T_p = (tau A)^p Z / p! from its first point Z into
    its last point, cut once two successive terms fall below unit roundoff
    of the sum; its inner points sum_p (k h / tau)^p T_p are one matrix
    product.  The terms are the rows of a zero-padded array, so T_p sums the
    stacked diagonals of (tau / p) A times the (3, n) sliding window of
    T_{p-1}.  The arithmetic is real when A and y0 are (norms from idamax).
    """
    n = y0.size
    mu = A.diagonal().mean()
    A = A - mu * sp.eye(n, dtype=A.dtype, format="csr")
    norms = _power_norms(A)
    m, s = _taylor_parameters(norms, q * h)
    r, d = 1, max(q // s, 1)
    if q <= s:
        m, r = _taylor_parameters(norms, h)
    X = np.empty((q + 1, n), dtype=np.result_type(A.dtype, y0.dtype))
    X[0] = y0
    D = np.zeros((3, n), dtype=X.dtype)   # D[:, i] multiplies x[i-1:i+2]
    D[0, 1:], D[1], D[2, :-1] = A.diagonal(-1), A.diagonal(), A.diagonal(1)
    T = np.zeros((m + 1, n + 2), dtype=X.dtype)
    T[0, 1:-1] = y0
    C = np.empty((m, 3, n), dtype=X.dtype)   # (tau / p) D for p = 1 .. m
    S = np.empty((3, n), dtype=X.dtype)
    # views made once: they are indexed per term
    rows, inner, coefs = list(T), list(T[:, 1:-1]), list(C)
    windows = list(np.moveaxis(sliding_window_view(T, 3, axis=1), 2, 1))
    norm = _real_inf_norm if X.dtype == np.float64 else _inf_norm
    for start in range(0, q * r, d):
        size = min(d, q * r - start)
        if start == 0 or size < d:   # all blocks but the last have size d
            tau_p = size * h / r / np.arange(1, m + 1)
            np.multiply(D.view(np.float64), tau_p[:, None, None],
                        out=C.view(np.float64))   # real view: same values
        c1 = F_norm = norm(rows[0])
        p = 0
        for p in range(1, m + 1):
            np.multiply(coefs[p - 1], windows[p - 1], out=S)
            np.add.reduce(S, axis=0, out=inner[p])
            c2 = norm(rows[p])
            # F_norm bounds ||F|| from above, so the sum F is only formed
            # once the cut-off test can pass.
            F_norm += c2
            if c1 + c2 <= _TOL * F_norm:
                F = np.add.reduce(T[:p + 1], axis=0)
                F_norm = norm(F)
                if c1 + c2 <= _TOL * F_norm:
                    break
            c1 = c2
        else:
            F = np.add.reduce(T[:p + 1], axis=0)
        if size > 1:
            k = np.arange(1, size)[:, None]
            W = np.exp(k * h * mu) * (k / size) ** np.arange(p + 1)
            X[start + 1:start + size] = (W @ T[:p + 1])[:, 1:-1]
        np.multiply(F, np.exp(size * h * mu / r), out=rows[0])
        if (start + size) % r == 0:
            X[(start + size) // r] = inner[0]
    return X


def evolve_chain(tri, t_grid):
    """Propagate both chain recursions on ``t_grid`` (uniform, starting at 0).

    The amplitudes at every grid point are exp(t A) e0 for the sparse chain
    generators, evaluated by :func:`_propagate`, which picks its own Taylor
    degree and substeps to double-precision accuracy; a real generator is
    propagated in real arithmetic and gives real amplitudes.  When the two
    generators are entry-for-entry equal (a purely imaginary and b = c*, as
    for every projected chain and the saturating chain) psi* obeys the same
    equation as phi, so only phi is propagated and psi* is set equal to it;
    otherwise both are propagated as one block system.  The block system
    would give the same amplitudes in the equal case too; the K-system
    alone only halves the work.  A chain that is not ``tri.complete`` warns
    once its last-site mass passes ``TAIL_CUTOFF``.  Raises
    NumericalFailure if the result is not finite.
    """
    t, _ = _uniform_step(t_grid)
    if abs(t[0]) > 1e-12:
        raise ValueError("time grid must start at 0")
    A_phi, A_psi = chain_generators(tri)
    K = tri.K
    e0 = np.zeros(K, dtype=complex)
    e0[0] = 1.0
    if (A_phi != A_psi).nnz == 0:
        A, y0 = A_phi, e0
    else:
        A = sp.block_diag([A_phi, A_psi], format="csr")
        y0 = np.concatenate([e0, e0])
    if not np.any(A.data.imag):   # every projected chain
        A, y0 = A.real, y0.real
    q = t.size - 1
    Y = _propagate(A, y0, t[-1] / q, q).T
    if not np.all(np.isfinite(Y)):
        raise NumericalFailure("chain propagation produced non-finite values")

    phi = Y[:K, :]
    psi_star = Y[-K:, :]
    tail = np.abs(phi[-1, :]) ** 2
    # On a complete chain the last-site amplitude is physical.
    if not tri.complete and tail.max() > TAIL_CUTOFF:
        warnings.warn(
            f"truncation tail |phi_K-1|^2 reached {tail.max():.3e} "
            f"(cutoff {TAIL_CUTOFF:.1e}); results beyond that time are "
            "affected by the finite chain", RuntimeWarning)
    return ChainTrajectory(t=t, phi=phi, psi=psi_star.conj(),
                           tail_mass=tail)


def moments(traj):
    """Complexity, probability and second moment of a chain trajectory."""
    phi = traj.phi
    psi_star = traj.psi.conj()
    K = phi.shape[0]
    n_idx = np.arange(K)[:, None]

    P = np.sum(np.abs(phi) ** 2, axis=0)
    cross = np.sum(n_idx * psi_star * phi, axis=0)
    C = cross.real
    imag_residue = float(np.abs(cross.imag).max())
    M2 = np.sum(n_idx ** 2 * np.abs(phi) ** 2, axis=0)
    P_overlap = np.sum(psi_star * phi, axis=0).real

    t = traj.t
    under = P < P_UNDERFLOW
    if np.any(under):
        stop = int(np.argmax(under))
        warnings.warn(
            f"total probability underflowed below {P_UNDERFLOW:.0e} at "
            f"t = {t[stop]:.4g}; series truncated", RuntimeWarning)
        t, C, P, M2, P_overlap = (x[:stop] for x in (t, C, P, M2, P_overlap))

    Ctilde = C / P
    ms = MomentSeries(t=t, C=C, P=P, M2=M2, Ctilde=Ctilde,
                      imag_residue=imag_residue)
    if np.abs(P_overlap - P).max() > 1e-8 * max(P.max(), 1.0):
        ms.P_overlap = P_overlap
    return ms


def direct_evolution_oracle(L, seed, tri, t_grid):
    """Moments from full-superoperator evolution, bypassing the chain ODE.

    The ket evolves as dv/dt = i L v; a dual vector evolves under the adjoint
    generator, dw/dt = -i L' w. Amplitudes come from projection on the stored
    bi-orthogonal bases: phi_n = (-i)^n (q_n' v), psi*_n = i^n (p_n' w).
    Moments are then computed by the same code path as for chain trajectories.
    """
    if tri.p_basis is None or tri.q_basis is None:
        raise ValueError("direct evolution oracle requires stored bases")
    A = as_matrix(L)
    if A.shape[0] > 4096:
        raise ValueError("oracle limited to superoperator dimension <= 4096")
    if sp.issparse(A):
        A = A.toarray()
    t, dt = _uniform_step(t_grid)

    E = expm(1j * dt * A)
    Eh = E.conj().T  # exp(-i L' dt), propagates the dual vector

    # Rows of V and W are v and w at the grid points.
    V = np.empty((t.size, A.shape[0]), dtype=complex)
    W = np.empty_like(V)
    V[0] = W[0] = seed
    for k in range(1, t.size):
        V[k] = E @ V[k - 1]
        W[k] = Eh @ W[k - 1]
    n_idx = np.arange(tri.K)[:, None]
    phi = (-1j) ** n_idx * (tri.q_basis.conj().T @ V.T)
    psi_star = (1j) ** n_idx * (tri.p_basis.conj().T @ W.T)

    traj = ChainTrajectory(t=t, phi=phi, psi=psi_star.conj(),
                           tail_mass=np.abs(phi[-1, :]) ** 2)
    return moments(traj)


def finite_diff(series, t_grid):
    """Fourth-order finite differences on a uniform grid.

    Five-point central stencils in the interior with matching one-sided
    fourth-order stencils at the two points nearest each edge.  The
    fourth-order truncation term slightly *under*estimates the slope of
    exponentially growing series, which keeps derivative-based bound
    ratios on the correct side of exact saturation.  Grids shorter than
    five samples fall back to second order (numpy.gradient).
    """
    y = np.asarray(series, dtype=float)
    t, dt = _uniform_step(t_grid)
    if y.size != t.size:
        raise ValueError("series and grid lengths differ")
    if y.size < 3:
        raise ValueError("need at least 3 samples for derivative stencils")
    if y.size < 5:
        return np.gradient(y, dt, edge_order=2)
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * dt)
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3]
            - 3 * y[4]) / (12 * dt)
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3]
            + y[4]) / (12 * dt)
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4]
             - y[-5]) / (12 * dt)
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4]
             + 3 * y[-5]) / (12 * dt)
    return d
