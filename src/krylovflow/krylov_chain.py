"""Amplitude evolution on the Krylov chain and moment extraction.

The two chain recursions

    dphi_n/dt   =  i a_n phi_n   - b_{n+1} phi_{n+1} + c_n phi_{n-1}
    dpsi*_n/dt  = -i a*_n psi*_n - c*_{n+1} psi*_{n+1} + b*_n psi*_{n-1}

define two sparse K x K generators, A_phi and A_psi*. Both amplitude vectors
are propagated exactly, as exp(t A) e0 on the whole uniform time grid, by
``scipy.sparse.linalg.expm_multiply``. psi is not assumed equal to phi: only
when the two generators agree entry for entry (a_n purely imaginary and
b_n = c*_n, as on every projected chain) is psi* taken to be phi. That holds
exactly either way; propagating the K-system alone instead of the 2K block
system only saves time.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .bilanczos import TERM_BREAKDOWN
from .exceptions import NumericalFailure
from .lindbladian import as_matrix, krylov_dim_bound

TAIL_CUTOFF = 1e-10
P_UNDERFLOW = 1e-300


@dataclass
class ChainTrajectory:
    t: np.ndarray          # time grid
    phi: np.ndarray        # K x T
    psi: np.ndarray        # K x T (psi_n(t), un-starred)
    tail_mass: np.ndarray  # |phi_{K-1}|^2 per time
    tail_ok: bool = True
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
    P_overlap: np.ndarray = None  # Re sum_n psi*_n phi_n, exported if it differs


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


def evolve_chain(tri, t_grid, tail_cutoff=TAIL_CUTOFF):
    """Propagate both chain recursions on ``t_grid`` (uniform, starting at 0).

    The amplitudes at every grid point are exp(t A) e0 for the sparse chain
    generators, evaluated in one ``expm_multiply`` call (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 2011), which picks its own Taylor degree and
    substeps to double-precision accuracy.  When the two generators are
    entry-for-entry equal (a purely imaginary and b = c*, as for every
    projected chain and the saturating chain) psi* obeys the same equation
    as phi, so only phi is propagated and psi* is set equal to it;
    otherwise both are propagated as one block system.  The two halves of
    the block system would come out bit-identical too; the K-system alone
    is only cheaper (about 30 % on the N = 5 projected chain).
    Raises NumericalFailure if the result is not finite.
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
    # expm_multiply sets its Taylor degree and substeps from 1-norm estimates
    # of powers of A, and the estimator draws from NumPy's global random
    # state.  A fixed state there makes the result depend on the chain alone,
    # so identical runs write identical CSVs; the caller's state is restored.
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        Y = expm_multiply(A, y0, start=0.0, stop=t[-1], num=t.size,
                          endpoint=True).T
    finally:
        np.random.set_state(rng_state)
    if not np.all(np.isfinite(Y)):
        raise NumericalFailure("chain propagation produced non-finite values")

    phi = Y[:K, :]
    psi_star = Y[-K:, :]
    tail = np.abs(phi[-1, :]) ** 2
    tail_ok = bool(tail.max() <= tail_cutoff)
    # Tail mass only signals truncation error when the chain was cut
    # short; a chain spanning the full space (up to the operator-space
    # bound D^2 - D + 1) or ending at an exact breakdown is complete and
    # its last-site amplitude is physical.
    complete = tri.termination == TERM_BREAKDOWN
    if not complete and tri.p_basis is not None:
        complete = K >= krylov_dim_bound(tri.p_basis.shape[0])
    if complete:
        tail_ok = True
    if not tail_ok:
        warnings.warn(
            f"truncation tail |phi_K-1|^2 reached {tail.max():.3e} "
            f"(cutoff {tail_cutoff:.1e}); results beyond that time are "
            "affected by the finite chain", RuntimeWarning)
    return ChainTrajectory(t=t, phi=phi, psi=psi_star.conj(),
                           tail_mass=tail, tail_ok=tail_ok)


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

    v = np.asarray(seed, dtype=complex).copy()
    w = v.copy()
    K = tri.K
    n_idx = np.arange(K)
    phase_q = (-1j) ** n_idx
    phase_p = (1j) ** n_idx
    Qh = tri.q_basis.conj().T
    Ph = tri.p_basis.conj().T

    phi = np.empty((K, t.size), dtype=complex)
    psi_star = np.empty((K, t.size), dtype=complex)
    for k in range(t.size):
        if k > 0:
            v = E @ v
            w = Eh @ w
        phi[:, k] = phase_q * (Qh @ v)
        psi_star[:, k] = phase_p * (Ph @ w)

    tail = np.abs(phi[-1, :]) ** 2
    traj = ChainTrajectory(t=t, phi=phi, psi=psi_star.conj(),
                           tail_mass=tail,
                           tail_ok=bool(tail.max() <= TAIL_CUTOFF))
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
