"""Amplitude evolution on the Krylov chain and moment extraction.

The two chain recursions

    dphi_n/dt   =  i a_n phi_n   - b_{n+1} phi_{n+1} + c_n phi_{n-1}
    dpsi*_n/dt  = -i a*_n psi*_n - c*_{n+1} psi*_{n+1} + b*_n psi*_{n-1}

are one recursion up to a diagonal gauge.  Conjugating the first and
rescaling site n by D_n, with D_0 = 1 and D_n = D_{n-1} conj(b_n / c_n),
gives the second term for term, for any a and any nonzero c; so
psi*_n(t) = D_n conj(phi_n(t)) exactly, and only the tridiagonal K x K
generator A_phi is propagated.  Where b = c entry for entry (every
projected and saturating chain) D = 1 and psi = phi.  A chain with
c_n = 0 != b_n has no such gauge and is rejected.  phi is propagated
exactly, as exp(t A_phi) e0 on the whole uniform time grid, by the Taylor
propagator of :func:`_propagate`.  It has two kernels and picks one by
the predicted cost of its substep plan: the vector kernel walks the grid
in Taylor blocks of the amplitude vector; the block kernel sums exp(h
A_phi) for one grid step h on the K x K identity and steps by
matrix-vector products, which wins on short stiff chains such as the
projected N = 5 one.  The trajectory records the kernel and the plan.
The Lanczos chain of a Lindbladian from a Hermitian seed has Re a = 0 and
real b, c, so A_phi is real and the raw chain is propagated in real
arithmetic, like the projected one; its D_n are +-1.  A chain end is
measured here; :class:`ChainRun`, the chain policy of a run, warns of it.
:func:`time_grid` is the one place a time grid is built; a grid passed in
must be uniform, increase by a step no smaller than the smallest normal
float and, to be propagated, start at 0.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import expm
from scipy.linalg.blas import idamax

from .bilanczos import check_open_structure, project_dissipative_structure
from .exceptions import NumericalFailure, require_integer
from .lindbladian import MAX_DIM, as_matrix, hermitian_generator

TAIL_CUTOFF = 1e-10   # last-site mass that signals chain truncation
STRUCTURE_COEFFS = 50   # leading coefficients of the structure verdict
DEPTH_TOL = 1e-12     # Duhamel bound on what the grid-depth cut changes
P_UNDERFLOW = 1e-300
STENCIL = 5           # finite_diff's stencil width: time_grid's fewest samples
_TINY = np.finfo(float).tiny   # the smallest step of a time grid


@dataclass
class ChainTrajectory:
    t: np.ndarray          # time grid
    phi: np.ndarray        # K x T, real when the chain generator is
    psi: np.ndarray        # K x T (psi_n(t), un-starred)
    tail_mass: np.ndarray  # |phi_{K-1}|^2 per time
    kernel: str = None     # _propagate's kernel, "vector" or "block"
    plan: tuple = None     # its (s, r): substeps, substeps per grid step
    # always 0; kept only because perfbench/worker.py reads it
    refinements: int = 0

    @property
    def horizon(self):
        """Number of leading samples with last-site mass <= TAIL_CUTOFF."""
        return int(np.argmax(np.append(self.tail_mass, np.inf) > TAIL_CUTOFF))


@dataclass
class MomentSeries:
    t: np.ndarray
    C: np.ndarray          # Re sum_n n psi*_n phi_n
    P: np.ndarray          # sum_n |phi_n|^2
    M2: np.ndarray         # sum_n n^2 |phi_n|^2
    Ctilde: np.ndarray     # C / P
    imag_residue: float = 0.0   # max |Im sum n psi*_n phi_n|


def time_grid(t_max, n_samples):
    """``n_samples`` points on [0, t_max]: t_max finite and > 0, n_samples an
    integer >= STENCIL, a normal step; a ValueError names the argument."""
    require_integer(n_samples, "n_samples")
    if n_samples < STENCIL:
        raise ValueError(f"n_samples = {n_samples} is below {STENCIL}")
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max = {t_max} is not finite and positive")
    if t_max / (n_samples - 1) < _TINY:
        raise ValueError("t_max / (n_samples - 1) is a subnormal step")
    return np.linspace(0.0, float(t_max), n_samples)


def _uniform_step(t_grid, from_zero=True):
    """(t, step) of ``t_grid``, uniform and rising by a normal step, and from
    0 if ``from_zero``; each check is relative, to 1e-9 of the step."""
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2:
        raise ValueError("time grid needs at least 2 points")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("time grid must be uniform")
    if not dt[0] >= _TINY:
        raise ValueError("time grid must increase by a normal step")
    if from_zero and abs(t[0]) > 1e-9 * dt[0]:
        raise ValueError("time grid must start at 0")
    return t, float(dt[0])


# theta_55 of Al-Mohy & Higham (2011), table 3.1, in double precision: the
# truncated Taylor series of degree 55, applied s times to exp(tA / s), is
# accurate to unit roundoff once t max(d_p, d_{p+1}) / s <= theta_55 for
# one p with p (p - 1) <= 55 + 1, where d_p = ||A^p||_1^(1/p).
_DEGREE = 55
_THETA_55 = 9.9
_P_MAX = 8            # largest p with p (p - 1) <= 55 + 1
_TOL = 2.0 ** -53
_MAX_SUBSTEPS = 10 ** 6   # over 100x the largest plan the test suite makes
_CALL_COST = 200      # fixed cost of a Taylor term or a product, in entries


def _taylor_plan(A, t):
    """Substep count s for exp(tA) at degree _DEGREE, A sparse banded.

    s = ceil(t min_p max(d_p, d_{p+1}) / theta_55) over p = 2 .. _P_MAX, at
    least 1 (t > 0 on every grid; A = 0 for one site), with exact
    d_p = ||A^p||_1^(1/p): a tridiagonal A has a (2p + 1)-diagonal A^p, so
    the powers stay cheap.  As d_p <= ||A||_1, a plan from ||A||_1 alone
    would take no fewer substeps.  A plan past _MAX_SUBSTEPS raises
    NumericalFailure, inf included: s is formed in Python floats, which
    overflow to inf without a warning.
    """
    norms = np.empty(_P_MAX + 1)   # ||A^p||_1, p = 1 .. _P_MAX + 1
    P = A
    for p in range(_P_MAX + 1):
        if p:
            P = P @ A
        norms[p] = abs(P).sum(axis=0).max()
    d = norms ** (1.0 / np.arange(1, _P_MAX + 2))   # d_p from p = 1
    s = float(t) * float(np.maximum(d[1:-1], d[2:]).min()) / _THETA_55
    if not s <= _MAX_SUBSTEPS:
        raise NumericalFailure(f"Taylor plan of exp(tA) for t = {t:.3e} needs "
                               f"{s:.3e} substeps (> {_MAX_SUBSTEPS:.0e})")
    return max(int(np.ceil(s)), 1)


def _inf_norm(x):
    return np.abs(x).max()


def _real_inf_norm(x):
    return abs(x[idamax(x)])   # BLAS; the same value as _inf_norm


class _TaylorSum:
    """Sums of T_p = (tau A)^p Z / p! for a tridiagonal A, from Z in the
    row ``rows[0]`` to the first p that passes the cut-off test.  Z is a
    vector or a K x K block whose rows are chain sites; the terms are the
    rows of a zero-padded (m + 1, n + 2, ...) array, so T_p sums the stacked
    diagonals of (tau / p) A, each row-scaling one shifted slice, times the
    (3, n, ...) sliding window of T_{p-1}: no matrix product."""

    def __init__(self, D, Z):
        m, n = _DEGREE, D.shape[1]
        cols = Z.shape[1:]
        self.D = D.reshape(D.shape + (1,) * len(cols))   # D[:, i] row i
        self.T = np.zeros((m + 1, n + 2) + cols, dtype=Z.dtype)
        self.T[0, 1:-1] = Z
        self.C = np.empty((m,) + self.D.shape, dtype=Z.dtype)
        self.S = np.empty((3, n) + cols, dtype=Z.dtype)
        # views made once: they are indexed per term
        self.flat = self.T.reshape(m + 1, -1)
        self.rows = list(self.flat)
        self.inner = list(self.T[:, 1:-1])
        self.coefs = list(self.C)
        self.windows = list(np.moveaxis(
            sliding_window_view(self.T, 3, axis=1), -1, 1))
        self.norm = (_real_inf_norm if Z.dtype == np.float64 else _inf_norm)

    def set_length(self, tau):
        """(tau / p) D for p = 1 .. m (real views: the same values)."""
        tau_p = tau / np.arange(1, _DEGREE + 1)
        np.multiply(self.D.view(np.float64),
                    tau_p.reshape((-1,) + (1,) * self.D.ndim),
                    out=self.C.view(np.float64))

    def __call__(self):
        """(p, F): the last term index and the flat sum of T_0 .. T_p, cut
        once two successive terms fall below unit roundoff of the sum."""
        rows, norm = self.rows, self.norm
        c1 = F_norm = norm(rows[0])
        p = 0
        for p in range(1, _DEGREE + 1):
            np.multiply(self.coefs[p - 1], self.windows[p - 1], out=self.S)
            np.add.reduce(self.S, axis=0, out=self.inner[p])
            c2 = norm(rows[p])
            # F_norm bounds ||F|| from above, so the sum F is only formed
            # once the cut-off test can pass.
            F_norm += c2
            if c1 + c2 <= _TOL * F_norm:
                F = np.add.reduce(self.flat[:p + 1], axis=0)
                F_norm = norm(F)
                if c1 + c2 <= _TOL * F_norm:
                    return p, F
            c1 = c2
        return p, np.add.reduce(self.flat[:p + 1], axis=0)


def _kernel(n, q, r, d):
    """The kernel of lower predicted cost, in array entries touched: up to
    _DEGREE terms of n entries in each of the vector kernel's
    ceil(q r / d) blocks, against up to _DEGREE terms of n x n entries in
    each of the block kernel's r substeps plus its q matrix-vector products
    of n x n entries; each term and product also costs _CALL_COST."""
    vector = -(-q * r // d) * _DEGREE * (n + _CALL_COST)
    block = (r * _DEGREE + q) * (n * n + _CALL_COST)
    return "block" if block < vector else "vector"


def _propagate(A, y0, h, q):
    """(X, kernel, (s, r)): exp(k h A) y0 for k = 0 .. q as the rows of a
    (q + 1) x n array, the kernel that made it and the plan it ran.

    A is a sparse tridiagonal matrix.  This is algorithm 5.2 of Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33 (2011): A is shifted by its mean
    diagonal mu, and one plan for [0, q h], :func:`_taylor_plan` of the
    shifted A, sets the substep count s under its budget, at the one Taylor
    degree m = _DEGREE, and r = ceil(s / q) substeps per grid step.  Each
    substep of length tau sums the Taylor terms of :class:`_TaylorSum` and
    multiplies by exp(tau mu).  Two kernels walk the grid, and
    :func:`_kernel` picks one by predicted cost:

    - "vector" walks [0, q h] in blocks of d = max(q // s, 1) grid steps:
      when s < q a block is d grid steps (the last one shorter when d does
      not divide q), otherwise one substep of h / r, and every r-th block
      ends on a grid point.  A block sums its terms from its first point
      into its last one; its inner points sum_p (k h / tau)^p T_p are one
      matrix product.
    - "block" sums the r substeps of one grid step on the n x n identity,
      which gives E = exp(hA), and steps X[k] = E X[k - 1] by matrix-vector
      products.  It pays n times the work per term but sums only r
      substeps' terms, so it wins on short stiff chains, whose vector plan
      walks many substeps per grid step.

    The arithmetic is real when A and y0 are (norms from idamax).
    """
    n = y0.size
    mu = A.diagonal().mean()
    A = A - mu * sp.eye(n, dtype=A.dtype, format="csr")
    s = _taylor_plan(A, q * h)
    r, d = -(-s // q), max(q // s, 1)
    kernel = _kernel(n, q, r, d)
    X = np.empty((q + 1, n), dtype=np.result_type(A.dtype, y0.dtype))
    X[0] = y0
    D = np.zeros((3, n), dtype=X.dtype)   # D[:, i] multiplies x[i-1:i+2]
    D[0, 1:], D[1], D[2, :-1] = A.diagonal(-1), A.diagonal(), A.diagonal(1)
    if kernel == "block":
        taylor = _TaylorSum(D, np.eye(n, dtype=X.dtype))
        taylor.set_length(h / r)
        for _ in range(r):
            _, F = taylor()
            np.multiply(F, np.exp(h * mu / r), out=taylor.rows[0])
        E = taylor.inner[0]
        for k in range(1, q + 1):
            np.dot(E, X[k - 1], out=X[k])
        return X, kernel, (s, r)
    taylor = _TaylorSum(D, X[0])
    for start in range(0, q * r, d):
        size = min(d, q * r - start)
        if start == 0 or size < d:   # all blocks but the last have size d
            taylor.set_length(size * h / r)
        p, F = taylor()
        if size > 1:
            k = np.arange(1, size)[:, None]
            W = np.exp(k * h * mu) * (k / size) ** np.arange(p + 1)
            X[start + 1:start + size] = (W @ taylor.T[:p + 1])[:, 1:-1]
        np.multiply(F, np.exp(size * h * mu / r), out=taylor.rows[0])
        if (start + size) % r == 0:
            X[(start + size) // r] = taylor.inner[0]
    return X, kernel, (s, r)


def evolve_chain(tri, t_grid):
    """Propagate the chain recursions on ``t_grid`` (uniform, rising from 0).

    phi at every grid point is exp(t A_phi) e0 for the sparse generator of
    the phi recursion, evaluated by :func:`_propagate`, which picks its own
    Taylor degree and substeps to double-precision accuracy, and its
    kernel, vector or block, by the predicted cost of that plan (the
    trajectory's ``kernel`` and ``plan``); a real generator is propagated
    in real arithmetic and gives real amplitudes.
    psi is not propagated: by the gauge identity of the module docstring,
    psi_n = conj(D_n) phi_n = phi_n prod_{j <= n} b_j / c_j, and psi is phi
    itself when b = c entry for entry.  Raises ValueError for a chain with
    c_n = 0 != b_n, which has no such gauge, and NumericalFailure if phi or
    psi is not finite; a finite chain end raises and warns nothing.
    """
    t, _ = _uniform_step(t_grid)
    a, b, c = (np.asarray(x, dtype=complex) for x in (tri.a, tri.b, tri.c))
    gauged = b != c
    if np.any(c[gauged] == 0):
        raise ValueError("chain has c_n = 0 != b_n: psi is no gauge of phi")
    K = tri.K
    A = sp.diags([1j * a, -b, c], offsets=[0, 1, -1], shape=(K, K),
                 format="csr")
    e0 = np.zeros(K, dtype=complex)
    e0[0] = 1.0
    if not np.any(A.data.imag):   # every projected chain
        A, e0 = A.real, e0.real
    q = t.size - 1
    X, kernel, plan = _propagate(A, e0, t[-1] / q, q)
    phi = X.T
    psi = phi
    if np.any(gauged):
        ratio = np.divide(b, c, out=np.ones(K - 1, dtype=complex),
                          where=gauged)
        with np.errstate(over="ignore", invalid="ignore"):
            psi = np.cumprod(np.concatenate([[1.0], ratio]))[:, None] * phi
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
        raise NumericalFailure("chain propagation produced non-finite values")
    return ChainTrajectory(t=t, phi=phi, psi=psi,
                           tail_mass=np.abs(phi[-1, :]) ** 2,
                           kernel=kernel, plan=plan)


class ChainRun:
    """The chain policy of a run on the time grid ``t`` for the chain
    ``tri``, set to what ``bilanczos`` returns with ``deep_enough`` as its
    depth hook.  The bound certifies ``bound_chain``: ``tri`` if its
    leading STRUCTURE_COEFFS coefficients have closed ``structure``, else
    its dissipative projection; both are contractive, as the bound needs.
    Each trajectory is evolved, and warns, at most once."""

    def __init__(self, t, tri=None):
        self.t, self.tri, self._trajs = t, tri, {}   # keyed by projected
        self._warned = set()   # ids of the _trajs entries that warned

    @cached_property
    def structure(self):
        return check_open_structure(self.tri, STRUCTURE_COEFFS)

    @cached_property
    def bound_chain(self):
        """(chain, b1), b1 = 0 on a one-coefficient chain: C = M2 = 0."""
        closed = self.structure.label == "closed structure"
        tri = self.tri if closed else project_dissipative_structure(self.tri)
        return tri, tri.b[0] if tri.K > 1 else 0.0

    def deep_enough(self, tri, b_next):
        """The depth rule: (i) the raw chain's horizon spans the grid; (ii)
        the bound chain's Duhamel bound t_max |b_K| max_t |phi_{K-1}| <=
        DEPTH_TOL.  A chain that passes leaves its trajectories here."""
        probe = ChainRun(self.t, tri)
        if probe._evolved(False).horizon < self.t.size:
            return False
        phi = probe._evolved(True).phi[-1]
        if self.t[-1] * b_next * np.abs(phi).max() > DEPTH_TOL:
            return False
        self._trajs, self._warned = probe._trajs, set()
        return True

    def _evolved(self, bound):
        chain = self.bound_chain[0] if bound else self.tri
        if (key := chain is not self.tri) not in self._trajs:
            self._trajs[key] = evolve_chain(chain, self.t)
        return self._trajs[key]

    def trajectory(self, bound=False):
        """The raw or the bound chain's trajectory (one for a closed chain);
        its first request warns where an incomplete chain's end shows."""
        traj = self._evolved(bound)
        if not self.tri.complete and traj.horizon < self.t.size \
                and id(traj) not in self._warned:
            self._warned.add(id(traj))
            warnings.warn(f"truncation tail |phi_K-1|^2 reached "
                          f"{max(traj.tail_mass):.3e} (cutoff "
                          f"{TAIL_CUTOFF:.1e}); results beyond that time are "
                          "affected by the finite chain", RuntimeWarning)
        return traj


def moments(traj):
    """Complexity, probability and second moment of a chain trajectory."""
    phi = traj.phi
    n_idx = np.arange(phi.shape[0])[:, None]

    w = np.abs(phi) ** 2
    P = np.sum(w, axis=0)
    cross = np.sum(n_idx * traj.psi.conj() * phi, axis=0)
    C = cross.real
    imag_residue = float(np.abs(cross.imag).max())
    M2 = np.sum(n_idx ** 2 * w, axis=0)

    t = traj.t
    under = P < P_UNDERFLOW
    if np.any(under):
        stop = int(np.argmax(under))
        warnings.warn(
            f"total probability underflowed below {P_UNDERFLOW:.0e} at "
            f"t = {t[stop]:.4g}; series truncated", RuntimeWarning)
        t, C, P, M2 = (x[:stop] for x in (t, C, P, M2))

    return MomentSeries(t=t, C=C, P=P, M2=M2, Ctilde=C / P,
                        imag_residue=imag_residue)


def direct_evolution_oracle(L, seed, tri, t_grid):
    """Moments from direct evolution of the seed, bypassing the chain ODE.

    The ket evolves as dv/dt = i L v and the dual vector as
    dw/dt = -i L' w, from ``seed`` as in ``bilanczos(L, seed)``, in the
    coordinates of the chain's Hermitian basis W = ``tri.W``: x = W' v as
    exp(-t R) p~_0 with R = -i W' L W and p~_0 = x0 / |seed|^2, and y = W' w
    as exp(-t R') x0, with x0 = W' seed; so no moment scales with the seed.
    That is one dense ``expm`` of the dimension the recursion ran in: the
    reflection-even sector's when the chain ran there, exactly, as L and L'
    commute with site reversal.  L is made CSR and R and x0 come from
    ``hermitian_generator``, float64 for a Lindbladian and a Hermitian
    seed.  Amplitudes are projections on the stored bases:
    phi_n = (-1)^n q~_n x and psi*_n = p~_n' y.  The oracle shares only W
    with the Lanczos recursion, never the recursion or its coefficients;
    the moments come from the code path of chain trajectories.
    """
    A = as_matrix(L)
    if A.shape[0] > MAX_DIM:
        raise ValueError(f"oracle limited to dimension <= {MAX_DIM}")
    if tri.W is None:
        raise ValueError("direct evolution oracle requires stored bases")
    t, dt = _uniform_step(t_grid)
    R, x0 = hermitian_generator(A, tri.W, seed)

    E = expm(-dt * R.toarray())
    Eh = E.conj().T   # exp(-dt R'), propagates the dual coordinates

    # Rows of X and Y are x and y at the grid points.
    X = np.empty((t.size, x0.size), dtype=np.result_type(E, x0))
    Y = np.empty_like(X)
    X[0], Y[0] = x0 / np.vdot(seed, seed).real, x0
    for k in range(1, t.size):
        X[k] = E @ X[k - 1]
        Y[k] = Eh @ Y[k - 1]
    phi = (-1.0) ** np.arange(tri.K)[:, None] * (tri.Q @ X.T)
    traj = ChainTrajectory(t=t, phi=phi, psi=tri.P @ Y.T.conj(),
                           tail_mass=np.abs(phi[-1, :]) ** 2)
    return moments(traj)


def finite_diff(series, t_grid):
    """Fourth-order finite differences on a uniform, increasing grid.

    Five-point central stencils in the interior with matching one-sided
    fourth-order stencils at the two points nearest each edge, so at least
    STENCIL samples.  The truncation error has no fixed sign: on an
    exponentially growing series the central and edge stencils
    underestimate the slope, but those at the second point from each edge
    overestimate it, so a derivative-based bound ratio at exact saturation
    can land on either side of 1.
    """
    y = np.asarray(series, dtype=float)
    t, dt = _uniform_step(t_grid, from_zero=False)
    if y.size != t.size:
        raise ValueError("series and grid lengths differ")
    if y.size < STENCIL:
        raise ValueError(f"need at least {STENCIL} samples for the stencils")
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
