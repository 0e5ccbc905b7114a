"""Bi-Lanczos tridiagonalization with full reorthogonalization.

Produces the coefficient sequences a_n (diagonal), b_n (superdiagonal) and
c_n (subdiagonal) of the generator in the bi-orthogonal Krylov basis,
together with the bases P, Q, with Q P^T = I in the recursion's basis W.

The right and left seeds are both the seed, the probed operator.  The
recursion runs in the Hermitian operator basis W of
:func:`~krylovflow.lindbladian.hermitian_basis`: on R = -i W' L W, with
the bilinear form x^T y as the J-form x^T diag(J) y (J = +-1), right seed
W' seed, left seed W' conj(seed) and left operator J R^T J.  -iL maps
Hermitian operators to Hermitian ones, so for a Lindbladian R is real, and
so are a Hermitian seed's coordinates: the recursion then runs in float64,
and Re a_n = 0 and Im(b_n c_n) = 0 hold by construction, as they do in
exact arithmetic.  When L is complex symmetric (L^T = L, as for every
vectorized Lindbladian with a real Hamiltonian and real jumps) the left
operator is R (R^T J = J R); if also the seed is real, each left vector is
the right one (Freund, SIAM J. Sci. Stat. Comput. 13, 1992), and the
recursion stores one basis and makes one matvec per step.
:func:`bilanczos`, the one entry point, runs in the reflection-even sector
when the seed and L allow, so that roundoff cannot carry it into the odd
sector.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .exceptions import NumericalFailure
from .lindbladian import as_matrix, hermitian_basis, hermitian_generator, \
    reflection_sector

TERM_MAX_ITER = "max_iter"
TERM_BREAKDOWN = "breakdown"
TERM_SERIOUS = "serious_breakdown"
TERM_SYNTHETIC = "synthetic"
TERM_GRID = "grid"     # cut by ChainRun.deep_enough; judged like max_iter

STRUCTURE_TOL = 1e-6   # relative tolerance of the structure verdicts
BREAKDOWN_TOL = 1e-10  # smallest c_j, relative to the running max of c_j
DEPTH_BLOCK = 128      # steps per block: arrays grow, the depth hook is asked


@dataclass
class TridiagonalData:
    """Coefficients and (optionally) bases of a (bi-)Lanczos run, the
    bases as coordinates in the recursion's sparse Hermitian basis W."""

    a: np.ndarray                  # length K, diagonal
    b: np.ndarray                  # length K-1, superdiagonal
    c: np.ndarray                  # length K-1, subdiagonal
    W: sp.csr_array = None         # dim x space_dim
    P: np.ndarray = None           # K x space_dim
    Q: np.ndarray = None           # K x space_dim
    residual_biortho: float = None
    residual_tridiag: float = None
    termination: str = TERM_MAX_ITER
    space_dim: int = None          # dimension the recursion ran in

    @property
    def K(self):
        return len(self.a)

    @property
    def complete(self):
        """The chain spans its Krylov space: it ended by breakdown, or K
        reached the dimension of the space the recursion ran in (a
        reflection sector's dimension, not that of a lifted basis)."""
        return self.termination == TERM_BREAKDOWN or self.K == self.space_dim


@dataclass
class StructureReport:
    """Diagnostics for the claimed dissipative coefficient structure."""

    max_bc_diff: float
    max_abs_b: float
    max_re_a: float
    max_im_a: float
    min_im_a: float
    dissipative: bool
    label: str


def _check_finite(name, v):
    if not np.all(np.isfinite(v)):
        raise NumericalFailure(f"non-finite values encountered in {name}")


def _is_symmetric(A):
    return (A - A.T).count_nonzero() == 0


def bilanczos(L, seed, max_iter=None, deep_enough=None):
    """Bi-Lanczos iteration on a (generally non-Hermitian) matrix.

    When the seed is exactly even under site reversal and L commutes with
    it (``reflection_sector`` returns the isometry B), the recursion runs
    in B's range, otherwise in full space.  ``max_iter`` defaults to the
    dimension of the space it runs in, the result's ``space_dim``.  The
    chain grows by blocks of ``DEPTH_BLOCK`` steps; after each,
    ``deep_enough(chain, |b_K|)``, when given, sees the coefficients so far
    and the next hopping, and True ends the chain there, not ``complete``,
    with termination ``TERM_GRID``.

    The right seed is divided by |seed|^2 so that q_0' p_0 = 1; a zero seed
    raises ValueError.  Each new basis vector is purged twice against all
    previous ones; both bases are returned, with c_n = sqrt|b_n c_n| > 0 and
    |b_n| = c_n.

    Dense L is converted to CSR.  The recursion is that of the module
    docstring, on R = -i W' L W for W = ``hermitian_basis(dim, B)``.  It
    returns W, the p~_n as the rows of P, their J-duals
    q~_n = mu_n diag(J) v~_n as the rows of Q, and a = i alpha,
    b = -beta, c = gamma.
    """
    A = as_matrix(L)
    return _lanczos(A, seed, max_iter, reflection_sector(A, seed),
                    deep_enough)


def _breakdown(rs, scale):
    """A collapse of <r|s> is serious while both residuals remain large."""
    return TERM_SERIOUS if rs > np.sqrt(BREAKDOWN_TOL) * scale \
        else TERM_BREAKDOWN


def _tridiag_residual(A, P, a, b, c):
    """max|A p_n - b_n p_{n-1} - a_n p_n - c_{n+1} p_{n+1}| over n < K - 1,
    the rows of P being the p_n; the last one holds the residual r_K.
    Row n of T^T P is column n of P T, so this costs K matvecs, not a
    K x dim x K product."""
    K = len(a)
    Tt = sp.diags_array([c, a, b], offsets=[1, 0, -1], shape=(K, K))
    defect = (A @ P.T).T - Tt @ P
    return float(np.abs(defect[:-1]).max(initial=0.0))


def _chain(alpha, beta, gamma, **fields):
    """The chain a = i alpha, b = -beta, c = gamma of the recursion."""
    return TridiagonalData(a=1j * np.array(alpha) + 0.0,   # -0.0 -> 0.0
                           b=0j - np.array(beta), c=np.array(gamma) + 0j,
                           **fields)


def _lanczos(A, seed, max_iter=None, B=None, deep_enough=None):
    """The recursion of :func:`bilanczos`, as the module docstring states
    it, on the CSR array A, in B's range when given."""
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    W, J = hermitian_basis(A.shape[0], B)
    R, x, y = hermitian_generator(A, W, seed, np.conj(seed))
    # The left operator N has (N y)^T J x = y^T J R x; it is R if A^T = A.
    # One-sided when then also y = x (a real seed): the left Krylov vectors
    # are the right ones, the dual basis aliases P and the left residual s
    # is r.
    symmetric = _is_symmetric(A)
    one_sided = symmetric and np.array_equal(x, y)
    N = R if symmetric else sp.diags_array(J) @ R.T @ sp.diags_array(J)
    dim = R.shape[0]
    max_iter = dim if max_iter is None else min(max_iter, dim)

    overlap = y @ (J * x)   # |seed|^2
    if overlap == 0:
        raise ValueError("the seed is zero")
    p = x / overlap
    v = p if one_sided else y / overlap
    # mu_n = 1 / (v_n^T J p_n): the J-dual of p_n is mu_n J v_n.  Its
    # modulus stays |seed|^2.
    dtype = np.result_type(p, v)
    mu = np.empty(min(max_iter, DEPTH_BLOCK), dtype=dtype)
    mu[0] = overlap
    P = np.empty((mu.size, dim), dtype=dtype)
    V = P if one_sided else np.empty_like(P)
    P[0], V[0] = p, v
    u = R @ p
    alpha, beta, gamma = [mu[0] * (v @ (J * u))], [], []
    r = u - alpha[0] * p
    s = r if one_sided else N @ v - alpha[0] * v
    termination = TERM_MAX_ITER
    g_max = 0.0

    if deep_enough is not None:   # under the caller's floating-point rules
        deep_enough = np.errstate(**np.geterr())(deep_enough)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks report
        for j in range(1, max_iter):
            _check_finite("residuals", r)
            _check_finite("residuals", s)
            w = mu[j - 1] * (s @ (J * r))
            gj = np.sqrt(abs(w))
            scale = max(g_max, abs(alpha[0])) or 1.0
            if gj < BREAKDOWN_TOL * scale:
                # |mu| s is the left residual in the units of q_n.
                rs = min(np.linalg.norm(r), abs(mu[0]) * np.linalg.norm(s))
                termination = _breakdown(rs, scale)
                break
            if j == mu.size:   # a block end: stop, or grow by a block
                if deep_enough is not None and deep_enough(_chain(
                        alpha, beta, gamma, termination=TERM_GRID,
                        space_dim=dim), gj):
                    termination = TERM_GRID
                    break
                new = np.empty((min(DEPTH_BLOCK, max_iter - j), dim), dtype)
                mu, P = np.append(mu, new[:, 0]), np.vstack([P, new])
                V = P if one_sided else np.vstack([V, new])
            bj = w / abs(w) * gj   # exactly +-gj when w is real
            p = r / gj
            v = p if one_sided else s / gj
            # Two passes: the second removes what rounding left after the
            # first ("twice is enough": Kahan, in Parlett 1980).
            for _ in range(2):
                p -= (mu[:j] * (V[:j] @ (J * p))) @ P[:j]
                if not one_sided:
                    v -= (mu[:j] * (P[:j] @ (J * v))) @ V[:j]
            mu[j] = mu[j - 1] * gj / bj
            u = R @ p
            aj = mu[j] * (v @ (J * u))
            _check_finite("coefficients", np.array([aj, bj, gj]))
            r = u - aj * p - bj * P[j - 1]
            s = r if one_sided else N @ v - aj * v - bj * V[j - 1]
            P[j], V[j] = p, v
            alpha.append(aj)
            beta.append(bj)
            gamma.append(gj)
            g_max = max(g_max, gj)

    K = len(alpha)
    P, V, mu = P[:K], V[:K], mu[:K]
    return _chain(
        alpha, beta, gamma,
        W=W, P=P, Q=mu[:, None] * (J * V),
        termination=termination,
        space_dim=dim,
        residual_biortho=float(np.abs(
            mu[:, None] * (V @ (J * P).T) - np.eye(K)).max()),
        residual_tridiag=_tridiag_residual(R, P, alpha, beta, gamma),
    )


def check_open_structure(tri, n_coeffs=None):
    """Test the claimed open-system structure b_n = c_n = |b_n|, a_n = i|a_n|
    on the leading ``n_coeffs`` coefficients, to ``STRUCTURE_TOL`` relative.
    On a J-symmetric chain Re a_n = 0 and Im(b_n c_n) = 0 hold by
    construction; the sign conditions are what exact arithmetic refutes
    (tests/test_reference_lanczos.py, N = 3: Im a_n < 0 at n = 7, 8, 14,
    ...; b_n c_n < 0 from n = 23).  A chain with a = 0 (a closed model's)
    fits both forms and is labelled closed."""
    a, b, c = tri.a[:n_coeffs], tri.b[:n_coeffs], tri.c[:n_coeffs]

    max_abs_b = float(np.abs(b).max()) if b.size else 0.0
    max_bc = float(np.abs(b - c).max()) if b.size else 0.0
    max_re_a = float(np.abs(a.real).max())
    max_im_a = float(np.abs(a.imag).max())
    min_im_a = float(a.imag.min())

    bc_ok = max_bc <= STRUCTURE_TOL * max(max_abs_b, 1e-300)
    a_dissipative = (max_re_a <= STRUCTURE_TOL * max(max_im_a, 1e-300)
                     and min_im_a >= -STRUCTURE_TOL * max(max_im_a, 1e-300))
    a_closed = max_im_a <= STRUCTURE_TOL * max(max_re_a, max_abs_b, 1e-300)

    closed = bc_ok and a_closed
    dissipative = bool(bc_ok and a_dissipative and not closed)
    if closed:
        label = "closed structure"
    elif dissipative:
        label = "dissipative structure"
    else:
        label = "mixed structure"
    return StructureReport(
        max_bc_diff=max_bc,
        max_abs_b=max_abs_b,
        max_re_a=max_re_a,
        max_im_a=max_im_a,
        min_im_a=min_im_a,
        dissipative=dissipative,
        label=label,
    )


def project_dissipative_structure(tri):
    """Project coefficients onto the dissipative form a = i|a|, b = c = |b|.

    A copy of ``tri`` with the signs that exact arithmetic refutes (see
    :func:`check_open_structure`) imposed: on-site decay rates |a_n| and
    symmetric real hoppings |b_n|, so that psi = phi on the chain (see
    :mod:`krylovflow.krylov_chain`).  Bases and termination are kept.
    """
    b_abs = np.abs(np.asarray(tri.b, dtype=complex)).astype(complex)
    return replace(tri, a=1j * np.abs(np.asarray(tri.a, dtype=complex)),
                   b=b_abs, c=b_abs.copy())
