"""Bi-Lanczos tridiagonalization with full reorthogonalization.

Produces the coefficient sequences a_n (diagonal), b_n (superdiagonal) and
c_n (subdiagonal) of the generator in the bi-orthogonal Krylov basis,
together with the bases P, Q satisfying Q' P = I and Q' L P = T.

One recursion serves every input. When L is complex symmetric (L^T = L, as
for every vectorized Lindbladian with a real Hamiltonian and real jumps)
and q0 = conj(p0), each left vector is a scalar multiple of the conjugated
right vector (Freund, SIAM J. Sci. Stat. Comput. 13, 1992), so the
recursion needs one matvec and one reorthogonalization per step. Any
other input runs the full two-sided recursion. :func:`bilanczos` is the
one entry point: a Hermitian generator runs with q0 = p0, a unit vector.
It runs the recursion in the reflection-even sector when the seeds and L
allow, so that roundoff cannot carry it into the odd sector.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .exceptions import NumericalFailure
from .lindbladian import as_matrix, reflection_sector

TERM_MAX_ITER = "max_iter"
TERM_BREAKDOWN = "breakdown"
TERM_SERIOUS = "serious_breakdown"
TERM_SYNTHETIC = "synthetic"

STRUCTURE_TOL = 1e-6   # relative tolerance of the structure verdicts
BREAKDOWN_TOL = 1e-10  # smallest c_j, relative to the running max of c_j


@dataclass
class TridiagonalData:
    """Coefficients and (optionally) bases of a (bi-)Lanczos run."""

    a: np.ndarray                  # length K, diagonal
    b: np.ndarray                  # length K-1, superdiagonal
    c: np.ndarray                  # length K-1, subdiagonal
    p_basis: np.ndarray = None     # dim x K
    q_basis: np.ndarray = None     # dim x K
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

    def tridiagonal_matrix(self):
        T = np.diag(self.a.astype(complex))
        T += np.diag(self.b.astype(complex), k=1)   # 1 x 1 zero when K = 1
        T += np.diag(self.c.astype(complex), k=-1)
        return T


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
    if sp.issparse(A):
        return (A - A.T).count_nonzero() == 0
    return np.array_equal(A, A.T)


def bilanczos(L, p0, q0, max_iter=None):
    """Two-sided Lanczos iteration on a (generally non-Hermitian) matrix.

    When p0 and q0 are exactly even under site reversal and L commutes
    with it (``reflection_sector`` returns the isometry B), the recursion
    runs on B^T L B from B^T p0 and B^T q0 and lifts the bases back as B P
    and B Q; otherwise it runs on L.  ``max_iter`` defaults to the
    dimension of the space it runs in, the result's ``space_dim``.

    Starting vectors must satisfy <q0|p0> = 1; if the overlap is nonzero p0
    is rescaled, otherwise the pair is rejected. Each new right vector (and,
    on the two-sided path, each left vector) is purged twice against all
    previous basis vectors; both bases are returned.

    Left-vector rule: if L^T = L exactly and q0 = conj(p0), then
    q_n = mu_n conj(p_n) with mu_0 = conj(<q0|p0>) and
    mu_n = mu_{n-1} c_n / conj(b_n), and the left residual is
    s_n = mu_n conj(r_n). The left vectors then cost no matvec and no
    reorthogonalization of their own (the projections use the bilinear
    form x^T y). Otherwise q_n is computed from L' as usual. Both rules
    give the same coefficients up to roundoff, with c_n = sqrt|<r_n|s_n>|
    and b_n = conj(<r_n|s_n>) / c_n.
    """
    A = as_matrix(L)
    B = reflection_sector(A, p0, q0)
    if B is None:
        return _lanczos(A, p0, q0, max_iter)
    tri = _lanczos(B.T @ A @ B, B.T @ p0, B.T @ q0, max_iter)
    tri.p_basis, tri.q_basis = B @ tri.p_basis, B @ tri.q_basis
    return tri


def _lanczos(A, p0, q0, max_iter=None):
    """The recursion of :func:`bilanczos` on the matrix A as given."""
    dim = A.shape[0]
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    max_iter = dim if max_iter is None else min(max_iter, dim)

    p = np.asarray(p0, dtype=complex).copy()
    q = np.asarray(q0, dtype=complex).copy()
    symmetric = np.array_equal(q, p.conj()) and _is_symmetric(A)
    Ah = None if symmetric else A.conj().T
    overlap = np.vdot(q, p)
    if abs(overlap) < 1e-14 * max(np.linalg.norm(p) * np.linalg.norm(q), 1e-300):
        raise ValueError("starting vectors are (numerically) bi-orthogonal: "
                         "<q0|p0> cannot be rescaled to 1")
    p = p / overlap
    mu = np.conj(overlap)   # q = mu conj(p) under the symmetric rule

    # Row n holds p_n (q_n), so the projections read contiguous memory.
    P = np.empty((max_iter, dim), dtype=complex)
    Q = np.empty((max_iter, dim), dtype=complex)
    P[0] = p
    Q[0] = q

    u = A @ p
    a0 = np.vdot(q, u)
    r = u - a0 * p
    s = mu * np.conj(r) if symmetric else Ah @ q - np.conj(a0) * q

    a = [a0]
    b = []
    c = []
    termination = TERM_MAX_ITER
    c_max = 0.0

    for j in range(1, max_iter):
        _check_finite("residuals", r)
        _check_finite("residuals", s)
        w = np.vdot(r, s)
        cj = np.sqrt(abs(w))
        scale = max(c_max, abs(a0))
        if scale == 0.0:
            scale = 1.0
        if cj < BREAKDOWN_TOL * scale:
            rs = min(np.linalg.norm(r), np.linalg.norm(s))
            if rs > np.sqrt(BREAKDOWN_TOL) * scale:
                # <r|s> collapsed while both residuals remain large.
                termination = TERM_SERIOUS
            else:
                termination = TERM_BREAKDOWN
            break
        bj = np.conj(w) / cj
        p = r / cj
        q = s / np.conj(bj)

        # Q[:j] @ conj(x), conjugated, is Q' x without a conjugated copy
        # of the basis.  Two passes: the second removes what rounding left
        # after the first ("twice is enough": Kahan, in Parlett 1980).
        for _ in range(2):
            p = p - np.conj(Q[:j] @ np.conj(p)) @ P[:j]
            if not symmetric:
                q = q - np.conj(P[:j] @ np.conj(q)) @ Q[:j]
        if symmetric:
            mu = mu * cj / np.conj(bj)
            q = mu * np.conj(p)

        u = A @ p
        aj = np.vdot(q, u)
        _check_finite("coefficients", np.array([aj, bj, cj]))

        r = u - aj * p - bj * P[j - 1]
        if symmetric:
            s = mu * np.conj(r)
        else:
            s = Ah @ q - np.conj(aj) * q - np.conj(cj) * Q[j - 1]

        P[j] = p
        Q[j] = q
        a.append(aj)
        b.append(bj)
        c.append(cj)
        c_max = max(c_max, cj)

    K = len(a)
    tri = TridiagonalData(
        a=np.array(a, dtype=complex),
        b=np.array(b, dtype=complex),
        c=np.array(c, dtype=complex),
        p_basis=P[:K].T,
        q_basis=Q[:K].T,
        termination=termination,
        space_dim=dim,
    )
    tri.residual_biortho = float(
        np.abs(Q[:K].conj() @ tri.p_basis - np.eye(K)).max())
    # L p_n = b_n p_{n-1} + a_n p_n + c_{n+1} p_{n+1} for every n < K - 1;
    # the last column holds the residual r_K.  Row n of T^T P[:K] is
    # column n of P T, so the check costs K matvecs, not a K x dim x K
    # product.
    Tt = sp.diags_array([tri.c, tri.a, tri.b], offsets=[1, 0, -1],
                       shape=(K, K))
    defect = (A @ tri.p_basis).T - Tt @ P[:K]
    tri.residual_tridiag = float(np.abs(defect[:-1]).max(initial=0.0))
    return tri


def check_open_structure(tri, n_coeffs=None):
    """Test the claimed open-system structure b_n = c_n = |b_n|, a_n = i|a_n|
    on the leading ``n_coeffs`` coefficients, to ``STRUCTURE_TOL`` relative.
    Exact arithmetic refutes it (tests/test_reference_lanczos.py, N = 3:
    Im a_n < 0 at n = 7, 8, 14, ...; b_n c_n < 0 from n = 23)."""
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

    dissipative = bool(bc_ok and a_dissipative)
    if dissipative:
        label = "dissipative structure"
    elif bc_ok and a_closed:
        label = "closed structure"
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

    Open-system chains are claimed to carry purely imaginary diagonals and
    equal real off-diagonals, which exact arithmetic refutes (see
    :func:`check_open_structure`); this returns a copy of ``tri`` with the
    structure imposed exactly (on-site decay rates |a_n|, symmetric real
    hoppings |b_n|).  The projected coefficients have b = c, so the gauge
    D that relates the two amplitude recursions (see
    :mod:`krylovflow.krylov_chain`) is 1 and psi = phi exactly.  Bases and
    termination metadata are carried over unchanged.
    """
    b_abs = np.abs(np.asarray(tri.b, dtype=complex)).astype(complex)
    return replace(tri, a=1j * np.abs(np.asarray(tri.a, dtype=complex)),
                   b=b_abs, c=b_abs.copy())
