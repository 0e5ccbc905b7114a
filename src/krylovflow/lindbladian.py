"""Vectorization and sparse superoperator assembly, closed and open dynamics.

Vectorization is column-major (Fortran order), so that
vec(A X B) = (B^T kron A) vec(X). With this convention the commutator
superoperator is I kron H - H^T kron I acting on vec(X).

The superoperator is assembled with ``scipy.sparse.kron`` into one CSR
matrix; the builders return that ``scipy.sparse.csr_array`` itself. For
the transverse-field Ising chain and its local jumps that is about 13
nonzeros per row, against 4^N for a dense matrix.

:func:`reflection_sector` finds the site-reversal symmetry of L and its
seed, vec(X) -> vec(R X R), and returns the isometry onto its even
sector; :func:`~krylovflow.bilanczos.bilanczos` runs there when it can.
:func:`hermitian_basis` gives the unitary change of basis V onto Hermitian
operators (within that sector).  iL maps Hermitian operators to Hermitian
ones, so -i V' L V is real, and the transpose symmetry L^T = L becomes the
J-symmetry of that real matrix; :func:`hermitian_generator` builds it, for
the Lanczos recursion and the direct-evolution oracle alike.
"""

import numpy as np
import scipy.sparse as sp

# The Lanczos bases, not L, bound the size.  Each is reserved at max_iter
# rows (the space dimension unless given) of up to 4^N coordinates, 8 B
# each for a Hermitian seed; only the rows written are touched.  At
# full depth K <= 4^N (134 MB per basis at N = 6, 2.1 GB at N = 7), and a
# complex two-sided full-space N = 6 run reserves 2 x 4096^2 x 16 B.  A
# chain cut at its time grid's depth is far shorter (K = 256 of the
# 2,080-dimensional reflection sector at N = 6: 4.3 MB written).
MAX_QUBITS = 6
MAX_DIM = 4 ** MAX_QUBITS
HERM_TOL = 1e-10   # largest |H - H'| entry allowed, relative to max|H|
# Largest |R L R - L| entry, relative to max|L|, for L to count as
# reflection symmetric: for the paper model the sparse sums leave 6.9e-18
# at N = 5 and 6, against max|L| = 11 and 13.  Also the largest imaginary
# part of -i W' L W in the Hermitian basis W, relative to its largest
# entry, for it to count as real (see hermitian_generator).
SYMMETRY_TOL = 16 * np.finfo(float).eps


def as_matrix(L):
    """L as a square CSR array: the one form of L in the Lanczos layer."""
    M = sp.csr_array(L if sp.issparse(L) else np.asarray(L, dtype=complex))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("superoperator must be a square matrix")
    return M


def vectorize(M):
    """Column-stack a square matrix into a d^2 vector."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("vectorize requires a square matrix")
    return M.flatten(order="F")


def devectorize(v):
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return v.reshape((d, d), order="F")


def _kron(A, B):
    return sp.kron(A, B, format="csr")


def build_lindbladian(H, jumps):
    """Vectorized Lindblad generator as a CSR matrix.

    L_o = I kron G - G~^T kron I - i sum_k Lk^T kron Lk', with the
    effective Hamiltonians G = H + K and G~ = H - K, K = (i/2) sum_k Lk'Lk.
    H must be Hermitian; no jumps give K = 0, the commutator alone.
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    if d * d > MAX_DIM:
        raise ValueError(
            f"superoperator dimension {d * d} exceeds the supported "
            f"ceiling ({MAX_DIM}, i.e. {MAX_QUBITS} qubits)")
    if np.abs(H - H.conj().T).max() > HERM_TOL * max(1.0, np.abs(H).max()):
        raise ValueError("Lindbladian requires a Hermitian Hamiltonian")
    jumps = [np.asarray(Lk, dtype=complex) for Lk in jumps]
    if any(Lk.shape != (d, d) for Lk in jumps):
        raise ValueError("jump operator dimension mismatch with H")
    K = 0.5j * sum((Lk.conj().T @ Lk for Lk in jumps), np.zeros_like(H))
    eye = sp.eye_array(d, dtype=complex, format="csr")
    L = _kron(eye, sp.csr_array(H + K)) - _kron(sp.csr_array((H - K).T), eye)
    for Lk in jumps:
        L = L - 1j * _kron(sp.csr_array(Lk.T), sp.csr_array(Lk.conj().T))
    return L


def build_model_lindbladian(spec):
    """Assemble the Lindbladian for a :class:`ModelSpec` in one call."""
    from .spin_algebra import build_tfim, build_jump_operators

    H = build_tfim(spec)
    return build_lindbladian(H, build_jump_operators(spec))


def reflection_sector(L, seed):
    """Isometry B onto the reflection-even sector of L and ``seed``, or None.

    Site reversal R maps vec index k = i + d j to perm[k] = r(i) + d r(j),
    where r reverses the sites (bits) of a basis state.  When the seed is
    exactly even under it and L commutes with it to ``SYMMETRY_TOL``,
    every Krylov vector of L (and of L') from the seed is even, so
    Lanczos can run on B^T L B from B^T seed.  B has one unit column per
    index R fixes and one (e_i + e_j)/sqrt(2) column per swapped pair,
    ordered by the pair's smaller index.  None also when L is not a
    superoperator of N >= 2 qubits: one site has no reversal.
    """
    d = int(round(np.sqrt(L.shape[0])))
    N = d.bit_length() - 1
    if d * d != L.shape[0] or d != 1 << N or N < 2:
        return None
    r = np.arange(d).reshape((2,) * N).T.ravel()
    perm = np.add.outer(d * r, r).ravel()
    if not np.array_equal(np.asarray(seed)[perm], seed):
        return None
    if abs(L[perm][:, perm] - L).max() > SYMMETRY_TOL * abs(L).max():
        return None
    k = np.arange(perm.size)
    col = np.unique(np.minimum(k, perm), return_inverse=True)[1]
    return sp.csr_array((np.where(perm == k, 1.0, np.sqrt(0.5)), (k, col)))


def hermitian_basis(n, B=None):
    """Hermitian operator basis of the n-dimensional space, or of B's range.

    Transposition maps vec index k = i + d j to j + d i (n = d^2; any other
    n has no transposition and gives V = I).  It commutes with site
    reversal, so it permutes the columns of the isometry B of
    :func:`reflection_sector` (B = I when None), by pi say.  V is the
    sparse unitary with one column e_m per column m that pi fixes and,
    for each pair m < pi(m), (e_m + e_pi(m))/sqrt(2) in column m and
    i (e_m - e_pi(m))/sqrt(2) in column pi(m): every column of W = B V is
    a Hermitian operator.  Returns (W, J), where J holds the signs
    W^T W = diag(J): -1 on the antisymmetric columns, +1 elsewhere.
    """
    d = int(round(np.sqrt(n)))
    k = np.arange(n)
    t = k % d * d + k // d if d * d == n else k
    col = k if B is None else B.indices   # the column of each row of B
    pi = col[t[np.unique(col, return_index=True)[1]]]
    m = np.arange(pi.size)
    J = np.where(m > pi, -1.0, 1.0)
    diag = np.where(m == pi, 1.0, np.where(m < pi, 1, -1j) * np.sqrt(0.5))
    pair = m != pi
    V = sp.csr_array((np.r_[diag, (J * diag)[pair]],
                      (np.r_[m, pi[pair]], np.r_[m, m[pair]])))
    return (V if B is None else B @ V), J


def hermitian_generator(A, W, *vectors):
    """R = -i W' A W and W' v for each of ``vectors``: the sparse n x n
    matrix A and the n-vectors in the coordinates of the basis W of
    :func:`hermitian_basis`.

    The one float64 rule of the Lanczos layer: R is cast to float64 when
    max|Im R| <= ``SYMMETRY_TOL`` max|R|, as for a Lindbladian up to the
    roundoff of the sparse products, and then the W' v too when none has
    an imaginary part.  The check reads R.data, so it leaves R untouched.
    """
    R = -1j * (W.conj().T @ A @ W)
    xs = [W.conj().T @ np.asarray(v, dtype=complex) for v in vectors]
    if np.abs(R.data.imag).max(initial=0.0) \
            <= SYMMETRY_TOL * np.abs(R.data).max(initial=0.0):
        R = R.real
        if not any(np.any(x.imag) for x in xs):
            xs = [x.real for x in xs]
    return (R, *xs)


def uniform_seed(d):
    """Vectorized uniformly distributed operator: d^2 entries of 1/d, unit norm."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return np.full(d * d, 1.0 / d, dtype=complex)
