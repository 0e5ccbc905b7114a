"""Vectorization and sparse superoperator assembly, closed and open dynamics.

Vectorization is column-major (Fortran order), so that
vec(A X B) = (B^T kron A) vec(X). With this convention the commutator
superoperator is I kron H - H^T kron I acting on vec(X).

Superoperators are assembled with ``scipy.sparse.kron`` into one CSR
matrix. For the transverse-field Ising chain and its local jumps that is
about 13 nonzeros per row, against 4^N for a dense matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# The Lanczos bases, not L, bound the size: K <= 4^N - 2^N + 1 vectors of
# 4^N complex entries each, i.e. up to K * 4^N * 16 B per basis (264 MB at
# N = 6, 4.3 GB at N = 7).
MAX_QUBITS = 6
MAX_DIM = 4 ** MAX_QUBITS


@dataclass(frozen=True)
class Superoperator:
    """Sparse (CSR) superoperator acting on column-stacked operators."""

    matrix: sp.csr_array

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def d(self):
        return int(round(np.sqrt(self.dim)))


def as_matrix(L):
    """The matrix of a Superoperator; a square sparse or dense array as is."""
    if isinstance(L, Superoperator):
        return L.matrix
    M = L if sp.issparse(L) else np.asarray(L, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("superoperator must be a square matrix")
    return M


def krylov_dim_bound(dim):
    """Most Lanczos steps a superoperator of dimension ``dim`` can take.

    Operator Krylov spaces of a D-level system (dim = D^2) close after at
    most D^2 - D + 1 steps; any other dimension bounds itself.
    """
    D = int(round(np.sqrt(dim)))
    return D * D - D + 1 if D * D == dim else dim


def hermiticity_defect(M):
    """Max entrywise |M - M^dagger|."""
    M = np.asarray(M)
    return float(np.abs(M - M.conj().T).max())


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


def _check_dim(d):
    if d * d > MAX_DIM:
        raise ValueError(
            f"superoperator dimension {d * d} exceeds the supported "
            f"ceiling ({MAX_DIM}, i.e. {MAX_QUBITS} qubits)")


def _kron(A, B):
    return sp.kron(A, B, format="csr")


def _commutator(H):
    """I kron H - H^T kron I as a CSR matrix."""
    Hs = sp.csr_array(H)
    eye = sp.eye_array(H.shape[0], dtype=complex, format="csr")
    return _kron(eye, Hs) - _kron(Hs.T, eye)


def build_liouvillian_closed(H, herm_tol=1e-10):
    """Commutator superoperator I kron H - H^T kron I. Requires Hermitian H."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    _check_dim(d)
    if hermiticity_defect(H) > herm_tol * max(1.0, np.abs(H).max()):
        raise ValueError("closed Liouvillian requires a Hermitian Hamiltonian")
    return Superoperator(matrix=_commutator(H))


def build_lindbladian(H, jumps):
    """Vectorized Lindblad generator.

    L_o = (I kron H - H^T kron I)
          + (i/2) sum_k [I kron Lk'Lk + Lk^T Lk* kron I - 2 Lk^T kron Lk'].

    Reduces to :func:`build_liouvillian_closed` for an empty jump list.
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    _check_dim(d)
    if not jumps:
        return build_liouvillian_closed(H)
    eye = sp.eye_array(d, dtype=complex, format="csr")
    diss = sp.csr_array((d * d, d * d), dtype=complex)
    for Lk in jumps:
        Lk = np.asarray(Lk, dtype=complex)
        if Lk.shape != (d, d):
            raise ValueError("jump operator dimension mismatch with H")
        LdL = sp.csr_array(Lk.conj().T @ Lk)
        diss = (diss + (_kron(eye, LdL) + _kron(LdL.T, eye))
                - 2.0 * _kron(sp.csr_array(Lk.T), sp.csr_array(Lk.conj().T)))
    return Superoperator(matrix=_commutator(H) + 0.5j * diss)


def build_model_lindbladian(spec):
    """Assemble the Lindbladian for a :class:`ModelSpec` in one call."""
    from .spin_algebra import build_tfim, build_jump_operators

    H = build_tfim(spec)
    return build_lindbladian(H, build_jump_operators(spec))


def uniform_seed(d):
    """Vectorized uniformly distributed operator: d^2 entries of 1/d, unit norm."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return np.full(d * d, 1.0 / d, dtype=complex)
