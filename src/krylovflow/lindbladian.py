"""Vectorization and sparse superoperator assembly, closed and open dynamics.

Vectorization is column-major (Fortran order), so that
vec(A X B) = (B^T kron A) vec(X). With this convention the commutator
superoperator is I kron H - H^T kron I acting on vec(X).

The superoperator is a :class:`CSR` record, assembled in numpy from
index/value triplets: a Kronecker product is index arithmetic on its
factors' nonzeros, and an entry that several terms or products share is
summed from 0 in the order of the compressed-row kernels (a sum term by
term, a product row by row as in Gustavson, ACM TOMS 4 (1978)), so its
bits do not depend on how the triplets were sorted.  For the
transverse-field Ising chain and its local jumps that is about 13
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

from functools import cached_property

import numpy as np

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


class CSR:
    """A sparse matrix as compressed rows: ``data``, int32 ``indices`` and
    ``indptr``, each row's columns sorted and distinct, and ``shape``.  It
    multiplies dense vectors and matrices and converts to a dense array;
    it has no sparse-sparse operators.  Only the real part of a complex
    matrix (see :func:`hermitian_generator`) stores zeros."""

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = tuple(map(int, shape))

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def rows(self):
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @cached_property
    def _padded(self):
        """(V, C): row i's entries and their columns as column i of two
        (w, n) arrays, w the longest row, padded with zeros."""
        count = np.diff(self.indptr)
        slot = np.arange(self.data.size) - np.repeat(self.indptr[:-1], count)
        V = np.zeros((count.max(initial=0), self.shape[0]), self.dtype)
        C = np.zeros(V.shape, np.intp)
        V[slot, self.rows], C[slot, self.rows] = self.data, self.indices
        return V, C

    def __matmul__(self, x):
        """M x for a dense vector or matrix x.  Row i sums its products from
        0 in column order, as a compressed-row kernel does; the padding
        adds zeros, which change no sum."""
        x = np.asarray(x)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"operand of shape {x.shape} for a {self.shape} "
                             "matrix")
        V, C = self._padded
        if x.ndim == 1:
            return np.add.reduce(V * x[C], axis=0, initial=0)
        y = np.zeros((self.shape[0],) + x.shape[1:], np.result_type(V, x))
        for v, c in zip(V, C):
            y += v[:, None] * x[c]
        return y

    def toarray(self):
        M = np.zeros(self.shape, self.dtype)
        M[self.rows, self.indices] = self.data
        return M


def _runs(keys):
    """(order, bounds, unique): the stable order that sorts ``keys``, the
    bounds of its runs of equal keys in that order (keys.size last), and
    each run's key."""
    # one sort of (key, position) pairs, packed in one integer
    shift = max(keys.size, 1).bit_length()
    packed = np.sort(keys << shift | np.arange(keys.size))
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    edge = np.ones(keys.size + 1, bool)
    np.not_equal(packed[1:], packed[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return order, bounds, packed[bounds[:-1]]


def _sums(vals, bounds):
    """The sum of each run vals[bounds[r]:bounds[r + 1]], from 0 in order,
    as a compressed-row kernel sums an entry's terms."""
    start, size = bounds[:-1], np.diff(bounds)
    sums = vals[start] + 0
    at, r = np.flatnonzero(size > 1), 1
    while at.size:   # add the r-th value of the runs that have one
        if at.size == sums.size:
            sums += vals[start + r]
        else:
            sums[at] += vals[start[at] + r]
        r += 1
        at = at[size[at] > r]
    return sums


def _csr(rows, cols, vals, shape):
    """The CSR matrix of the triplets (rows, cols, vals): the values of one
    entry summed from 0 in the order given, and the entries that sum to 0
    dropped."""
    order, bounds, keys = _runs(rows * np.int64(shape[1]) + cols)
    sums = _sums(vals[order], bounds)
    keep = sums != 0
    keys, sums = keys[keep], sums[keep]
    indptr = np.zeros(shape[0] + 1, np.int32)
    np.cumsum(np.bincount(keys // shape[1], minlength=shape[0]),
              out=indptr[1:])
    return CSR(sums, (keys % shape[1]).astype(np.int32), indptr, shape)


def _times(rows, mid, vals, M):
    """The terms of X M before they are summed, X given by its triplets
    (rows, mid, vals): each X entry times each entry of M's row ``mid``,
    X's factor first, in X's order."""
    start = M.indptr[mid]
    count = M.indptr[mid + 1] - start
    e = np.repeat(np.arange(start.size), count)
    f = np.repeat(start - np.cumsum(count) + count, count) + np.arange(e.size)
    return rows[e], M.indices[f], vals[e] * M.data[f]


def _nonzeros(M):
    """(rows, cols, values) of the nonzero entries of a dense M, by rows."""
    r, c = np.nonzero(M)
    return r, c, M[r, c]


def as_matrix(L):
    """L as a square :class:`CSR` matrix: the one form of L in the Lanczos
    layer.  A dense array is taken as complex; a sparse one that is not a
    :class:`CSR`, through its ``tocoo()`` (coordinate form, as sparse
    array libraries give it), with its dtype."""
    if isinstance(L, CSR):
        M = L
    elif hasattr(L, "tocoo"):
        C = L.tocoo()
        M = _csr(np.asarray(C.row), np.asarray(C.col), C.data, C.shape) \
            if len(C.shape) == 2 else None
    else:
        L = np.asarray(L, dtype=complex)
        M = _csr(*_nonzeros(L), L.shape) if L.ndim == 2 else None
    if M is None or M.shape[0] != M.shape[1]:
        raise ValueError("superoperator must be a square matrix")
    return M


def transpose(A):
    """A^T of a :class:`CSR` A."""
    return _csr(A.indices, A.rows, A.data, A.shape[::-1])


def is_symmetric(A):
    """A^T = A exactly, for a :class:`CSR` A that stores no zero, as
    :func:`as_matrix` gives it."""
    T = transpose(A)
    return all(np.array_equal(getattr(T, k), getattr(A, k))
               for k in ("indptr", "indices", "data"))


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


def _kron(A, B, d):
    """Triplets of kron(A, B) from those of A and B, d x d each: each
    product A_ij B_kl with A's factor first."""
    (ar, ac, av), (br, bc, bv) = A, B
    return (np.add.outer(d * ar, br).ravel(), np.add.outer(d * ac, bc).ravel(),
            (av[:, None] * bv).ravel())


def build_lindbladian(H, jumps):
    """Vectorized Lindblad generator as a :class:`CSR` matrix.

    L_o = I kron G - G~^T kron I - i sum_k Lk^T kron Lk', with the
    effective Hamiltonians G = H + K and G~ = H - K, K = (i/2) sum_k Lk'Lk.
    H must be Hermitian; no jumps give K = 0, the commutator alone.  K is
    summed from the products of each jump's nonzeros, with no d x d matrix
    product, and each entry of L from its terms in the formula's order.
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
    K = np.zeros_like(H)
    for Lk in jumps:   # Lk' Lk: row k of Lk adds conj(Lk[k, i]) Lk[k, j]
        M = _csr(*_nonzeros(Lk), Lk.shape)
        i, j, products = _times(M.indices, M.rows, M.data.conj(), M)
        np.add.at(K, (i, j), products)
    K = 0.5j * K
    eye = _nonzeros(np.eye(d, dtype=complex))
    terms = [_kron(eye, _nonzeros(H + K), d),
             _kron(_nonzeros((H - K).T), eye, d)]
    terms += [_kron(_nonzeros(Lk.T), _nonzeros(Lk.conj().T), d)
              for Lk in jumps]
    rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
    # L = T_1 - T_2 - i T_3 - ...: subtract, as -(T_3 i) is summed
    n = [t[2].size for t in terms]
    vals[n[0]:n[0] + n[1]] = -vals[n[0]:n[0] + n[1]]
    vals[n[0] + n[1]:] = -(vals[n[0] + n[1]:] * 1j)
    return _csr(rows, cols, vals, (d * d, d * d))


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
    superoperator of N >= 2 qubits: one site has no reversal.  L is taken
    by :func:`as_matrix`; B is a :class:`CSR` matrix.
    """
    d = int(round(np.sqrt(L.shape[0])))
    N = d.bit_length() - 1
    if d * d != L.shape[0] or d != 1 << N or N < 2:
        return None
    r = np.arange(d).reshape((2,) * N).T.ravel()
    perm = np.add.outer(d * r, r).ravel()
    if not np.array_equal(np.asarray(seed)[perm], seed):
        return None
    L = as_matrix(L)   # R L R - L: L's entries moved by perm, less L's own
    rows, cols = np.r_[perm[L.rows], L.rows], np.r_[perm[L.indices], L.indices]
    order, bounds, _ = _runs(rows * np.int64(d * d) + cols)
    moved = _sums(np.r_[L.data, -L.data][order], bounds)
    if np.abs(moved).max(initial=0.0) \
            > SYMMETRY_TOL * np.abs(L.data).max(initial=0.0):
        return None
    k = np.arange(perm.size)
    col = np.unique(np.minimum(k, perm), return_inverse=True)[1]
    return _csr(k, col, np.where(perm == k, 1.0, np.sqrt(0.5)),
                (k.size, col.max() + 1))


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
    V = _csr(np.r_[m, pi[pair]], np.r_[m, m[pair]],
             np.r_[diag, (J * diag)[pair]], (m.size, m.size))
    if B is not None:
        V = _csr(*_times(B.rows, B.indices, B.data, V), (n, m.size))
    return V, J


def hermitian_generator(A, W, *vectors):
    """R = -i W' A W and W' v for each of ``vectors``: the n x n matrix A
    (see :func:`as_matrix`) and the n-vectors in the coordinates of the
    basis W of :func:`hermitian_basis`.  R is a :class:`CSR` matrix.

    Each entry sums its products as the row-by-row sparse products
    C^T = A^T conj(W), C = W' A, then (C W)^T = W^T C^T would: over the
    rows of A in order, then over the rows of W in order.

    The one float64 rule of the Lanczos layer: R is cast to float64 when
    max|Im R| <= ``SYMMETRY_TOL`` max|R|, as for a Lindbladian up to the
    roundoff of the sparse products, and then the W' v too when none has
    an imaginary part.
    """
    A = as_matrix(A)
    m = W.shape[1]
    # W's rows fall into orbits under reversal and transposition: one or
    # two columns, the first its label, and each holds all the orbit's
    # rows.  So each entry below sums over one run of rows of an orbit.
    first, two = W.indptr[:-1], np.diff(W.indptr) == 2
    orbit = W.indices[first]
    w = [W.data[first], np.where(two, W.data[first + two], 0)]
    second = np.full(m, -1)   # an orbit's second column, by its label
    second[orbit[two]] = W.indices[first[two] + 1]
    # C^T = A^T conj(W): entry (i, k) sums A_li conj(W_lk) over the rows l
    # of k's orbit, ascending; A's rows are its entries' order.
    order, bounds, key = _runs(A.indices * np.int64(m) + orbit[A.rows])
    l, a = A.rows[order], A.data[order]
    C = [_sums(a * wc[l].conj(), bounds) for wc in w]   # by orbit column
    j, o = np.divmod(key, m)   # C^T's row j and the orbit o of its columns
    # R = -i C W, entry (k, i) summing W_ji C_kj over the rows j of i's
    # orbit, ascending
    order, bounds, key = _runs(orbit[j] * np.int64(m) + o)
    j, C = j[order], [c[order] for c in C]
    oi, ok = np.divmod(key, m)   # the orbits of R's columns i and rows k
    parts = [(k, i, _sums(wi[j] * c, bounds))
             for wi, i in zip(w, (oi, second[oi]))
             for c, k in zip(C, (ok, second[ok]))]
    k, i, vals = (np.concatenate(x) for x in zip(*parts))
    valid = (k >= 0) & (i >= 0)   # orbits with a second column
    R = _csr(k[valid], i[valid], vals[valid] * -1j, (m, m))
    Wc = W.data.conj()
    xs = []
    for v in vectors:   # W' v sums over the rows of W in order
        x = np.zeros(m, dtype=complex)
        np.add.at(x, W.indices, Wc * np.asarray(v, dtype=complex)[W.rows])
        xs.append(x)
    if np.abs(R.data.imag).max(initial=0.0) \
            <= SYMMETRY_TOL * np.abs(R.data).max(initial=0.0):
        R = CSR(R.data.real.copy(), R.indices, R.indptr, R.shape)
        if not any(np.any(x.imag) for x in xs):
            xs = [x.real for x in xs]
    return (R, *xs)


def uniform_seed(d):
    """Vectorized uniformly distributed operator: d^2 entries of 1/d, unit norm."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return np.full(d * d, 1.0 / d, dtype=complex)
