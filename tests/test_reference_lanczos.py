"""An extended-precision reference for the Lanczos chain.

The reference runs the complex-symmetric Lanczos recursion (bilinear form
x^T y, two reorthogonalization passes) in 50-digit mpmath arithmetic on
B^T L B, the float64 restriction of the open N = 3 model to its
reflection-even sector, converted exactly.  The float64 kernel runs on the
same operator in the Hermitian basis, R = -i W' L W, which rounds
differently; the exact chains of the two float64 matrices differ by 4.5e-11
of the column maximum at N = 4, far below the float64 chain's own
deviation, so what separates the coefficients is the roundoff of the
float64 recursion.  In this form the chain's coefficients are a_n and
b_n c_n = beta_n^2, both independent of how the basis vectors are scaled.

The N = 4 tests take about a minute each and run only when the environment
variable KRYLOVFLOW_SLOW_TESTS is set to 1.

A closed chain has a second reference in float64: the chain of ad_H from
the seed O is the Jacobi matrix of the spectral measure sum_k w_k
delta(omega - omega_k), over the distinct gaps omega_k = E_i - E_j of H
with w_k the summed |O_ij|^2 in H's eigenbasis (Gragg & Harrod, Numer.
Math. 44, 1984), and Lanczos on diag(omega) from sqrt(w) builds it.
"""

import os

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from krylovflow.bilanczos import bilanczos
from krylovflow.lindbladian import build_model_lindbladian, devectorize, \
    reflection_sector, uniform_seed
from krylovflow.spin_algebra import ModelSpec, build_tfim
from tests.scipy_csr import scipy_csr

REFERENCE_DPS = 50


def reference_lanczos(A, v):
    """Lists of a_n and b_n c_n, as mpmath numbers, of complex-symmetric
    Lanczos on the dense float64 matrix A from v, in REFERENCE_DPS-digit
    arithmetic; every float64 entry converts to mpmath exactly."""
    with mpmath.workdps(REFERENCE_DPS):
        rows = [[(j, mpmath.mpc(A[i, j])) for j in np.flatnonzero(A[i])]
                for i in range(A.shape[0])]
        w = [mpmath.mpc(x) for x in v]
        V, a, bc = [], [], []
        for _ in range(A.shape[0]):
            if V:
                for _ in range(2):
                    for u in V:
                        h = mpmath.fdot(u, w)
                        w = [x - h * y for x, y in zip(w, u)]
                bc.append(mpmath.fdot(w, w))
            beta = mpmath.sqrt(mpmath.fdot(w, w))
            v = [x / beta for x in w]
            Lv = [mpmath.fdot([A_ij for _, A_ij in row],
                              [v[j] for j, _ in row]) for row in rows]
            a.append(mpmath.fdot(v, Lv))
            w = [x - a[-1] * y for x, y in zip(Lv, v)]
            if V:
                w = [x - beta * y for x, y in zip(w, V[-1])]
            V.append(v)
        return a, bc


def test_sector_chain_matches_extended_precision_reference():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    B = reflection_sector(L, seed)
    B, L = scipy_csr(B), scipy_csr(L)
    a_exact, bc_exact = reference_lanczos((B.T @ L @ B).toarray(),
                                          B.T @ seed)
    a_ref, bc_ref = (np.array([complex(x) for x in xs])
                     for xs in (a_exact, bc_exact))
    tri = bilanczos(L, seed)
    assert tri.K == a_ref.size == 40
    for x, ref in ((tri.a, a_ref), (tri.b * tri.c, bc_ref)):
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    # The structure violations the known-red tests report are properties
    # of the exact chain, not roundoff: Im a_7 < 0 and b_23 c_23 < 0
    # (rows n of coefficients.csv; b_n c_n is stored from n = 1) ...
    assert a_ref[7].imag < 0
    assert bc_ref[22].real < 0
    # ... while Re a_n = 0 holds to the reference's precision.
    assert max(abs(mpmath.re(x)) for x in a_exact) < 1e-40


slow = pytest.mark.skipif(os.environ.get("KRYLOVFLOW_SLOW_TESTS") != "1",
                          reason="set KRYLOVFLOW_SLOW_TESTS=1 to run")


def _n4_reference(rate):
    spec = ModelSpec(N=4, g=-1.05, h=0.5, alpha=rate, gamma=rate)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    B = reflection_sector(L, seed)
    B, L = scipy_csr(B), scipy_csr(L)
    a_exact, bc_exact = reference_lanczos((B.T @ L @ B).toarray(),
                                          B.T @ seed)
    return bilanczos(L, seed), a_exact, bc_exact


@slow
def test_open_n4_chain_matches_extended_precision_reference():
    # The chain's near-breakdowns amplify roundoff: the float64 chain
    # leaves the exact one by more than 1e-10 of the column maximum from
    # n = 81 on (6.0e-10 in a_n, 1.2e-9 in b_n c_n at worst).  A reference
    # run on the real J-symmetric matrix the kernel itself uses gives the
    # same figures, so this is the recursion's own roundoff.
    tri, a_exact, bc_exact = _n4_reference(0.01)
    a_ref, bc_ref = (np.array([complex(x) for x in xs])
                     for xs in (a_exact, bc_exact))
    assert tri.K == a_ref.size == 136
    for x, ref in ((tri.a, a_ref), (tri.b * tri.c, bc_ref)):
        dev = np.abs(x - ref) / np.abs(ref).max()
        assert dev[:80].max() <= 1e-10
        assert dev.max() <= 1e-8
    assert max(abs(mpmath.re(x)) for x in a_exact) < 1e-40


@slow
def test_closed_n4_reference_breaks_down_at_91():
    # The exact closed chain has a = 0 and breaks down at K = 91; the
    # float64 chain keeps a = 0 exactly and matches it to n = 60, but runs
    # on with roundoff to K = 121 (see FOUND in CHANGES.md).
    tri, a_exact, bc_exact = _n4_reference(0.0)
    bc_abs = np.array([float(abs(x)) for x in bc_exact])
    K_exact = 1 + int(np.argmax(bc_abs < 1e-40 * bc_abs.max()))
    assert K_exact == 91
    assert max(abs(x) for x in a_exact[:K_exact]) < 1e-40
    assert not np.any(tri.a) and tri.K > K_exact
    bc_ref = np.array([complex(x) for x in bc_exact[:60]])
    assert np.abs((tri.b * tri.c)[:60] - bc_ref).max() \
        <= 1e-10 * np.abs(bc_ref).max()


def spectral_measure(spec, merge_tol=1e-9):
    """The gaps omega_k and weights w_k of the uniform seed's spectral
    measure: weights below 1e-14 of the largest are dropped, and gaps
    within ``merge_tol`` of their neighbour merge at their weighted mean."""
    E, U = np.linalg.eigh(build_tfim(spec))
    O = U.conj().T @ devectorize(uniform_seed(spec.dim)) @ U
    gaps, weights = (E[:, None] - E).ravel(), (np.abs(O) ** 2).ravel()
    keep = weights >= 1e-14 * weights.max()
    order = np.argsort(gaps[keep])
    gaps, weights = gaps[keep][order], weights[keep][order]
    starts = np.flatnonzero(np.diff(gaps, prepend=-np.inf) > merge_tol)
    w = np.add.reduceat(weights, starts)
    return np.add.reduceat(gaps * weights, starts) / w, w


@pytest.mark.parametrize("N, n_gaps, agree", [(3, 31, 30), (4, 91, 50),
                                              (5, 381, 110)])
def test_closed_chain_matches_the_spectral_measure(N, n_gaps, agree):
    # The gap count is the closed chain's exact Krylov dimension and does
    # not depend on the merge tolerance.  The superoperator chain matches
    # the spectral one in full at N = 3 (both K = 31); at N = 4 and 5 its
    # roundoff first shows at b_n c_n index 61 and 125 (N = 4 runs on to
    # K = 121; see FOUND in CHANGES.md), so only a prefix is compared.
    spec = ModelSpec(N=N, g=-1.05, h=0.5)
    gaps, weights = spectral_measure(spec)
    assert [gaps.size] + [spectral_measure(spec, tol)[0].size
                          for tol in (1e-12, 1e-6)] == [n_gaps] * 3
    spectral = bilanczos(sp.diags_array(gaps), np.sqrt(weights))
    assert spectral.K == n_gaps
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(spec.dim),
                    max_iter=n_gaps + 40)
    if N == 3:
        assert tri.K == n_gaps
    bc, bc_ref = tri.b * tri.c, spectral.b * spectral.c
    assert np.abs(bc[:agree] - bc_ref[:agree]).max() \
        <= 1e-10 * np.abs(bc_ref).max()
