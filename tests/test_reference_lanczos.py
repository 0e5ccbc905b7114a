"""An extended-precision reference for the Lanczos chain.

The reference runs the complex-symmetric Lanczos recursion (bilinear form
x^T y, two reorthogonalization passes) in 50-digit mpmath arithmetic on
B^T L B, the float64 restriction of the open N = 3 model to its
reflection-even sector, converted exactly.  Both recursions therefore see
the same matrix, and what separates their coefficients is the roundoff of
the float64 one.  In this form the chain's coefficients are a_n and
b_n c_n = beta_n^2, both independent of how the basis vectors are scaled.
"""

import mpmath
import numpy as np

from krylovflow.bilanczos import bilanczos
from krylovflow.lindbladian import build_model_lindbladian, \
    reflection_sector, uniform_seed
from krylovflow.spin_algebra import ModelSpec

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
    a_exact, bc_exact = reference_lanczos((B.T @ L @ B).toarray(),
                                          B.T @ seed)
    a_ref, bc_ref = (np.array([complex(x) for x in xs])
                     for xs in (a_exact, bc_exact))
    tri = bilanczos(L, seed, seed)
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
