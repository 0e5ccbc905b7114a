"""Full-space views of a Lanczos chain, for the tests that check it there.

``TridiagonalData`` stores the bases as coordinates in the recursion's
sparse Hermitian basis W; these lift them back to the operator space.
"""

import numpy as np


def p_basis(tri):
    """dim x K, columns p_n = i^n W p~_n."""
    return tri.W @ tri.P.T * 1j ** np.arange(tri.K)


def q_basis(tri):
    """dim x K, columns q_n = i^n W conj(q~_n): conj(W) = W diag(J), so
    Q' P = I and Q' L P = T in full space."""
    return tri.W @ tri.Q.T.conj() * 1j ** np.arange(tri.K)


def tridiagonal_matrix(tri):
    """The K x K matrix T with diagonal a, superdiagonal b, subdiagonal c."""
    T = np.diag(tri.a.astype(complex))
    T += np.diag(tri.b.astype(complex), k=1)   # 1 x 1 zero when K = 1
    T += np.diag(tri.c.astype(complex), k=-1)
    return T
