"""The package's CSR matrices as scipy.sparse arrays, for the tests that
check them with scipy's sparse products."""

import scipy.sparse as sp


def scipy_csr(M):
    """A ``krylovflow.lindbladian.CSR`` matrix as a ``scipy.sparse``
    array with the same arrays."""
    return sp.csr_array((M.data, M.indices, M.indptr), shape=M.shape)
