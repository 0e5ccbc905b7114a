import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.linalg import expm

from krylovflow.lindbladian import (as_matrix, build_lindbladian,
                                    build_model_lindbladian, devectorize,
                                    hermitian_basis, hermitian_generator,
                                    reflection_sector, uniform_seed,
                                    vectorize)
from krylovflow.spin_algebra import (PAULI_MINUS, PAULI_X, PAULI_Z,
                                     ModelSpec, build_jump_operators,
                                     build_tfim)
from tests.scipy_csr import scipy_csr


def test_vectorize_column_stacking():
    M = np.array([[1, 2], [3, 4]], dtype=complex)
    assert_allclose(vectorize(M), [1, 3, 2, 4])


def test_vectorize_commutator_identity():
    rng = np.random.default_rng(7)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = H + H.conj().T
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = vectorize(H @ X - X @ H)
    sup = np.kron(np.eye(4), H) - np.kron(H.T, np.eye(4))
    assert_allclose(lhs, sup @ vectorize(X), atol=1e-12)


def test_vectorize_round_trip():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert_allclose(devectorize(vectorize(M)), M)


def test_vectorize_rejects_non_square():
    with pytest.raises(ValueError):
        vectorize(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="perfect square"):
        devectorize(np.zeros(5))


def test_closed_liouvillian_single_qubit_z():
    L = build_lindbladian(PAULI_Z, [])
    Z = PAULI_Z
    ref = np.kron(np.eye(2), Z) - np.kron(Z.T, np.eye(2))
    assert_allclose(L.toarray(), ref)
    assert_allclose(np.diag(L.toarray()), [0, -2, 2, 0])


def test_closed_liouvillian_annihilates_identity():
    H = build_tfim(ModelSpec(N=2, g=-1.05, h=0.5))
    L = build_lindbladian(H, [])
    assert np.linalg.norm(L @ vectorize(np.eye(4))) < 1e-12


def test_closed_liouvillian_spectrum_is_differences():
    H = build_tfim(ModelSpec(N=2, g=-1.05, h=0.5))
    L = build_lindbladian(H, [])
    E = np.linalg.eigvalsh(H)
    diffs = np.sort((E[None, :] - E[:, None]).ravel())
    assert_allclose(np.sort(np.linalg.eigvalsh(L.toarray())), diffs,
                    atol=1e-10)


def test_closed_liouvillian_rejects_non_hermitian():
    # The Hermiticity check holds for closed and open models alike.
    H = np.array([[0, 1], [0, 0]], dtype=complex)
    for jumps in ([], [PAULI_MINUS]):
        with pytest.raises(ValueError):
            build_lindbladian(H, jumps)


def test_single_qubit_dephasing_decay():
    # H = 0, L = sqrt(gamma) Z: sigma_x decays at rate 2 gamma
    gamma = 0.3
    L = build_lindbladian(np.zeros((2, 2), dtype=complex),
                          [np.sqrt(gamma) * PAULI_Z])
    v0 = vectorize(PAULI_X)
    for t in (0.1, 0.5, 2.0):
        v = expm(1j * t * L.toarray()) @ v0
        assert_allclose(v, v0 * np.exp(-2 * gamma * t), atol=1e-12)


def test_dual_trace_preservation_single_qubit():
    # Heisenberg generator must annihilate the identity operator, which
    # is trace preservation of the dual (density-matrix) dynamics.
    g, h, alpha = -1.05, 0.5, 0.04
    H = -g * PAULI_X - h * PAULI_Z
    L = build_lindbladian(H, [np.sqrt(alpha) * PAULI_MINUS])
    assert np.linalg.norm(L @ vectorize(np.eye(2))) < 1e-12
    # and the operator-side probability P(t) = |v|^2 leaks for the
    # uniform seed (direct matrix-exponential oracle)
    v0 = uniform_seed(2)
    v1 = expm(1j * 1.0 * L.toarray()) @ v0
    v2 = expm(1j * 3.0 * L.toarray()) @ v0
    assert np.linalg.norm(v1) < 1.0
    assert np.linalg.norm(v2) < np.linalg.norm(v1)


def test_uniform_seed_small():
    assert_allclose(uniform_seed(2), [0.5, 0.5, 0.5, 0.5])
    assert np.linalg.norm(uniform_seed(2)) == pytest.approx(1.0, abs=1e-15)
    s4 = uniform_seed(4)
    assert s4.shape == (16,)
    assert_allclose(s4, np.full(16, 0.25))
    assert np.linalg.norm(s4) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="d must be"):
        uniform_seed(1)


def test_uniform_seed_devectorizes_to_ones():
    d = 3
    assert_allclose(devectorize(uniform_seed(d)),
                    np.full((d, d), 1.0 / d))


def test_closed_flow_preserves_norm():
    spec = ModelSpec(N=3, g=-1.05, h=0.5)
    L = build_model_lindbladian(spec)
    v0 = uniform_seed(spec.dim)
    for t in (0.5, 2.0, 7.0):
        v = expm(1j * t * L.toarray()) @ v0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_dissipator_linear_in_strength():
    H = build_tfim(ModelSpec(N=2, g=-1.05, h=0.5))
    spec1 = ModelSpec(N=2, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    spec2 = ModelSpec(N=2, g=-1.05, h=0.5, alpha=0.02, gamma=0.02)
    Lc = build_lindbladian(H, []).toarray()
    D1 = (build_lindbladian(H, build_jump_operators(spec1)).toarray()
          - Lc)
    D2 = (build_lindbladian(H, build_jump_operators(spec2)).toarray()
          - Lc)
    assert_allclose(D2, 2 * D1, atol=1e-14)


def test_anticommutator_term_hermitian_psd():
    spec = ModelSpec(N=2, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    d = spec.dim
    for Lk in build_jump_operators(spec):
        term = (np.kron(np.eye(d), Lk.conj().T @ Lk)
                + np.kron(Lk.T @ Lk.conj(), np.eye(d)))
        assert np.abs(term - term.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(term).min() > -1e-14


def test_dimension_cap():
    with pytest.raises(ValueError):
        build_model_lindbladian(ModelSpec(N=7, g=1.0, h=0.0))


def test_dimension_mismatch_rejected():
    H = build_tfim(ModelSpec(N=2, g=1.0, h=0.0))
    with pytest.raises(ValueError):
        build_lindbladian(H, [PAULI_Z])


def site_reversal(N):
    """R of an N-qubit chain as a permutation matrix, from the tensor axes."""
    d = 2 ** N
    idx = np.arange(d).reshape((2,) * N).transpose(range(N - 1, -1, -1))
    return np.eye(d)[idx.ravel()]


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("rate", [0.01, 0.0], ids=["open", "closed"])
def test_reflection_sector_of_paper_models(N, rate):
    spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=rate, gamma=rate)
    seed = uniform_seed(spec.dim)
    B = reflection_sector(build_model_lindbladian(spec), seed)
    assert B is not None
    B = scipy_csr(B)
    assert B.shape == (4 ** N, (4 ** N + 4 ** ((N + 1) // 2)) // 2)
    assert np.abs(B.T @ B - np.eye(B.shape[1])).max() < 1e-15
    assert_allclose(B @ (B.T @ seed), seed, rtol=0, atol=1e-15)
    if N <= 4:
        # B B^T is the projector (1 + R (x) R) / 2 onto even operators.
        R = site_reversal(N)
        X = np.random.default_rng(N).normal(size=(spec.dim, spec.dim))
        assert_allclose(B @ (B.T @ vectorize(X)),
                        vectorize((X + R @ X @ R) / 2), atol=1e-14)


def test_reflection_sector_absent():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    # Damping on the first site only (sigma+- on site 1) breaks the
    # reflection of L.
    asymmetric = build_lindbladian(build_tfim(spec),
                                   build_jump_operators(spec)[:2])
    assert reflection_sector(asymmetric, seed) is None
    # sigma^z on site 1 reverses to sigma^z on site 3: not an even seed.
    Z1 = vectorize(np.kron(PAULI_Z, np.eye(4)))
    assert reflection_sector(L, Z1) is None
    # One site has no reversal, and a matrix that is not 4^N square none.
    one = build_model_lindbladian(ModelSpec(N=1, g=-1.05, h=0.5))
    assert reflection_sector(one, uniform_seed(2)) is None
    assert reflection_sector(np.eye(9), np.ones(9)) is None


@pytest.mark.parametrize("sector", [False, True], ids=["full", "sector"])
@pytest.mark.parametrize("rate", [0.0, 0.01], ids=["closed", "open"])
def test_hermitian_basis_makes_the_lindbladian_real(sector, rate):
    # W is unitary onto Hermitian operators with W^T W = diag(J), so
    # R = -i W' L W is real and J-symmetric, and the uniform seed has real
    # coordinates with no weight on the antisymmetric (J = -1) columns.
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=rate, gamma=rate)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    B = reflection_sector(L, seed) if sector else None
    W, J = hermitian_basis(L.shape[0], B)
    Wd = W.toarray()
    n = Wd.shape[1]
    assert n == (40 if sector else 64)
    assert_allclose(Wd.conj().T @ Wd, np.eye(n), atol=1e-15)
    assert_allclose(Wd.T @ Wd, np.diag(J), atol=1e-15)
    for w in Wd.T:
        X = devectorize(w)
        assert_allclose(X, X.conj().T, atol=0)
    W, L = scipy_csr(W), scipy_csr(L)
    R = -1j * (W.conj().T @ L @ W).toarray()
    assert np.abs(R.imag).max() <= 1e-15 * np.abs(R).max()
    assert_allclose(R.real.T * J, J[:, None] * R.real, atol=1e-14)
    x = W.conj().T @ seed
    assert not np.any(x.imag) and not np.any(x[J < 0])


def test_hermitian_generator_of_a_csr_array():
    # The product -i W' L W of a complex CSR L can have unsorted indices.  A
    # realness test that sorted a view of Im R in place once permuted R's
    # imaginary parts against its indices: R was off by 3.65, against
    # max|R| = 3.58.
    rng = np.random.default_rng(5)
    L = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    seed = rng.normal(size=16) + 1j * rng.normal(size=16)
    W, _ = hermitian_basis(16)
    R, x = hermitian_generator(sp.csr_array(L), W, seed)
    Wd = W.toarray()
    ref = -1j * Wd.conj().T @ L @ Wd
    assert np.abs(R.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
    assert_allclose(x, Wd.conj().T @ seed, rtol=0, atol=1e-15)
