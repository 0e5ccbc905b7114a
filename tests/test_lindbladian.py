import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from krylovflow.lindbladian import (build_lindbladian,
                                    build_liouvillian_closed,
                                    build_model_lindbladian, devectorize,
                                    uniform_seed, vectorize)
from krylovflow.spin_algebra import (ModelSpec, build_jump_operators,
                                     build_tfim, pauli_matrix)


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


def test_closed_liouvillian_single_qubit_z():
    L = build_liouvillian_closed(pauli_matrix("Z"))
    Z = pauli_matrix("Z")
    ref = np.kron(np.eye(2), Z) - np.kron(Z.T, np.eye(2))
    assert_allclose(L.matrix.toarray(), ref)
    assert_allclose(np.diag(L.matrix.toarray()), [0, -2, 2, 0])


def test_closed_liouvillian_annihilates_identity():
    H = build_tfim(ModelSpec(N=2, g=-1.05, h=0.5))
    L = build_liouvillian_closed(H)
    assert np.linalg.norm(L.matrix @ vectorize(np.eye(4))) < 1e-12


def test_closed_liouvillian_spectrum_is_differences():
    H = build_tfim(ModelSpec(N=2, g=-1.05, h=0.5))
    L = build_liouvillian_closed(H)
    E = np.linalg.eigvalsh(H)
    diffs = np.sort((E[None, :] - E[:, None]).ravel())
    assert_allclose(np.sort(np.linalg.eigvalsh(L.matrix.toarray())), diffs,
                    atol=1e-10)


def test_closed_liouvillian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        build_liouvillian_closed(np.array([[0, 1], [0, 0]], dtype=complex))


def test_lindbladian_reduces_to_closed():
    H = build_tfim(ModelSpec(N=2, g=-1.05, h=0.5))
    open_L = build_lindbladian(H, [])
    closed_L = build_liouvillian_closed(H)
    assert_allclose(open_L.matrix.toarray(), closed_L.matrix.toarray())


def test_single_qubit_dephasing_decay():
    # H = 0, L = sqrt(gamma) Z: sigma_x decays at rate 2 gamma
    gamma = 0.3
    L = build_lindbladian(np.zeros((2, 2), dtype=complex),
                          [np.sqrt(gamma) * pauli_matrix("Z")])
    v0 = vectorize(pauli_matrix("X"))
    for t in (0.1, 0.5, 2.0):
        v = expm(1j * t * L.matrix.toarray()) @ v0
        assert_allclose(v, v0 * np.exp(-2 * gamma * t), atol=1e-12)


def test_dual_trace_preservation_single_qubit():
    # Heisenberg generator must annihilate the identity operator, which
    # is trace preservation of the dual (density-matrix) dynamics.
    g, h, alpha = -1.05, 0.5, 0.04
    H = -g * pauli_matrix("X") - h * pauli_matrix("Z")
    L = build_lindbladian(H, [np.sqrt(alpha) * pauli_matrix("MINUS")])
    assert np.linalg.norm(L.matrix @ vectorize(np.eye(2))) < 1e-12
    # and the operator-side probability P(t) = |v|^2 leaks for the
    # uniform seed (direct matrix-exponential oracle)
    v0 = uniform_seed(2)
    v1 = expm(1j * 1.0 * L.matrix.toarray()) @ v0
    v2 = expm(1j * 3.0 * L.matrix.toarray()) @ v0
    assert np.linalg.norm(v1) < 1.0
    assert np.linalg.norm(v2) < np.linalg.norm(v1)


def test_uniform_seed_small():
    assert_allclose(uniform_seed(2), [0.5, 0.5, 0.5, 0.5])
    assert np.linalg.norm(uniform_seed(2)) == pytest.approx(1.0, abs=1e-15)
    s4 = uniform_seed(4)
    assert s4.shape == (16,)
    assert_allclose(s4, np.full(16, 0.25))
    assert np.linalg.norm(s4) == pytest.approx(1.0, abs=1e-15)


def test_uniform_seed_devectorizes_to_ones():
    d = 3
    assert_allclose(devectorize(uniform_seed(d)),
                    np.full((d, d), 1.0 / d))


def test_closed_flow_preserves_norm():
    spec = ModelSpec(N=3, g=-1.05, h=0.5)
    L = build_model_lindbladian(spec)
    v0 = uniform_seed(spec.dim)
    for t in (0.5, 2.0, 7.0):
        v = expm(1j * t * L.matrix.toarray()) @ v0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_dissipator_linear_in_strength():
    H = build_tfim(ModelSpec(N=2, g=-1.05, h=0.5))
    spec1 = ModelSpec(N=2, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    spec2 = ModelSpec(N=2, g=-1.05, h=0.5, alpha=0.02, gamma=0.02)
    Lc = build_liouvillian_closed(H).matrix.toarray()
    D1 = (build_lindbladian(H, build_jump_operators(spec1)).matrix.toarray()
          - Lc)
    D2 = (build_lindbladian(H, build_jump_operators(spec2)).matrix.toarray()
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
        build_lindbladian(H, [pauli_matrix("Z")])
