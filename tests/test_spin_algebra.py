import numpy as np
import pytest
from numpy.testing import assert_allclose

from krylovflow.spin_algebra import (ModelSpec, build_jump_operators,
                                     build_tfim, pauli_matrix,
                                     site_operator)


def test_pauli_x():
    assert_allclose(pauli_matrix("X"), [[0, 1], [1, 0]])


def test_pauli_plus():
    X = pauli_matrix("X")
    Y = pauli_matrix("Y")
    assert_allclose(pauli_matrix("PLUS"), (X + 1j * Y) / 2)
    assert_allclose(pauli_matrix("PLUS"), [[0, 1], [0, 0]])
    assert_allclose(pauli_matrix("MINUS"), (X - 1j * Y) / 2)


def test_pauli_z_involution():
    Z = pauli_matrix("Z")
    assert_allclose(Z @ Z, np.eye(2))


def test_pauli_unknown_kind():
    with pytest.raises(ValueError):
        pauli_matrix("W")


def test_site_operator_single_site():
    X = pauli_matrix("X")
    assert_allclose(site_operator(X, 1, 1), X)


def test_site_operator_second_of_two():
    Z = pauli_matrix("Z")
    assert_allclose(site_operator(Z, 2, 2), np.kron(np.eye(2), Z))


def test_site_operator_explicit_kron():
    X = pauli_matrix("X")
    expected = np.kron(X, np.kron(np.eye(2), np.eye(2)))
    assert_allclose(site_operator(X, 1, 3), expected)


def test_site_operator_out_of_range():
    X = pauli_matrix("X")
    with pytest.raises(ValueError):
        site_operator(X, 0, 2)
    with pytest.raises(ValueError):
        site_operator(X, 3, 2)
    with pytest.raises(ValueError, match="2x2"):
        site_operator(np.eye(3), 1, 2)


def test_tfim_single_site():
    g, h = 0.7, -0.3
    H = build_tfim(ModelSpec(N=1, g=g, h=h))
    assert_allclose(H, -g * pauli_matrix("X") - h * pauli_matrix("Z"))


def test_tfim_two_sites_expansion():
    g, h = -1.05, 0.5
    X, Z, I2 = pauli_matrix("X"), pauli_matrix("Z"), np.eye(2)
    expected = (-np.kron(Z, Z)
                - g * (np.kron(X, I2) + np.kron(I2, X))
                - h * (np.kron(Z, I2) + np.kron(I2, Z)))
    assert_allclose(build_tfim(ModelSpec(N=2, g=g, h=h)), expected)


def test_tfim_two_sites_eigenvalues():
    # brute-force independent construction and diagonalization
    g, h = -1.05, 0.5
    X, Z, I2 = pauli_matrix("X"), pauli_matrix("Z"), np.eye(2)
    H_ref = np.zeros((4, 4), dtype=complex)
    H_ref -= np.kron(Z, Z)
    for k in range(2):
        ops = [I2, I2]
        ops[k] = X
        H_ref -= g * np.kron(ops[0], ops[1])
        ops[k] = Z
        H_ref -= h * np.kron(ops[0], ops[1])
    H = build_tfim(ModelSpec(N=2, g=g, h=h))
    assert_allclose(np.linalg.eigvalsh(H), np.linalg.eigvalsh(H_ref),
                    atol=1e-12)


@pytest.mark.parametrize("N", range(1, 8))
def test_tfim_hermitian(N):
    H = build_tfim(ModelSpec(N=N, g=-1.05, h=0.5))
    assert np.abs(H - H.conj().T).max() < 1e-14


def test_jump_operators_closed():
    assert build_jump_operators(ModelSpec(N=3, g=1.0, h=0.0)) == []


def test_jump_operators_paper_placement():
    # sqrt(alpha) sigma+- on the end sites, then sqrt(gamma) sigma^z in
    # the bulk, in this order.
    spec = ModelSpec(N=4, g=1.0, h=0.0, alpha=0.04, gamma=0.09)
    a, g = np.sqrt(spec.alpha), np.sqrt(spec.gamma)
    P, M, Z = (pauli_matrix(k) for k in ("PLUS", "MINUS", "Z"))
    expected = [a * site_operator(P, 1, 4), a * site_operator(M, 1, 4),
                a * site_operator(P, 4, 4), a * site_operator(M, 4, 4),
                g * site_operator(Z, 2, 4), g * site_operator(Z, 3, 4)]
    jumps = build_jump_operators(spec)
    assert len(jumps) == len(expected)
    for G, E in zip(jumps, expected):
        np.testing.assert_array_equal(G, E)
    # One site is both ends: sigma+- once.
    assert len(build_jump_operators(ModelSpec(N=1, g=1.0, h=0.0,
                                              alpha=0.04))) == 2


def test_jump_operators_six_sites():
    spec = ModelSpec(N=6, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    jumps = build_jump_operators(spec)
    # sigma+/- on sites 1 and 6 (4 operators), sigma^z on sites 2..5 (4)
    assert len(jumps) == 8
    norms = sorted(float(np.linalg.norm(L)) for L in jumps)
    d = 2 ** 6
    # sqrt(alpha) sigma^pm has Frobenius norm sqrt(alpha * d/2);
    # sqrt(gamma) sigma^z has norm sqrt(gamma * d)
    pm = np.sqrt(0.01 * d / 2)
    z = np.sqrt(0.01 * d)
    assert_allclose(norms, [pm] * 4 + [z] * 4, rtol=1e-12)


def test_sigma_pm_anticommutator_identity():
    for N, site in [(1, 1), (3, 2), (4, 4)]:
        sp = site_operator(pauli_matrix("PLUS"), site, N)
        sm = site_operator(pauli_matrix("MINUS"), site, N)
        assert_allclose(sp @ sm + sm @ sp, np.eye(2 ** N), atol=1e-14)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(N=0, g=1.0, h=0.0)
    with pytest.raises(ValueError):
        ModelSpec(N=2, g=1.0, h=0.0, alpha=-0.1)
    with pytest.raises(ValueError, match="finite"):
        ModelSpec(N=2, g=np.nan, h=0.0)


def test_model_spec_defaults():
    spec = ModelSpec(N=4, g=1.0, h=0.0, alpha=0.01, gamma=0.01)
    assert spec.dim == 16
