"""The one Lanczos recursion: one-sided against two-sided runs.

Every model Lindbladian is exactly complex symmetric, so ``bilanczos`` with
a real seed runs the J-form recursion in the Hermitian operator basis
one-sided, its dual basis aliasing P: in float64 for the real uniform
seed, in complex arithmetic for a seed with complex coordinates there.  A
complex seed runs the same recursion with a stored dual basis, as does a
Lindbladian with L^T != L, whose left operator J R^T J differs from R.
The two-sided branch is checked against the one-sided one on the same
seed by treating L as not symmetric.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import krylovflow.bilanczos as bilanczos_module
from krylovflow.bilanczos import bilanczos, project_dissipative_structure
from krylovflow.krylov_chain import evolve_chain, moments
from krylovflow.lindbladian import build_lindbladian, \
    build_model_lindbladian, uniform_seed
from krylovflow.spin_algebra import (PAULI_MINUS, PAULI_Y, ModelSpec,
                                     build_jump_operators, build_tfim,
                                     site_operator)
from tests.lanczos_bases import p_basis, q_basis, tridiagonal_matrix
from tests.test_bilanczos import sigma_x1_plus_yN

N_COEFFS = 20
COEFF_RTOL = 1e-10
CHAIN_RTOL = 1e-7


def _models(N):
    return [ModelSpec(N=N, g=-1.05, h=0.5),
            ModelSpec(N=N, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)]


def _rel_dev(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def _two_sided(L, seed, monkeypatch):
    """``bilanczos(L, seed)`` through the dual-basis branch: with L taken
    as not symmetric, the left operator is J R^T J and the dual basis is
    stored."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(bilanczos_module, "is_symmetric",
                  lambda A: calls.append(A) or False)
        tri = bilanczos(L, seed)
    assert calls
    return tri


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_model_lindbladian_is_complex_symmetric(N):
    for spec in _models(N):
        L = build_model_lindbladian(spec).toarray()
        assert abs(L - L.T).max() == 0


@pytest.mark.parametrize("N", [2, 3])
def test_sparse_assembly_matches_dense_kron_formula(N):
    # The effective-Hamiltonian form of build_lindbladian against the
    # dissipator form (i/2) sum_k [I kron Lk'Lk + Lk^T Lk* kron I
    # - 2 Lk^T kron Lk'], for no jumps, the paper's jumps and one sigma-.
    H = build_tfim(_models(N)[0])
    eye = np.eye(H.shape[0])
    comm = np.kron(eye, H) - np.kron(H.T, eye)
    for jumps in ([], build_jump_operators(_models(N)[1]),
                  [0.3 * site_operator(PAULI_MINUS, N, N)]):
        diss = np.zeros_like(comm)
        for Lk in jumps:
            LdL = Lk.conj().T @ Lk
            diss += np.kron(eye, LdL) + np.kron(LdL.T, eye)
            diss -= 2.0 * np.kron(Lk.T, Lk.conj().T)
        assert_array_equal(build_lindbladian(H, jumps).toarray(),
                           comm + 0.5j * diss)


@pytest.mark.parametrize("N", [3, 4])
def test_two_sided_path_matches_symmetric_path(N, monkeypatch):
    spec = _models(N)[1]
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    one_sided = bilanczos(L, seed)
    two_sided = _two_sided(L, seed, monkeypatch)

    n = N_COEFFS
    assert _rel_dev(one_sided.a[:n], two_sided.a[:n]) < COEFF_RTOL
    bc = one_sided.b[:n] * one_sided.c[:n]
    bc_ref = two_sided.b[:n] * two_sided.c[:n]
    assert _rel_dev(bc, bc_ref) < COEFF_RTOL

    t = np.linspace(0.0, 5.0, 101)
    m = moments(evolve_chain(project_dissipative_structure(one_sided), t))
    m_ref = moments(evolve_chain(project_dissipative_structure(two_sided),
                                 t))
    assert _rel_dev(m.C, m_ref.C) < CHAIN_RTOL
    assert _rel_dev(m.P, m_ref.P) < CHAIN_RTOL


def test_complex_coordinate_seed_matches_two_sided_path(monkeypatch):
    # A real seed that is not a symmetric matrix has complex coordinates
    # in the Hermitian basis (its antisymmetric part is i times a Hermitian
    # operator), so the one-sided recursion runs in complex arithmetic; it
    # is not reversal-even either, so both run in full space.
    spec = _models(3)[1]
    L = build_model_lindbladian(spec)
    seed = np.random.default_rng(5).standard_normal(L.shape[0])
    seed /= np.linalg.norm(seed)
    one_sided = bilanczos(L, seed)
    two_sided = _two_sided(L, seed, monkeypatch)
    assert p_basis(one_sided).dtype == complex
    assert np.any(one_sided.a.real)   # no exact structure for this seed
    n = N_COEFFS
    assert _rel_dev(one_sided.a[:n], two_sided.a[:n]) < COEFF_RTOL
    assert _rel_dev((one_sided.b * one_sided.c)[:n],
                    (two_sided.b * two_sided.c)[:n]) < COEFF_RTOL
    assert _rel_dev(one_sided.c[:n], two_sided.c[:n]) < COEFF_RTOL


def test_non_symmetric_lindbladian_bases_are_biorthogonal():
    # A sigma^y field on site 2 makes H complex and L^T != L, so the left
    # operator J R^T J differs from R; the mixed seed is not reversal-even,
    # so J is that of the full operator space, with -1 entries.
    spec = _models(3)[1]
    H = build_tfim(spec) + 0.3 * site_operator(PAULI_Y, 2, 3)
    L = build_lindbladian(H, build_jump_operators(spec))
    assert abs(L.toarray() - L.toarray().T).max() > 0.1
    v = sigma_x1_plus_yN(3)
    tri = bilanczos(L, v)
    assert tri.space_dim == L.shape[0]
    P, Q = p_basis(tri), q_basis(tri)
    assert np.abs(Q.conj().T @ P - np.eye(tri.K)).max() < 1e-12
    defect = Q.conj().T @ (L @ P) - tridiagonal_matrix(tri)
    assert np.abs(defect[:, :-1]).max() < 1e-12
