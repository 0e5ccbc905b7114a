import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from krylovflow.bilanczos import (TERM_BREAKDOWN, TERM_MAX_ITER,
                                  TERM_SERIOUS, bilanczos,
                                  check_open_structure,
                                  project_dissipative_structure,
                                  TridiagonalData)
from krylovflow.cli import _coefficient_table, csv_table, read_table
from krylovflow.krylov_chain import evolve_chain
from krylovflow.lindbladian import build_model_lindbladian, uniform_seed
from krylovflow.spin_algebra import ModelSpec, build_tfim


def test_symmetric_two_by_two():
    L = np.array([[0, 1], [1, 0]], dtype=complex)
    e1 = np.array([1, 0], dtype=complex)
    tri = bilanczos(L, e1, e1)
    assert tri.K == 2
    assert_allclose(tri.a, [0, 0], atol=1e-15)
    assert_allclose(tri.b, [1])
    assert_allclose(tri.c, [1])
    assert_allclose(tri.tridiagonal_matrix(), L, atol=1e-15)


def test_eigenvector_seed_immediate_breakdown():
    L = np.diag([2.0, 5.0]).astype(complex)
    e1 = np.array([1, 0], dtype=complex)
    tri = bilanczos(L, e1, e1)
    assert tri.K == 1
    assert tri.a[0] == pytest.approx(2.0)
    assert tri.termination == TERM_BREAKDOWN


def test_nilpotent_hand_example():
    L = np.array([[0, 1], [0, 0]], dtype=complex)
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    tri = bilanczos(L, v, v)
    assert tri.K == 2
    assert tri.a[0] == pytest.approx(0.5)
    assert tri.c[0] == pytest.approx(0.5)      # c_1 = sqrt|omega_1|
    assert tri.b[0] == pytest.approx(-0.5)     # b_1 = omega_1* / c_1
    assert tri.a[1] == pytest.approx(-0.5)
    QhLP = tri.q_basis.conj().T @ (L @ tri.p_basis)
    assert np.abs(QhLP - tri.tridiagonal_matrix()).max() < 1e-14


def test_serious_breakdown_reported():
    # L e1 = e2 and L^dag e1 = e3, so omega_1 = <r|s> = 0 while both
    # residuals have unit norm.
    L = np.array([[0, 0, 1], [1, 0, 0], [0, 0, 0]], dtype=complex)
    e1 = np.array([1, 0, 0], dtype=complex)
    tri = bilanczos(L, e1, e1)
    assert tri.K == 1
    assert tri.termination == TERM_SERIOUS


def test_orthogonal_start_vectors_rejected():
    L = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        bilanczos(L, np.array([1, 0], dtype=complex),
                  np.array([0, 1], dtype=complex))


def test_hermitian_coefficients_real():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    seed = uniform_seed(4)
    tri = bilanczos(build_model_lindbladian(spec), seed, seed)
    assert np.abs(np.asarray(tri.a).imag).max() < 1e-10
    assert_allclose(tri.b, tri.c)
    assert np.asarray(tri.b).real.min() >= 0


def test_hermitian_eigenvector_seed():
    L = np.diag([1.0, 2.0, 3.0]).astype(complex)
    v = np.array([0, 1, 0], dtype=complex)
    tri = bilanczos(L, v, v)
    assert tri.K == 1
    assert tri.a[0] == pytest.approx(2.0)


def test_biorthogonality_and_tridiagonality_residuals():
    for N in (3, 4):
        spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
        tri = bilanczos(build_model_lindbladian(spec),
                        uniform_seed(spec.dim), uniform_seed(spec.dim))
        assert tri.residual_biortho < 1e-10
        assert tri.residual_tridiag < 1e-8


def test_krylov_dimension_bound():
    # operator Krylov space of a D-level system closes within D^2 - D + 1
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec),
                    uniform_seed(8), uniform_seed(8))
    D = 8
    assert tri.K <= D * D - D + 1


def test_third_reorth_pass_is_idempotent():
    # One additional projection sweep over the finished bases must leave
    # every vector essentially unchanged.
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(8)
    tri = bilanczos(L, seed, seed)
    P, Q = tri.p_basis, tri.q_basis
    worst = 0.0
    for j in range(1, tri.K):
        corr_p = P[:, :j] @ (Q[:, :j].conj().T @ P[:, j])
        corr_q = Q[:, :j] @ (P[:, :j].conj().T @ Q[:, j])
        worst = max(worst, np.linalg.norm(corr_p),
                    np.linalg.norm(corr_q))
    assert worst < 1e-12


def test_structure_report_closed():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    seed = uniform_seed(4)
    tri = bilanczos(build_model_lindbladian(spec), seed, seed)
    report = check_open_structure(tri)
    assert not report.dissipative
    assert report.label == "closed structure"


def test_structure_report_hand_built():
    tri = TridiagonalData(a=np.array([0.1j, 0.2j]),
                          b=np.array([0.7 + 0j]),
                          c=np.array([0.7 + 0j]))
    report = check_open_structure(tri)
    assert report.dissipative
    assert report.label == "dissipative structure"


def test_structure_dissipative_tfim_first_fifty():
    # Empirical claim for the open chain: b_n = c_n = |b_n| and
    # a_n = i|a_n| over the first 50 coefficients.  The b = c and
    # Re a = 0 parts reproduce; isolated near-breakdown spikes carry
    # negative Im a_n at every arithmetic precision tested, so the full
    # verdict fails (see the filtering utilities in the analysis module).
    spec = ModelSpec(N=4, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec),
                    uniform_seed(16), uniform_seed(16))
    report = check_open_structure(tri, n_coeffs=50)
    assert report.dissipative


def test_coefficients_csv_round_trip():
    tri = TridiagonalData(a=np.array([0.5j, 0.1 + 2.0j / 3]),
                          b=np.array([-0.5 + 0.25j]),
                          c=np.array([np.pi + 0j]))
    text = csv_table(_coefficient_table(tri))
    lines = text.splitlines()
    assert lines[0] == "n,a_re,a_im,b_re,b_im,c_re,c_im"
    assert lines[1] == "0,0,0.5,,,,"  # integer n; blank b, c at n = 0
    table = read_table(text)
    back = lambda name, start: np.array([float(table[name + "_re"][i]) +
                                         1j * float(table[name + "_im"][i])
                                         for i in range(start, tri.K)])
    # 17 significant digits round-trip every float exactly
    assert_array_equal(back("a", 0), tri.a)
    assert_array_equal(back("b", 1), tri.b)
    assert_array_equal(back("c", 1), tri.c)


def test_project_dissipative_structure():
    tri = TridiagonalData(
        a=np.array([0.1 + 2j, -0.2 - 3j, 0.0 + 0j]),
        b=np.array([1.0 - 1j, -2.0 + 0j]),
        c=np.array([0.5 + 0j, 7.0 + 0j]),
        termination=TERM_MAX_ITER)
    proj = project_dissipative_structure(tri)
    assert_allclose(proj.a, [abs(0.1 + 2j) * 1j,
                             abs(0.2 + 3j) * 1j, 0.0])
    assert_allclose(proj.b, [np.sqrt(2.0), 2.0])
    assert_allclose(proj.c, proj.b)
    assert proj.termination == TERM_MAX_ITER
    # original untouched
    assert tri.a[0] == 0.1 + 2j


def test_projected_chain_has_psi_equal_phi():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed, seed)
    proj = project_dissipative_structure(tri)
    t = np.linspace(0, 3, 61)
    traj = evolve_chain(proj, t)
    assert np.abs(traj.psi - traj.phi).max() < 1e-10


@pytest.mark.parametrize("N", [3, 4])
def test_closed_model_hoppings_bounded_by_norm(N):
    # With orthonormal Lanczos vectors |b_n| <= ||L||_2. The closed N = 3
    # chain has Krylov dimension 31, but c_31 ~ 1e-8 stays above
    # breakdown_tol * scale, so the recursion runs on to K = 57 on rounding
    # noise; the hoppings must stay bounded there too (the two-sided
    # recursion reached |b| ~ 1e3 at N = 4).
    spec = ModelSpec(N=N, g=-1.05, h=0.5)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed, seed)
    E = np.linalg.eigvalsh(build_tfim(spec))
    norm = E.max() - E.min()   # the spectrum of L is {E_i - E_j}
    assert np.abs(tri.b).max() <= (1 + 1e-12) * norm
