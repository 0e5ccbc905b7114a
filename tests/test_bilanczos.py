import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

from krylovflow.bilanczos import (TERM_BREAKDOWN, TERM_GRID, TERM_MAX_ITER,
                                  TERM_SERIOUS, _lanczos, bilanczos,
                                  check_open_structure,
                                  project_dissipative_structure,
                                  TridiagonalData)
from krylovflow.bound import saturating_coefficients
from krylovflow.cli import _coefficient_table, csv_table
from krylovflow.exceptions import NumericalFailure
from krylovflow.krylov_chain import evolve_chain, moments
from krylovflow.lindbladian import build_model_lindbladian, uniform_seed, \
    vectorize
from krylovflow.spin_algebra import PAULI_X, PAULI_Y, PAULI_Z, ModelSpec, \
    build_tfim, site_operator
from tests.csv_tables import read_table
from tests.lanczos_bases import p_basis, q_basis, tridiagonal_matrix


def test_symmetric_two_by_two():
    L = np.array([[0, 1], [1, 0]], dtype=complex)
    e1 = np.array([1, 0], dtype=complex)
    tri = bilanczos(L, e1)
    assert tri.K == 2
    assert_allclose(tri.a, [0, 0], atol=1e-15)
    assert_allclose(tri.b, [1])
    assert_allclose(tri.c, [1])
    assert_allclose(tridiagonal_matrix(tri), L, atol=1e-15)


def test_eigenvector_seed_immediate_breakdown():
    L = np.diag([2.0, 5.0]).astype(complex)
    e1 = np.array([1, 0], dtype=complex)
    tri = bilanczos(L, e1)
    assert tri.K == 1
    assert tri.a[0] == pytest.approx(2.0)
    assert tri.termination == TERM_BREAKDOWN


def test_nilpotent_hand_example():
    L = np.array([[0, 1], [0, 0]], dtype=complex)
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    tri = bilanczos(L, v)
    assert tri.K == 2
    assert tri.a[0] == pytest.approx(0.5)
    assert tri.c[0] == pytest.approx(0.5)      # c_1 = sqrt|omega_1|
    assert tri.b[0] == pytest.approx(-0.5)     # b_1 = omega_1* / c_1
    assert tri.a[1] == pytest.approx(-0.5)
    QhLP = q_basis(tri).conj().T @ (L @ p_basis(tri))
    assert np.abs(QhLP - tridiagonal_matrix(tri)).max() < 1e-14


def test_serious_breakdown_reported():
    # L e1 = e2 and L^dag e1 = e3, so omega_1 = <r|s> = 0 while both
    # residuals have unit norm.
    L = np.array([[0, 0, 1], [1, 0, 0], [0, 0, 0]], dtype=complex)
    e1 = np.array([1, 0, 0], dtype=complex)
    tri = bilanczos(L, e1)
    assert tri.K == 1
    assert tri.termination == TERM_SERIOUS


def test_zero_seed_rejected():
    with pytest.raises(ValueError, match="seed is zero"):
        bilanczos(np.eye(2, dtype=complex), np.zeros(2))


def test_overflow_is_a_numerical_failure():
    # At g = 1e155 the products of the recursion overflow float64.  Its
    # finiteness checks report that, with no RuntimeWarning on the way
    # (tier-1 turns one into an error).
    L = build_model_lindbladian(ModelSpec(N=2, g=1e155, h=0.5, alpha=0.01,
                                          gamma=0.01))
    with pytest.raises(NumericalFailure, match="non-finite"):
        bilanczos(L, uniform_seed(4))


def test_zero_max_iter_rejected():
    with pytest.raises(ValueError, match="max_iter"):
        bilanczos(np.eye(2, dtype=complex), np.ones(2), max_iter=0)


def test_hermitian_coefficients_real():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    seed = uniform_seed(4)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    assert np.abs(np.asarray(tri.a).imag).max() < 1e-10
    assert_allclose(tri.b, tri.c)
    assert np.asarray(tri.b).real.min() >= 0


def test_hermitian_eigenvector_seed():
    L = np.diag([1.0, 2.0, 3.0]).astype(complex)
    v = np.array([0, 1, 0], dtype=complex)
    tri = bilanczos(L, v)
    assert tri.K == 1
    assert tri.a[0] == pytest.approx(2.0)


def test_biorthogonality_and_tridiagonality_residuals():
    for N in (3, 4):
        spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
        tri = bilanczos(build_model_lindbladian(spec), uniform_seed(spec.dim))
        assert tri.residual_biortho < 1e-10
        assert tri.residual_tridiag < 1e-8


def test_tridiagonal_residual_skips_last_column():
    # L P = P T holds in every column but the last, which carries the
    # residual r_K of a chain cut by max_iter.  The full-space recursion
    # keeps the residual in the units of the returned basis.
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    tri = _lanczos(L, seed, max_iter=10)
    P = p_basis(tri)
    defect = np.abs(L @ P - P @ tridiagonal_matrix(tri))
    assert defect[:, -1].max() > 1e-2
    assert tri.residual_tridiag == pytest.approx(defect[:, :-1].max(),
                                                 rel=1e-6)
    assert tri.residual_tridiag < 1e-13
    assert bilanczos(L, seed, max_iter=1).residual_tridiag == 0.0


def test_krylov_dimension_bound():
    # The uniform seed's chain stays in the reflection-even sector
    # (dimension 40), within the D^2 - D + 1 = 57 that bounds a closed
    # system's operator Krylov space; an open chain in general is not
    # bounded by it (see test_open_chain_reaches_krylov_dimension).
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(8))
    D = 8
    assert tri.K <= D * D - D + 1


def test_third_reorth_pass_is_idempotent():
    # One additional projection sweep over the finished bases must leave
    # every vector essentially unchanged.
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(8)
    tri = bilanczos(L, seed)
    P, Q = p_basis(tri), q_basis(tri)
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
    tri = bilanczos(build_model_lindbladian(spec), seed)
    report = check_open_structure(tri)
    assert not report.dissipative
    assert report.label == "closed structure"


def test_structure_report_labels_zero_diagonal_closed():
    # a = 0 with b = c real fits both the closed and the dissipative form;
    # the closed form wins, as for a closed model's chain.
    report = check_open_structure(saturating_coefficients(1, 1, 40))
    assert report.label == "closed structure"
    assert not report.dissipative


def test_closed_chain_diagonal_is_exactly_zero():
    # In the Hermitian basis the closed chain alternates between symmetric
    # and antisymmetric operators, so every a_n is an exact zero.
    spec = ModelSpec(N=4, g=-1.05, h=0.5)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    assert not np.any(tri.a)
    assert check_open_structure(tri).label == "closed structure"


def test_deep_enough_is_asked_at_each_block_end():
    # bilanczos asks at every DEPTH_BLOCK-th step, with the chain so far
    # and |b_K|, the hopping to the next site, and ends the chain where the
    # answer is True: a prefix of the full chain, bases included.
    spec = ModelSpec(N=5, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    full = bilanczos(L, seed)
    asked = []

    def deep_enough(chain, b_next):
        asked.append((chain, b_next))
        return chain.K == 256

    tri = bilanczos(L, seed, deep_enough=deep_enough)
    assert [chain.K for chain, _ in asked] == [128, 256]
    for chain, b_next in asked:
        K = chain.K
        assert chain.termination == TERM_GRID and not chain.complete
        assert chain.P is None
        assert_array_equal(chain.a, full.a[:K])
        assert_array_equal(chain.b, full.b[:K - 1])
        assert_array_equal(chain.c, full.c[:K - 1])
        assert b_next == abs(full.b[K - 1])
    assert (tri.K, tri.termination, tri.complete) == (256, TERM_GRID, False)
    for name in ("a", "b", "c"):
        assert_array_equal(getattr(tri, name), getattr(asked[-1][0], name))
    assert_array_equal(tri.P, full.P[:256])
    assert_array_equal(tri.Q, full.Q[:256])


@pytest.fixture(scope="module")
def open_n5():
    spec = ModelSpec(N=5, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    return build_model_lindbladian(spec), uniform_seed(spec.dim)


@pytest.mark.parametrize("max_iter, asked_at", [
    (None, [128, 256, 384, 512]),   # the 544-dimensional sector, in full
    (300, [128, 256]),              # a partial last block of 44 steps
])
def test_deep_enough_is_asked_every_block_and_never_at_the_end(
        open_n5, max_iter, asked_at):
    # The hook is asked every DEPTH_BLOCK steps short of the chain's end;
    # one that always declines leaves the chain it would have without it.
    L, seed = open_n5
    asked = []
    tri = bilanczos(L, seed, max_iter, deep_enough=lambda chain, b_next:
                    asked.append(chain.K) or False)
    plain = bilanczos(L, seed, max_iter)
    assert asked == asked_at
    assert (tri.K, tri.termination) == (plain.K, plain.termination)
    assert tri.K == (max_iter or 544)
    for name in ("a", "b", "c"):
        assert_array_equal(getattr(tri, name), getattr(plain, name))


def test_deep_enough_keeps_the_callers_floating_point_rules():
    # The recursion ignores overflow and invalid operations, which its
    # finiteness checks report; the depth check runs under the caller's
    # rules, so a warning in it still shows.
    spec = ModelSpec(N=4, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    rules = []
    with np.errstate(over="raise", invalid="warn"):
        bilanczos(build_model_lindbladian(spec), uniform_seed(spec.dim),
                  deep_enough=lambda chain, b_next: rules.append(
                      np.geterr()) or True)
    assert [(r["over"], r["invalid"]) for r in rules] == [("raise", "warn")]


@pytest.mark.parametrize("N", [3, 4, 5])
def test_open_chain_structure_is_exact(N):
    # The recursion runs in float64 on R = -i W' L W: Re a_n = 0 and real
    # b_n, c_n hold by construction, as in exact arithmetic.  So they do
    # for the Hermitian seed sigma^x_1 + sigma^y_N (N < 5), whose left
    # coordinates W' conj(seed) differ from its right ones.
    spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(L, seed)
    assert tri.K == (4 ** N + 4 ** ((N + 1) // 2)) // 2
    assert np.all(tri.c.real > 0) and np.all(np.abs(tri.b) == tri.c.real)
    bc = (tri.b * tri.c).real
    assert bc[22] < 0 < bc[0] if N == 3 else bc.min() < 0 < bc[0]
    chains = [tri]
    if N < 5:
        v = sigma_x1_plus_yN(N)
        chains.append(bilanczos(L, v))
        phi = evolve_chain(chains[-1], np.linspace(0.0, 5.0, 101)).phi
        assert phi.dtype == np.float64
    for chain in chains:
        assert not np.any(chain.a.real)
        assert not np.any(chain.b.imag) and not np.any(chain.c.imag)


def test_raw_model_chain_evolves_in_real_arithmetic():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    assert evolve_chain(tri, np.linspace(0.0, 5.0, 101)).phi.dtype \
        == np.float64


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
    # negative Im a_n, in exact arithmetic too (the 50-digit reference of
    # test_reference_lanczos.py has them at N = 3), so the full verdict
    # fails (see the filtering utilities in the analysis module).
    spec = ModelSpec(N=4, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(16))
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
    tri = bilanczos(build_model_lindbladian(spec), seed)
    proj = project_dissipative_structure(tri)
    t = np.linspace(0, 3, 61)
    traj = evolve_chain(proj, t)
    assert np.abs(traj.psi - traj.phi).max() < 1e-10


@pytest.mark.parametrize("N", [3, 4])
def test_closed_model_hoppings_bounded_by_norm(N):
    # With orthonormal Lanczos vectors |b_n| <= ||L||_2.  The closed
    # chains run in the reflection-even sector and end by breakdown: at
    # K = 31, the Krylov dimension, for N = 3; at K = 121 for N = 4, whose
    # Krylov dimension is 91 (50-digit reference), after a tail of
    # roundoff-driven steps.
    spec = ModelSpec(N=N, g=-1.05, h=0.5)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    E = np.linalg.eigvalsh(build_tfim(spec))
    norm = E.max() - E.min()   # the spectrum of L is {E_i - E_j}
    assert np.abs(tri.b).max() <= (1 + 1e-12) * norm


@pytest.mark.parametrize("N", [3, 4, 5])
def test_sector_chain_matches_full_space(N):
    # The reflection-even chain and the full-space one share their leading
    # coefficients and, on the paper's grid, their projected-chain moments;
    # only the full-space one runs on past the sector dimension.
    spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    full = _lanczos(L, seed)
    sector = bilanczos(L, seed)
    assert sector.K == (4 ** N + 4 ** ((N + 1) // 2)) // 2 < full.K
    assert p_basis(sector).shape == q_basis(sector).shape \
        == (4 ** N, sector.K)
    n = 20
    assert np.abs(sector.a[:n] - full.a[:n]).max() \
        <= 1e-10 * np.abs(full.a[:n]).max()
    bc_full = (full.b * full.c)[:n]
    assert np.abs((sector.b * sector.c)[:n] - bc_full).max() \
        <= 1e-10 * np.abs(bc_full).max()
    t = np.linspace(0.0, 10.0, 400)
    ms, mf = (moments(evolve_chain(project_dissipative_structure(tri), t))
              for tri in (sector, full))
    for x, ref in ((ms.C, mf.C), (ms.P, mf.P)):
        assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("N,K", [(2, 10), (3, 40)])
def test_sector_chain_is_complete_at_sector_dimension(N, K):
    # An open chain exhausts its reflection-even sector (dimension 10 at
    # N = 2, 40 at N = 3) below the dimension (16, 64) of its lifted
    # basis, and is complete there.
    spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(L, seed)
    assert (tri.K, tri.termination, tri.space_dim) == (K, TERM_MAX_ITER, K)
    assert p_basis(tri).shape == (4 ** N, K)
    assert tri.complete
    assert not _lanczos(L, seed, max_iter=K).complete


def test_bases_are_stored_in_the_recursion_coordinates():
    # The chain keeps the sparse Hermitian basis W of the sector it ran in
    # and the coordinates of its bases in W: no field holds a dense
    # dim x K array; tests/lanczos_bases.py lifts them to full space.
    spec = ModelSpec(N=4, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(spec.dim))
    assert tri.P.shape == tri.Q.shape == (136, 136)
    assert tri.P.dtype == tri.Q.dtype == np.float64
    assert sp.issparse(tri.W) and tri.W.shape == (256, 136)
    assert np.abs(tri.Q @ tri.P.T - np.eye(136)).max() < 1e-10
    for field in dataclasses.fields(tri):
        value = getattr(tri, field.name)
        assert not (isinstance(value, np.ndarray)
                    and value.shape == (256, tri.K)), field.name


def sigma_z1(N):
    """Normalized vec(sigma^z on site 1): not even under site reversal."""
    v = vectorize(np.kron(PAULI_Z, np.eye(2 ** (N - 1))))
    return v / np.linalg.norm(v)


def sigma_x1_plus_yN(N):
    """Normalized vec(sigma^x_1 + sigma^y_N): Hermitian, but neither a
    symmetric nor an antisymmetric matrix, so conj(v) != +-v."""
    v = vectorize(site_operator(PAULI_X, 1, N)
                  + site_operator(PAULI_Y, N, N))
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("N,seed,K,termination", [
    (1, uniform_seed(2), 4, TERM_MAX_ITER),
    (2, sigma_z1(2), 15, TERM_BREAKDOWN),
    (3, sigma_z1(3), 63, TERM_BREAKDOWN)], ids=["n1_uniform", "n2_z1",
                                                 "n3_z1"])
def test_open_chain_reaches_krylov_dimension(N, seed, K, termination):
    # An open chain is not bounded by the D^2 - D + 1 of a closed system's
    # operator Krylov space: these full-space chains span 4, 15 and 63
    # dimensions, the number of distinct eigenvalues of L the seed has
    # weight on (eigen-decomposition of the dense L).
    spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    assert (tri.K, tri.termination, tri.space_dim) == (K, termination, 4 ** N)
    assert tri.complete


def test_generic_four_by_four_reaches_krylov_dimension():
    # A 4 x 4 matrix is not an operator space: distinct eigenvalues
    # (0.64, 2.16, 3.12, 4.09) and a seed with weight on each give a
    # 4-dimensional Krylov space, and T reproduces the spectrum.
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    A[0, 1:] = A[1:, 0] = 0.5
    e = np.full(4, 0.5)
    tri = bilanczos(A, e)
    assert (tri.K, tri.termination) == (4, TERM_MAX_ITER)
    assert tri.complete
    T = tridiagonal_matrix(tri)
    assert_allclose(np.sort(np.linalg.eigvals(T).real),
                    np.linalg.eigvalsh(A), atol=1e-12)
