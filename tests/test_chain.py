import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from krylovflow.bilanczos import TERM_BREAKDOWN, TridiagonalData, \
    bilanczos, project_dissipative_structure
from krylovflow.bound import saturating_coefficients
from krylovflow.krylov_chain import (_power_norms, _propagate,
                                     _taylor_parameters, chain_generators,
                                     direct_evolution_oracle, evolve_chain,
                                     finite_diff, moments)
from krylovflow.lindbladian import build_model_lindbladian, uniform_seed
from krylovflow.spin_algebra import ModelSpec


def single_site_chain(kappa):
    return TridiagonalData(a=np.array([1j * kappa]),
                           b=np.array([], dtype=complex),
                           c=np.array([], dtype=complex),
                           termination=TERM_BREAKDOWN)


def two_site_rotation():
    return TridiagonalData(a=np.zeros(2, dtype=complex),
                           b=np.array([1.0 + 0j]),
                           c=np.array([1.0 + 0j]),
                           termination=TERM_BREAKDOWN)


def structured_four_site_chain():
    """A complete chain with the exact structure a = i|a|, b = c = |b|."""
    return TridiagonalData(a=1j * np.array([0.0, 0.1, 0.25, 0.3]),
                           b=np.array([1.0, 0.8, 0.5], dtype=complex),
                           c=np.array([1.0, 0.8, 0.5], dtype=complex),
                           termination=TERM_BREAKDOWN)


def test_single_site_decay():
    kappa = 0.7
    t = np.linspace(0, 3, 61)
    traj = evolve_chain(single_site_chain(kappa), t)
    assert_allclose(traj.phi[0], np.exp(-kappa * t), atol=1e-9)
    m = moments(traj)
    assert_allclose(m.P, np.exp(-2 * kappa * t), atol=1e-9)
    assert_allclose(m.C, 0.0, atol=1e-12)


def test_two_site_rotation():
    t = np.linspace(0, 10, 401)
    traj = evolve_chain(two_site_rotation(), t)
    assert_allclose(traj.phi[0], np.cos(t), atol=1e-8)
    assert_allclose(traj.phi[1], np.sin(t), atol=1e-8)
    m = moments(traj)
    assert_allclose(m.C, np.sin(t) ** 2, atol=1e-8)
    assert_allclose(m.P, 1.0, atol=1e-8)
    assert_allclose(m.M2, np.sin(t) ** 2, atol=1e-8)


def test_moments_at_zero():
    t = np.linspace(0, 1, 11)
    m = moments(evolve_chain(two_site_rotation(), t))
    assert m.C[0] == pytest.approx(0.0, abs=1e-14)
    assert m.P[0] == pytest.approx(1.0, abs=1e-14)
    assert m.M2[0] == pytest.approx(0.0, abs=1e-14)


def test_closed_three_site_probability_conserved():
    spec = ModelSpec(N=3, g=-1.05, h=0.5)
    seed = uniform_seed(8)
    tri = bilanczos(build_model_lindbladian(spec), seed, seed)
    t = np.linspace(0, 10, 400)
    m = moments(evolve_chain(tri, t))
    assert np.abs(m.P - 1.0).max() < 1e-8


def test_dissipative_probability_non_increasing():
    # Monotone P is guaranteed by the structure a = i|a|, b = c = |b|
    # (for the spin-chain models the verdict is only approximate and P
    # can transiently rise, matching the direct oracle).
    K = 40
    n = np.arange(1, K, dtype=float)
    tri = TridiagonalData(a=1j * 0.05 * np.arange(K),
                          b=(0.6 * n).astype(complex),
                          c=(0.6 * n).astype(complex))
    t = np.linspace(0, 3, 301)
    with pytest.warns(RuntimeWarning, match="truncation tail"):
        m = moments(evolve_chain(tri, t))
    assert np.diff(m.P).max() < 1e-10


def test_cauchy_schwarz_moment_inequality():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(8),
                    uniform_seed(8))
    t = np.linspace(0, 10, 400)
    m = moments(evolve_chain(tri, t))
    assert (m.M2 - m.C ** 2 / m.P).min() > -1e-10


def test_grid_refinement_converged():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(8),
                    uniform_seed(8))
    coarse = np.linspace(0, 5, 101)
    fine = np.linspace(0, 5, 201)
    C1 = moments(evolve_chain(tri, coarse)).C[-1]
    C2 = moments(evolve_chain(tri, fine)).C[-1]
    assert abs(C1 - C2) < 1e-8 * max(abs(C2), 1.0)


def test_psi_equals_phi_under_dissipative_structure():
    t = np.linspace(0, 4, 161)
    traj = evolve_chain(structured_four_site_chain(), t)
    assert np.abs(traj.psi - traj.phi).max() < 1e-8
    m = moments(traj)
    assert m.imag_residue < 1e-8


def test_propagator_matches_dense_expm():
    # Generators written out from the two recursions in the module
    # docstring, for a chain with none of the dissipative structure.
    rng = np.random.default_rng(20)
    K = 20
    a = 0.3 * (rng.normal(size=K) + 1j * rng.normal(size=K))
    b = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
    c = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
    tri = TridiagonalData(a=a, b=b, c=c, termination=TERM_BREAKDOWN)
    A_phi = np.diag(1j * a) - np.diag(b, 1) + np.diag(c, -1)
    A_psi_star = (np.diag(-1j * a.conj()) - np.diag(c.conj(), 1)
                  + np.diag(b.conj(), -1))
    t = np.linspace(0, 3, 61)
    traj = evolve_chain(tri, t)
    for k, tk in enumerate(t):
        phi = expm(tk * A_phi)[:, 0]
        psi = expm(tk * A_psi_star)[:, 0].conj()
        assert np.linalg.norm(traj.phi[:, k] - phi) <= \
            1e-10 * np.linalg.norm(phi)
        assert np.linalg.norm(traj.psi[:, k] - psi) <= \
            1e-10 * np.linalg.norm(psi)

    # Equal generators: psi* is the phi trajectory itself, with no
    # rounding difference between the two.
    traj = evolve_chain(structured_four_site_chain(), t)
    assert np.array_equal(traj.psi.conj(), traj.phi)


def test_propagation_independent_of_global_random_state():
    # The propagator draws nothing at random: its Taylor degree and substeps
    # come from exact norms of powers of the generator.  Its result must
    # therefore be the same under any global random state, and it must
    # leave that state as it found it.
    spec = ModelSpec(N=3, g=-1.05, h=0.5)
    seed = uniform_seed(spec.dim)
    tri = project_dissipative_structure(
        bilanczos(build_model_lindbladian(spec), seed, seed))
    t = np.linspace(0, 10, 400)
    runs = []
    for state in range(4):
        np.random.seed(state)
        runs.append(evolve_chain(tri, t).phi)
        after = np.random.random()
        np.random.seed(state)
        assert after == np.random.random()   # caller's state untouched
    assert all(np.array_equal(runs[0], phi) for phi in runs[1:])


def _taylor_plan(A, t_end):
    """(m, s) that _propagate picks for exp(t_end A), A shifted as there."""
    A = sp.csr_array(A - A.diagonal().mean() * sp.eye(A.shape[0]))
    return _taylor_parameters(_power_norms(A), t_end)


def _stiff_chain():
    # exp(-iHt) for a real symmetric tridiagonal H with hoppings up to 80:
    # the substeps outnumber the 10 grid steps.
    rng = np.random.default_rng(4)
    K = 30
    off = rng.uniform(20.0, 80.0, size=K - 1)
    H = sp.diags([5.0 * rng.normal(size=K), off, off], [0, 1, -1])
    return sp.csr_array(-1j * H - 0.05 * sp.eye(K)), np.linspace(0, 1, 11)


def _unequal_block_chain():
    # Random complex chain without structure; 61 steps in blocks of 30,
    # 30 and 1.
    rng = np.random.default_rng(20)
    K = 20
    a = 0.3 * (rng.normal(size=K) + 1j * rng.normal(size=K))
    b = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
    c = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
    A = sp.diags([1j * a, -b, c], [0, 1, -1], format="csr")
    return sp.csr_array(A), np.linspace(0, 3, 62)


def _real_chain():
    # Projected-chain form: on-site decay and antisymmetric real hoppings.
    rng = np.random.default_rng(9)
    K = 40
    b = rng.uniform(0.2, 3.0, size=K - 1)
    A = sp.diags([-rng.uniform(0.0, 0.5, size=K), -b, b], [0, 1, -1],
                 format="csr")
    return sp.csr_array(A), np.linspace(0, 5, 201)


@pytest.mark.parametrize("chain, path", [
    (_stiff_chain, "per-step"),
    (_unequal_block_chain, "unequal blocks"),
    (_real_chain, "real"),
])
def test_grid_propagator_matches_dense_expm(chain, path):
    A, t = chain()
    q = t.size - 1
    m, s = _taylor_plan(A, t[-1])
    if path == "per-step":
        assert q <= s
    if path == "unequal blocks":
        assert q > s and q % (q // s) != 0
    y0 = np.zeros(A.shape[0], dtype=A.dtype)
    y0[0] = 1.0
    X = _propagate(A, y0, t[-1] / q, q)
    if path == "real":
        assert X.dtype == np.float64
    A_dense = A.toarray()
    for k, tk in enumerate(t):
        ref = expm(tk * A_dense) @ y0
        assert np.linalg.norm(X[k] - ref) <= 1e-10 * np.linalg.norm(ref)


def _assert_matches_expm_multiply(tri, t):
    """Both trajectories against scipy's expm_multiply, grid point by grid
    point, to 1e-10 relative."""
    traj = evolve_chain(tri, t)
    e0 = np.zeros(tri.K, dtype=complex)
    e0[0] = 1.0
    for A, Y in zip(chain_generators(tri), (traj.phi, traj.psi.conj())):
        ref = expm_multiply(A, e0, start=0.0, stop=t[-1], num=t.size,
                            endpoint=True).T
        err = np.linalg.norm(Y - ref, axis=0)
        assert np.all(err <= 1e-10 * np.linalg.norm(ref, axis=0))


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("project", [False, True])
def test_propagator_matches_expm_multiply_on_model_chains(N, project):
    spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed, seed)
    if project:
        tri = project_dissipative_structure(tri)
    _assert_matches_expm_multiply(tri, np.linspace(0, 10, 400))


def test_propagator_matches_expm_multiply_on_saturating_chain():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="truncation tail",
                                category=RuntimeWarning)
        _assert_matches_expm_multiply(saturating_coefficients(1.0, 1.0, 400),
                                      np.linspace(0, 6, 1201))


def test_n5_raw_chain_evolves_without_runtime_warnings():
    # The full chain spans the operator space, so its last-site amplitude
    # raises no truncation warning.
    spec = ModelSpec(N=5, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed, seed)
    t = np.linspace(0, 10, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve_chain(tri, t)


def test_oracle_matches_chain_at_zero():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(4)
    tri = bilanczos(L, seed, seed)
    t = np.linspace(0, 1, 11)
    mo = direct_evolution_oracle(L, seed, tri, t)
    assert mo.C[0] == pytest.approx(0.0, abs=1e-12)
    assert mo.P[0] == pytest.approx(1.0, abs=1e-12)
    assert mo.M2[0] == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_chain_closed_two_site():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(4)
    tri = bilanczos(L, seed, seed)
    t = np.linspace(0, 5, 201)
    mc = moments(evolve_chain(tri, t))
    mo = direct_evolution_oracle(L, seed, tri, t)
    assert np.abs(mc.C - mo.C).max() < 1e-8 * max(np.abs(mo.C).max(), 1.0)
    assert np.abs(mc.P - mo.P).max() < 1e-8


def test_oracle_matches_chain_dissipative_three_site():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(8)
    tri = bilanczos(L, seed, seed)
    t = np.linspace(0, 5, 201)
    mc = moments(evolve_chain(tri, t))
    mo = direct_evolution_oracle(L, seed, tri, t)
    scale_C = np.maximum(np.abs(mo.C), 1e-12 * np.abs(mo.C).max())
    assert (np.abs(mc.C - mo.C) / scale_C).max() < 1e-6
    assert (np.abs(mc.P - mo.P) / np.abs(mo.P)).max() < 1e-6
    assert (np.abs(mc.M2 - mo.M2)
            / np.maximum(np.abs(mo.M2), 1e-12 * mo.M2.max())).max() < 1e-6


def test_finite_diff_polynomial():
    t = np.arange(0, 1, 0.01)
    d = finite_diff(t ** 2, t)
    assert np.abs(d - 2 * t).max() < 1e-4


def test_finite_diff_constant():
    t = np.linspace(0, 1, 50)
    assert_allclose(finite_diff(np.ones_like(t), t), 0.0, atol=1e-12)


def test_finite_diff_sine():
    t = np.arange(0, 2, 0.001)
    d = finite_diff(np.sin(t), t)
    assert np.abs(d - np.cos(t)).max() < 1e-6


def test_finite_diff_rejects_nonuniform():
    t = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        finite_diff(t, t)


def test_evolve_requires_grid_from_zero():
    with pytest.raises(ValueError):
        evolve_chain(two_site_rotation(), np.linspace(1, 2, 10))
