import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from krylovflow import krylov_chain
from krylovflow.bilanczos import TERM_BREAKDOWN, TERM_GRID, \
    TridiagonalData, _lanczos, bilanczos, check_open_structure, \
    project_dissipative_structure
from krylovflow.bound import saturating_coefficients, saturation_report
from krylovflow.exceptions import NumericalFailure
from krylovflow.krylov_chain import (STENCIL, TAIL_CUTOFF, ChainRun,
                                     ChainTrajectory, _propagate,
                                     direct_evolution_oracle, evolve_chain,
                                     finite_diff, moments, time_grid)
from krylovflow.lindbladian import build_model_lindbladian, uniform_seed, \
    vectorize
from krylovflow.spin_algebra import PAULI_Y, ModelSpec, site_operator
from tests.lanczos_bases import p_basis, q_basis
from tests.su11_chain import SU11_CASES, su11_chain, su11_moments
from tests.test_bilanczos import sigma_x1_plus_yN, sigma_z1


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
    tri = bilanczos(build_model_lindbladian(spec), seed)
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
    traj = evolve_chain(tri, t)
    assert traj.horizon < t.size   # the packet reaches the chain end
    m = moments(traj)
    assert np.diff(m.P).max() < 1e-10


def test_truncated_chain_evolves_silently_with_short_horizon():
    # The open N = 3 chain cut at K = 20 reaches its end on [0, 10]: the
    # trajectory measures where, and evolve_chain itself warns of nothing.
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(spec.dim),
                    max_iter=20)
    t = np.linspace(0, 10, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve_chain(tri, t)
    assert not tri.complete and 0 < traj.horizon < t.size
    assert traj.tail_mass[:traj.horizon].max() <= TAIL_CUTOFF \
        < traj.tail_mass[traj.horizon]


def test_cauchy_schwarz_moment_inequality():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(8))
    t = np.linspace(0, 10, 400)
    m = moments(evolve_chain(tri, t))
    assert (m.M2 - m.C ** 2 / m.P).min() > -1e-10


def test_grid_refinement_converged():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(8))
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


def _recursion_generators(tri):
    """A_phi and A_psi*, written out from the two recursions in the module
    docstring, independently of the gauge that evolve_chain uses."""
    a, b, c = (np.asarray(x, dtype=complex) for x in (tri.a, tri.b, tri.c))
    A_phi = sp.diags([1j * a, -b, c], [0, 1, -1], format="csr")
    A_psi_star = sp.diags([-1j * a.conj(), -c.conj(), b.conj()], [0, 1, -1],
                          format="csr")
    return A_phi, A_psi_star


def _random_chain(equal_hoppings):
    rng = np.random.default_rng(20)
    K = 20
    a = 0.3 * (rng.normal(size=K) + 1j * rng.normal(size=K))
    b = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
    c = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
    return TridiagonalData(a=a, b=b, c=b.copy() if equal_hoppings else c,
                           termination=TERM_BREAKDOWN)


def test_propagator_matches_dense_expm():
    # Unstructured: |b| != |c|, so the gauge D is not unimodular.  With
    # complex a and b = c the gauge is D = 1 but phi is complex.
    t = np.linspace(0, 3, 61)
    for tri in (_random_chain(False), _random_chain(True)):
        A_phi, A_psi_star = (A.toarray() for A in _recursion_generators(tri))
        traj = evolve_chain(tri, t)
        assert np.iscomplexobj(traj.phi)
        for k, tk in enumerate(t):
            phi = expm(tk * A_phi)[:, 0]
            psi = expm(tk * A_psi_star)[:, 0].conj()
            assert np.linalg.norm(traj.phi[:, k] - phi) <= \
                1e-10 * np.linalg.norm(phi)
            assert np.linalg.norm(traj.psi[:, k] - psi) <= \
                1e-10 * np.linalg.norm(psi)

    # b = c: psi is the phi trajectory itself, with no rounding difference
    # between the two.
    traj = evolve_chain(structured_four_site_chain(), t)
    assert np.array_equal(traj.psi.conj(), traj.phi)


def test_chain_without_gauge_rejected():
    # c_1 = 0 != b_1: phi never leaves site 0, psi* does.
    tri = TridiagonalData(a=np.zeros(3, dtype=complex),
                          b=np.array([1.0, 1.0], dtype=complex),
                          c=np.array([0.0, 1.0], dtype=complex),
                          termination=TERM_BREAKDOWN)
    with pytest.raises(ValueError, match="gauge"):
        evolve_chain(tri, np.linspace(0, 1, 11))


def test_zero_hopping_with_b_equal_c_is_gauged():
    # b_1 = c_1 = 0 cuts the chain; the gauge factor of that site is 1.
    tri = TridiagonalData(a=1j * np.array([0.1, 0.2, 0.3]),
                          b=np.array([0.0, 2.0], dtype=complex),
                          c=np.array([0.0, 0.5], dtype=complex),
                          termination=TERM_BREAKDOWN)
    t = np.linspace(0, 1, 11)
    traj = evolve_chain(tri, t)
    assert_allclose(traj.phi[0], np.exp(-0.1 * t), atol=1e-14)
    assert np.all(traj.phi[1:] == 0) and np.all(traj.psi[1:] == 0)


def test_overflowing_gauge_raises_numerical_failure():
    # |b / c| = 1e14 per site: D overflows where phi underflows to 0, so
    # psi = conj(D) phi is not finite although phi is.
    K = 50
    tri = TridiagonalData(a=np.zeros(K, dtype=complex),
                          b=np.full(K - 1, 1e7, dtype=complex),
                          c=np.full(K - 1, 1e-7, dtype=complex),
                          termination=TERM_BREAKDOWN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="non-finite"):
            evolve_chain(tri, np.linspace(0, 1e-6, 5))


def test_propagation_independent_of_global_random_state():
    # The propagator draws nothing at random: its Taylor degree and substeps
    # come from exact norms of powers of the generator.  Its result must
    # therefore be the same under any global random state, and it must
    # leave that state as it found it.
    spec = ModelSpec(N=3, g=-1.05, h=0.5)
    seed = uniform_seed(spec.dim)
    tri = project_dissipative_structure(
        bilanczos(build_model_lindbladian(spec), seed))
    t = np.linspace(0, 10, 400)
    runs = []
    for state in range(4):
        np.random.seed(state)
        runs.append(evolve_chain(tri, t).phi)
        after = np.random.random()
        np.random.seed(state)
        assert after == np.random.random()   # caller's state untouched
    assert all(np.array_equal(runs[0], phi) for phi in runs[1:])


def forced_kernels(monkeypatch):
    """Each kernel of _propagate in turn, with _propagate forced to it."""
    for kernel in ("vector", "block"):
        monkeypatch.setattr(krylov_chain, "_kernel",
                            lambda *plan, forced=kernel: forced)
        yield kernel


def _taylor_plan(A, t_end):
    """The substep count _propagate plans for exp(t_end A), A shifted as
    there."""
    A = sp.csr_array(A - A.diagonal().mean() * sp.eye(A.shape[0]))
    return krylov_chain._taylor_plan(A, t_end)


def _stiff_chain():
    # exp(-iHt) for a real symmetric tridiagonal H with hoppings up to 80:
    # the substeps outnumber the 10 grid steps.
    rng = np.random.default_rng(4)
    K = 30
    off = rng.uniform(20.0, 80.0, size=K - 1)
    H = sp.diags([5.0 * rng.normal(size=K), off, off], [0, 1, -1])
    return sp.csr_array(-1j * H - 0.05 * sp.eye(K)), np.linspace(0, 1, 11)


def _stiff_two_point_chain():
    # The stiff chain on the grid {0, 1}: one grid step, many substeps.
    return _stiff_chain()[0], np.linspace(0, 1, 2)


def _one_site_chain():
    # K = 1: the shifted generator is zero, so only exp(t mu) is left; the
    # loop sums two zero terms and stops.
    return sp.csr_array([[-0.3 + 2.0j]]), np.linspace(0, 2, 21)


def _zero_chain():
    return sp.csr_array((6, 6), dtype=float), np.linspace(0, 1, 5)


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


def _complex_per_step_chain():
    # The unequal-block chain made ten times stiffer, on 10 grid steps.
    A, _ = _unequal_block_chain()
    return 10.0 * A, np.linspace(0, 3, 11)


def _real_spiked_chain():
    # The real chain with three isolated on-site spikes, as the projected
    # model chains have: the spikes alone force substeps.
    rng = np.random.default_rng(5)
    K = 40
    a = rng.uniform(0.0, 0.5, size=K)
    a[[7, 8, 23]] = [150.0, 90.0, 200.0]
    b = rng.uniform(0.2, 3.0, size=K - 1)
    A = sp.diags([-a, -b, b], [0, 1, -1], format="csr")
    return sp.csr_array(A), np.linspace(0, 2, 11)


def _two_site_chain():
    # K = 2: each site's neighbour on one side is a zero padding cell.
    return (sp.csr_array([[-0.2 + 1.0j, -2.0], [1.5j, 0.3]]),
            np.linspace(0, 3, 31))


@pytest.mark.parametrize("chain, path", [
    (_stiff_chain, "per-step"),
    (_unequal_block_chain, "unequal blocks"),
    (_real_chain, "real"),
    (_stiff_two_point_chain, "per-step"),
    (_one_site_chain, "zero plan"),
    (_zero_chain, "zero plan"),
    (_two_site_chain, "two sites"),
    (_complex_per_step_chain, "per-step"),
    (_real_spiked_chain, "real per-step"),
])
def test_grid_propagator_matches_dense_expm(chain, path, monkeypatch):
    A, t = chain()
    q = t.size - 1
    s = _taylor_plan(A, t[-1])
    if "per-step" in path:   # several substeps per grid step
        assert s > q
    if path == "unequal blocks":
        assert q > s and q % (q // s) != 0
    if path == "zero plan":
        assert s == 1
    y0 = np.zeros(A.shape[0], dtype=A.dtype)
    y0[0] = 1.0
    A_dense = A.toarray()
    for kernel in forced_kernels(monkeypatch):
        X, ran, plan = _propagate(A, y0, t[-1] / q, q)
        assert ran == kernel and plan == (s, -(-s // q))
        if "real" in path:
            assert X.dtype == np.float64
        for k, tk in enumerate(t):
            ref = expm(tk * A_dense) @ y0
            assert np.linalg.norm(X[k] - ref) <= 1e-10 * np.linalg.norm(ref)


def test_kernel_rule_picks_the_cheaper_kernel():
    # The spiked chain walks 4 substeps per grid step: 40 vector blocks
    # against 4 block substeps on a 40 x 40 array.  The saturating K = 400
    # chain walks 240 blocks of 5 grid steps, each term 400 entries against
    # 160,000 on the block; measured 25-30 ms (vector) against 60-140 ms.
    A, t = _real_spiked_chain()
    y0 = np.eye(A.shape[0])[0]
    q = t.size - 1
    assert _propagate(A, y0, t[-1] / q, q)[1:] == ("block", (39, 4))
    traj = evolve_chain(saturating_coefficients(1.0, 1.0, 400),
                        np.linspace(0, 6, 1201))
    assert (traj.kernel, traj.plan) == ("vector", (239, 1))


def test_huge_couplings_take_the_block_kernel_and_agree(monkeypatch):
    # alpha = gamma = 1e4 at N = 3: about 9,800 substeps on 60 grid steps.
    # The block kernel multiplies by exp(tau mu) per substep, as the vector
    # kernel does, so neither overflows on the way to the decayed phi.
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=1e4, gamma=1e4)
    raw = bilanczos(build_model_lindbladian(spec), uniform_seed(spec.dim))
    t = np.linspace(0, 3, 61)
    for tri in (raw, project_dissipative_structure(raw)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve_chain(tri, t)
            assert traj.kernel == "block" and traj.plan[1] == 164
            monkeypatch.setattr(krylov_chain, "_kernel",
                                lambda *plan: "vector")
            ref = evolve_chain(tri, t).phi
            monkeypatch.undo()
        assert np.abs(traj.phi - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("K", [2, 3])
def test_nilpotent_generator_is_propagated(K):
    # Equal a_n, b = 0 and c != 0: the shifted generator is nilpotent (a_n
    # is a dyadic fraction, so the mean diagonal is exact), every d_p with
    # p >= K vanishes and the plan is the one substep every plan takes at
    # least.  It is still no identity map: the Taylor loop sums its terms.
    tri = TridiagonalData(a=np.full(K, 0.25 + 0.5j),
                          b=np.zeros(K - 1, dtype=complex),
                          c=np.full(K - 1, 1.5 + 0j),
                          termination=TERM_BREAKDOWN)
    t = np.linspace(0, 2, 21)
    A = _recursion_generators(tri)[0]
    assert _taylor_plan(A, t[-1]) == 1
    phi = evolve_chain(tri, t).phi
    e0 = np.eye(K)[0]
    for k, tk in enumerate(t):
        ref = expm(tk * A.toarray()) @ e0
        assert np.linalg.norm(phi[:, k] - ref) <= 1e-12 * np.linalg.norm(ref)


def _assert_matches_expm_multiply(tri, t):
    """Both trajectories against scipy's expm_multiply of the recursion
    generators, grid point by grid point, to 1e-10 relative."""
    traj = evolve_chain(tri, t)
    e0 = np.zeros(tri.K, dtype=complex)
    e0[0] = 1.0
    for A, Y in zip(_recursion_generators(tri), (traj.phi, traj.psi.conj())):
        ref = expm_multiply(A, e0, start=0.0, stop=t[-1], num=t.size,
                            endpoint=True).T
        err = np.linalg.norm(Y - ref, axis=0)
        assert np.all(err <= 1e-10 * np.linalg.norm(ref, axis=0))


@pytest.mark.parametrize("project, N, rates, max_iter", [
    pytest.param(project, N, (0.01, 0.01), None, id=f"{project}-{N}")
    for project in (False, True) for N in (3, 4)
] + [
    # The projected chain of this model takes the per-step path.
    pytest.param(True, 4, (0.0171, 0.2), None, id="True-4-per-step"),
] + [
    # The grid-depth N = 5 chains of the pipeline; the projected one has
    # the near-breakdown block that sets the most substeps per grid step.
    pytest.param(project, 5, (0.01, 0.01), 128, id=f"{project}-5-grid")
    for project in (False, True)
])
def test_propagator_matches_expm_multiply_on_model_chains(project, N, rates,
                                                          max_iter):
    alpha, gamma = rates
    spec = ModelSpec(N=N, g=-1.05, h=0.5, alpha=alpha, gamma=gamma)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed, max_iter=max_iter)
    if project:
        tri = project_dissipative_structure(tri)
    _assert_matches_expm_multiply(tri, np.linspace(0, 10, 400))


def test_propagator_matches_expm_multiply_on_saturating_chain():
    _assert_matches_expm_multiply(saturating_coefficients(1.0, 1.0, 400),
                                  np.linspace(0, 6, 1201))


# Largest error of the chain's C, P and M2 against the closed forms, relative
# to each series' maximum over the horizon: the measured 1.5e-14, 9.4e-15
# and 1.6e-14 (chi0.3), 3.1e-14, 1.7e-14 and 3.5e-14 (chi1), and 4.1e-10,
# 1.0e-14 and 6.8e-9 (chi0, where the chain end is near) times 10, rounded
# down.
SU11_TOL = {"chi0.3": (1.5e-13, 9.4e-14, 1.6e-13),
            "chi1": (3.1e-13, 1.6e-13, 3.4e-13),
            "chi0": (4.0e-9, 1.0e-13, 6.8e-8)}
# Largest |P - 1| of the closed chi0 chain per kernel: the measured 1.6e-15
# (vector) and 4.4e-14 (block) times 10.  The block kernel's 1,200
# matrix-vector steps round once each; stepping with scipy's expm of the
# grid step instead of the Taylor E drifts by 2.4e-14.
SU11_CLOSED_TOL = {"vector": 1.6e-14, "block": 4.4e-13}


@pytest.mark.parametrize("case", SU11_CASES)
def test_chain_matches_exact_su11_moments(case, monkeypatch):
    (alpha, eta, chi), t, horizon = SU11_CASES[case]
    tri = su11_chain(alpha, eta, chi, 400)
    if chi == 0:
        assert_array_equal(tri.b, saturating_coefficients(1.0, 1.0, 400).b)
    for kernel in forced_kernels(monkeypatch):
        traj = evolve_chain(tri, t)
        assert traj.kernel == kernel and traj.horizon == horizon
        m, ref = moments(traj), su11_moments(alpha, eta, chi, t)
        for name, tol in zip(("C", "P", "M2"), SU11_TOL[case]):
            x, y = getattr(m, name)[:horizon], getattr(ref, name)[:horizon]
            assert np.abs(x - y).max() <= tol * np.abs(y).max(), \
                (kernel, name)
        if chi == 0:   # a closed chain
            assert np.abs(m.P[:horizon] - 1.0).max() <= \
                SU11_CLOSED_TOL[kernel]


def test_n5_raw_chain_evolves_without_runtime_warnings():
    # The full chain spans the operator space, so its last-site amplitude
    # raises no truncation warning.
    spec = ModelSpec(N=5, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    t = np.linspace(0, 10, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve_chain(tri, t)


def test_oracle_matches_chain_at_zero():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(4)
    tri = bilanczos(L, seed)
    t = np.linspace(0, 1, 11)
    mo = direct_evolution_oracle(L, seed, tri, t)
    assert mo.C[0] == pytest.approx(0.0, abs=1e-12)
    assert mo.P[0] == pytest.approx(1.0, abs=1e-12)
    assert mo.M2[0] == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_chain_closed_two_site():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(4)
    tri = bilanczos(L, seed)
    t = np.linspace(0, 5, 201)
    mc = moments(evolve_chain(tri, t))
    mo = direct_evolution_oracle(L, seed, tri, t)
    assert np.abs(mc.C - mo.C).max() < 1e-8 * max(np.abs(mo.C).max(), 1.0)
    assert np.abs(mc.P - mo.P).max() < 1e-8


def _random_complex_seed(dim):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# Every kind of seed the CLI accepts at N = 3: the uniform seed (float64,
# even sector), sigma^z_1 (float64, full space), sigma^y_1 and
# sigma^x_1 + sigma^y_3 (complex or non-symmetric, the dual-basis branch)
# and a random complex custom seed (complex arithmetic throughout); then
# three of them scaled, as the chain does not depend on the seed's scale.
ORACLE_SEEDS = {
    "uniform": uniform_seed(8),
    "z1": sigma_z1(3),
    "y1": vectorize(site_operator(PAULI_Y, 1, 3)) / np.sqrt(8),
    "x1_y3": sigma_x1_plus_yN(3),
    "random_complex": _random_complex_seed(64),
}
ORACLE_SEEDS.update({
    f"{name}_x{label}": c * ORACLE_SEEDS[name] for name, c, label in
    (("uniform", 2, "2"), ("y1", 0.3 + 0.4j, "0.3+0.4i"), ("x1_y3", 2, "2"))
})


@pytest.mark.parametrize("seed", ORACLE_SEEDS.values(), ids=ORACLE_SEEDS)
def test_oracle_matches_chain_dissipative_three_site(seed):
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    tri = bilanczos(L, seed)
    t = np.linspace(0, 5, 201)
    mc = moments(evolve_chain(tri, t))
    mo = direct_evolution_oracle(L, seed, tri, t)
    scale_C = np.maximum(np.abs(mo.C), 1e-12 * np.abs(mo.C).max())
    assert (np.abs(mc.C - mo.C) / scale_C).max() < 1e-6
    assert (np.abs(mc.P - mo.P) / np.abs(mo.P)).max() < 1e-6
    assert (np.abs(mc.M2 - mo.M2)
            / np.maximum(np.abs(mo.M2), 1e-12 * mo.M2.max())).max() < 1e-6


def full_space_oracle(L, seed, tri, t):
    """Reference for the oracle: the dense complex evolution of the ket by
    E = expm(i dt L) in full space, of the dual by E', and projection on the
    lifted bases, phi_n = (-i)^n q_n' v and psi*_n = i^n p_n' w."""
    A = L.toarray() if sp.issparse(L) else np.asarray(L, dtype=complex)
    E = expm(1j * (t[1] - t[0]) * A)
    V = np.empty((t.size, A.shape[0]), dtype=complex)
    W = np.empty_like(V)
    V[0] = W[0] = seed
    for k in range(1, t.size):
        V[k] = E @ V[k - 1]
        W[k] = E.conj().T @ W[k - 1]
    n = np.arange(tri.K)[:, None]
    phi = (-1j) ** n * (q_basis(tri).conj().T @ V.T)
    psi_star = 1j ** n * (p_basis(tri).conj().T @ W.T)
    return moments(ChainTrajectory(t=t, phi=phi, psi=psi_star.conj(),
                                   tail_mass=np.abs(phi[-1]) ** 2))


@pytest.fixture
def expm_args(monkeypatch):
    """(shape, dtype) of every matrix the oracle passes to expm."""
    args = []
    monkeypatch.setattr(krylov_chain, "expm",
                        lambda M: args.append((M.shape, M.dtype)) or expm(M))
    return args


def _oracle_case(case):
    """L, the seed, the chain and the (shape, dtype) the oracle's expm must
    get: the dimension the chain ran in, the reflection sector's 40 at
    N = 3 when the seed is even, the full space's 64 when not or when the
    chain was run there, and float64 unless R is complex.  "random_csr"
    is "random" with L passed as a CSR array."""
    if case.startswith("random"):
        rng = np.random.default_rng(5)
        L = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        seed = rng.normal(size=16) + 1j * rng.normal(size=16)
        seed = seed / np.linalg.norm(seed)
        if case == "random_csr":
            L = sp.csr_array(L)
        return L, seed, bilanczos(L, seed), ((16, 16), np.complex128)
    rate = 0.0 if case == "closed" else 0.01
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=rate, gamma=rate)
    L = build_model_lindbladian(spec)
    if case == "not_even":
        seed = sigma_x1_plus_yN(3)
        return L, seed, bilanczos(L, seed), ((64, 64), np.float64)
    seed = uniform_seed(spec.dim)
    if case == "full_space":   # an even seed's chain run outside the sector
        return L, seed, _lanczos(L, seed), ((64, 64), np.float64)
    if case == "phase":   # complex coordinates x0 of a real R
        seed = np.exp(0.7j) * seed
    return L, seed, bilanczos(L, seed), ((40, 40), np.float64)


@pytest.mark.parametrize("case", ["open", "closed", "not_even", "phase",
                                  "random", "random_csr", "full_space"])
def test_oracle_matches_full_space_evolution(case, expm_args):
    # "random" has a complex R, so it tells the dual step E' from E^T.  Its
    # CSR twin has a product R = -i W' L W with unsorted indices: a realness
    # test that sorted them in place once scrambled Im R (chain off by
    # max|db_n| = 10.7, oracle's C off by 0.65 of its maximum), so the CSR
    # chain must be the dense one bit for bit.
    L, seed, tri, expm_arg = _oracle_case(case)
    if case == "random_csr":
        dense = _oracle_case("random")[2]
        for name in ("a", "b", "c"):
            assert_array_equal(getattr(tri, name), getattr(dense, name))
    t = np.linspace(0, 2 if case.startswith("random") else 5, 101)
    mo = direct_evolution_oracle(L, seed, tri, t)
    assert expm_args == [expm_arg]
    ref = full_space_oracle(L, seed, tri, t)
    for name in ("C", "P", "M2"):
        x, y = getattr(mo, name), getattr(ref, name)
        assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max(), name


def test_oracle_runs_one_real_expm_of_the_sector(expm_args):
    spec = ModelSpec(N=4, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(spec.dim)
    tri = bilanczos(L, seed)
    direct_evolution_oracle(L, seed, tri, np.linspace(0, 1, 11))
    assert expm_args == [((136, 136), np.float64)]


def test_oracle_requires_stored_bases():
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    L = build_model_lindbladian(spec)
    seed = uniform_seed(4)
    tri = dataclasses.replace(bilanczos(L, seed), W=None)
    with pytest.raises(ValueError, match="stored bases"):
        direct_evolution_oracle(L, seed, tri, np.linspace(0, 1, 11))


def test_oracle_size_cap_is_the_full_space_dimension(expm_args):
    spec = ModelSpec(N=2, g=-1.05, h=0.5)
    seed = uniform_seed(4)
    tri = bilanczos(build_model_lindbladian(spec), seed)
    with pytest.raises(ValueError, match="4096"):
        direct_evolution_oracle(sp.eye_array(4097, format="csr"),
                                np.ones(4097), tri, np.linspace(0, 1, 11))
    assert expm_args == []


def test_finite_diff_polynomial():
    # The stencils are fourth order, so exact on t^2 and t^4 down to the
    # shortest grid they fit, STENCIL samples.
    for t in (np.arange(0, 1, 0.01), np.linspace(0, 1, STENCIL)):
        d = finite_diff(t ** 2, t)
        assert np.abs(d - 2 * t).max() < 1e-4
    t = np.linspace(0, 1, STENCIL)
    assert_allclose(finite_diff(t ** 4, t), 4 * t ** 3, atol=1e-12)


def test_finite_diff_constant():
    t = np.linspace(0, 1, 50)
    assert_allclose(finite_diff(np.ones_like(t), t), 0.0, atol=1e-12)


def test_finite_diff_sine():
    t = np.arange(0, 2, 0.001)
    d = finite_diff(np.sin(t), t)
    assert np.abs(d - np.cos(t)).max() < 1e-6


def test_finite_diff_rejects_nonuniform():
    # Uniformity is relative to the step: an absolute tolerance of 1e-12
    # once took the second grid as uniform and gave [0, 2e13, 4e13].
    for t in ([0.0, 0.1, 0.3], [0.0, 1e-13, 3e-13]):
        with pytest.raises(ValueError, match="uniform"):
            finite_diff([0.0, 1.0, 4.0], t)


@pytest.mark.parametrize("series,t,match", [
    ([0.0, 1.0], [0.0, 0.1, 0.2], "lengths differ"),
    ([0.0, 1.0], [0.0, 0.1], f"at least {STENCIL} samples"),
    ([0.0, 1.0, 4.0, 9.0], [0.0, 0.1, 0.2, 0.3],
     f"at least {STENCIL} samples")],
    ids=["mismatched", "two_samples", "four_samples"])
def test_finite_diff_rejects_short_or_mismatched_input(series, t, match):
    with pytest.raises(ValueError, match=match):
        finite_diff(series, t)


def test_evolve_requires_grid_from_zero():
    # Both checks are relative to the step: with absolute ones, the second
    # grid was propagated at k 1.5e-13 under its own labels and the third
    # was taken to start at 0.
    # A single sample has no step.
    for t in (np.linspace(1, 2, 10), [0.0, 1e-13, 3e-13],
              [1e-13, 2e-13, 3e-13], [0.0]):
        with pytest.raises(ValueError):
            evolve_chain(two_site_rotation(), t)


def paper_model_n2():
    """(L, seed, chain) of the N = 2 paper model at alpha = gamma = 0.01."""
    L = build_model_lindbladian(ModelSpec(N=2, g=-1.05, h=0.5, alpha=0.01,
                                          gamma=0.01))
    seed = uniform_seed(4)
    return L, seed, bilanczos(L, seed)


def test_oracle_requires_grid_from_zero():
    # The oracle's first row is the seed: a grid from t = 1 would label
    # it t = 1 (C = 4.4e-32, P = 1, where the chain gives 0.2297 and
    # 0.9728).
    L, seed, tri = paper_model_n2()
    with pytest.raises(ValueError, match="start at 0"):
        direct_evolution_oracle(L, seed, tri, np.linspace(1, 2, 11))


def _evolve_on(t):
    return evolve_chain(saturating_coefficients(1.0, 1.0, 40), t)


def _oracle_on(t):
    return direct_evolution_oracle(*paper_model_n2(), t)


def _finite_diff_on(t):
    return finite_diff(np.ones(np.size(t)), t)


def _saturation_on(t_max, n_samples):
    return saturation_report(K=40, t_max=t_max, n_samples=n_samples)


# (t_max, n_samples) that the grid builders reject.
BAD_SPANS = {"t_max_negative": (-2.0, 201), "t_max_zero": (0.0, 11),
             "t_max_nan": (np.nan, 11), "t_max_inf": (np.inf, 11),
             "fractional": (2.0, 10.5), "integral_float": (2.0, 11.0),
             "boolean": (2.0, True), "two_samples": (2.0, 2),
             "four_samples": (2.0, STENCIL - 1),
             "subnormal_step": (1e-310, 61)}
BAD_GRIDS = {"decreasing": np.linspace(0, -2, 21), "zero_step": np.zeros(21)}
# Each entry point of the time-grid rule on each grid it must reject, and
# the message it must give: a builder names its argument.
GRID_RULE = {
    **{f"{name}-{case}": (f, span, "^(t_max|n_samples) ")
       for name, f in (("time_grid", time_grid),
                       ("saturation_report", _saturation_on))
       for case, span in BAD_SPANS.items()},
    **{f"{name}-{case}": (f, (t,), "time grid must increase")
       for name, f in (("evolve_chain", _evolve_on), ("oracle", _oracle_on),
                       ("finite_diff", _finite_diff_on))
       for case, t in BAD_GRIDS.items()},
    "evolve_chain-one_sample": (_evolve_on, ([0.0],), "at least 2 points"),
    "oracle-one_sample": (_oracle_on, ([0.0],), "at least 2 points"),
    "finite_diff-four_samples": (_finite_diff_on,
                                 (np.linspace(0, 1, STENCIL - 1),),
                                 f"at least {STENCIL} samples"),
}


@pytest.mark.parametrize("case", GRID_RULE)
def test_grid_rule_rejects_bad_grids(case):
    # A ValueError, with no RuntimeWarning on the way: at t_max = 0 the
    # saturation report once divided by its zero step and returned NaN, and
    # a decreasing grid was propagated backwards in time.
    f, args, match = GRID_RULE[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            f(*args)


def test_time_grid_is_the_linspace_of_its_span():
    assert_array_equal(time_grid(6.0, 1201), np.linspace(0.0, 6.0, 1201))
    assert_array_equal(time_grid(10, np.int64(400)),
                       np.linspace(0.0, 10.0, 400))


def test_overflowing_taylor_plan_raises_numerical_failure():
    # At 1e300 the plan is finite (about 5.4e299 substeps) but past the
    # budget; at 1e308 t max(d_p, d_p+1) overflows float64.  Both fail
    # before the Taylor loop, with no overflow warning on the way.
    _, _, tri = paper_model_n2()
    for t_max in (1e300, 1e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="substeps"):
                evolve_chain(tri, np.linspace(0, t_max, 61))


# The chain policy, ChainRun, without the CLI: the paper's N = 5 model and
# its closed counterpart, grown only as deep as the time grid needs.
PAPER_N5 = ModelSpec(N=5, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
CLOSED_N5 = dataclasses.replace(PAPER_N5, alpha=0.0, gamma=0.0)
PAPER_N3 = dataclasses.replace(PAPER_N5, N=3)   # complete at K = 40
CLOSED_N3 = dataclasses.replace(CLOSED_N5, N=3)


@pytest.fixture
def evolved_depths(monkeypatch):
    """K of every chain krylov_chain.evolve_chain evolves from now on."""
    depths = []
    evolve = krylov_chain.evolve_chain
    monkeypatch.setattr(krylov_chain, "evolve_chain",
                        lambda tri, t: depths.append(tri.K) or evolve(tri, t))
    return depths


def grid_depth_run(spec, t_max):
    """The ChainRun of ``spec`` on 400 samples of [0, t_max], its chain
    grown by bilanczos with the run's depth hook."""
    run = ChainRun(time_grid(t_max, 400))
    run.tri = bilanczos(build_model_lindbladian(spec), uniform_seed(spec.dim),
                        deep_enough=run.deep_enough)
    return run


@pytest.mark.parametrize("spec,t_max,K", [
    (PAPER_N5, 10.0, 128), (PAPER_N5, 20.0, 256), (CLOSED_N5, 10.0, 256)],
    ids=["paper-10", "paper-20", "closed-10"])
def test_chain_run_grows_the_chain_to_the_grid_depth(spec, t_max, K):
    # The open model on [0, 20] fails the horizon check at K = 128; the
    # closed one passes it there (tail 2.0e-17) but not the Duhamel check.
    run = grid_depth_run(spec, t_max)
    assert (run.tri.K, run.tri.termination) == (K, TERM_GRID)
    assert not run.tri.complete
    assert run.structure.label == ("closed structure" if spec is CLOSED_N5
                                   else "mixed structure")


@pytest.mark.parametrize("t_max,depths", [(10.0, [128, 128]),
                                          (20.0, [128, 256, 256])])
def test_chain_run_propagates_each_chain_once(evolved_depths, t_max, depths):
    # The projected chain is evolved only once the raw one passes its
    # horizon check; the stages then take the probe's two trajectories.
    run = grid_depth_run(PAPER_N5, t_max)
    assert evolved_depths == depths
    for bound in (False, True, False, True):
        traj = run.trajectory(bound=bound)
        assert traj.horizon == 400
    assert evolved_depths == depths
    assert run.trajectory(bound=True) is not run.trajectory()


def test_chain_run_evolves_the_bound_chain_only_when_asked(evolved_depths):
    # With a fixed depth there is no probe: the raw chain is evolved on
    # the first request, the projected one on the first request for it.
    run = ChainRun(time_grid(2.0, 41))
    run.tri = bilanczos(build_model_lindbladian(PAPER_N3),
                        uniform_seed(PAPER_N3.dim))
    assert evolved_depths == []
    run.trajectory()
    run.trajectory()
    assert evolved_depths == [40]
    chain, b1 = run.bound_chain
    assert chain is not run.tri
    assert_array_equal(chain.b, np.abs(run.tri.b))
    assert b1 == abs(run.tri.b[0])
    run.trajectory(bound=True)
    run.trajectory(bound=True)
    assert evolved_depths == [40, 40]


def test_closed_chain_is_its_own_bound_chain(evolved_depths):
    t = time_grid(1.0, 11)
    run = ChainRun(t, two_site_rotation())
    assert run.structure.label == "closed structure"
    chain, b1 = run.bound_chain
    assert chain is run.tri and b1 == 1.0
    assert run.trajectory(bound=True) is run.trajectory()
    assert evolved_depths == [2]


def test_one_coefficient_chain_has_b1_zero():
    run = ChainRun(time_grid(1.0, 11), single_site_chain(0.0))
    chain, b1 = run.bound_chain
    assert chain is run.tri and b1 == 0.0
    assert run.trajectory(bound=True).phi.shape == (1, 11)


def cut_run(spec):
    """The ChainRun of ``spec`` on 400 samples of [0, 10], its chain cut
    at K = 20 by max_iter."""
    run = ChainRun(time_grid(10.0, 400))
    run.tri = bilanczos(build_model_lindbladian(spec), uniform_seed(spec.dim),
                        max_iter=20)
    return run


def tail_warning(tail):
    return (f"truncation tail |phi_K-1|^2 reached {tail} (cutoff 1.0e-10); "
            "results beyond that time are affected by the finite chain")


def test_chain_run_warns_where_the_chain_end_shows():
    # An N = 3 chain cut at K = 20 is not complete, and its last-site mass
    # passes TAIL_CUTOFF on [0, 10]: each trajectory warns, of its own chain.
    run = cut_run(PAPER_N3)
    for bound, tail in ((False, "1.427e-02"), (True, "1.151e-02")):
        with pytest.warns(RuntimeWarning) as caught:
            run.trajectory(bound=bound)
        assert [str(w.message) for w in caught] == [tail_warning(tail)]


@pytest.mark.parametrize("spec,requests,tail", [
    (PAPER_N3, (False, False), "1.427e-02"),
    (PAPER_N3, (True, True), "1.151e-02"),
    (CLOSED_N3, (False, True), "7.680e-02")],
    ids=["raw_twice", "bound_twice", "closed_raw_and_bound"])
def test_chain_run_warns_once_per_trajectory(spec, requests, tail):
    # A closed chain is its own bound chain: its two requests are one
    # trajectory, so they warn once together.
    run = cut_run(spec)
    with pytest.warns(RuntimeWarning) as caught:
        for bound in requests:
            run.trajectory(bound=bound)
    assert [str(w.message) for w in caught] == [tail_warning(tail)]


def test_structure_report_states_the_prefix_it_judged():
    # The complete open N = 3 chain has K = 40 < 50 coefficients; the N = 5
    # chain grown to the grid depth has K = 128.
    complete = bilanczos(build_model_lindbladian(PAPER_N3),
                         uniform_seed(PAPER_N3.dim))
    grid = grid_depth_run(PAPER_N5, 10.0).tri
    for tri, K, n_coeffs in ((complete, 40, 40), (grid, 128, 50)):
        assert tri.K == K
        assert check_open_structure(tri, 50).n_coeffs == n_coeffs
        assert check_open_structure(tri).n_coeffs == K
