import numpy as np
import numpy.testing as npt
import pytest

from conftest import SX, SZ, rk4_ode
from vndarboux import (DarbouxParams, UnsupportedScenario, build_lax,
                       lax_generator, make_anticommuting_seed,
                       make_commuting_seed, make_delta_commuting_seed,
                       make_pure_state_seed, solve_initial, solve_initial_left)
from vndarboux.vne_model import ModelSpec, hamiltonian_of


SIGMA_SEED = make_anticommuting_seed(1, [1.0], n=2)


# ---------------------------------------------------------------------------
# initial eigenproblem

def test_solve_initial_sigma_x():
    z, phi = solve_initial(SIGMA_SEED, mu=1j)
    assert abs(z) <= 1e-12
    npt.assert_allclose(phi, np.array([1.0, 1j]) / np.sqrt(2), atol=1e-12)


def test_solve_initial_commuting_diagonal():
    seed = make_commuting_seed([0.7, 0.2], [1.0, -1.0], n=1)
    z, phi = solve_initial(seed, mu=-0.5)
    # pencil diag(p1 - mu, p2 + mu) = diag(1.2, -0.3); rule picks 1.2 -> e1
    assert z == pytest.approx(1.2)
    npt.assert_allclose(phi, [1.0, 0.0], atol=1e-14)


def test_solve_initial_mu_2i():
    z, _ = solve_initial(SIGMA_SEED, mu=2j)
    assert z == pytest.approx(1j * np.sqrt(3.0), abs=1e-12)


def test_solve_initial_rejects_zero_mu():
    with pytest.raises(ValueError, match="nonzero"):
        solve_initial(SIGMA_SEED, mu=0.0)


def test_solve_initial_left_is_left_eigenvector():
    seed = make_anticommuting_seed(2, [0.9, 0.4], alpha=[1.0, 1.5], n=1)
    z, w = solve_initial_left(seed, 0.7 + 0.3j)
    pencil = seed.rho0 - (0.7 + 0.3j) * seed.spec.A
    npt.assert_allclose(w @ pencil, z * w, atol=1e-10)


# ---------------------------------------------------------------------------
# evolution closed forms

def test_evolve_constant_for_z_zero_even_n():
    lax = build_lax(SIGMA_SEED, mu=1j)
    phi1 = lax.phi_at(3.7)
    npt.assert_allclose(phi1, lax.phi0, atol=1e-13)


def test_evolve_odd_n_scalar_decay():
    # n = 1, A^2 = 1: phi(t) = exp(i mu t) phi0 = exp(-t) phi0 for mu = i
    seed = make_anticommuting_seed(1, [1.0], n=1)
    lax = build_lax(seed, mu=1j)
    t = 0.9
    phi_t = lax.phi_at(t)
    npt.assert_allclose(phi_t, np.exp(-t) * lax.phi0, atol=1e-13)


def test_evolve_at_zero_returns_initial():
    lax = build_lax(SIGMA_SEED, mu=1j)
    npt.assert_array_equal(lax.phi_at(0.0), lax.phi0)


def test_evolve_chi_adjoint_relation():
    lax = build_lax(SIGMA_SEED, mu=1j)
    chi0 = lax.chi_at(0.0)
    npt.assert_allclose(chi0, np.conj(lax.phi0), atol=1e-14)
    # sigma-x scenario: phi constant, so chi(t) = (1, -i)/sqrt 2 for all t
    chi_t = lax.chi_at(2.5)
    npt.assert_allclose(chi_t, np.array([1.0, -1j]) / np.sqrt(2), atol=1e-13)


def test_evolve_chi_general_mode_dual_basis():
    seed = make_commuting_seed([0.7, 0.2], [1.0, -1.0], n=1)
    lax = build_lax(seed, mu=-0.5, nu=-1.0)
    # left pencil diag(p1 - nu, p2 + nu) = diag(1.7, -0.8): picks e1 row
    npt.assert_allclose(lax.chi0, [1.0, 0.0], atol=1e-14)
    chi_t = lax.chi_at(1.0)
    assert abs(np.linalg.norm(chi_t) - np.linalg.norm(lax.chi0)) <= 1.0  # finite


def test_evolve_psi_initial_relation():
    lax = build_lax(SIGMA_SEED, mu=1j, lam=3j)
    assert lax.params.z_lambda == pytest.approx(2j * np.sqrt(2.0), abs=1e-12)
    pencil = SIGMA_SEED.rho0 - 3j * SIGMA_SEED.spec.A
    psi0 = lax.psi_at(0.0)
    npt.assert_allclose(psi0 @ pencil, lax.params.z_lambda * psi0, atol=1e-9)


def test_evolve_psi_commuting_z_values():
    seed = make_commuting_seed([0.7, 0.2], [1.0, -1.0], n=1)
    lax = build_lax(seed, mu=-0.5, nu=-1.0, lam=2.0)
    # z in {p1 - lam a1, p2 - lam a2} = {-1.3, 2.2}: rule picks 2.2
    assert lax.params.z_lambda == pytest.approx(2.2)


def test_pure_state_family_unsupported():
    spec = ModelSpec(2, SZ)
    seed = make_pure_state_seed(spec, np.array([0.6, 0.8]))
    with pytest.raises(UnsupportedScenario, match="pure_state"):
        build_lax(seed, mu=1j)


def test_params_reject_identity_transformation():
    with pytest.raises(ValueError, match="identity"):
        DarbouxParams(mu=1.0, nu=1.0, lam=None, z_mu=0.0, z_nu=0.0,
                      z_lambda=None, hermitian_mode=False)


def test_real_mu_conjugate_nu_rejected():
    with pytest.raises(ValueError, match="identity"):
        build_lax(SIGMA_SEED, mu=2.0)


def test_lambda_must_differ_from_mu():
    with pytest.raises(ValueError, match="lambda"):
        build_lax(SIGMA_SEED, mu=1j, lam=1j)


def test_evolve_psi_requires_lambda():
    lax = build_lax(SIGMA_SEED, mu=1j)
    with pytest.raises(ValueError, match="lambda"):
        lax.psi_at(0.2)


# ---------------------------------------------------------------------------
# invariants

@pytest.mark.parametrize("make,mu", [
    (lambda: make_anticommuting_seed(2, [0.8, 1.2], alpha=[1.0, 1.4], n=2), 0.6 + 0.8j),
    (lambda: make_anticommuting_seed(1, [1.0], n=3), 0.5 + 0.5j),
    (lambda: make_delta_commuting_seed([(1.0, 0.5)], a=1.0), 1 + 1j),
    (lambda: make_commuting_seed([0.4, 0.1, 0.8], [1.0, 0.5, -0.7], n=2), 0.9 + 0.4j),
])
def test_eigen_relation_persists(make, mu):
    seed = make()
    lax = build_lax(seed, mu)
    pencil_of = lambda t: seed(t) - mu * seed.spec.A
    for t in (-2.0, -0.7, 0.0, 1.1, 2.0):
        phi = lax.phi_at(t)
        gap = np.linalg.norm(pencil_of(t) @ phi - lax.params.z_mu * phi)
        assert gap <= 1e-8 * np.linalg.norm(phi)


def test_hermitian_overlap_is_norm_squared():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    lax = build_lax(seed, mu=1 + 1j)
    for t in (-1.5, 0.3, 2.0):
        phi = lax.phi_at(t)
        chi = lax.chi_at(t)
        overlap = chi @ phi
        assert overlap.real > 0
        assert overlap == pytest.approx(np.linalg.norm(phi) ** 2, rel=1e-12)


def test_one_parameter_group():
    seed = make_delta_commuting_seed([(1.0, 0.5), (2.0, 0.3)], a=0.5)
    lax = build_lax(seed, mu=0.7 + 0.6j)
    s, t = 0.8, 1.1
    phi_s = lax.phi_at(s)
    phi_st = lax.phi_at(s + t)
    import scipy.linalg as sla
    generator = lax_generator(seed, lax.params.mu, lax.params.z_mu)
    expected = sla.expm(-1j * t * generator) @ phi_s
    assert np.linalg.norm(phi_st - expected) <= 1e-10 * max(1.0, np.linalg.norm(phi_st))


@pytest.mark.parametrize("make,mu", [
    (lambda: make_anticommuting_seed(1, [1.0], n=2), 0.8 + 0.5j),
    (lambda: make_anticommuting_seed(1, [1.0], n=1), 0.4 + 0.7j),
    (lambda: make_delta_commuting_seed([(1.0, 0.5)], a=1.0), 1 + 1j),
    (lambda: make_commuting_seed([0.4, 0.1], [1.0, -0.7], n=2), 0.9 + 0.4j),
])
def test_evolve_phi_matches_rk4_of_time_equation(make, mu):
    # independent oracle: integrate i phi' = (sum A^{n-k} rho(t) A^k - mu A^{n+1}) phi
    seed = make()
    lax = build_lax(seed, mu)
    spec = seed.spec

    def f(t, y):
        G = hamiltonian_of(spec, seed(t)) - mu * spec.powers[spec.n + 1]
        return -1j * (G @ y)

    oracle = rk4_ode(f, lax.phi0, 1.0, 1e-3)
    closed = lax.phi_at(1.0)
    assert np.linalg.norm(closed - oracle) <= 1e-6 * max(1.0, np.linalg.norm(closed))


def test_evolve_chi_matches_rk4_general_mode():
    # -i chi' = chi (sum A^{n-k} rho A^k - nu A^{n+1}) integrated directly
    seed = make_anticommuting_seed(2, [0.9, 0.5], alpha=[1.0, 1.2], n=2)
    lax = build_lax(seed, mu=0.5 + 0.4j, nu=0.3 - 0.6j)
    spec = seed.spec

    def f(t, y):
        G = hamiltonian_of(spec, seed(t)) - lax.params.nu * spec.powers[spec.n + 1]
        return 1j * (y @ G)

    oracle = rk4_ode(f, lax.chi0, 1.0, 1e-3)
    closed = lax.chi_at(1.0)
    assert np.linalg.norm(closed - oracle) <= 1e-6 * max(1.0, np.linalg.norm(closed))
