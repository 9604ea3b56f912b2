import numpy as np
import numpy.testing as npt
import pytest

from conftest import SX, SZ, nlse_rhs, rk4_ode
from vndarboux import (ModelSpec, SeedFamily, make_anticommuting_seed,
                       make_commuting_seed, make_delta_commuting_seed,
                       make_pure_state_seed, residual, residuals)
from vndarboux.operator_core import commutator, frob


# ---------------------------------------------------------------------------
# anticommuting seeds

def test_anticommuting_minimal_block():
    seed = make_anticommuting_seed(1, [1.0], n=2)
    npt.assert_array_equal(seed.spec.A, SZ)
    npt.assert_array_equal(seed.rho0, SX)
    assert abs(np.trace(seed.rho0 @ seed.spec.A)) == 0


def test_anticommuting_two_blocks():
    seed = make_anticommuting_seed(2, [1.0, 2.0], n=2)
    assert seed.dim == 4
    assert frob(seed.spec.A @ seed.rho0 + seed.rho0 @ seed.spec.A) <= 1e-12
    # block oracle: each 2x2 block is b_j sx against diag(1,-1)
    npt.assert_array_equal(seed.rho0[:2, :2], 1.0 * SX)
    npt.assert_array_equal(seed.rho0[2:, 2:], 2.0 * SX)


def test_anticommuting_rejects_zero_coupling():
    with pytest.raises(ValueError, match="nonzero"):
        make_anticommuting_seed(1, [0.0])


def test_anticommuting_rejects_zero_alpha():
    with pytest.raises(ValueError, match="alpha"):
        make_anticommuting_seed(1, [1.0], alpha=[0.0])


def test_anticommuting_commutes_with_a_squared():
    seed = make_anticommuting_seed(3, [0.5, -1.0, 0.8], alpha=[1.0, 2.0, 0.7], n=1)
    A2 = seed.spec.A @ seed.spec.A
    assert frob(commutator(seed.rho0, A2)) <= 1e-12


# ---------------------------------------------------------------------------
# Delta-commuting seeds

def test_delta_single_block_hand_values():
    # a = 1, kappa = 1/2: Delta_a = (1/4 - 1/4) I = 0 and H = diag(1, 2)
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    npt.assert_array_equal(seed.spec.A, np.diag([1.0, 2.0]))
    npt.assert_allclose(seed.delta_a, np.zeros((2, 2)), atol=1e-15)
    # evolution for a = 1 is plain conjugation with exp(-iHt)
    t = 0.8
    U = np.diag(np.exp(-1j * np.array([1.0, 2.0]) * t))
    npt.assert_allclose(seed(t), U @ seed.rho0 @ U.conj().T, atol=1e-13)


def test_delta_a_zero_means_rho_squared_commutes():
    seed = make_delta_commuting_seed([(0.5, 0.7)], a=0.0)
    rho2 = seed.rho0 @ seed.rho0
    assert frob(commutator(rho2, seed.spec.A)) <= 1e-12


def test_delta_two_blocks_certified():
    seed = make_delta_commuting_seed([(1.0, 1.0), (3.0, 1.0)], a=2.0)
    delta = seed.rho0 @ seed.rho0 - 2.0 * seed.rho0
    assert frob(commutator(delta, seed.spec.A)) <= 1e-12


def test_delta_rejects_zero_kappa():
    with pytest.raises(ValueError, match="kappa"):
        make_delta_commuting_seed([(1.0, 0.0)], a=1.0)


def test_delta_rejects_complex_a():
    with pytest.raises(ValueError, match="real"):
        make_delta_commuting_seed([(1.0, 0.5)], a=1.0 + 1j)


def test_delta_invariant_along_evolution():
    seed = make_delta_commuting_seed([(1.0, 0.4), (2.5, -0.6)], a=0.7)
    d0 = seed.delta_a
    for t in (-2.0, -0.5, 1.3, 2.0):
        rho_t = seed(t)
        drift = frob(rho_t @ rho_t - 0.7 * rho_t - d0)
        assert drift <= 1e-10


def test_delta_nontrivial_noncommuting():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    assert frob(commutator(seed.rho0, seed.spec.A)) > 0.1


# ---------------------------------------------------------------------------
# pure states

def test_pure_state_n1_reduces_to_linear_conjugation():
    # the scalar moment term is a phase that cancels in the conjugation
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = (M + M.conj().T) / 2
    spec = ModelSpec(1, A)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    t = 1.3
    import scipy.linalg as sla
    U = sla.expm(-1j * A * t)
    rho0 = np.outer(psi, psi.conj())
    npt.assert_allclose(make_pure_state_seed(spec, psi)(t),
                        U @ rho0 @ U.conj().T, atol=1e-12)


def test_pure_state_eigenvector_is_stationary():
    spec = ModelSpec(2, SZ)
    psi = np.array([1.0, 0.0], dtype=complex)
    npt.assert_allclose(make_pure_state_seed(spec, psi)(2.7),
                        np.diag([1.0, 0.0]), atol=1e-13)


def test_pure_state_matches_nlse_rk4_oracle():
    spec = ModelSpec(2, SZ)
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
    psi_t = rk4_ode(lambda t, y: nlse_rhs(spec, y), psi0, 1.0, 1e-3)
    oracle = np.outer(psi_t, psi_t.conj())
    npt.assert_allclose(make_pure_state_seed(spec, psi0)(1.0), oracle, atol=1e-6)


def test_pure_state_rejects_unnormalized():
    spec = ModelSpec(1, SZ)
    with pytest.raises(ValueError, match="normalized"):
        make_pure_state_seed(spec, np.array([1.0, 1.0]))(0.0)


def test_pure_state_purity_and_trace_along_flow():
    spec = ModelSpec(3, SZ)
    seed = make_pure_state_seed(spec, np.array([0.6, 0.8], dtype=complex))
    for t in (-2.0, 0.4, 1.9):
        rho = seed(t)
        assert frob(rho @ rho - rho) <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# nlse_rhs, the tests' oracle for pure states (conftest)

def test_nlse_n1_is_linear():
    spec = ModelSpec(1, SZ)
    psi = np.array([0.6, 0.8j])
    npt.assert_allclose(nlse_rhs(spec, psi), -1j * SZ @ psi, atol=1e-14)


def test_nlse_eigenvector_gives_pure_phase():
    spec = ModelSpec(3, SZ)
    psi = np.array([1.0, 0.0], dtype=complex)
    deriv = nlse_rhs(spec, psi)
    # derivative parallel to psi
    assert abs(deriv[1]) <= 1e-14
    assert abs(abs(deriv[0]) - np.linalg.norm(deriv)) <= 1e-14


def test_nlse_conserves_norm():
    spec = ModelSpec(2, SZ)
    psi = np.array([0.3 + 0.2j, 0.9])
    deriv = nlse_rhs(spec, psi)
    # d|psi|^2/dt = 2 Re <psi|psi'> = 0 for a Hermitian generator
    assert abs((np.conj(psi) @ deriv).real) <= 1e-13


def test_nlse_rejects_zero_state():
    spec = ModelSpec(1, SZ)
    with pytest.raises(ValueError, match="zero"):
        nlse_rhs(spec, np.zeros(2))


# ---------------------------------------------------------------------------
# common seed contracts

@pytest.mark.parametrize("make", [
    lambda: make_anticommuting_seed(2, [0.8, -1.1], alpha=[1.0, 1.3], n=2),
    lambda: make_anticommuting_seed(1, [1.0], n=3),
    lambda: make_delta_commuting_seed([(1.0, 0.5), (2.0, -0.4)], a=0.6),
    lambda: make_commuting_seed([0.2, 0.5, 0.9], [1.0, -0.5, 0.7], n=2),
    lambda: make_pure_state_seed(ModelSpec(2, SZ), np.array([0.6, 0.8])),
])
def test_every_seed_solves_the_equation(make):
    seed = make()
    for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
        report = residual(seed, t)
        assert report.passed and report.residual_norm <= 1e-6


@pytest.mark.parametrize("make", [
    lambda: make_anticommuting_seed(2, [0.8, -1.1], alpha=[1.0, 1.3], n=3),
    lambda: make_delta_commuting_seed([(1.0, 0.5), (2.0, -0.4)], a=0.6),
    lambda: make_commuting_seed([0.2, 0.5, 0.9], [1.0, -0.5, 0.7], n=2),
    lambda: make_pure_state_seed(ModelSpec(2, np.diag([1.0, -0.5, 2.0])),
                                 np.array([0.6, 0.48j, 0.64])),
], ids=["anticommuting", "delta_commuting", "commuting", "pure_state"])
def test_a_seed_is_a_flow_of_its_closed_form(make):
    # the stack of a seed is its one-point rho_at at each time, bit for bit,
    # and it solves the equation on that stack
    seed = make()
    times = np.linspace(-3.0, 3.0, 13)
    states = seed.stack(times)
    assert states.shape == (len(times), seed.dim, seed.dim)
    for t, state in zip(times, states):
        assert state.tobytes() == seed.rho_at(t).tobytes()
    norms, tols = residuals(seed, times)
    assert np.all(norms <= tols)


def test_evolution_at_zero_is_exact():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    npt.assert_array_equal(seed(0.0), seed.rho0)


def test_family_tags():
    assert make_commuting_seed([0.1], [1.0]).family is SeedFamily.COMMUTING
    assert make_anticommuting_seed(1, [1.0]).family is SeedFamily.ANTICOMMUTING
