import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SX, SZ, PlantedError, rk4_ode
from vndarboux import (ModelSpec, hamiltonian_of, make_anticommuting_seed,
                       make_commuting_seed, make_delta_commuting_seed,
                       make_pure_state_seed, residual, rhs, rhs_alt,
                       trace_moments)


def _random_hermitian(rng, dim, scale=1.0):
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (M + M.conj().T) / 2


def test_spec_requires_self_adjoint():
    with pytest.raises(ValueError, match="self-adjoint"):
        ModelSpec(1, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spec_requires_positive_order():
    with pytest.raises(ValueError, match="positive"):
        ModelSpec(0, np.eye(2))


def test_power_cache():
    spec = ModelSpec(3, SZ)
    assert len(spec.powers) == 5
    npt.assert_array_equal(spec.powers[0], np.eye(2))
    npt.assert_allclose(spec.powers[4], np.eye(2), atol=1e-15)


# ---------------------------------------------------------------------------
# hamiltonian_of

def test_hamiltonian_identity_generator():
    spec = ModelSpec(1, np.eye(2))
    rho = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
    npt.assert_allclose(hamiltonian_of(spec, rho), 2 * rho, atol=1e-15)


def test_hamiltonian_anticommuting_n1():
    # A sx + sx A = 0 for A = diag(1,-1)
    spec = ModelSpec(1, SZ)
    npt.assert_allclose(hamiltonian_of(spec, SX), np.zeros((2, 2)), atol=1e-15)


def test_hamiltonian_anticommuting_n2():
    # A^2 sx + A sx A + sx A^2 = sx - sx + sx = sx
    spec = ModelSpec(2, SZ)
    npt.assert_allclose(hamiltonian_of(spec, SX), SX, atol=1e-15)


def test_hamiltonian_dimension_mismatch():
    spec = ModelSpec(1, SZ)
    with pytest.raises(ValueError, match="mismatch"):
        hamiltonian_of(spec, np.eye(3))


# ---------------------------------------------------------------------------
# rhs

def test_rhs_commuting_seed_is_stationary():
    spec = ModelSpec(2, SZ)
    npt.assert_allclose(rhs(spec, np.diag([0.2, 0.8]).astype(complex)),
                        np.zeros((2, 2)), atol=1e-14)


def test_rhs_anticommuting_n2_is_stationary():
    spec = ModelSpec(2, SZ)
    npt.assert_allclose(rhs(spec, SX), np.zeros((2, 2)), atol=1e-14)


def test_rhs_n1_matches_squared_commutator_oracle():
    # for n = 1, i rho' = [A rho + rho A, rho] = [A, rho^2]
    spec = ModelSpec(1, SZ)
    rho = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
    oracle = -1j * (SZ @ rho @ rho - rho @ rho @ SZ)
    npt.assert_allclose(rhs(spec, rho), oracle, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 10 ** 6))
def test_rhs_two_forms_agree(n, dim, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(n, _random_hermitian(rng, dim))
    rho = _random_hermitian(rng, dim)
    H = hamiltonian_of(spec, rho)
    gap = np.linalg.norm(-1j * (H @ rho - rho @ H) - rhs_alt(spec, rho))
    assert gap <= 1e-11 * max(1.0, np.linalg.norm(H) * np.linalg.norm(rho))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 10 ** 6))
def test_rhs_trace_free_and_hermiticity_preserving(n, dim, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(n, _random_hermitian(rng, dim))
    rho = _random_hermitian(rng, dim)
    deriv = rhs(spec, rho)
    assert abs(np.trace(deriv)) <= 1e-12 * max(1.0, np.linalg.norm(deriv))
    # rho' is Hermitian (equivalently i rho' anti-Hermitian), which is what
    # keeps Hermitian states Hermitian along the flow
    assert np.linalg.norm(deriv - deriv.conj().T) <= 1e-11 * max(1.0, np.linalg.norm(deriv))


# ---------------------------------------------------------------------------
# residual

def test_residual_constant_commuting_trajectory():
    seed = make_commuting_seed([0.4, 0.6], [1.0, -1.0], n=2)
    npt.assert_array_equal(seed.spec.A, SZ)
    report = residual(seed, 0.3)
    assert report.passed
    assert report.residual_norm <= 1e-10


def test_residual_pure_state_solution_passes():
    spec = ModelSpec(2, SZ)
    seed = make_pure_state_seed(spec, np.array([1.0, 1.0]) / np.sqrt(2))
    for t in (-1.0, 0.0, 0.7):
        report = residual(seed, t)
        assert report.passed and report.residual_norm <= 1e-6


def test_residual_detects_corruption():
    spec = ModelSpec(2, SZ)
    seed = make_pure_state_seed(spec, np.array([1.0, 1.0]) / np.sqrt(2))
    report = residual(PlantedError(seed, 0.1 * SX), 1.0)
    assert not report.passed


def test_residual_report_consistency():
    # SX held constant against A = SZ at n = 1
    seed = make_anticommuting_seed(1, [1.0], n=1)
    report = residual(seed, 0.0)
    assert report.passed == (report.residual_norm <= report.tolerance_used)


def test_moment_conservation_along_rk4_flow():
    # isospectral flow: Tr rho^m conserved to 1e-7 per unit time at dt = 1e-3
    seed = make_delta_commuting_seed([(1.0, 0.5), (2.0, -0.3)], a=0.8)
    rho = rk4_ode(lambda t, y: rhs(seed.spec, y), seed.rho0, 1.0, 1e-3)
    start = trace_moments(seed.rho0, seed.dim)
    end = trace_moments(rho, seed.dim)
    assert np.max(np.abs(end - start)) <= 1e-7
