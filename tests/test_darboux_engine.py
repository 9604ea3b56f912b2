import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SX, SZ, draw_valid_scenario
from vndarboux import (InconsistentLax, SingularDarboux, build_lax, dress,
                       dressed_trajectory, explicit_eavn,
                       make_anticommuting_seed, make_commuting_seed,
                       make_delta_commuting_seed, projector, residual,
                       similarity_T, transform_psi)
from vndarboux.operator_core import dagger, frob


SIGMA_SEED = make_anticommuting_seed(1, [1.0], n=2)
P_REFERENCE = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])  # |(1,i)><(1,-i)| / 2


# ---------------------------------------------------------------------------
# projector

def test_projector_basis_pair():
    npt.assert_allclose(projector([1.0, 0.0], [1.0, 0.0]), np.diag([1.0, 0.0]),
                        atol=1e-15)


def test_projector_frozen_reference_pair():
    # <chi|phi> = 2, outer product by hand; idempotency checked below
    P = projector([1.0, 1j], [1.0, -1j])
    npt.assert_allclose(P, P_REFERENCE, atol=1e-15)
    npt.assert_allclose(P @ P, P, atol=1e-15)


def test_projector_orthogonal_pair_is_singular():
    with pytest.raises(SingularDarboux):
        projector([1.0, 0.0], [0.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_projector_idempotent_and_unit_trace(dim, seed):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    chi = np.conj(phi) + 0.3 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    try:
        P = projector(phi, chi)
    except SingularDarboux:
        return
    assert frob(P @ P - P) <= 1e-11 * max(1.0, frob(P))
    assert abs(np.trace(P) - 1.0) <= 1e-11


# ---------------------------------------------------------------------------
# similarity operator

def test_similarity_identity_when_parameters_match():
    npt.assert_allclose(similarity_T(P_REFERENCE, 2.0, 2.0), np.eye(2), atol=1e-14)


def test_similarity_imaginary_mu_gives_reflection():
    npt.assert_allclose(similarity_T(P_REFERENCE, 1j, -1j),
                        np.eye(2) - 2 * P_REFERENCE, atol=1e-13)


def test_similarity_diagonal_example():
    P = np.diag([1.0, 0.0]).astype(complex)
    T = similarity_T(P, 2.0, 1.0)
    npt.assert_allclose(T, np.diag([2.0, 1.0]), atol=1e-14)
    T_inv = np.eye(2) + ((1.0 - 2.0) / 2.0) * P
    npt.assert_allclose(T @ T_inv, np.eye(2), atol=1e-14)


def test_similarity_negative_ratio_branch_safe():
    # mu/nu on the negative real axis exercises the principal branch
    T = similarity_T(P_REFERENCE, 1.0 + 0.0j, -2.0 + 0.0j)
    npt.assert_allclose(T, np.eye(2) + (3.0 / -2.0) * P_REFERENCE, atol=1e-13)


def test_similarity_rejects_zero_parameters():
    with pytest.raises(ValueError, match="nonzero"):
        similarity_T(P_REFERENCE, 0.0, 1.0)


# ---------------------------------------------------------------------------
# dress

def test_dress_sigma_x_reference():
    # by hand: [P, A] = i sx, so rho[1] = sx + 2i(i sx) = -sx
    ds = dress(SX, SZ, P_REFERENCE, 1j, -1j)
    npt.assert_allclose(ds.rho1, -SX, atol=1e-13)
    assert ds.form_gap <= 1e-13
    vals = np.linalg.eigvalsh(ds.rho1)
    npt.assert_allclose(vals, [-1.0, 1.0], atol=1e-13)


def test_dress_commuting_projector_is_trivial():
    P = np.diag([1.0, 0.0]).astype(complex)
    rho = np.diag([0.3, 0.9]).astype(complex)
    ds = dress(rho, SZ, P, 0.5 + 0.1j, 0.4 - 0.2j)
    npt.assert_allclose(ds.rho1, rho, atol=1e-14)


def test_dress_equal_parameters_is_identity():
    P = np.diag([1.0, 0.0]).astype(complex)
    rho = np.diag([0.3, 0.9]).astype(complex)
    ds = dress(rho, SZ, P, 0.7, 0.7)
    npt.assert_allclose(ds.rho1, rho, atol=1e-14)


def test_dress_rejects_foreign_projector():
    # a projector not built from pencil eigenvectors trips the form gap
    phi = np.array([1.0, 0.4])
    phi /= np.linalg.norm(phi)
    P = np.outer(phi, np.conj(phi))
    with pytest.raises(InconsistentLax):
        dress(SX, SZ, P, 1j, -1j)


def test_dress_detects_fake_hermitian_pairing():
    # chi = conj(phi) without nu = conj(mu) gives a non-genuine pair
    lax = build_lax(SIGMA_SEED, mu=1j, nu=2j)
    P = np.outer(lax.phi0, np.conj(lax.phi0))
    with pytest.raises(InconsistentLax):
        dress(SX, SZ, P, 1j, 2j)


# ---------------------------------------------------------------------------
# trajectories

def test_sigma_x_trajectory_constant():
    lax = build_lax(SIGMA_SEED, mu=1j)
    times = np.linspace(-2.0, 2.0, 9)
    traj = dressed_trajectory(lax, times)
    assert traj.singular_t is None
    for state in traj.states:
        npt.assert_allclose(state, -SX, atol=1e-12)
    for t in times:
        assert residual(SIGMA_SEED.spec, traj.rho_at, t).passed


def test_commuting_trajectory_trivial():
    seed = make_commuting_seed([0.6, 0.1], [1.0, -1.0], n=2)
    lax = build_lax(seed, mu=0.5 + 0.5j)
    traj = dressed_trajectory(lax, np.linspace(-1, 1, 5))
    for t, state in zip(traj.times, traj.states):
        npt.assert_allclose(state, seed.rho_at(t), atol=1e-12)


def test_truncation_reports_singular_time():
    # orthogonal left/right picks on a degenerate commuting seed
    seed = make_commuting_seed([0.5, 0.5], [1.0, -1.0], n=1)
    lax = build_lax(seed, mu=-1.0, nu=1.0)
    traj = dressed_trajectory(lax, np.linspace(-1, 1, 5))
    assert traj.singular_t == -1.0
    assert len(traj.states) == 0


def test_delta_trajectory_matches_explicit_formula():
    seed = make_delta_commuting_seed([(1.0, 0.5), (2.5, -0.4)], a=0.8)
    lax = build_lax(seed, mu=1 + 1j)
    times = np.linspace(-3, 3, 13)
    traj = dressed_trajectory(lax, times)
    for t, state in zip(traj.times, traj.states):
        formula = explicit_eavn(seed, 1 + 1j, lax.phi0, t)
        assert frob(formula - state) <= 1e-9


def test_delta_diagnostics_carry_f_value():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    lax = build_lax(seed, mu=1 + 1j)
    traj = dressed_trajectory(lax, [0.0, 1.0])
    assert traj.diagnostics.F_value[0] == pytest.approx(1.0)  # F_a(0) = |phi0|^2
    assert traj.diagnostics.F_value.shape == (2,)


# ---------------------------------------------------------------------------
# explicit closed formula

def test_explicit_real_mu_reduces_to_conjugation():
    from vndarboux import solve_initial
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    _, phi0 = solve_initial(seed, mu=2.0)
    state = explicit_eavn(seed, 2.0, phi0, 1.3)
    import scipy.linalg as sla
    U = sla.expm(-1j * 1.0 * 1.3 * seed.spec.A)
    npt.assert_allclose(state, U @ seed.rho0 @ U.conj().T, atol=1e-13)


def test_explicit_at_zero_matches_dress():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    mu = 0.6 + 0.9j
    lax = build_lax(seed, mu=mu)
    traj = dressed_trajectory(lax, [0.0])
    npt.assert_allclose(explicit_eavn(seed, mu, lax.phi0, 0.0),
                        traj.states[0], atol=1e-12)


def test_explicit_requires_delta_family():
    with pytest.raises(ValueError, match="Delta-commuting"):
        explicit_eavn(SIGMA_SEED, 1j, np.array([1.0, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# covariance transform

def test_transform_psi_identity_cases():
    psi = np.array([0.3, 0.8 - 0.1j])
    npt.assert_allclose(transform_psi(psi, P_REFERENCE, 1j, 1j, 3j), psi,
                        atol=1e-14)
    # psi annihilated by P: psi @ P = (psi @ phi) chi / <chi|phi>
    psi_perp = np.array([1.0, 1j]) / np.sqrt(2)  # contraction with (1, i) vanishes
    assert abs(psi_perp @ np.array([1.0, 1j])) <= 1e-15
    npt.assert_allclose(transform_psi(psi_perp, P_REFERENCE, 1j, -1j, 3j),
                        psi_perp, atol=1e-14)


def test_transform_psi_rejects_lambda_equal_mu():
    with pytest.raises(ValueError, match="lambda"):
        transform_psi(np.array([1.0, 0.0]), P_REFERENCE, 1j, -1j, 1j)


def test_sigma_x_covariance_residual():
    lax = build_lax(SIGMA_SEED, mu=1j, lam=3j)
    params = lax.params
    traj = dressed_trajectory(lax, [0.0, 1.0, 2.0])
    for t, rho1, P in zip(traj.times, traj.states, traj.diagnostics.P):
        psi1 = transform_psi(lax.psi_at(t), P, params.mu, params.nu,
                             params.lam)
        gap = np.linalg.norm(params.z_lambda * psi1
                             - psi1 @ (rho1 - params.lam * SIGMA_SEED.spec.A))
        assert gap <= 1e-9


# ---------------------------------------------------------------------------
# randomized integrity

def test_two_form_agreement_random_scenarios():
    rng = np.random.default_rng(12345)
    times = np.linspace(-2, 2, 5)
    for _ in range(20):
        _, _, traj = draw_valid_scenario(rng, times)
        assert max(traj.diagnostics.form_gap) <= 1e-9
        assert max(frob(P @ P - P) for P in traj.diagnostics.P) <= 1e-11
