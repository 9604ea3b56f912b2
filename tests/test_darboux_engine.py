import json

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from conftest import (SX, SZ, draw_valid_scenario, scaled_projectors,
                      whole_projectors)
from vndarboux import (DEFAULT, InconsistentLax, SingularDarboux, build_lax,
                       darboux_engine, dress, dressed_trajectory, explicit_eavn,
                       make_anticommuting_seed, make_commuting_seed,
                       make_delta_commuting_seed, mat_exp, projector, residual,
                       scenario_cli)
from vndarboux.darboux_engine import (DressedFlow, _dress_stack,
                                      _hermitian_exp, _projector_stack,
                                      _similarity_stack, _similarity_terms,
                                      _transform_rows, _unitarity_defect)
from vndarboux.lax_engine import LaxSolution
from vndarboux.operator_core import DIM_CAP, dagger, frob, frob_stack


SIGMA_SEED = make_anticommuting_seed(1, [1.0], n=2)


@pytest.mark.parametrize("nu", [None, 0.5 - 1.1j], ids=["hermitian", "general"])
def test_a_nan_row_stops_the_stack_at_its_point(monkeypatch, nu):
    # a NaN compares false both ways, so each gate fails unless its value
    # is within its limit: the stack stops where phi holds a NaN, where the
    # NaN once passed every gate
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)
    flow = DressedFlow(build_lax(seed, 0.3 + 0.8j, nu))
    times = np.linspace(-1.0, 1.0, 9)
    rows = LaxSolution.phi_rows

    def planted(self, t):
        phi, shift = rows(self, t)
        phi[np.asarray(t) == times[5], flow.support[0]] = np.nan
        return phi, shift

    monkeypatch.setattr(LaxSolution, "phi_rows", planted)
    dressed = flow.evaluate(times)
    index, error = dressed.failure
    assert index == 5 and isinstance(error, SingularDarboux)
    assert len(dressed.rho1) == 5 and np.isfinite(dressed.rho1).all()
    traj = dressed_trajectory(flow, times)
    assert traj.singular_t == times[5] and len(traj.times) == 5


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side, nu", [("phi", None), ("phi", 0.5 - 1.1j), ("chi", 0.5 - 1.1j)],
                         ids=["phi-hermitian", "phi-general", "chi-general"])
def test_a_non_finite_lax_row_names_itself(monkeypatch, tmp_path, capsys, side, nu, value):
    # a row with a non-finite entry fails its own gate before the overlap
    # floor, which read "<chi|phi> = nan+nanj is below the relative floor
    # nan": the same SingularDarboux at the same point, and exit 3 from run
    cfg = {"id": "non-finite", "model": {"n": 1},
           "seed": {"family": "delta_commuting", "blocks": [[1.0, 0.2], [3.0, -0.2]],
                    "a": 0.5},
           "darboux": {"mu": [0.3, 0.8],
                       "nu_mode": "conjugate" if nu is None else {"explicit": [0.5, -1.1]}},
           "times": {"t_min": -1.0, "t_max": 1.0, "samples": 9}}
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)
    flow = DressedFlow(build_lax(seed, 0.3 + 0.8j, nu))
    times = np.linspace(-1.0, 1.0, 9)
    rows = getattr(LaxSolution, f"{side}_rows")

    def planted(self, t):
        row, shift = rows(self, t)
        row[np.asarray(t) == times[5], flow.support[0]] = value
        return row, shift

    monkeypatch.setattr(LaxSolution, f"{side}_rows", planted)
    index, error = flow.evaluate(times).failure
    assert index == 5 and isinstance(error, SingularDarboux)
    assert str(error) == f"{side}(t) has a non-finite entry" and error.t == times[5]
    traj = dressed_trajectory(flow, times)
    assert traj.singular_t == times[5] and len(traj.times) == 5
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert scenario_cli.run(str(config), str(tmp_path / "out")) == 3
    assert capsys.readouterr().err.splitlines()[0] == (
        f"singular dressing at t = {times[5]:.6g}; trajectory truncated")


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

def _similarity(P, mu, nu):
    # T = 1 + ((mu - nu)/nu) P from a one-element stack, raising the error
    # of its t_equality gate
    T, failure = _similarity_stack(np.asarray(P, dtype=complex)[None],
                                   complex(mu), complex(nu), DEFAULT)
    if failure is not None:
        raise failure[1]
    return T[0]


def test_similarity_identity_when_parameters_match():
    npt.assert_allclose(_similarity(P_REFERENCE, 2.0, 2.0), np.eye(2), atol=1e-14)


def test_similarity_imaginary_mu_gives_reflection():
    npt.assert_allclose(_similarity(P_REFERENCE, 1j, -1j),
                        np.eye(2) - 2 * P_REFERENCE, atol=1e-13)


def test_similarity_diagonal_example():
    P = np.diag([1.0, 0.0]).astype(complex)
    T = _similarity(P, 2.0, 1.0)
    npt.assert_allclose(T, np.diag([2.0, 1.0]), atol=1e-14)
    T_inv = np.eye(2) + ((1.0 - 2.0) / 2.0) * P
    npt.assert_allclose(T @ T_inv, np.eye(2), atol=1e-14)


def test_similarity_negative_ratio_branch_safe():
    # mu/nu on the negative real axis exercises the principal branch
    T = _similarity(P_REFERENCE, 1.0 + 0.0j, -2.0 + 0.0j)
    npt.assert_allclose(T, np.eye(2) + (3.0 / -2.0) * P_REFERENCE, atol=1e-13)


T_EQUALITY = "rational and exponential forms of T disagree; P is not idempotent"


@pytest.mark.parametrize("dim", range(2, DIM_CAP + 1))
def test_hermitian_exp_matches_expm(dim):
    rng = np.random.default_rng(dim)
    phi = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    P, _, _, failure = _projector_stack(phi, np.conj(phi), DEFAULT)
    assert failure is None
    for mu, M in zip((0.3 + 0.8j, -1.1 + 0.2j, 0.05 - 1.4j), P):
        z = np.log(mu / np.conj(mu))
        expected = sla.expm(z * M)
        assert frob(_hermitian_exp(z, M[None])[0] - expected) <= 1e-12 * frob(expected)


def test_hermitian_gate_trips_at_the_pade_scale(monkeypatch):
    # a Hermitian P scaled off idempotency: the eigh exponential of the
    # hermitian-mode flow and mat_exp agree on where t_equality trips
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2), (-0.5, 0.3)], a=0.9)
    mu = 0.9 - 0.4j
    flow = DressedFlow(build_lax(seed, mu))
    times = np.linspace(-2.0, 2.0, 9)
    P = flow.evaluate(times).P
    for excess in (1e-9, 1e-10, 3e-11, 1e-11, 1e-12):
        verdicts = [_similarity_stack((1 + excess) * P, mu, np.conj(mu), DEFAULT,
                                      hermitian)[1] is None
                    for hermitian in (True, False)]
        assert verdicts[0] == verdicts[1] == (excess < 1e-10), excess
    for excess, trips in ((1e-10, True), (1e-11, False)):
        try:
            _similarity((1 + excess) * P[4], mu, np.conj(mu))
        except InconsistentLax as error:
            assert trips and str(error) == T_EQUALITY
        else:
            assert not trips
        # the flow's own projectors, scaled past the projector gates
        with monkeypatch.context() as patch:
            patch.setattr(darboux_engine, "_projector_stack", lambda phi, chi, tol:
                          scaled_projectors(1 + excess, phi, chi, tol))
            failure = flow.evaluate(times).failure
        if trips:
            assert failure[0] == 0 and isinstance(failure[1], InconsistentLax)
            assert str(failure[1]) == T_EQUALITY
        else:
            assert failure is None


def test_similarity_T_keeps_mat_exp_for_a_non_hermitian_P(monkeypatch):
    # an idempotent but non-Hermitian P with nu = conj(mu): the Hermitian
    # part's exponential would fail the gate, mat_exp passes it
    P = projector([1.0, 0.4 + 0.3j, -0.2], [0.7, 1.0j, 0.5])
    mu = 0.3 + 0.8j
    assert _similarity_stack(P[None], mu, np.conj(mu), DEFAULT, True)[1] is not None
    calls = []
    monkeypatch.setattr(darboux_engine, "mat_exp",
                        lambda M: calls.append(M) or mat_exp(M))
    T = _similarity(P, mu, np.conj(mu))
    assert len(calls) == 1
    npt.assert_allclose(T, np.eye(3) + ((mu - np.conj(mu)) / np.conj(mu)) * P,
                        atol=1e-15)


# ---------------------------------------------------------------------------
# the gates from P's factors

PAIRS = {"hermitian": (0.3 + 0.8j, 0.3 - 0.8j), "general": (0.7 + 0.4j, -0.2 - 1.1j)}


def _random_inputs(k: int, seed: int):
    # rank-one P, rho and A drawn at random: P is no eigenvector projector
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    phi, chi = draw(4, k), draw(4, k)
    overlap = np.sum(chi * phi, axis=-1)
    P = phi[:, :, None] * chi[:, None, :] / overlap[:, None, None]
    U, W = (phi / overlap[:, None])[:, :, None], chi[:, None, :]
    return P, U, W, draw(4, k, k), draw(k, k)


@pytest.mark.parametrize("k", [1, 2, 5, 12, 32])
@pytest.mark.parametrize("factors", ["rank-one", "caller-P"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_factored_gates_equal_the_matrix_products(k, factors, pair):
    mu, nu = PAIRS[pair]
    P, U, W, rho, _ = _random_inputs(k, 100 + k)
    if factors == "caller-P":
        U, W = P, np.broadcast_to(np.eye(k, dtype=complex), P.shape)
    c = (mu - nu) / nu
    T = np.eye(k) + c * P
    T_inv = np.eye(k) + ((nu - mu) / mu) * P
    similar, bridge = _similarity_terms(rho, U, W, mu, nu)
    expected = {
        "similar": (similar, T @ rho @ T_inv),
        "bridge": (bridge, ((nu - mu) / (mu * nu)) * (P @ rho @ P)
                   - (rho @ P) / mu + (P @ rho) / nu),
        "unitarity": (_unitarity_defect(P, U, W, c), dagger(T) @ T - np.eye(k)),
    }
    for name, (got, want) in expected.items():
        scale = frob(want) + frob(rho) * (1 + frob(T) * frob(T_inv))
        assert frob(got - want) <= 1e-13 * scale, name


@pytest.mark.parametrize("k", [2, 3, 5, 12])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_form_gap_is_the_bridge_gap_scaled(k, pair):
    # T rho T^{-1} - rho = (mu - nu) * bridge for any P, rho and A, so
    # form_gap = |mu - nu| bridge_gap before round-off
    mu, nu = PAIRS[pair]
    P, U, W, rho, A = _random_inputs(k, 200 + k)
    _, _, form_gap, failure = _dress_stack(rho, frob_stack(rho), k, A, P, U, W,
                                           np.arange(k), mu, nu, DEFAULT)
    assert isinstance(failure[1], InconsistentLax)
    bridge = (((nu - mu) / (mu * nu)) * (P @ rho @ P)
              - (rho @ P) / mu + (P @ rho) / nu)
    bridge_gap = np.linalg.norm((P @ A - A @ P) - bridge, axis=(-2, -1))
    assert np.all(form_gap > 1e-3)
    npt.assert_allclose(form_gap, abs(mu - nu) * bridge_gap, rtol=1e-12, atol=0)


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
    traj = dressed_trajectory(DressedFlow(lax), times)
    assert traj.singular_t is None
    for state in traj.states:
        npt.assert_allclose(state, -SX, atol=1e-12)
    for t in times:
        assert residual(traj.rho_at, t).passed


def test_commuting_trajectory_trivial():
    seed = make_commuting_seed([0.6, 0.1], [1.0, -1.0], n=2)
    lax = build_lax(seed, mu=0.5 + 0.5j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    for t, state in zip(traj.times, traj.states):
        npt.assert_allclose(state, seed(t), atol=1e-12)


def test_truncation_reports_singular_time():
    # orthogonal left/right picks on a degenerate commuting seed
    seed = make_commuting_seed([0.5, 0.5], [1.0, -1.0], n=1)
    lax = build_lax(seed, mu=-1.0, nu=1.0)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    assert traj.singular_t == -1.0
    assert len(traj.states) == 0


def test_delta_trajectory_matches_explicit_formula():
    seed = make_delta_commuting_seed([(1.0, 0.5), (2.5, -0.4)], a=0.8)
    lax = build_lax(seed, mu=1 + 1j)
    times = np.linspace(-3, 3, 13)
    traj = dressed_trajectory(DressedFlow(lax), times)
    for t, state in zip(traj.times, traj.states):
        formula = explicit_eavn(seed, 1 + 1j, lax.phi0, t)
        assert frob(formula - state) <= 1e-9


def test_delta_diagnostics_carry_f_value():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    lax = build_lax(seed, mu=1 + 1j)
    traj = dressed_trajectory(DressedFlow(lax), [0.0, 1.0])
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
    traj = dressed_trajectory(DressedFlow(lax), [0.0])
    npt.assert_allclose(explicit_eavn(seed, mu, lax.phi0, 0.0),
                        traj.states[0], atol=1e-12)


def test_explicit_requires_delta_family():
    with pytest.raises(ValueError, match="Delta-commuting"):
        explicit_eavn(SIGMA_SEED, 1j, np.array([1.0, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# covariance transform

def test_transform_psi_identity_cases():
    # the transform of DressedFlow.psi1_rows on one-element stacks
    def transform(psi, P, mu, nu, lam):
        return _transform_rows(psi[None], P[None], (nu - mu) / (lam - mu))[0]

    psi = np.array([0.3, 0.8 - 0.1j])
    npt.assert_allclose(transform(psi, P_REFERENCE, 1j, 1j, 3j), psi,
                        atol=1e-14)
    # psi annihilated by P: psi @ P = (psi @ phi) chi / <chi|phi>
    psi_perp = np.array([1.0, 1j]) / np.sqrt(2)  # contraction with (1, i) vanishes
    assert abs(psi_perp @ np.array([1.0, 1j])) <= 1e-15
    npt.assert_allclose(transform(psi_perp, P_REFERENCE, 1j, -1j, 3j),
                        psi_perp, atol=1e-14)


def test_transform_psi_rejects_lambda_equal_mu():
    # the transform needs lambda != mu; the Lax solution that psi1_rows
    # transforms cannot be built without it
    with pytest.raises(ValueError, match="lambda"):
        build_lax(SIGMA_SEED, mu=1j, nu=-1j, lam=1j)


def test_sigma_x_covariance_residual():
    lax = build_lax(SIGMA_SEED, mu=1j, lam=3j)
    params = lax.params
    traj = dressed_trajectory(DressedFlow(lax), [0.0, 1.0, 2.0])
    flow = DressedFlow(lax)
    diags = traj.diagnostics
    for t, rho1, P, P_dot in zip(traj.times, traj.states, diags.P, diags.P_dot):
        rows, _, shift = flow.psi1_rows([t], P=P[None], P_dot=P_dot[None])
        psi1 = rows[0] * np.exp(shift[0])
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
        assert max(frob(P @ P - P) for P in whole_projectors(traj)) <= 1e-11
