import numpy as np
import numpy.testing as npt
import pytest

from conftest import SX, SZ
from vndarboux import (DressedFlow, Flow, SingularDarboux, UnnormalizableError,
                       UnsupportedScenario, build_lax, dressed_trajectory,
                       make_anticommuting_seed, make_commuting_seed,
                       make_delta_commuting_seed, normalize_to_density,
                       rescaled_flow, reseed_rescale, reseed_shift, residual,
                       shifted_flow)
from vndarboux.operator_core import eig_hermitian, frob


SIGMA_SEED = make_anticommuting_seed(1, [1.0], n=2)


def test_shift_zero_is_identity():
    out = shifted_flow(SIGMA_SEED, np.zeros((2, 2)))(1.5)
    npt.assert_allclose(out, SX, atol=1e-14)


def test_shift_at_time_zero_adds_lambda():
    X = 0.7 * np.eye(2)
    out = shifted_flow(SIGMA_SEED, X)(0.0)
    npt.assert_allclose(out, SX + 0.7 * np.eye(2), atol=1e-14)


def test_shift_produces_a_solution():
    # n = 1 gauge transformation checked by the residual oracle
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    flow = shifted_flow(seed, 0.8 * np.eye(2))
    for t in (-1.0, 0.0, 1.4):
        report = residual(flow, t)
        assert report.passed and report.residual_norm <= 1e-6


def test_shift_rejects_noncommuting_operator():
    with pytest.raises(ValueError, match="commute"):
        shifted_flow(SIGMA_SEED, np.diag([1.0, 2.0]))(0.5)


class _SingularAtZero(Flow):
    # the states of ``source``, with a dressing that is singular at t = 0
    def __init__(self, source):
        self.source, self.spec = source, source.spec

    def stack(self, times):
        if 0.0 in np.asarray(times):
            raise SingularDarboux("singular at t = 0", t=0.0)
        return self.source.stack(times)


def test_a_shift_checks_rho_on_the_first_state_it_maps():
    # [X, A] is checked up front and [X, rho] on the first state the shift
    # maps: a source that is singular at t = 0 shifts elsewhere, and a
    # shift that mixes the seed's blocks fails at its first state
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)
    source = _SingularAtZero(seed)
    X = np.diag([0.3, 0.3, -0.7, -0.7])
    assert (shifted_flow(source, X).stack([-1.0, 1.0]).tobytes()
            == shifted_flow(seed, X).stack([-1.0, 1.0]).tobytes())
    mixing = shifted_flow(source, np.diag([0.3, -0.7, 0.3, -0.7]))
    with pytest.raises(ValueError, match=r"commute with rho\(0\)"):
        mixing(1.0)
    with pytest.raises(ValueError, match="commute with A"):
        shifted_flow(source, np.kron(np.eye(2), SX))


def test_shift_general_commuting_x():
    # X = diag-blocks proportional to A^2 commute with both A and sx-seed
    X = 0.5 * SIGMA_SEED.spec.powers[2]  # 0.5 * identity here
    out = shifted_flow(SIGMA_SEED, X)(0.0)
    npt.assert_allclose(out, SX + 0.5 * np.eye(2), atol=1e-14)


def test_rescale_identity():
    npt.assert_allclose(rescaled_flow(SIGMA_SEED, 1.0)(0.9), SX, atol=1e-15)


def test_rescale_stationary_solution():
    flow = rescaled_flow(SIGMA_SEED, 2.0)
    npt.assert_allclose(flow(1.1), 2.0 * SX, atol=1e-14)
    report = residual(flow, 0.7, tol_scale=4.0)
    assert report.passed


def test_rescale_rejects_zero():
    with pytest.raises(ValueError, match="nonzero"):
        rescaled_flow(SIGMA_SEED, 0.0)(1.0)


def test_rescale_after_shift_normalizes_trace():
    lam = 1.0
    flow = shifted_flow(SIGMA_SEED, lam * np.eye(2))
    Y = 1.0 / np.trace(flow(0.0)).real
    final = rescaled_flow(flow, Y)
    assert np.trace(final(0.0)).real == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# normalize_to_density

def test_normalize_already_density():
    seed = make_commuting_seed([0.3, 0.7], [1.0, -1.0])
    X, Y, flow = normalize_to_density(seed)
    assert frob(X) == 0.0
    assert Y == pytest.approx(1.0)
    npt.assert_allclose(flow(0.0), seed.rho0, atol=1e-14)


def test_normalize_sigma_x_seed():
    # eigenvalues +-1 -> Lambda = 1, trace 2 -> Y = 1/2, spectrum {0, 1}
    X, Y, flow = normalize_to_density(SIGMA_SEED)
    npt.assert_allclose(X, np.eye(2), atol=1e-14)
    assert Y == pytest.approx(0.5)
    start = flow(0.0)
    npt.assert_allclose(start, (SX + np.eye(2)) / 2, atol=1e-13)
    vals, _ = eig_hermitian(start)
    npt.assert_allclose(vals, [0.0, 1.0], atol=1e-10)
    assert abs(np.trace(start) - 1.0) <= 1e-10


def test_normalize_degenerate_trace_rejected():
    seed = make_commuting_seed([-1.0, -1.0], [1.0, -1.0])
    with pytest.raises(UnnormalizableError):
        normalize_to_density(seed)


def test_spectrum_shift_identity():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = (M + M.conj().T) / 2
    vals, _ = eig_hermitian(H)
    shifted_vals, _ = eig_hermitian(H + 0.9 * np.eye(4))
    npt.assert_allclose(shifted_vals, vals + 0.9, atol=1e-10)


def test_anticommuting_seed_never_positive():
    # Tr(rho A) = 0 forces indefiniteness whenever A is definite
    seed = make_anticommuting_seed(2, [0.7, 1.2], n=2)
    assert abs(np.trace(seed.rho0 @ seed.spec.A)) <= 1e-12
    vals, _ = eig_hermitian(seed.rho0)
    assert vals[0] < 0 < vals[-1]


# ---------------------------------------------------------------------------
# solution preservation on dressed trajectories

def test_symmetries_preserve_dressed_solutions():
    seed = make_delta_commuting_seed([(1.0, 0.4), (2.0, -0.3)], a=0.5)
    lax = build_lax(seed, mu=0.4 + 0.8j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    spec = seed.spec
    lam, Y = 1.5, 0.5
    flow = rescaled_flow(
        shifted_flow(traj.rho_at, lam * np.eye(seed.dim)), Y)
    scale = (1.0 + abs(lam)) * max(1.0, frob(spec.A) ** spec.n) * Y ** 2
    for t in traj.times:
        report = residual(flow, t, tol_scale=scale)
        assert report.passed


# ---------------------------------------------------------------------------
# re-seeding (shift/rescale absorbed into the seed)

def test_reseed_shift_delta_matches_shifted_flow():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    lam = 0.7
    reseeded = reseed_shift(seed, lam)
    assert reseeded.a == pytest.approx(1.0 + 2 * lam)
    flow = shifted_flow(seed, lam * np.eye(2))
    for t in (-1.2, 0.0, 0.9):
        npt.assert_allclose(reseeded(t), flow(t), atol=1e-12)


def test_reseed_rescale_delta_matches_rescaled_flow():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    reseeded = reseed_rescale(seed, 2.0)
    flow = rescaled_flow(seed, 2.0)
    for t in (-0.8, 0.3, 1.1):
        npt.assert_allclose(reseeded(t), flow(t), atol=1e-12)


def test_reseed_shift_anticommuting_unsupported():
    with pytest.raises(UnsupportedScenario, match="anticommuting"):
        reseed_shift(SIGMA_SEED, 1.0)


def test_reseeded_seed_still_dresses():
    seed = reseed_shift(make_delta_commuting_seed([(1.0, 0.5)], a=0.4), 0.6)
    lax = build_lax(seed, mu=0.5 + 0.5j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    assert traj.singular_t is None
    for t in traj.times:
        assert residual(traj.rho_at, t).passed
