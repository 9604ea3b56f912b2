import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from conftest import SX, SZ, reseeded
from vndarboux import (DressedFlow, Flow, SingularDarboux, UnnormalizableError,
                       UnsupportedScenario, build_lax, dressed_trajectory,
                       make_anticommuting_seed, make_commuting_seed,
                       make_delta_commuting_seed, normalize_to_density,
                       rescaled_flow, residual, scenario_cli, shifted_flow)
from vndarboux.operator_core import eig_hermitian, frob

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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
# order "before" against the re-seeded reference (``conftest.reseeded``)

def test_reseed_shift_delta_matches_shifted_flow():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    lam = 0.7
    reference = reseeded(seed, shift=lam)
    assert reference.a == pytest.approx(1.0 + 2 * lam)
    flow = shifted_flow(seed, lam * np.eye(2))
    for t in (-1.2, 0.0, 0.9):
        npt.assert_allclose(reference(t), flow(t), atol=1e-12)


def test_reseed_rescale_delta_matches_rescaled_flow():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    reference = reseeded(seed, 2.0)
    flow = rescaled_flow(seed, 2.0)
    for t in (-0.8, 0.3, 1.1):
        npt.assert_allclose(reference(t), flow(t), atol=1e-12)


def test_reseed_shift_anticommuting_unsupported():
    with pytest.raises(UnsupportedScenario, match="anticommuting"):
        reseeded(SIGMA_SEED, shift=1.0)


def test_reseeded_seed_still_dresses():
    seed = reseeded(make_delta_commuting_seed([(1.0, 0.5)], a=0.4), shift=0.6)
    lax = build_lax(seed, mu=0.5 + 0.5j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    assert traj.singular_t is None
    for t in traj.times:
        assert residual(traj.rho_at, t).passed


def _before(seed: str, mode: str, Y: float, shift: float, **darboux) -> dict:
    name = "delta_density" if seed == "delta" else "reversed_anticommuting"
    with open(os.path.join(CONFIGS, f"{name}.json")) as handle:
        cfg = json.load(handle)
    if mode == "general":
        cfg["darboux"]["nu_mode"] = {"explicit": [0.5, -1.1]}
    cfg["darboux"].update(darboux)
    cfg["symmetries"] = {"order": "before", "rescale_y": Y, "shift_lambda": shift}
    return cfg


def _reference(cfg: dict):
    # the re-seeded seed, dressed with the configured parameters and pins
    s = scenario_cli.read_scenario(cfg)
    seed = reseeded(s.build_seed(), s.rescale_y, s.shift_lambda)
    lax = build_lax(seed, s.mu, s.nu, s.lam, **s.pins)
    return lax, DressedFlow(lax).stack(s.times)


def _gap(states: np.ndarray, expected: np.ndarray) -> float:
    # relative to the largest entry
    return np.abs(states - expected).max() / np.abs(expected).max()


# the (Y, Lambda) of the cross-check; the anticommuting seed takes no shift
FRAMES = [(-0.5, 0.0), (-2.0, 0.0), (0.5, 0.3), (-0.5, -0.4), (-1.0, 0.7),
          (3.0, -0.2)]
BEFORE = [(seed, mode, Y, shift) for seed in ("delta", "three-pairs")
          for mode in ("hermitian", "general") for Y, shift in FRAMES
          if seed == "delta" or shift == 0.0]


@pytest.mark.parametrize("seed, mode, Y, shift", BEFORE,
                         ids=[f"{s}-{m}-{y}-{x}" for s, m, y, x in BEFORE])
def test_order_before_is_the_dressing_of_the_reseeded_seed(seed, mode, Y, shift):
    # the one chain (the dressing of rho with (mu, nu, lambda)/Y, shifted by
    # Lambda, rescaled by Y) against the dressing of Y (rho + Lambda)
    cfg = _before(seed, mode, Y, shift)
    result = scenario_cli.execute_scenario(cfg)
    lax, expected = _reference(cfg)
    assert _gap(result.trajectory.states, expected) <= 1e-14
    assert result.report.overall
    # the lock names the transformed seed, bit for bit, and its roots
    resolved = result.lock["resolved"]
    assert resolved["rho0"] == scenario_cli.matrix_to_nested(lax.seed.rho0)
    for key, z in (("z_mu", lax.params.z_mu), ("z_nu", lax.params.z_nu),
                   ("z_lambda", lax.params.z_lambda)):
        if z is not None:
            assert abs(complex(*resolved[key]) - z) <= 1e-14 * max(1.0, abs(z))


def test_a_negative_rescaling_reverses_the_root_order():
    # unpinned, the root is the lexicographic maximum of the configured
    # roots Y (z + Lambda); for Y < 0 that is another root than the maximum
    # of the mapped pencil's own roots z, whose dressing differs
    cfg = _before("delta", "hermitian", -0.5, 0.3)
    result = scenario_cli.execute_scenario(cfg)
    _, expected = _reference(cfg)
    assert _gap(result.trajectory.states, expected) <= 1e-14
    s = scenario_cli.read_scenario(cfg)
    unreversed = build_lax(s.build_seed(), s.mu / s.rescale_y, lam=s.lam / s.rescale_y)
    assert unreversed.params.z_mu != result.trajectory.rho_at.root.lax.params.z_mu
    flow = rescaled_flow(shifted_flow(DressedFlow(unreversed), 0.3 * np.eye(4)), -0.5)
    assert _gap(flow.stack(s.times), expected) > 0.1


def test_order_before_pins_roots_in_the_configured_frame():
    # pins at the configured seed's roots that the rule does not choose
    cfg = _before("delta", "general", -1.0, 0.7)
    lax, _ = _reference(cfg)
    seed, params = lax.seed, lax.params
    pins = {}
    for name, param, chosen in (("z_mu_pin", params.mu, params.z_mu),
                                ("z_nu_pin", params.nu, params.z_nu)):
        roots = np.linalg.eigvals(seed.rho0 - param * seed.spec.A)
        other = roots[np.argmax(np.abs(roots - chosen))]
        pins[name] = [other.real, other.imag]
    cfg = _before("delta", "general", -1.0, 0.7, **pins)
    result = scenario_cli.execute_scenario(cfg)
    lax, expected = _reference(cfg)
    assert complex(*pins["z_mu_pin"]) == pytest.approx(lax.params.z_mu, abs=1e-12)
    assert _gap(result.trajectory.states, expected) <= 1e-14
    resolved = result.lock["resolved"]
    assert abs(complex(*resolved["z_mu"]) - lax.params.z_mu) <= 1e-14 * abs(lax.params.z_mu)
    assert abs(complex(*resolved["z_nu"]) - lax.params.z_nu) <= 1e-14 * abs(lax.params.z_nu)


def test_order_before_names_a_far_pin_in_the_configured_frame():
    cfg = _before("delta", "hermitian", -0.5, 0.3, z_mu_pin=[40.0, 0.0])
    with pytest.raises(ValueError, match=r"darboux\.z_mu_pin: \(40\+0j\) lies"):
        scenario_cli.execute_scenario(cfg)
