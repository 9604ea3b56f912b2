"""Stacked evaluation: one plan per scenario, blocked, overflow-safe.

The point-by-point entry points (``dressed_state_at``, ``projector_at``,
``phi_at``, a flow called with one time) are the reference for the stacks.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla

from vndarboux import (DEFAULT, DefectiveEigenproblem, NormalExp, ShiftSpec,
                       SingularDarboux, Trajectory, build_lax, dressed_state_at,
                       dressed_trajectory, make_anticommuting_seed,
                       make_commuting_seed, make_delta_commuting_seed, mat_exp,
                       operator_core, projector, projector_at, rescaled_flow,
                       residual, run_suite, shifted_flow)
from vndarboux.darboux_engine import _projector_stack
from vndarboux.scenario_cli import execute_scenario, validate_config

TIMES = np.linspace(-1.5, 1.5, 31)
DP = 1e-4  # the p_dot_norm step of dressed_trajectory

SCENARIOS = {
    # name: (seed factory, mu, nu); nu None is hermitian mode
    **{f"anticommuting-n{n}-{mode}": (
        lambda n=n: make_anticommuting_seed(2, [0.7, -0.4], alpha=[1.0, 1.3], n=n),
        0.3 + 0.9j, nu)
       for n in (1, 2, 3) for mode, nu in (("herm", None), ("general", 0.2 - 0.5j))},
    **{f"commuting-n{n}-{mode}": (
        lambda n=n: make_commuting_seed([0.3, 0.5, 0.2], [1.0, -0.5, 0.7], n=n),
        0.4 + 0.6j, nu)
       # equal Re(nu) selects the same basis vector on both sides
       for n in (1, 2, 3) for mode, nu in (("herm", None), ("general", 0.4 - 0.2j))},
    **{f"delta-n1-{mode}": (
        lambda: make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5),
        0.3 + 0.8j, nu)
       for mode, nu in (("herm", None), ("general", 0.5 - 1.1j))},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trajectory_matches_point_evaluation(name):
    make, mu, nu = SCENARIOS[name]
    seed = make()
    lax = build_lax(seed, mu, nu)
    traj = dressed_trajectory(lax, TIMES)
    assert traj.singular_t is None
    diag = traj.diagnostics
    for k, (t, state) in enumerate(zip(traj.times, traj.states)):
        point = dressed_state_at(seed, lax, t)
        npt.assert_allclose(state, point.rho1, rtol=0, atol=1e-13)
        npt.assert_allclose(diag.P[k], point.P, rtol=0, atol=1e-13)
        npt.assert_allclose(diag.P[k], projector_at(lax, t), rtol=0, atol=1e-13)
        assert abs(diag.form_gap[k] - point.form_gap) <= 1e-13
        phi_norm = np.linalg.norm(lax.phi_at(t))
        assert abs(diag.phi_norm[k] - phi_norm) <= 1e-13 * phi_norm
        p_dot = np.linalg.norm(projector_at(lax, t + DP) - projector_at(lax, t - DP)) / (2 * DP)
        # a difference quotient: round-off in P is amplified by 1 / (2 dp)
        assert abs(diag.p_dot_norm[k] - p_dot) <= 1e-13 / DP
        if diag.min_eig is not None:
            assert abs(diag.min_eig[k] - np.linalg.eigvalsh((state + state.conj().T) / 2)[0]) <= 1e-13


@pytest.mark.parametrize("name", ["anticommuting-n3-herm", "delta-n1-herm",
                                  "anticommuting-n2-general"])
def test_symmetry_flow_stacks_match_point_evaluation(name):
    make, mu, nu = SCENARIOS[name]
    seed = make()
    lax = build_lax(seed, mu, nu)
    traj = dressed_trajectory(lax, TIMES)
    spec = seed.spec
    X = ShiftSpec.uniform(0.7, seed.dim)
    shifted = shifted_flow(spec, traj.rho_at, X)
    flow = rescaled_flow(shifted, 0.6)
    stacked = flow.stack(TIMES)
    K = (spec.n + 1) * (X.X @ spec.powers[spec.n])
    for t, state in zip(TIMES, stacked):
        npt.assert_allclose(state, flow(t), rtol=0, atol=1e-13)
        s = 0.6 * t
        U = sla.expm(-1j * s * K)
        expected = 0.6 * (U @ (dressed_state_at(seed, lax, s).rho1 + X.X)
                          @ sla.expm(1j * s * K))
        npt.assert_allclose(state, expected, rtol=0, atol=1e-12)


def _config(name):
    cfgs = {
        "delta-covariance": {
            "id": "delta", "model": {"n": 1},
            "seed": {"family": "delta_commuting",
                     "blocks": [[1.0, 0.2], [3.0, -0.2], [-0.5, 0.3]], "a": 0.9},
            "darboux": {"mu": [0.3, 0.8], "nu_mode": "conjugate", "lambda": [0.2, 2.0]},
            "times": {"t_min": -3.0, "t_max": 3.0, "samples": 23}},
        "anticommuting-shift": {
            "id": "anti", "model": {"n": 3},
            "seed": {"family": "anticommuting", "dim_pairs": 3, "b": [0.5, -0.8, 0.3],
                     "alpha": [1.0, -1.2, 0.7]},
            "darboux": {"mu": [0.4, 0.9], "nu_mode": "conjugate"},
            "times": {"t_min": -2.0, "t_max": 2.0, "samples": 23},
            "symmetries": {"order": "after", "shift_lambda": 0.9, "rescale_y": 0.3}},
        "delta-general": {
            "id": "general", "model": {"n": 1},
            "seed": {"family": "delta_commuting", "blocks": [[1.0, 0.2], [3.0, -0.2]],
                     "a": 0.5},
            "darboux": {"mu": [0.3, 0.8], "nu_mode": {"explicit": [0.5, -1.1]},
                        "lambda": [0.0, 3.0]},
            "times": {"t_min": -2.0, "t_max": 2.0, "samples": 17}},
    }
    cfg, errors = validate_config(json.loads(json.dumps(cfgs[name])))
    assert not errors
    return cfg


CHECK_NAMES = ("residual", "idempotency", "form_gap", "trace", "hermiticity",
               "spectrum", "moments", "positivity", "covariance")


@pytest.mark.parametrize("name", ["delta-covariance", "anticommuting-shift",
                                  "delta-general"])
def test_states_do_not_depend_on_checks(name):
    cfg = _config(name)
    checked = execute_scenario(cfg)
    assert checked.report.overall
    unchecked = execute_scenario({**cfg, "checks": dict.fromkeys(CHECK_NAMES, False)})
    assert len(checked.trajectory.states) == len(unchecked.trajectory.states)
    for a, b in zip(checked.trajectory.states, unchecked.trajectory.states):
        assert np.array_equal(a, b)


def _verdicts(result):
    return [(c.name, c.passed, c.location_t) for c in result.report.checks]


@pytest.mark.parametrize("name", ["delta-covariance", "anticommuting-shift"])
def test_block_boundaries_change_no_verdict(name, monkeypatch):
    # budgets of one to a few points per block put block boundaries between
    # a sample and its stencil points at every position; values may move by
    # round-off only (here they come out bitwise equal)
    cfg = _config(name)
    reference = execute_scenario(cfg)
    dim = reference.seed.dim
    point_bytes = operator_core._WORK_MATRICES * 16 * dim * dim
    for points in (1, 3, 5, 7, 11):
        monkeypatch.setattr(operator_core, "BLOCK_BYTES", points * point_bytes)
        result = execute_scenario(cfg)
        assert _verdicts(result) == _verdicts(reference)
        for a, b in zip(result.report.checks, reference.report.checks):
            assert abs(a.worst_value - b.worst_value) <= 1e-15 + 1e-9 * abs(b.worst_value)
        for a, b in zip(result.trajectory.states, reference.trajectory.states):
            npt.assert_allclose(a, b, rtol=0, atol=1e-14)


def test_time_blocks_cover_the_grid_in_order():
    blocks = operator_core.time_blocks(1000, 12, points_per_item=4)
    covered = np.concatenate([np.arange(1000)[b] for b in blocks])
    npt.assert_array_equal(covered, np.arange(1000))
    assert len({b.stop - b.start for b in blocks[:-1]}) == 1
    assert operator_core.time_blocks(3, 32, points_per_item=1000)[0] == slice(0, 1)


def test_projector_stack_reports_first_failing_point():
    rng = np.random.default_rng(5)
    phi = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    chi = np.conj(phi)
    chi[4] = [phi[4, 1], -phi[4, 0], 0.0]  # <chi|phi> = 0 at points 4 ...
    chi[2] = [phi[2, 1], -phi[2, 0], 0.0]  # ... and 2
    _, failure = _projector_stack(phi, chi, DEFAULT)
    index, error = failure
    assert index == 2 and isinstance(error, SingularDarboux)
    with pytest.raises(SingularDarboux) as point:
        projector(phi[2], chi[2])
    assert str(error) == str(point.value)


def test_library_passes_only_floats_to_user_callables():
    seed = make_anticommuting_seed(1, [1.0], n=2)
    lax = build_lax(seed, 1j)
    traj = dressed_trajectory(lax, np.linspace(-1, 1, 5))
    seen = []

    def scalar_rho_at(t):
        assert type(t) is float
        seen.append(t)
        return traj.rho_at(t)

    hand_built = Trajectory(times=traj.times, states=traj.states, lax=lax,
                            diagnostics=traj.diagnostics, rho_at=scalar_rho_at)
    assert run_suite(hand_built).overall
    assert residual(seed.spec, scalar_rho_at, 0.3).passed
    shifted_flow(seed.spec, scalar_rho_at, ShiftSpec.uniform(0.5, 2)).stack([0.1, 0.2])
    rescaled_flow(scalar_rho_at, 2.0).stack([0.1, 0.2])
    assert len(seen) == 4 * len(traj.times) + 5 + 1 + 2 + 2


def test_normal_exp_degenerate_spectrum():
    # A^2 at even n has every eigenvalue twice; Q must stay unitary
    A = np.diag([1.0, -1.0, 2.0, -2.0]).astype(complex)
    rng = np.random.default_rng(3)
    V, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    G = V @ (A @ A) @ V.conj().T
    factor = NormalExp(G)
    s = np.array([0.0, 0.7j, -2.5j, 1.3])
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    rows, shift = factor.act(v, s)
    for row, k, sb in zip(rows, shift, s):
        npt.assert_allclose(row * np.exp(k), sla.expm(sb * G) @ v, atol=1e-12)
    npt.assert_array_equal(rows[0], v)
    M = rng.normal(size=(4, 4))
    for out, sb in zip(factor.similarity(M, s), s):
        npt.assert_allclose(out, sla.expm(sb * G) @ M @ sla.expm(-sb * G), atol=1e-11)


def test_normal_exp_rejects_non_normal_generator():
    with pytest.raises(DefectiveEigenproblem, match="not normal"):
        NormalExp(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_normal_exp_rows_stay_finite_at_large_s():
    G = np.diag([1.0 + 2.0j, -0.5 + 1.0j, 3.0])
    factor = NormalExp(G)
    v = np.array([1.0, 1.0, 0.0])  # the fastest mode is absent from v
    rows, shift = factor.act(v, np.array([-1j * 1e4]))
    assert np.all(np.isfinite(rows)) and np.isfinite(shift[0])
    # direction of exp(-i G t) v: the Im(g) = 2 mode dominates
    npt.assert_allclose(np.abs(rows[0]) / np.linalg.norm(rows[0]), [1.0, 0.0, 0.0],
                        atol=1e-12)


def test_mat_exp_stack_matches_slices():
    rng = np.random.default_rng(9)
    stack = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    out = mat_exp(stack)
    for M, E in zip(stack, out):
        npt.assert_allclose(E, mat_exp(M), rtol=1e-14, atol=1e-14)
    with pytest.raises(OverflowError):
        mat_exp(np.stack([np.zeros((2, 2)), np.diag([1e5, 0.0])]))


def test_large_t_dressing_has_no_spurious_singularity():
    # phi(t) underflows at |t| ~ 400 without the per-point shift
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)
    lax = build_lax(seed, 0.3 + 0.8j)
    traj = dressed_trajectory(lax, np.linspace(-2000, 2000, 9))
    assert traj.singular_t is None
    for state in traj.states:
        assert np.all(np.isfinite(state))
        npt.assert_allclose(np.trace(state), np.trace(seed.rho0), atol=1e-10)
