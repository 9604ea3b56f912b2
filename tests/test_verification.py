import dataclasses
import random

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SX, SZ, PlantedError, rk4_ode, whole_projectors
from vndarboux import (DEFAULT, DressedFlow, ModelSpec, RescaledFlow,
                       ShiftedFlow, Trajectory, build_lax, dressed_trajectory,
                       make_anticommuting_seed, make_commuting_seed,
                       make_delta_commuting_seed, make_pure_state_seed, rhs,
                       run_suite)
from vndarboux.darboux_engine import _transform_rows
from vndarboux.lax_engine import LaxSolution
from vndarboux.operator_core import NormalExp, dagger, frob, frob_stack
from vndarboux.scenario_cli import execute_scenario, validate_config
from vndarboux import verification
from vndarboux.verification import CHECKS
from vndarboux.vne_model import default_step, five_point


SIGMA_SEED = make_anticommuting_seed(1, [1.0], n=2)


# ---------------------------------------------------------------------------
# RK4 oracle (conftest.rk4_ode on the model's rhs)

def _rk4(spec, rho0, t_end, dt):
    return rk4_ode(lambda t, rho: rhs(spec, rho), rho0, t_end, dt)


def test_rk4_commuting_seed_constant():
    seed = make_commuting_seed([0.4, 0.6], [1.0, -1.0], n=2)
    npt.assert_allclose(_rk4(seed.spec, seed.rho0, 1.0, 1e-2), seed.rho0, atol=1e-12)


def test_rk4_matches_pure_state_closed_form():
    spec = ModelSpec(2, SZ)
    seed = make_pure_state_seed(spec, np.array([1.0, 1.0]) / np.sqrt(2))
    npt.assert_allclose(_rk4(spec, seed.rho0, 1.0, 1e-3), seed(1.0), atol=1e-6)


def test_rk4_matches_dressed_trajectory():
    lax = build_lax(SIGMA_SEED, mu=1j)
    dressed = dressed_trajectory(DressedFlow(lax), [0.0, 1.0])
    npt.assert_allclose(_rk4(SIGMA_SEED.spec, dressed.states[0], 1.0, 1e-2),
                        dressed.states[-1], atol=1e-10)


def test_rk4_matches_delta_dressing_both_directions():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    lax = build_lax(seed, mu=1 + 1j)
    dressed = dressed_trajectory(DressedFlow(lax), np.linspace(-2, 2, 5))
    start = dressed.rho_at(0.0)
    fwd = _rk4(seed.spec, start, 2.0, 1e-3)
    bwd = _rk4(seed.spec, start, -2.0, 1e-3)
    assert frob(fwd - dressed.rho_at(2.0)) <= 1e-6
    assert frob(bwd - dressed.rho_at(-2.0)) <= 1e-6


# ---------------------------------------------------------------------------
# suite

def test_suite_reference_scenario_passes():
    lax = build_lax(SIGMA_SEED, mu=1j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-2, 2, 9))
    report = run_suite(traj, scenario_id="sigma-x")
    assert report.overall
    names = {c.name for c in report.checks}
    assert {"residual", "idempotency", "form_gap", "trace", "hermiticity",
            "spectrum"} <= names


# a shift by X moves the spectrum by X and a rescaling by Y scales it by Y:
# the flow's own map of the seed's rho(0) is the reference it must keep
TRANSFORMS = {
    "shift": lambda flow: ShiftedFlow(flow, 0.5 * np.eye(4)),
    "rescale": lambda flow: RescaledFlow(flow, 0.5),
    "shift-rescale": lambda flow: RescaledFlow(ShiftedFlow(flow, 0.5 * np.eye(4)), 0.5),
    "shift-reverse": lambda flow: RescaledFlow(ShiftedFlow(flow, 0.5 * np.eye(4)), -0.5),
}


@pytest.mark.parametrize("nu", [None, 0.5 - 1.1j], ids=["hermitian", "general"])
@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_a_transformed_dressing_passes_with_the_flows_own_reference(transform, nu):
    # a library caller passes the trajectory alone; the reference spectrum,
    # trace and moments of a shifted or rescaled dressing come from its flow
    seed = make_delta_commuting_seed([(0.3, 0.2), (-0.5, 0.3)], a=0.8)
    lax = build_lax(seed, 0.3 + 0.8j, nu, lam=3j)
    flow = TRANSFORMS[transform](DressedFlow(lax))
    report = run_suite(dressed_trajectory(flow, np.linspace(-2.0, 2.0, 21)))
    names = {c.name for c in report.checks}
    assert {"trace", "spectrum" if nu is None else "moments", "covariance"} <= names
    assert report.overall, [c for c in report.checks if not c.passed]


def test_suite_detects_corrupted_states():
    lax = build_lax(SIGMA_SEED, mu=1j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    corrupted = PlantedError(traj.rho_at, 0.1 * SX)
    bad = Trajectory(times=traj.times, states=corrupted.stack(traj.times),
                     diagnostics=traj.diagnostics, rho_at=corrupted)
    report = run_suite(bad, scenario_id="corrupted")
    by_name = {c.name: c for c in report.checks}
    assert not by_name["residual"].passed
    assert not report.overall
    # the projector integrity checks still pass: the fault is downstream
    assert by_name["idempotency"].passed


def test_suite_commuting_seed_trivially_green():
    seed = make_commuting_seed([0.8, 0.2], [1.0, -1.0], n=3)
    lax = build_lax(seed, mu=0.4 + 0.6j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    report = run_suite(traj, scenario_id="commuting")
    assert report.overall


def test_suite_is_deterministic():
    seed = make_delta_commuting_seed([(1.0, 0.4)], a=0.5)
    lax = build_lax(seed, mu=0.7 + 0.7j, lam=2j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    r1 = run_suite(traj, scenario_id="det")
    r2 = run_suite(traj, scenario_id="det")
    assert [c.worst_value for c in r1.checks] == [c.worst_value for c in r2.checks]


def test_suite_singular_trajectory_flagged():
    seed = make_commuting_seed([0.5, 0.5], [1.0, -1.0], n=1)
    lax = build_lax(seed, mu=-1.0, nu=1.0)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1, 1, 5))
    report = run_suite(traj, scenario_id="singular")
    assert not report.overall
    assert any(c.name == "singularity" and not c.passed for c in report.checks)


def test_suite_check_toggle():
    lax = build_lax(SIGMA_SEED, mu=1j)
    traj = dressed_trajectory(DressedFlow(lax), [0.0, 1.0])
    report = run_suite(traj, enabled={"residual": False})
    assert "residual" not in {c.name for c in report.checks}


def test_a_residual_over_its_limit_at_one_sample_fails():
    # the residual's limit grows like ||rho(t)||_F^5: at t = -0.6 the planted
    # error's norm, 7.07e3, is far inside its limit, and at t = 0, where the
    # state is the dressing's own, the same norm is over its limit of 1e-6
    seed = make_delta_commuting_seed([(0.3, 0.2), (-0.5, 0.3)], a=0.8)
    lax = build_lax(seed, 0.3 + 0.8j, lam=3j)
    flow = PlantedError(DressedFlow(lax), np.diag([0.0, 0.0, 5e3, -5e3]))
    report = run_suite(dressed_trajectory(flow, np.linspace(-2.0, 2.0, 21)))
    residual = next(c for c in report.checks if c.name == "residual")
    assert not residual.passed
    assert residual.location_t == 0.0 and residual.tolerance == 1e-6
    assert residual.worst_value == pytest.approx(5e3 * np.sqrt(2))


# ---------------------------------------------------------------------------
# the verdict rule

TIMES = np.linspace(-1.0, 1.0, 5)


@pytest.mark.parametrize("values", [
    [1e-12, 3e-12, 2e-12, 0.0, 1e-13],      # every sample passes
    [1e-12, 3e-9, 2e-12, 5e-9, 1e-13],      # two fail, the larger reported
    [-1.0, -2.0, -0.5, -3.0, -1.5],         # negative values (positivity)
    [np.inf, 0.0, 0.0, 0.0, 0.0],           # a singular dressing's entry
])
def test_a_scalar_limit_reports_the_largest_value(values):
    values = np.array(values)
    idx = int(np.argmax(values))
    check = verification._judged("gap", values, 1e-9, TIMES)
    assert check == verification.CheckResult(
        name="gap", passed=bool(values[idx] <= 1e-9), worst_value=values[idx],
        tolerance=1e-9, location_t=TIMES[idx])


def test_per_sample_limits_report_the_largest_failing_value():
    # the largest value passes its limit; two smaller ones fail theirs
    values = np.array([5.0, 7.0, 3.0, 6.0, 1.0])
    limits = np.array([10.0, 1e6, 1.0, 2.0, 10.0])
    check = verification._judged("residual", values, limits, TIMES)
    assert not check.passed
    assert (check.worst_value, check.tolerance, check.location_t) == (6.0, 2.0, TIMES[3])


def test_a_nan_fails_and_the_first_nan_is_reported():
    values = np.array([1e-12, np.nan, 2e-12, np.nan, 1e-13])
    check = verification._judged("trace", values, 1e-9, TIMES)
    assert not check.passed
    assert np.isnan(check.worst_value) and check.location_t == TIMES[1]
    # also among per-sample limits that pass a larger value
    limits = np.full(5, 1e-9)
    limits[0] = 1.0
    values[0] = 0.5
    check = verification._judged("residual", values, limits, TIMES)
    assert np.isnan(check.worst_value) and check.location_t == TIMES[1]


@pytest.mark.parametrize("limit", [1.0, 1e-9])
def test_a_tie_reports_the_first_sample(limit):
    values = np.array([0.0, 0.5, 0.2, 0.5, 0.5])
    check = verification._judged("gap", values, limit, TIMES)
    assert check.passed is (limit == 1.0)
    assert (check.worst_value, check.location_t) == (0.5, TIMES[1])


_sample = st.floats(allow_nan=True, allow_infinity=True, width=32)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_sample, _sample), min_size=1, max_size=8), st.booleans())
def test_a_check_passes_exactly_when_every_sample_is_within_its_limit(pairs, scalar):
    values = np.array([v for v, _ in pairs])
    limits = pairs[0][1] if scalar else np.array([l for _, l in pairs])
    check = verification._judged("gap", values, limits, np.arange(len(values), dtype=float))
    within = values <= limits
    assert check.passed == bool(np.all(within))
    # the reported sample is one of the failing samples when the check fails
    idx = int(check.location_t)
    assert check.passed or not within[idx]
    assert check.worst_value == values[idx] or np.isnan(values[idx])


def test_trajectory_validation():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(times=[1.0, 0.5], states=[SX, SX])
    with pytest.raises(ValueError, match="length"):
        Trajectory(times=[0.0], states=[SX, SX])


def test_report_serialization_round_trip():
    import json
    lax = build_lax(SIGMA_SEED, mu=1j)
    traj = dressed_trajectory(DressedFlow(lax), [0.0])
    report = run_suite(traj, scenario_id="json", notes={"k": 1})
    data = json.loads(json.dumps(report.to_dict()))
    assert data["overall"] is True
    assert data["scenario_id"] == "json"
    assert all(set(c) == {"name", "pass", "worst_value", "tolerance",
                          "location_t"} for c in data["checks"])


# ---------------------------------------------------------------------------
# covariance: psi[1] and its exact derivative

# a drawn benchmark scenario whose psi stencil step once made the truncation
# error of a finite-difference psi[1]' reach the 1e-8 time_equation gate
# (1.0005e-8 at 10x the residual step)
DRAWN_DELTA = {
    "id": "delta-covariance-26", "model": {"n": 1},
    "seed": {"family": "delta_commuting", "a": 0.714966823691773,
             "blocks": [[-0.5677626512715199, 0.1095244859116909],
                        [-0.7598789701885607, 0.07969834107084854],
                        [-0.5994350470008878, 0.11686334266130464],
                        [1.911386864739287, -0.1151842931361275],
                        [-0.6076990293628186, 0.1323424477982713],
                        [-0.6311108582585776, 0.16826723448553546]]},
    "darboux": {"mu": [0.8660649254512496, -1.2820349300885736],
                "nu_mode": "conjugate",
                "lambda": [-0.06636140793956291, 2.9027980248321046]},
    "times": {"t_min": -5.0, "t_max": 5.0, "samples": 201},
}


def _covariance_checks(cfg):
    cfg, errors = validate_config(cfg)
    assert not errors
    report = execute_scenario(cfg).report
    return {c.name: c for c in report.checks if c.name in ("covariance", "time_equation")}


def test_time_equation_passes_a_drawn_delta_scenario():
    checks = _covariance_checks(DRAWN_DELTA)
    assert checks["time_equation"].passed
    assert checks["time_equation"].worst_value < 1e-9


def test_time_equation_catches_a_planted_generator_error(monkeypatch):
    # a psi generator G + eps 1 gives the rows psi e^{i eps t} and the
    # derivative i psi (G + eps 1): both see the planted term, which solves
    # the time equation of G + eps 1, not of the dressed state's generator.
    # The eigen-equation is blind to the phase, the time equation is not
    eps = 1e-7
    factor = LaxSolution._psi_factor.func

    def planted(self):
        G = factor(self).G
        return NormalExp(G + eps * np.eye(len(G)), self.tolerances)

    monkeypatch.setattr(LaxSolution, "_psi_factor", property(planted))
    checks = _covariance_checks(DRAWN_DELTA)
    assert checks["covariance"].passed
    assert not checks["time_equation"].passed
    assert checks["time_equation"].worst_value > 0.5 * eps


@pytest.mark.parametrize("nu", [None, 0.5 - 1.1j])
def test_a_planted_state_error_fails_the_covariance_checks(nu):
    # 1e-7 added to one entry of one sample's dressed state, on the support:
    # psi[1] and its derivative no longer solve that state's equations
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2), (-0.5, 0.3)], a=0.9)
    lax = build_lax(seed, 0.3 + 0.8j, nu, lam=0.2 + 2.0j)
    times = np.linspace(-2.0, 2.0, 21)
    traj = dressed_trajectory(DressedFlow(lax), times)
    checks = {c.name: c for c in run_suite(traj).checks}
    assert checks["covariance"].passed and checks["time_equation"].passed
    J = traj.rho_at.root.support
    traj.diagnostics.rho1[13, J[0], J[1]] += 1e-7
    checks = {c.name: c for c in run_suite(traj).checks}
    failed = [checks[name] for name in ("covariance", "time_equation")
              if not checks[name].passed]
    assert failed
    assert all(c.location_t == times[13] for c in failed)


def _psi1_stencil(flow, times, h):
    # psi[1]' by the 5-point stencil at times t +- h, t +- 2h, on the rows
    # scaled to their centre's shift, with the projectors at the stencil
    # times: the finite-difference psi[1]' the covariance check once took
    params = flow.lax.params
    c = (params.nu - params.mu) / (params.lam - params.mu)
    J = flow.support
    shift = flow.lax.psi_rows(times)[1]

    def psi1(ring):
        rows, ring_shift = flow.lax.psi_rows(ring)
        rows = rows * np.exp(ring_shift - np.repeat(shift, 4))[:, None]
        rows[:, J] = _transform_rows(rows[:, J], flow.evaluate(ring).P, c)
        return rows

    return five_point(psi1, times, h)


@pytest.mark.parametrize("cfg", [DRAWN_DELTA, {
    **DRAWN_DELTA, "darboux": {**DRAWN_DELTA["darboux"],
                               "nu_mode": {"explicit": [0.5, -1.1]}}}],
    ids=["hermitian", "general"])
def test_exact_psi1_derivative_matches_the_psi_stencil(cfg):
    # within the stencil's measured worst error, 2.6e-10 per unit scale over
    # 183 drawn delta scenarios, at its step of 3x the residual's
    cfg, errors = validate_config(cfg)
    assert not errors
    traj = execute_scenario(cfg).trajectory
    flow, diags = traj.rho_at.root, traj.diagnostics
    rows, rates, shift = flow.psi1_rows(traj.times, diags.P, diags.P_dot)
    stencil = _psi1_stencil(flow, traj.times, 3 * default_step(flow.spec))
    scale = np.maximum(np.exp(-shift), np.linalg.norm(rows, axis=-1))
    gap = np.linalg.norm(rates - stencil, axis=-1) / scale
    assert gap.max() <= 2.6e-10


# ---------------------------------------------------------------------------
# one spectrum per state

@pytest.mark.parametrize("enabled", [None, {"spectrum": True},
                                     {"positivity": True}])
def test_suite_reuses_the_dressing_spectrum(monkeypatch, enabled):
    # unflowed: the dressed states are the checked states, and their spectra
    # from dressed_trajectory give the report a recomputation gives, exactly
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)
    traj = dressed_trajectory(DressedFlow(build_lax(seed, 0.3 + 0.8j, lam=3j)),
                              np.linspace(-2.0, 2.0, 41))
    diags = traj.diagnostics
    assert traj.states is diags.rho1
    copied = dataclasses.replace(traj, states=traj.states.copy())
    recomputed = run_suite(copied, enabled=enabled).to_dict()
    calls = []
    spectra = verification._spectra
    monkeypatch.setattr(verification, "_spectra",
                        lambda M: calls.append(np.shape(M)) or spectra(M))
    reused = run_suite(traj, enabled=enabled).to_dict()
    assert reused == recomputed
    assert calls == [(4, 4)]  # the seed reference alone


def test_suite_recomputes_the_spectrum_under_a_flow():
    cfg = {"id": "shifted", "model": {"n": 2},
           "seed": {"family": "anticommuting", "dim_pairs": 1, "b": [1.0]},
           "darboux": {"mu": [0.0, 1.0]},
           "times": {"t_min": -1.0, "t_max": 1.0, "samples": 5},
           "symmetries": {"shift_lambda": 1.0, "rescale_y": 0.5}}
    result = execute_scenario(cfg)
    traj = result.trajectory
    assert traj.states is not traj.diagnostics.rho1
    report = {c.name: c for c in result.report.checks}
    # the written states (1 - sx)/2 have spectrum {0, 1}; the dressed -sx
    # has {-1, 1}, so positivity certifies the flowed states
    assert report["positivity"].passed
    assert report["positivity"].worst_value == pytest.approx(0.0, abs=1e-12)


def _checks(enabled_names):
    return {name: name in enabled_names for name in CHECKS}


@pytest.mark.parametrize("index", range(3))
def test_suite_reuses_the_dressing_hermiticity_gap(bench, index):
    # unflowed: the report's hermiticity is the dressing's gap, equal to a
    # recomputation over a copy of the states; a planted gap shows it is read
    cfg = bench.delta_covariance_config(random.Random(60 + index), index)
    traj = execute_scenario(cfg).trajectory
    diags = traj.diagnostics
    assert traj.states is diags.rho1
    enabled = _checks({"hermiticity"})
    copied = dataclasses.replace(traj, states=traj.states.copy())
    assert (run_suite(traj, enabled=enabled).to_dict()
            == run_suite(copied, enabled=enabled).to_dict())
    planted = np.zeros_like(diags.hermiticity_gap)
    planted[7] = 0.5
    traj.diagnostics = dataclasses.replace(diags, hermiticity_gap=planted)
    assert traj.states is traj.diagnostics.rho1
    check, = run_suite(traj, enabled=enabled).checks
    assert (check.worst_value, check.location_t) == (0.5, traj.times[7])


def test_suite_recomputes_the_hermiticity_gap_under_a_flow():
    cfg = {"id": "shifted", "model": {"n": 2},
           "seed": {"family": "anticommuting", "dim_pairs": 1, "b": [1.0]},
           "darboux": {"mu": [0.0, 1.0]},
           "times": {"t_min": -1.0, "t_max": 1.0, "samples": 5},
           "symmetries": {"shift_lambda": 1.0, "rescale_y": 0.5}}
    traj = execute_scenario(cfg).trajectory
    assert traj.states is not traj.diagnostics.rho1
    traj.diagnostics = dataclasses.replace(
        traj.diagnostics, hermiticity_gap=np.full(len(traj.times), 0.5))
    check, = run_suite(traj, enabled=_checks({"hermiticity"})).checks
    states = traj.states
    assert check.worst_value == np.max(frob_stack(states - dagger(states)))
    assert check.worst_value < 0.5


# ---------------------------------------------------------------------------
# the projector checks read the values the projector gates compared

@pytest.mark.parametrize("workload, index", [("delta-covariance", 0),
                                             ("anticommuting-shift", 1)])
def test_projector_checks_read_the_gate_values(bench, workload, index):
    cfg = bench.SCENARIO_WORKLOADS[workload](random.Random(80 + index), index)
    result = execute_scenario(cfg)
    traj, report = result.trajectory, result.report
    diags = traj.diagnostics
    checks = {c.name: c for c in report.checks}
    for name, gaps in (("idempotency", diags.idempotency_gap),
                       ("projector_trace", diags.projector_trace_gap)):
        k = int(np.argmax(gaps))
        assert (checks[name].worst_value, checks[name].location_t) == (gaps[k], traj.times[k])
        assert checks[name].worst_value == np.max(gaps)
    # the absolute tolerance, not the gate's limit relative to max(1, |P|)
    assert checks["idempotency"].tolerance == DEFAULT.idempotency
    # the gates' values on the J x J blocks: the trace gap is bitwise the
    # whole matrix's, and the idempotency gap is the whole matrix's to
    # round-off (P squares in another order)
    whole = whole_projectors(traj)
    npt.assert_array_equal(diags.projector_trace_gap,
                           np.abs(np.trace(whole, axis1=-2, axis2=-1) - 1.0))
    npt.assert_allclose(diags.idempotency_gap, frob_stack(whole @ whole - whole),
                        rtol=0, atol=1e-15)
    # a planted gap is what the report reads
    enabled = _checks({"idempotency"})
    planted = np.zeros_like(diags.idempotency_gap)
    planted[7] = 0.5
    traj.diagnostics = dataclasses.replace(diags, idempotency_gap=planted)
    idempotency, trace = run_suite(traj, enabled=enabled).checks
    assert not idempotency.passed
    assert (idempotency.worst_value, idempotency.location_t) == (0.5, traj.times[7])
    assert trace == checks["projector_trace"]

