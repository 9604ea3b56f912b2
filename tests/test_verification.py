import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from conftest import SX, SZ
from vndarboux import (ModelSpec, Trajectory, build_lax, dressed_trajectory,
                       make_anticommuting_seed, make_commuting_seed,
                       make_delta_commuting_seed, make_pure_state_seed,
                       rk4_integrate, run_suite)
from vndarboux.operator_core import frob


SIGMA_SEED = make_anticommuting_seed(1, [1.0], n=2)


# ---------------------------------------------------------------------------
# RK4 oracle

def test_rk4_commuting_seed_constant():
    seed = make_commuting_seed([0.4, 0.6], [1.0, -1.0], n=2)
    traj = rk4_integrate(seed.spec, seed.rho0, t_end=1.0, dt=1e-2)
    npt.assert_allclose(traj.states[-1], seed.rho0, atol=1e-12)


def test_rk4_matches_pure_state_closed_form():
    spec = ModelSpec(2, SZ)
    seed = make_pure_state_seed(spec, np.array([1.0, 1.0]) / np.sqrt(2))
    traj = rk4_integrate(spec, seed.rho0, t_end=1.0, dt=1e-3)
    npt.assert_allclose(traj.states[-1], seed.rho_at(1.0), atol=1e-6)


def test_rk4_matches_dressed_trajectory():
    lax = build_lax(SIGMA_SEED, mu=1j)
    dressed = dressed_trajectory(lax, [0.0, 1.0])
    traj = rk4_integrate(SIGMA_SEED.spec, dressed.states[0], t_end=1.0, dt=1e-2)
    npt.assert_allclose(traj.states[-1], dressed.states[-1], atol=1e-10)


def test_rk4_matches_delta_dressing_both_directions():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    lax = build_lax(seed, mu=1 + 1j)
    dressed = dressed_trajectory(lax, np.linspace(-2, 2, 5))
    start = dressed.rho_at(0.0)
    fwd = rk4_integrate(seed.spec, start, t_end=2.0, dt=1e-3)
    bwd = rk4_integrate(seed.spec, start, t_end=-2.0, dt=1e-3)
    assert frob(fwd.states[-1] - dressed.rho_at(2.0)) <= 1e-6
    assert frob(bwd.states[0] - dressed.rho_at(-2.0)) <= 1e-6


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_integrate(SIGMA_SEED.spec, SX, 1.0, dt=0.0)


def test_rk4_norm_guard():
    seed = make_commuting_seed([1.0, 0.0], [1.0, -1.0])
    with pytest.raises(RuntimeError, match="1e6"):
        rk4_integrate(seed.spec, 1e7 * seed.rho0, t_end=0.1, dt=0.05)


def test_rk4_resymmetrization_drift_logged():
    seed = make_delta_commuting_seed([(1.0, 0.5)], a=1.0)
    traj = rk4_integrate(seed.spec, seed.rho0, t_end=0.5, dt=1e-2)
    assert traj.resym_drift <= 1e-12
    assert "resym_drift" in {f.name for f in dataclasses.fields(Trajectory)}


# ---------------------------------------------------------------------------
# suite

def test_suite_reference_scenario_passes():
    lax = build_lax(SIGMA_SEED, mu=1j)
    traj = dressed_trajectory(lax, np.linspace(-2, 2, 9))
    report = run_suite(traj, scenario_id="sigma-x")
    assert report.overall
    names = {c.name for c in report.checks}
    assert {"residual", "idempotency", "form_gap", "trace", "hermiticity",
            "spectrum"} <= names


def test_suite_detects_corrupted_states():
    lax = build_lax(SIGMA_SEED, mu=1j)
    traj = dressed_trajectory(lax, np.linspace(-1, 1, 5))
    corrupted_at = lambda t: traj.rho_at(t) + 0.1 * t * SX
    bad = Trajectory(times=traj.times,
                     states=[corrupted_at(t) for t in traj.times],
                     lax=traj.lax, diagnostics=traj.diagnostics,
                     rho_at=corrupted_at)
    report = run_suite(bad, scenario_id="corrupted")
    by_name = {c.name: c for c in report.checks}
    assert not by_name["residual"].passed
    assert not report.overall
    # the projector integrity checks still pass: the fault is downstream
    assert by_name["idempotency"].passed


def test_suite_commuting_seed_trivially_green():
    seed = make_commuting_seed([0.8, 0.2], [1.0, -1.0], n=3)
    lax = build_lax(seed, mu=0.4 + 0.6j)
    traj = dressed_trajectory(lax, np.linspace(-1, 1, 5))
    report = run_suite(traj, scenario_id="commuting")
    assert report.overall


def test_suite_is_deterministic():
    seed = make_delta_commuting_seed([(1.0, 0.4)], a=0.5)
    lax = build_lax(seed, mu=0.7 + 0.7j, lam=2j)
    traj = dressed_trajectory(lax, np.linspace(-1, 1, 5))
    r1 = run_suite(traj, scenario_id="det")
    r2 = run_suite(traj, scenario_id="det")
    assert [c.worst_value for c in r1.checks] == [c.worst_value for c in r2.checks]


def test_suite_singular_trajectory_flagged():
    seed = make_commuting_seed([0.5, 0.5], [1.0, -1.0], n=1)
    lax = build_lax(seed, mu=-1.0, nu=1.0)
    traj = dressed_trajectory(lax, np.linspace(-1, 1, 5))
    report = run_suite(traj, scenario_id="singular")
    assert not report.overall
    assert any(c.name == "singularity" and not c.passed for c in report.checks)


def test_suite_check_toggle():
    lax = build_lax(SIGMA_SEED, mu=1j)
    traj = dressed_trajectory(lax, [0.0, 1.0])
    report = run_suite(traj, enabled={"residual": False})
    assert "residual" not in {c.name for c in report.checks}


def test_trajectory_validation():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(times=[1.0, 0.5], states=[SX, SX])
    with pytest.raises(ValueError, match="length"):
        Trajectory(times=[0.0], states=[SX, SX])


def test_report_serialization_round_trip():
    import json
    lax = build_lax(SIGMA_SEED, mu=1j)
    traj = dressed_trajectory(lax, [0.0])
    report = run_suite(traj, scenario_id="json", notes={"k": 1})
    data = json.loads(json.dumps(report.to_dict()))
    assert data["overall"] is True
    assert data["scenario_id"] == "json"
    assert all(set(c) == {"name", "pass", "worst_value", "tolerance",
                          "location_t"} for c in data["checks"])
