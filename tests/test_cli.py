import concurrent.futures
import csv
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from vndarboux import (DefectiveEigenproblem, dressed_trajectory, lax_engine,
                       scenario_cli)
from vndarboux.darboux_engine import DressedFlow
from vndarboux.lax_engine import LaxSolution
from vndarboux.operator_core import NormalExp
from vndarboux.scenario_cli import (main, read_trajectory_csv, run, sweep,
                                    validate_config)
from vndarboux.vne_model import default_step

REFERENCE = {
    "id": "sigma-x-reference",
    "model": {"n": 2},
    "seed": {"family": "anticommuting", "dim_pairs": 1, "b": [1.0], "alpha": [1.0]},
    "darboux": {"mu": [0.0, 1.0], "nu_mode": "conjugate"},
    "times": {"t_min": -2.0, "t_max": 2.0, "samples": 9},
}

DELTA = {
    "id": "delta-density",
    "model": {"n": 1},
    "seed": {"family": "delta_commuting", "blocks": [[1.0, 0.2], [3.0, -0.2]],
             "a": 0.5},
    "darboux": {"mu": [0.3, 0.8], "nu_mode": "conjugate", "lambda": [0.0, 3.0]},
    "times": {"t_min": -1.0, "t_max": 1.0, "samples": 5},
}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_reference_run_exit_zero(tmp_path):
    out = tmp_path / "out"
    assert run(_write(tmp_path, REFERENCE), str(out)) == 0
    for filename in ("trajectory.csv", "report.json", "scenario.lock.json"):
        assert (out / filename).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["overall"] is True
    # constant trajectory rho[1](t) = -sx
    times, states = read_trajectory_csv(str(out / "trajectory.csv"))
    assert len(times) == 9
    for state in states:
        npt.assert_allclose(state, -np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_csv_round_trip_full_precision(tmp_path):
    out = tmp_path / "out"
    assert run(_write(tmp_path, DELTA), str(out)) == 0
    times, states = read_trajectory_csv(str(out / "trajectory.csv"))
    from vndarboux.scenario_cli import execute_scenario
    cfg, errors = validate_config(DELTA)
    assert not errors
    result = execute_scenario(cfg)
    for got, expected in zip(states, result.trajectory.states):
        npt.assert_array_equal(got, expected)  # 17 digits round-trip exactly


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name", sorted(os.path.splitext(name)[0]
                                         for name in os.listdir(CONFIGS)
                                         if name.endswith(".json")))
def test_lock_replay_is_bitwise(tmp_path, name):
    # every shipped config passes, and its lock replays to the same bytes
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(os.path.join(CONFIGS, f"{name}.json"), str(out1)) == 0
    assert run(str(out1 / "scenario.lock.json"), str(out2)) == 0
    for filename in ("trajectory.csv", "report.json", "scenario.lock.json"):
        assert (out1 / filename).read_bytes() == (out2 / filename).read_bytes()


@pytest.mark.parametrize("name", sorted(os.path.splitext(name)[0]
                                         for name in os.listdir(CONFIGS)
                                         if name.endswith(".json")))
def test_a_rerun_into_the_same_out_is_a_fresh_run(tmp_path, name):
    # the second run replaces each of the first run's files (by the exchange
    # of the two names, where the C library and the filesystem have it)
    config = os.path.join(CONFIGS, f"{name}.json")
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    assert run(config, str(fresh)) == 0
    for _ in range(2):
        assert run(config, str(rerun)) == 0
    for filename in ("trajectory.csv", "report.json", "scenario.lock.json"):
        assert (rerun / filename).read_bytes() == (fresh / filename).read_bytes()
    assert sorted(p.name for p in rerun.iterdir()) == [
        "report.json", "scenario.lock.json", "trajectory.csv"]


def _assert_lock_is_the_stdlib_text(cfg, out):
    # the lock file is json's indent=2 text of the lock, byte for byte
    result = scenario_cli.execute_scenario(cfg)
    scenario_cli.write_outputs(result, str(out))
    expected = json.dumps(result.lock, indent=2) + "\n"
    assert (out / "scenario.lock.json").read_text() == expected
    return result


@pytest.mark.parametrize("name", sorted(os.path.splitext(name)[0]
                                         for name in os.listdir(CONFIGS)
                                         if name.endswith(".json")))
def test_shipped_locks_are_the_stdlib_text(tmp_path, name):
    with open(os.path.join(CONFIGS, f"{name}.json")) as handle:
        cfg = json.load(handle)
    _assert_lock_is_the_stdlib_text(cfg, tmp_path)


@pytest.mark.parametrize("workload", ["anticommuting-shift", "delta-covariance"])
def test_drawn_locks_are_the_stdlib_text(tmp_path, bench, workload):
    rng = random.Random(24)
    for index in range(20):
        cfg = bench.SCENARIO_WORKLOADS[workload](rng, index)
        _assert_lock_is_the_stdlib_text(cfg, tmp_path / str(index))


def test_before_and_one_dimensional_locks_are_the_stdlib_text(tmp_path):
    with open(os.path.join(CONFIGS, "shifted_anticommuting_before.json")) as handle:
        before = json.load(handle)
    assert before["symmetries"]["order"] == "before"
    _assert_lock_is_the_stdlib_text(before, tmp_path / "before")
    # a one-entry commuting seed: 1 x 1 matrices
    single = {"id": "one-by-one", "model": {"n": 1},
              "seed": {"family": "commuting", "p": [0.5], "alpha": [1.0]},
              "darboux": {"mu": [0.3, 0.8]},
              "times": {"t_min": -1.0, "t_max": 1.0, "samples": 5}}
    result = _assert_lock_is_the_stdlib_text(single, tmp_path / "single")
    assert result.lock["resolved"]["A"] == [[[1.0, 0.0]]]


@pytest.mark.parametrize("scenario_id", [
    "nul\x00", 'quote"', "back\\slash", "non-ASCII \u00e9\u4e2d\U0001f600",
    '"rho0": null, "A": null', '\n    "A": null,\n    "rho0": null',
    '"rho0": [\n      [\n        [', "]], [[ ], [ , "])
def test_locks_are_the_stdlib_text_whatever_the_id(tmp_path, scenario_id):
    # the id is the only free text of a config; model.A puts a matrix under
    # the key "A" into the config as well
    cfg = json.loads(json.dumps(DELTA))
    cfg["id"] = scenario_id
    cfg["model"]["A"] = scenario_cli.matrix_to_nested(
        scenario_cli.build_seed(cfg).spec.A)
    result = _assert_lock_is_the_stdlib_text(cfg, tmp_path)
    lock = json.loads((tmp_path / "scenario.lock.json").read_text())
    assert lock["config"]["id"] == scenario_id
    assert lock["resolved"]["rho0"] == result.lock["resolved"]["rho0"]


def test_matrix_to_nested_gives_the_pairs_bitwise():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(5, 10)) + 1j * rng.normal(size=(5, 10))
    M[0, 0], M[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    M = M[:, ::2]  # not C-ordered
    nested = scenario_cli.matrix_to_nested(M)
    expected = [[scenario_cli.complex_to_pair(M[i, j]) for j in range(5)]
                for i in range(5)]
    assert nested == expected
    assert np.array(nested).tobytes() == np.array(expected).tobytes()
    assert all(type(x) is float for row in nested for pair in row for x in pair)


def test_the_general_mode_config_runs_the_general_checks(tmp_path):
    # nu is explicit, so chi is solved on its own and moments replace spectra
    out = tmp_path / "out"
    assert run(os.path.join(CONFIGS, "delta_density_general.json"), str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == [
        "residual", "idempotency", "projector_trace", "form_gap", "trace",
        "moments", "covariance", "time_equation"]
    assert report["notes"]["hermitian_mode"] is False


def test_zero_mu_is_schema_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["darboux"]["mu"] = [0.0, 0.0]
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "darboux.mu" in capsys.readouterr().err


def test_real_mu_conjugate_nu_is_schema_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["darboux"]["mu"] = [1.0, 0.0]
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "identity" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"id": "x",\n  "model": }')
    assert run(str(path), str(tmp_path / "out")) == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_check_name_rejected(tmp_path, capsys):
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["checks"] = {"no_such_check": True}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2


def test_orthogonal_pair_exits_three(tmp_path, capsys):
    cfg = {
        "id": "singular",
        "model": {"n": 1},
        "seed": {"family": "commuting", "p": [0.5, 0.5], "alpha": [1.0, -1.0]},
        "darboux": {"mu": [-1.0, 0.0], "nu_mode": {"explicit": [1.0, 0.0]}},
        "times": {"t_min": -1.0, "t_max": 1.0, "samples": 5},
    }
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 3
    assert "singular" in capsys.readouterr().err
    # truncated outputs still written
    assert (out / "report.json").exists()


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6])
def test_a_near_orthogonal_pair_exits_three(tmp_path, capsys, eps):
    # nu = mu + eps e^{i pi/4} with nu's root pinned away from conj(z_mu):
    # the pair's overlap is about 0.3 eps, so ||P||_F is about 3 / eps.  The
    # idempotency gate takes the report's absolute limit, so the dressing
    # stops at the first sample instead of dressing a state whose report
    # fails idempotency (exit 1 at 1e-3 and 1e-4 with a limit scaled by
    # ||P||_F)
    mu = 0.3 + 0.8j
    nu = mu + eps * np.exp(1j * np.pi / 4)
    cfg = {
        "id": "near-orthogonal",
        "model": {"n": 1},
        "seed": {"family": "delta_commuting", "a": 0.9, "blocks": [[0.3, 0.2]]},
        "darboux": {"mu": [mu.real, mu.imag], "nu_mode": {"explicit": [nu.real, nu.imag]},
                    "z_nu_pin": [0.04, -0.995]},
        "times": {"t_min": -1.0, "t_max": 1.0, "samples": 11},
    }
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "singular dressing at t = -1; trajectory truncated"


def test_symmetry_after_pipeline(tmp_path):
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["symmetries"] = {"order": "after", "shift_lambda": 1.0, "rescale_y": 0.5}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    _, states = read_trajectory_csv(str(out / "trajectory.csv"))
    # shifted+rescaled constant trajectory: (1 - sx)/2, spectrum {0, 1}
    npt.assert_allclose(states[0], (np.eye(2) - np.array([[0, 1], [1, 0]])) / 2,
                        atol=1e-12)
    report = json.loads((out / "report.json").read_text())
    assert report["notes"]["symmetry_order"] == "after"
    assert {c["name"] for c in report["checks"]} >= {"positivity"}


def _rescaled_delta(y: float, nu=None) -> dict:
    cfg = json.loads(json.dumps(DELTA))
    cfg["times"] = {"t_min": -1.0, "t_max": 1.0, "samples": 11}
    cfg["symmetries"] = {"order": "after", "shift_lambda": 0.5, "rescale_y": y}
    if nu is not None:
        cfg["darboux"]["nu_mode"] = {"explicit": nu}
    return cfg


@pytest.mark.parametrize("y", [-0.5, 2.0])
def test_after_flow_dresses_each_sample_once_at_y_t(y):
    # rows keep the config's grid and order; each state is the shift and the
    # rescale of the one dressing at Y t, bit for bit what composing the
    # flows by hand gives, and the diagnostics describe that dressing
    cfg = _rescaled_delta(y)
    result = scenario_cli.execute_scenario(cfg)
    traj = result.trajectory
    seed = traj.rho_at.root.seed
    grid = np.linspace(-1.0, 1.0, 11)
    assert result.report.overall and traj.singular_t is None
    assert traj.times.tobytes() == grid.tobytes()
    dressed = DressedFlow(traj.rho_at.root.lax)
    X = 0.5 * np.eye(seed.dim, dtype=complex)
    shift = NormalExp(2 * (X @ seed.spec.A))
    expected = y * shift.similarity(dressed.stack(y * grid) + X, -1j * (y * grid))
    assert traj.states.tobytes() == expected.tobytes()
    assert traj.rho_at.stack(grid).tobytes() == expected.tobytes()
    assert traj.diagnostics.rho1.tobytes() == dressed.stack(y * grid).tobytes()
    assert traj.diagnostics.P.tobytes() == dressed_trajectory(
        dressed, np.sort(y * grid)).diagnostics.P[::int(np.sign(y))].tobytes()


@pytest.mark.parametrize("y", [-2.0, 2.0])
def test_singular_dressing_under_rescale_cuts_the_rows(tmp_path, capsys,
                                                       monkeypatch, y):
    # chi(s) vanishes at dressing times s = Y t with s / sign(Y) > 1, i.e.
    # at rows t > 0.5; for Y < 0 the dressing runs from the last row to the
    # first.  The rows stop at the first singular row in row order, and the
    # truncated outputs are written
    original = LaxSolution.chi_rows

    def chi_rows(self, times):
        rows, shift = original(self, times)
        rows[np.sign(y) * np.asarray(times) > 1.0] = 0.0
        return rows, shift

    monkeypatch.setattr(LaxSolution, "chi_rows", chi_rows)
    out = tmp_path / "out"
    assert run(_write(tmp_path, _rescaled_delta(y, nu=[0.2, -0.5])), str(out)) == 3
    grid = np.linspace(-1.0, 1.0, 11)
    first_singular = int(np.argmax(grid > 0.5))
    assert first_singular == 8
    assert f"singular dressing at t = {grid[8]:.6g}" in capsys.readouterr().err
    times, states = read_trajectory_csv(str(out / "trajectory.csv"))
    assert times.tobytes() == grid[:8].tobytes() and len(states) == 8
    lock = json.loads((out / "scenario.lock.json").read_text())
    assert lock["resolved"]["singular_t"] == grid[8]
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][-1]["name"] == "singularity"


# Defect C of the failure modes: a pair near the overlap limit whose samples
# dress regularly while points of their residual stencils do not
STENCIL_SINGULAR = {
    "id": "stencil-singular", "model": {"n": 1},
    "seed": {"family": "delta_commuting", "a": 0.523, "blocks": [[-1.933, -0.098]]},
    "darboux": {"mu": [0.911, 0.723], "nu_mode": {"explicit": [0.91, 0.739]},
                "z_nu_pin": [1.104, 0.695]},
    "times": {"t_min": -1.0, "t_max": 1.0, "samples": 11},
}


def test_a_singular_stencil_point_writes_the_truncated_outputs(tmp_path, capsys):
    # the first sample's residual stencil holds a point whose projector fails
    # its idempotency gate: the report and the trajectory stop before that
    # sample, and all three files are written
    out = tmp_path / "out"
    assert run(_write(tmp_path, STENCIL_SINGULAR), str(out)) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "singular dressing at t = -1; trajectory truncated"
    assert sorted(p.name for p in out.iterdir()) == [
        "report.json", "scenario.lock.json", "trajectory.csv"]
    times, _ = read_trajectory_csv(str(out / "trajectory.csv"))
    assert len(times) == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["singularity"]
    assert report["checks"][0]["location_t"] == -1.0
    lock = json.loads((out / "scenario.lock.json").read_text())
    assert lock["resolved"]["singular_t"] == -1.0


def _strict_json(path):
    # a JSON reader that takes no NaN or infinity
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


# every outcome: each exception type of each _FAILURES row, raised from
# execute, then a singular stencil point, a failed check and a pass
_OUTCOMES = [
    *(pytest.param(raised, REFERENCE, status, prefix, id=raised.__name__)
      for types, status, prefix in scenario_cli._FAILURES
      for raised in (types if isinstance(types, tuple) else (types,))),
    pytest.param(None, STENCIL_SINGULAR, "singular",
                 "singular dressing at t = -1; trajectory truncated", id="stencil-singular"),
    pytest.param(None, {**DELTA, "tolerances": {"spectral_match": 1e-30}}, "check_failed",
                 "checks failed: spectrum", id="check-failed"),
    pytest.param(None, REFERENCE, "ok", None, id="ok"),
]


def test_the_exit_code_table():
    assert scenario_cli._EXIT_CODES == {"ok": 0, "check_failed": 1,
                                        "config_error": 2, "singular": 3}


@pytest.mark.parametrize("raised, cfg, status, prefix", _OUTCOMES)
def test_every_outcome_takes_its_code_and_status_from_the_table(
        tmp_path, capsys, monkeypatch, raised, cfg, status, prefix):
    if raised is not None:
        def execute(scenario):
            raise raised("planted")
        monkeypatch.setattr(scenario_cli, "execute", execute)
    config = _write(tmp_path, cfg)
    assert main(["run", config, "--out", str(tmp_path / "run")]) == \
        scenario_cli._EXIT_CODES[status]
    err = capsys.readouterr().err.splitlines()
    if prefix is None:
        assert err == []
    else:
        assert err[0].startswith(prefix)
    t_max = str(cfg["times"]["t_max"])
    code = main(["sweep", config, "--param", "t_max", "--values", t_max,
                 "--jobs", "1", "--out", str(tmp_path / "sweep")])
    assert code == (0 if status == "ok" else 1)
    with open(tmp_path / "sweep" / "summary.csv", newline="") as handle:
        assert [row["status"] for row in csv.DictReader(handle)] == [status]
    # a report is written whenever the checks ran, and is strict JSON
    reports = sorted(tmp_path.rglob("report.json"))
    assert len(reports) == (0 if raised is not None else 2)
    for path in reports:
        _strict_json(path)


@pytest.mark.parametrize("y", [-2.0, 2.0])
def test_a_singular_stencil_point_cuts_at_its_sample(tmp_path, capsys,
                                                    monkeypatch, y):
    # chi vanishes at the dressing time of one point of sample 8's residual
    # stencil, t + h at t = 0.6 (Y (t + h) under the rescaling), and at no
    # sample, p_dot_norm point or covariance stencil point: the outputs stop
    # at sample 8 and the report checks the samples before it
    original = LaxSolution.chi_rows
    grid = np.linspace(-1.0, 1.0, 11)

    def chi_rows(self, times):
        rows, shift = original(self, times)
        h = default_step(self.seed.spec)
        offset = np.asarray(times) / y - grid[8]
        rows[(offset > 0.5 * h) & (offset < 1.25 * h)] = 0.0
        return rows, shift

    monkeypatch.setattr(LaxSolution, "chi_rows", chi_rows)
    out = tmp_path / "out"
    assert run(_write(tmp_path, _rescaled_delta(y, nu=[0.2, -0.5])), str(out)) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"singular dressing at t = {grid[8]:.6g}; trajectory truncated"
    times, states = read_trajectory_csv(str(out / "trajectory.csv"))
    assert times.tobytes() == grid[:8].tobytes() and len(states) == 8
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][-1] == {"name": "singularity", "pass": False,
                                    "worst_value": None, "tolerance": 0.0,
                                    "location_t": grid[8]}
    assert all(c["pass"] for c in report["checks"][:-1])


def test_symmetry_before_delta_reseeds(tmp_path):
    cfg = json.loads(json.dumps(DELTA))
    cfg["symmetries"] = {"order": "before", "shift_lambda": 0.4}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    lock = json.loads((out / "scenario.lock.json").read_text())
    rho00 = lock["resolved"]["rho0"][0][0][0]
    assert rho00 == pytest.approx(0.5 / 2 + 0.4)  # a/2 + Lambda on the diagonal


def test_symmetry_before_anticommuting_shift_runs(tmp_path):
    # the shift needs no anticommuting structure of the transformed seed:
    # the transformed seed's dressing is the shift of rho's
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "shifted_anticommuting_before.json")
    assert run(path, str(out)) == 0
    lock = json.loads((out / "scenario.lock.json").read_text())
    cfg = lock["config"]
    seed = scenario_cli.read_scenario(cfg).build_seed()
    Y, shift = cfg["symmetries"]["rescale_y"], cfg["symmetries"]["shift_lambda"]
    expected = Y * (seed.rho0 + shift * np.eye(seed.dim))
    assert lock["resolved"]["rho0"] == scenario_cli.matrix_to_nested(expected)
    report = json.loads((out / "report.json").read_text())
    assert report["overall"] is True


def test_model_a_cross_validation(tmp_path, capsys):
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["model"]["A"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]]
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "model.A" in capsys.readouterr().err


def test_seed_dump_prints_matrices(tmp_path, capsys):
    assert run(_write(tmp_path, REFERENCE), str(tmp_path / "out"),
               seed_dump=True) == 0
    captured = capsys.readouterr().out
    assert "rho0 =" in captured and "A =" in captured


def test_seed_dump_keeps_print_options(tmp_path):
    with np.printoptions(precision=5, linewidth=70):
        before = np.get_printoptions()
        assert run(_write(tmp_path, REFERENCE), str(tmp_path / "out"),
                   seed_dump=True) == 0
        assert np.get_printoptions() == before


def test_tolerance_overrides_can_fail_a_scenario(tmp_path):
    cfg = json.loads(json.dumps(DELTA))
    # finite-difference noise can never reach this gate
    cfg["tolerances"] = {"time_equation": 1e-30}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 1


def test_sweep_over_mu(tmp_path):
    out = tmp_path / "sweep"
    code = sweep(_write(tmp_path, REFERENCE), "mu", [1j, 2j, 1 + 1j], str(out))
    assert code == 0
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + 3 points
    assert all((out / f"mu_{i:03d}_{v}" / "report.json").exists()
               for i, v in enumerate(["0+1j", "0+2j", "1+1j"]))


def test_sweep_summary_quotes_an_out_dir_with_a_comma(tmp_path):
    # csv quotes the out_dir cells, so a csv reader gets every directory back
    out = tmp_path / 'sw,ee"p'
    code = sweep(_write(tmp_path, REFERENCE), "mu", [1j, 2j], str(out))
    assert code == 0
    with open(out / "summary.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert all(None not in row for row in rows)
    assert all(os.path.isdir(row["out_dir"]) for row in rows)
    assert [os.path.basename(row["out_dir"]) for row in rows] == [
        "mu_000_0+1j", "mu_001_0+2j"]
    # without a field to quote, the file is the plain join of its fields
    plain = tmp_path / "plain"
    assert sweep(_write(tmp_path, REFERENCE), "mu", [1j, 2j], str(plain)) == 0
    lines = (plain / "summary.csv").read_text().splitlines()
    assert lines[0] == ("index,param,value,status,overall,worst_residual,"
                        "worst_spectral_gap,out_dir")
    assert lines[1].startswith("0,mu,0+1j,ok,True,")
    assert lines[1].endswith(f",{plain / 'mu_000_0+1j'}")


def test_sweep_empty_values_schema_error(tmp_path):
    assert sweep(_write(tmp_path, REFERENCE), "mu", [], str(tmp_path / "s")) == 2


def test_sweep_a_requires_delta_seed(tmp_path, capsys):
    assert sweep(_write(tmp_path, REFERENCE), "a", [0.5], str(tmp_path / "s")) == 2
    assert "delta_commuting" in capsys.readouterr().err


def test_sweep_over_a_rebuilds_seed(tmp_path):
    out = tmp_path / "sweep_a"
    code = sweep(_write(tmp_path, DELTA), "a", [0.0, 1.0, 2.0], str(out))
    assert code == 0
    # Delta_a depends on a, so the locked seeds must differ
    locks = [json.loads((out / f"a_{i:03d}_{v}" / "scenario.lock.json").read_text())
             for i, v in enumerate(["0", "1", "2"])]
    diag = [lock["resolved"]["rho0"][0][0][0] for lock in locks]
    assert diag == [0.0, 0.5, 1.0]


def test_sweep_failing_point_does_not_abort(tmp_path):
    cfg = json.loads(json.dumps(REFERENCE))
    out = tmp_path / "sweep"
    # mu = 1+0j trips the identity guard per point, others succeed
    code = sweep(_write(tmp_path, cfg), "mu", [1j, 1.0 + 0j, 2j], str(out))
    assert code == 1
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    statuses = [row.split(",")[3] for row in rows[1:]]
    assert statuses[0] == "ok" and statuses[2] == "ok"
    assert statuses[1] != "ok"


def test_main_entry_run(tmp_path):
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, REFERENCE), "--out", str(out)])
    assert code == 0


def test_main_entry_sweep_parallel(tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", _write(tmp_path, REFERENCE), "--param", "mu",
                 "--values", "1j,2j", "--out", str(out), "--jobs", "2"])
    assert code == 0
    assert (out / "summary.csv").exists()


def _sweep_tree(out):
    # every file below out, with summary.csv's out_dir column made relative
    files = {}
    for path in out.rglob("*"):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "summary.csv":
                data = data.replace(os.fsencode(out), b"OUT")
            files[path.relative_to(out)] = data
    return files


def test_parallel_sweep_is_byte_identical_to_serial(tmp_path):
    # 1+0j is a config error, so the pool runs three points on two workers
    config = _write(tmp_path, DELTA)
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main(["sweep", config, "--param", "mu", "--values",
                     "0.3+0.8j,1j,1+0j,-0.5+1.2j", "--out", str(out), "--jobs", jobs])
        assert code == 1
        trees.append(_sweep_tree(out))
    assert len(trees[0]) == 1 + 3 * 3
    assert b"OUT" in trees[0][Path("summary.csv")]
    assert trees[0] == trees[1]


def test_main_bad_values_token(tmp_path, capsys):
    code = main(["sweep", _write(tmp_path, REFERENCE), "--param", "mu",
                 "--values", "zzz", "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("form", ["spaced", "joined"])
def test_main_values_with_a_leading_minus(tmp_path, form, capsys):
    def values(text):
        return ["--values", text] if form == "spaced" else [f"--values={text}"]
    out = tmp_path / "mu"
    code = main(["sweep", _write(tmp_path, REFERENCE), "--param", "mu",
                 *values("-0.5+1j,1j"), "--out", str(out)])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["-0.5+1j", "0+1j"]
    # t_max = -5 lies below t_min: a config error of that point alone
    out = tmp_path / "t_max"
    code = main(["sweep", _write(tmp_path, REFERENCE), "--param", "t_max",
                 *values("-5,3"), "--out", str(out)])
    assert code == 1
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["config_error", "ok"]
    assert "t_max=-5: times.t_min" in capsys.readouterr().err


@pytest.mark.parametrize("t_min, t_max", [(0.0, 5e-324), (1e16, 1e16 + 4)],
                         ids=["subnormal-span", "coarse-doubles"])
def test_a_grid_that_repeats_a_time_is_a_samples_error(tmp_path, capsys,
                                                       monkeypatch, t_min, t_max):
    # five samples between neighbouring doubles repeat a time: the walk
    # names the field before any seed is built
    def build_seed(self):
        raise AssertionError("the seed was built")
    monkeypatch.setattr(scenario_cli.Scenario, "build_seed", build_seed)
    cfg = json.loads(json.dumps(DELTA))
    cfg["times"] = {"t_min": t_min, "t_max": t_max, "samples": 5}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("times.samples: ")
    assert not (tmp_path / "out").exists()


def test_a_sweep_point_that_repeats_a_time_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "t_max"
    assert sweep(_write(tmp_path, REFERENCE), "t_max",
                 [np.nextafter(-2.0, 0.0), 3.0], str(out)) == 1
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["config_error", "ok"]
    assert "t_max=-2: times.samples: " in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "/sub"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_naming_an_existing_file_exits_two(tmp_path, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    extra = ["--param", "mu", "--values", "1j,2j"] if command == "sweep" else []
    code = main([command, _write(tmp_path, REFERENCE), *extra,
                 "--out", f"{taken}{below}"])
    assert code == 2
    assert capsys.readouterr().err == f"--out: {taken} exists and is not a directory\n"
    assert taken.read_text() == "keep me\n"


def test_unknown_field_is_schema_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["darboux"]["mu_typo"] = [1.0, 0.0]
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "darboux.mu_typo" in capsys.readouterr().err


def test_sweep_over_t_max(tmp_path):
    out = tmp_path / "sweep_t"
    assert sweep(_write(tmp_path, REFERENCE), "t_max", [1.0, 3.0], str(out)) == 0
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 3


@pytest.mark.parametrize("gates, code, err", [
    ({"spectral_match": 1e-30}, 1, "checks failed: spectrum\n"),
    ({"spectral_match": 1e-3, "time_equation": 1e-2}, 0, ""),
], ids=["tightened", "loosened"])
def test_a_tolerance_override_replays_to_the_same_verdict(tmp_path, capsys,
                                                          gates, code, err):
    # a config's gates are its only gates: the lock embeds them, so its
    # replay gives the run's exit code, stderr and three files
    config = _write(tmp_path, {**DELTA, "tolerances": gates})
    assert main(["run", config, "--out", str(tmp_path / "run")]) == code
    assert capsys.readouterr().err == err
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    tolerance = {c["name"]: c["tolerance"] for c in report["checks"]}
    assert tolerance["spectrum"] == gates["spectral_match"]
    # a sweep point's lock replays the same way
    assert main(["sweep", config, "--param", "t_max", "--values", "1",
                 "--out", str(tmp_path / "sweep")]) == code
    assert capsys.readouterr().err == ""
    (point,) = (tmp_path / "sweep").glob("t_max_*")
    for name, ran in (("replay", tmp_path / "run"), ("point-replay", point)):
        lock = str(ran / "scenario.lock.json")
        assert main(["run", lock, "--out", str(tmp_path / name)]) == code
        assert capsys.readouterr().err == err
        for filename in ("trajectory.csv", "report.json", "scenario.lock.json"):
            assert (tmp_path / name / filename).read_bytes() == \
                (ran / filename).read_bytes(), (name, filename)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_no_option_scales_the_tolerances(tmp_path, capsys, command):
    extra = ["--param", "t_max", "--values", "1"] if command == "sweep" else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([command, _write(tmp_path, DELTA), *extra, "--out", str(out),
              "--tol-scale", "1e30"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tol-scale 1e30" in capsys.readouterr().err
    assert not out.exists()
    if command == "run":
        # seed_dump is keyword-only: an old positional scale is refused
        with pytest.raises(TypeError):
            run(_write(tmp_path, DELTA), str(out), 1e30)
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_empty_out_exits_two_before_any_work(tmp_path, capsys, monkeypatch,
                                                command):
    # refused before the work: os.makedirs("") fails only once the outputs
    # are written, and a sweep's points would land in the working directory
    def execute(scenario):
        raise AssertionError("a scenario ran")
    monkeypatch.setattr(scenario_cli, "execute", execute)
    monkeypatch.chdir(tmp_path)
    config = _write(tmp_path, REFERENCE)
    extra = ["--param", "mu", "--values", "1j,2j"] if command == "sweep" else []
    assert main([command, config, *extra, "--out", ""]) == 2
    assert capsys.readouterr().err == "--out: must be a non-empty path\n"
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


# ---------------------------------------------------------------------------
# large |t| and numerical failures

SHIPPED_DELTA = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                             "delta_density.json")


def _shipped_delta(t_max, with_lambda=True):
    with open(SHIPPED_DELTA) as handle:
        cfg = json.load(handle)
    cfg["times"]["t_max"] = t_max
    if not with_lambda:
        del cfg["darboux"]["lambda"]
    return cfg


@pytest.mark.parametrize("with_lambda", [True, False])
@pytest.mark.parametrize("t_max", [400.0, 2000.0])
def test_large_t_max_passes(tmp_path, capsys, t_max, with_lambda):
    # phi(t) and psi(t) grow or decay like exp(|t|); the projector must not
    cfg = _shipped_delta(t_max, with_lambda)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == ""


LARGE_T = os.path.join(CONFIGS, "large_t_two_block.json")


@pytest.mark.parametrize("nu_mode", ["explicit", "conjugate"])
def test_a_two_block_seed_runs_at_large_t(tmp_path, capsys, nu_mode):
    # at these times the rows' zero coefficients would meet phases beyond
    # exp(+1e3): 0 * inf is NaN, which once ended the run in a config error.
    # Only the nonzero coefficients are scaled, so both modes pass
    with open(LARGE_T) as handle:
        cfg = json.load(handle)
    if nu_mode == "conjugate":
        cfg["darboux"]["nu_mode"] = "conjugate"
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(_write(tmp_path, cfg), str(out)) == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(out)) == ["report.json", "scenario.lock.json",
                                       "trajectory.csv"]


def _anticommuting(b, alpha):
    return {"id": f"anticommuting-{len(b)}", "model": {"n": 2},
            "seed": {"family": "anticommuting", "dim_pairs": len(b), "b": b,
                     "alpha": alpha},
            "darboux": {"mu": [0.0, 1.0], "nu_mode": "conjugate"},
            "times": {"t_min": -2.0, "t_max": 2.0, "samples": 9}}


@pytest.mark.parametrize("pairs, code, first_line", [
    (17, 2, "config error: dimension 34 exceeds the configured cap 32"),
    (16, 0, None)])
def test_the_dimension_cap_holds_at_32(tmp_path, capsys, pairs, code, first_line):
    cfg = _anticommuting([0.5 + 0.01 * k for k in range(pairs)], [1.0] * pairs)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert (err.splitlines() or [None])[0] == first_line


def test_the_reference_passes_on_a_large_time_range(tmp_path, capsys):
    with open(os.path.join(CONFIGS, "sigma_x_reference.json")) as handle:
        cfg = json.load(handle)
    cfg["times"] = {"t_min": -1e4, "t_max": 1e4, "samples": 41}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == ""


def test_two_equal_pairs_dress_a_degenerate_pencil(tmp_path, capsys):
    # z_nu is a fourfold root; the run picks one vector of its eigenspace
    # and passes (rank-one dressing of a degenerate pencil, as it stands)
    cfg = _anticommuting([1.0, 1.0], [1.0, 1.0])
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    assert capsys.readouterr().err == ""
    lock = json.loads((out / "scenario.lock.json").read_text())
    assert lock["resolved"]["z_nu_multiplicity"] == 4


def test_numerical_failure_exits_one_without_traceback(tmp_path, capsys):
    # F_a(t) itself overflows at t = 20000: a numerical failure, not a crash
    cfg = _shipped_delta(20000.0)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "overflow" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_f_value_overflow_over_2e4_keeps_its_message(tmp_path, capsys):
    # Defect B on delta_density over [-2e4, 2e4]: the closed form of F_a for
    # a diagonal Delta_a overflows and hands the exponent to mat_exp, which
    # names it
    cfg = _shipped_delta(20000.0)
    cfg["times"]["t_min"] = -20000.0
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "numerical failure: matrix exponential overflowed (||M||_F = 1.58e+03)\n")


def test_f_value_past_the_double_range_off_phi0_passes(tmp_path, capsys):
    # at t = 5000 the exponent of F_a is 626 on phi(0)'s block and 1040 on
    # the other, where phi(0) is zero: that entry once met inf * 0 = NaN and
    # the run exited 1 with a matrix exponential overflow
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(os.path.join(CONFIGS, "large_t_f_support.json"), str(out)) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["overall"] is True
    with open(out / "trajectory.csv", newline="") as handle:
        F_re = [float(row["F_re"]) for row in csv.DictReader(handle)]
    assert len(F_re) == 11 and 8.6e271 < F_re[0] < 8.7e271
    assert np.isfinite(F_re).all()


def test_sweep_numerical_failure_does_not_abort(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", _write(tmp_path, _shipped_delta(2.0)), "--param",
                 "t_max", "--values", "5,400,20000", "--out", str(out)])
    assert code == 1
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert [row.split(",")[3] for row in rows[1:]] == ["ok", "ok", "check_failed"]


# ---------------------------------------------------------------------------
# the config reader

def _mutated(base, path, value):
    cfg = json.loads(json.dumps(base))
    *parents, key = path
    target = cfg
    for part in parents:
        target = target.setdefault(part, {})
    target[key] = value
    return cfg


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("base,path,value,field", [
    (REFERENCE, ("darboux", "mu"), [NAN, 1.0], "darboux.mu"),
    (REFERENCE, ("darboux", "z_mu_pin"), [0.0, INF], "darboux.z_mu_pin"),
    (REFERENCE, ("darboux", "nu_mode"), {"explicit": [INF, 0.0]},
     "darboux.nu_mode.explicit"),
    (REFERENCE, ("times", "t_max"), INF, "times.t_max"),
    (REFERENCE, ("times", "t_min"), -INF, "times.t_min"),
    (REFERENCE, ("times", "t_max"), 10 ** 400, "times.t_max"),
    (REFERENCE, ("seed", "b"), [True], "seed.b"),
    (REFERENCE, ("seed", "alpha"), [True], "seed.alpha"),
    (REFERENCE, ("seed", "b"), [NAN], "seed.b"),
    (REFERENCE, ("model", "A"), [[[INF, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
     "model.A[0][0]"),
    (REFERENCE, ("symmetries", "shift_lambda"), NAN, "symmetries.shift_lambda"),
    (REFERENCE, ("symmetries", "rescale_y"), INF, "symmetries.rescale_y"),
    (REFERENCE, ("tolerances", "form_gap"), NAN, "tolerances.form_gap"),
    (REFERENCE, ("tolerances", "idempotency"), True, "tolerances.idempotency"),
    (DELTA, ("seed", "a"), INF, "seed.a"),
    (DELTA, ("seed", "blocks"), [[1.0, NAN]], "seed.blocks"),
    (DELTA, ("seed", "blocks"), [[True, 0.2]], "seed.blocks"),
    (DELTA, ("darboux", "lambda"), [0.0, NAN], "darboux.lambda"),
    ({**REFERENCE, "seed": {"family": "commuting", "p": [0.5, 0.5],
                            "alpha": [1.0, -1.0]}},
     ("seed", "p"), [0.5, INF], "seed.p"),
], ids=["mu-nan", "pin-inf", "nu-inf", "t_max-inf", "t_min-inf", "t_max-huge",
        "b-bool", "alpha-bool", "b-nan", "A-inf", "shift-nan", "rescale-inf",
        "tolerance-nan", "tolerance-bool", "a-inf", "kappa-nan", "omega-bool",
        "lambda-nan", "p-inf"])
def test_numbers_must_be_real_and_finite(tmp_path, capsys, base, path, value,
                                          field):
    path = _write(tmp_path, _mutated(base, path, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy work may start
        assert run(path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"{field}: " in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_output_files_follow_the_umask(tmp_path, umask):
    # "twice" is written first under another umask, then again into the
    # same --out: the rewritten files take the later umask
    old = os.umask(0)
    try:
        assert run(_write(tmp_path, REFERENCE), str(tmp_path / "twice")) == 0
        os.umask(umask)
        assert run(_write(tmp_path, REFERENCE), str(tmp_path / "out")) == 0
        assert run(_write(tmp_path, REFERENCE), str(tmp_path / "twice")) == 0
        assert sweep(_write(tmp_path, REFERENCE), "mu", [1j],
                     str(tmp_path / "sweep")) == 0
    finally:
        os.umask(old)
    written = [tmp_path / out / name for out in ("out", "twice") for name in
               ("trajectory.csv", "report.json", "scenario.lock.json")]
    written.append(tmp_path / "sweep" / "summary.csv")
    for path in written:
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert not [p for p in tmp_path.rglob(".tmp-*")]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_starts_at_most_one_worker_per_point(tmp_path, monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    config = _write(tmp_path, REFERENCE)
    assert sweep(config, "mu", [1j, 2j, 1 + 1j], str(tmp_path / "a"), jobs=64) == 0
    assert _RecordingPool.sizes == [3]
    # a config error leaves one valid point: no pool at all
    assert sweep(config, "mu", [1j, 1.0 + 0j], str(tmp_path / "b"), jobs=64) == 1
    assert sweep(config, "mu", [1j, 2j], str(tmp_path / "c"), jobs=2) == 0
    assert _RecordingPool.sizes == [3, 2]


def test_importing_the_cli_loads_no_process_pool():
    # sweep imports the pool when it starts one; run never needs it
    src = os.path.dirname(os.path.dirname(scenario_cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, vndarboux.scenario_cli; print(sorted("
            "{'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique and np.isin import numpy.ma, about 21 ms of a cold start;
    # nothing a run calls may use them
    src = os.path.dirname(os.path.dirname(scenario_cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from vndarboux.scenario_cli import main; "
            f"code = main(['run', {SHIPPED_DELTA!r}, '--out', {str(tmp_path)!r}]); "
            "print('numpy.ma' in sys.modules); sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    assert (tmp_path / "trajectory.csv").exists()


def test_shift_x_after_dressing(tmp_path):
    # block-scalar X commutes with H = diag(1, 2, 3, 4) and the block seed
    with open(SHIPPED_DELTA) as handle:
        plain = json.load(handle)
    X = np.diag([0.3, 0.3, -0.7, -0.7])
    shifted = dict(plain, symmetries={"shift_x": [
        [[X[i, j], 0.0] for j in range(4)] for i in range(4)]})
    assert run(_write(tmp_path, plain, "plain.json"), str(tmp_path / "p")) == 0
    assert run(_write(tmp_path, shifted, "x.json"), str(tmp_path / "x")) == 0
    times, base = read_trajectory_csv(str(tmp_path / "p" / "trajectory.csv"))
    _, states = read_trajectory_csv(str(tmp_path / "x" / "trajectory.csv"))
    # rho_X(0) = rho[1](0) + X; the trace moves by Tr X at every time
    zero = int(np.argmin(np.abs(times)))
    assert times[zero] == 0.0
    npt.assert_allclose(states[zero], base[zero] + X, atol=1e-13)
    for state, ref in zip(states, base):
        assert abs(np.trace(state) - np.trace(ref) - np.trace(X)) <= 1e-12
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert report["overall"] is True
    assert report["notes"]["symmetry_order"] == "after"
    lock = json.loads((tmp_path / "x" / "scenario.lock.json").read_text())
    assert lock["config"]["symmetries"] == {"order": "after",
                                            **shifted["symmetries"]}


@pytest.mark.parametrize("X, first_line", [
    (np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]),
     "config error: shift operator must commute with A"),
    (np.diag([0.3, -0.7, 0.3, -0.7]),
     "config error: shift operator must commute with rho(0)")],
    ids=["sigma-x-blocks", "diagonal"])
def test_a_shift_breaking_an_invariant_is_config_error(tmp_path, capsys, X,
                                                       first_line):
    # sigma_x in each block does not commute with the diagonal A; the
    # diagonal X does, but mixes the seed's blocks
    with open(SHIPPED_DELTA) as handle:
        cfg = json.load(handle)
    cfg["symmetries"] = {"shift_x": [[[X[i, j], 0.0] for j in range(4)]
                                     for i in range(4)]}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 2
    assert capsys.readouterr().err.splitlines()[0] == first_line
    assert not out.exists()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_shift_of_a_singular_dressing_writes_the_truncated_outputs(
        tmp_path, capsys, n):
    # <chi|phi> = 0 exactly for this pair, at every t: no sample is dressed.
    # The shift checks [X, rho] on the first state it maps, so it leaves
    # the run as it is without the shift: exit 3 and the truncated outputs
    plain = {
        "id": "singular", "model": {"n": n},
        "seed": {"family": "anticommuting", "dim_pairs": 3,
                 "b": [0.5, -0.7, 0.9], "alpha": [1.0, -1.3, 0.8]},
        "darboux": {"mu": [0.2, 0.9], "nu_mode": {"explicit": [0.5, -1.1]}},
        "times": {"t_min": -1.0, "t_max": 1.0, "samples": 5},
        "symmetries": {"order": "after", "rescale_y": -0.5},
    }
    shifted = json.loads(json.dumps(plain))
    shifted["symmetries"]["shift_lambda"] = 1.0
    for name, cfg in (("plain", plain), ("shifted", shifted)):
        out = tmp_path / name
        assert run(_write(tmp_path, cfg, f"{name}.json"), str(out)) == 3
        assert (capsys.readouterr().err.splitlines()[0]
                == "singular dressing at t = -1; trajectory truncated")
        report = json.loads((out / "report.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["singularity"]
    assert ((tmp_path / "plain" / "trajectory.csv").read_bytes()
            == (tmp_path / "shifted" / "trajectory.csv").read_bytes())


def test_z_mu_pin_selects_the_other_root(tmp_path):
    # pencil sx - 2i diag(1, -1) has roots +-i sqrt 3; the rule picks +i sqrt 3
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["darboux"]["mu"] = [0.0, 2.0]
    assert run(_write(tmp_path, cfg, "default.json"), str(tmp_path / "d")) == 0
    cfg["darboux"]["z_mu_pin"] = [0.0, -1.7]
    assert run(_write(tmp_path, cfg, "pinned.json"), str(tmp_path / "p")) == 0
    default = json.loads((tmp_path / "d" / "scenario.lock.json").read_text())
    pinned = json.loads((tmp_path / "p" / "scenario.lock.json").read_text())
    assert complex(*default["resolved"]["z_mu"]) == pytest.approx(1j * np.sqrt(3))
    assert complex(*pinned["resolved"]["z_mu"]) == pytest.approx(-1j * np.sqrt(3))
    assert pinned["resolved"]["z_nu"] == pytest.approx([0.0, np.sqrt(3)])
    assert pinned["config"]["darboux"]["z_mu_pin"] == [0.0, -1.7]


@pytest.mark.parametrize("pin,darboux", [
    ("z_mu_pin", {"mu": [0.0, 2.0]}),
    ("z_nu_pin", {"mu": [0.0, 2.0], "nu_mode": {"explicit": [0.5, -1.0]}}),
    ("z_lambda_pin", {"mu": [0.0, 2.0], "lambda": [0.0, 3.0]}),
])
def test_pin_far_from_every_root_is_config_error(tmp_path, capsys, pin, darboux):
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["darboux"].update(darboux)
    cfg["darboux"][pin] = [100.0, 0.0]
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: darboux.{pin}: (100+0j) lies ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_pin_within_half_the_root_gap_is_kept(tmp_path):
    # roots +-i sqrt 3 are 2 sqrt 3 apart: a pin within sqrt 3 of one selects it
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["darboux"]["mu"] = [0.0, 2.0]
    for pin, code in (([1.7, 1.7], 0), ([0.0, -0.05], 0), ([1.8, 1.8], 2)):
        cfg["darboux"]["z_mu_pin"] = pin
        assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == code


def _defective(*args, **kwargs):
    raise DefectiveEigenproblem("no null direction found for eigenvalue z = 1j")


def test_defective_eigenproblem_has_its_own_message(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lax_engine, "eig_pair_general", _defective)
    assert run(_write(tmp_path, REFERENCE), str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "defective eigenproblem: no null direction found for eigenvalue z = 1j\n")
    assert sweep(_write(tmp_path, REFERENCE), "mu", [1j, 2j],
                 str(tmp_path / "sweep")) == 1
    rows = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert [row.split(",")[3] for row in rows[1:]] == ["check_failed"] * 2
    assert capsys.readouterr().err.splitlines() == [
        f"mu={v}: defective eigenproblem: no null direction found for "
        "eigenvalue z = 1j" for v in ("0+1j", "0+2j")]
