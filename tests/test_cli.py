import json
import os
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from vndarboux import (DefectiveEigenproblem, Tolerances, lax_engine,
                       scenario_cli)
from vndarboux.scenario_cli import (main, read_trajectory_csv, run, sweep,
                                    validate_config)

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


@pytest.mark.parametrize("name", ["delta_density", "shifted_sigma_x",
                                  "sigma_x_reference"])
def test_lock_replay_is_bitwise(tmp_path, name):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(os.path.join(CONFIGS, f"{name}.json"), str(out1)) == 0
    assert run(str(out1 / "scenario.lock.json"), str(out2)) == 0
    for filename in ("trajectory.csv", "scenario.lock.json"):
        assert (out1 / filename).read_bytes() == (out2 / filename).read_bytes()


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


def test_symmetry_before_delta_reseeds(tmp_path):
    cfg = json.loads(json.dumps(DELTA))
    cfg["symmetries"] = {"order": "before", "shift_lambda": 0.4}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    lock = json.loads((out / "scenario.lock.json").read_text())
    rho00 = lock["resolved"]["rho0"][0][0][0]
    assert rho00 == pytest.approx(0.5 / 2 + 0.4)  # a/2 + Lambda on the diagonal


def test_symmetry_before_anticommuting_rejected(tmp_path, capsys):
    cfg = json.loads(json.dumps(REFERENCE))
    cfg["symmetries"] = {"order": "before", "shift_lambda": 1.0}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "anticommuting" in capsys.readouterr().err


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


def test_main_bad_values_token(tmp_path, capsys):
    code = main(["sweep", _write(tmp_path, REFERENCE), "--param", "mu",
                 "--values", "zzz", "--out", str(tmp_path / "o")])
    assert code == 2


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


def test_tol_scale_flag(tmp_path):
    # an absurdly tight global scale fails finite-difference-noise checks
    assert run(_write(tmp_path, REFERENCE), str(tmp_path / "out"),
               tol_scale=1e-30) == 1
    # and an absurdly loose one passes even with an impossible override
    cfg = json.loads(json.dumps(DELTA))
    cfg["tolerances"] = {"time_equation": 1e-30}
    assert run(_write(tmp_path, cfg, "loose.json"), str(tmp_path / "out2"),
               tol_scale=1e30) == 0


@pytest.mark.parametrize("scale", ["inf", "1e400", "nan", "0", "-1"])
def test_tol_scale_must_be_finite_and_positive(tmp_path, capsys, scale):
    # an infinite scale would certify anything, a NaN one nothing
    config = _write(tmp_path, DELTA)
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--tol-scale", scale]) == 2
    assert capsys.readouterr().err == (
        "config error: tolerance scale must be a finite positive number\n")
    assert not out.exists()
    sweep_out = tmp_path / "sweep"
    assert main(["sweep", config, "--param", "t_max", "--values", "1,2",
                 "--out", str(sweep_out), "--tol-scale", scale]) == 1
    rows = (sweep_out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["config_error"] * 2


def test_tolerances_reject_an_infinite_scale():
    with pytest.raises(ValueError, match="finite positive"):
        Tolerances().scaled(float("inf"))


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


def test_numerical_failure_exits_one_without_traceback(tmp_path, capsys):
    # F_a(t) itself overflows at t = 20000: a numerical failure, not a crash
    cfg = _shipped_delta(20000.0)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "overflow" in err
    assert err.count("\n") == 1 and "Traceback" not in err


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
    old = os.umask(umask)
    try:
        assert run(_write(tmp_path, REFERENCE), str(tmp_path / "out")) == 0
        assert sweep(_write(tmp_path, REFERENCE), "mu", [1j],
                     str(tmp_path / "sweep")) == 0
    finally:
        os.umask(old)
    written = [tmp_path / "out" / name for name in
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
    monkeypatch.setattr(scenario_cli, "ProcessPoolExecutor", _RecordingPool)
    config = _write(tmp_path, REFERENCE)
    assert sweep(config, "mu", [1j, 2j, 1 + 1j], str(tmp_path / "a"), jobs=64) == 0
    assert _RecordingPool.sizes == [3]
    # a config error leaves one valid point: no pool at all
    assert sweep(config, "mu", [1j, 1.0 + 0j], str(tmp_path / "b"), jobs=64) == 1
    assert sweep(config, "mu", [1j, 2j], str(tmp_path / "c"), jobs=2) == 0
    assert _RecordingPool.sizes == [3, 2]


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
