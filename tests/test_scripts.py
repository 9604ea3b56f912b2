"""The runnable experiments under ``scripts/`` run end to end."""

import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _main(name):
    return runpy.run_path(os.path.join(SCRIPTS, name))["main"]


def test_run_reference_passes_both_scenarios(capsys):
    _main("run_reference.py")()
    out = capsys.readouterr().out
    assert "scenario: sigma-x-reference   overall: True" in out
    assert "scenario: delta-density   overall: True" in out
    assert "FAIL" not in out


def test_mu_sweep_writes_one_row_per_mu(tmp_path):
    path = tmp_path / "mu_sweep.csv"
    _main("mu_sweep.py")(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "im_mu,min_abs_F,max_p_dot,max_phi_norm"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10
    assert all(len(row) == 4 and float(row[1]) > 0 for row in rows)
    assert [float(row[0]) for row in rows] == pytest.approx(
        [0.2 + 0.2 * k for k in range(10)])
