"""The library and the CLI run with scipy unimportable, to the same bytes."""

import os
import subprocess
import sys

import vndarboux
from vndarboux.scenario_cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC = os.path.dirname(os.path.dirname(vndarboux.__file__))


def _commands(out):
    return [["run", os.path.join(CONFIGS, "delta_density.json"),
             "--out", os.path.join(out, "run")],
            ["sweep", os.path.join(CONFIGS, "sigma_x_reference.json"),
             "--param", "mu", "--values", "1j,2j,1+1j", "--jobs", "2",
             "--out", os.path.join(out, "sweep")]]


# sys.modules["scipy"] = None makes every import of scipy raise ImportError;
# the forked sweep workers inherit it
BLOCKED = """
import sys
sys.modules["scipy"] = None
from vndarboux.scenario_cli import main
sys.exit(max(main(command) for command in {commands!r}))
"""


def _files(root):
    return {path.relative_to(root): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_run_and_parallel_sweep_need_no_scipy(tmp_path, monkeypatch):
    # relative --out paths keep summary.csv's out_dir column comparable
    (tmp_path / "blocked").mkdir()
    (tmp_path / "normal").mkdir()
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED.format(commands=_commands("out"))],
        cwd=tmp_path / "blocked", env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""

    monkeypatch.chdir(tmp_path / "normal")
    assert [main(command) for command in _commands("out")] == [0, 0]
    blocked = _files(tmp_path / "blocked" / "out")
    assert len(blocked) == 3 + 1 + 3 * 3
    assert blocked == _files(tmp_path / "normal" / "out")
