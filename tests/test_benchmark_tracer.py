"""The benchmark's tracer and library entry points work on the library as
it is.

``benchmarks/tracing.py`` wraps library functions and methods by name.  A
renamed or deleted name fails here, naming it, instead of only in a traced
benchmark run.  ``benchmarks/setup_probe.py`` and the traced run's replay of
``run_suite`` call the library directly; a changed signature fails here too.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys

import pytest

from vndarboux import darboux_engine, lax_engine, operator_core, verification

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACING = os.path.join(ROOT, "benchmarks", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # every traced name is read here
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _tracing()
    originals = (darboux_engine.dressed_trajectory, operator_core.mat_exp,
                 vars(lax_engine.LaxSolution)["phi_at"])
    tracer = tracing.Tracer()
    tracer.install()  # a traced method that is gone raises KeyError(name)
    try:
        assert darboux_engine.dressed_trajectory is not originals[0]
        assert operator_core.mat_exp is not originals[1]
        assert vars(lax_engine.LaxSolution)["phi_at"] is not originals[2]
    finally:
        tracer.uninstall()
    assert (darboux_engine.dressed_trajectory, operator_core.mat_exp,
            vars(lax_engine.LaxSolution)["phi_at"]) == originals


def test_setup_probe_prints_its_timings():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "setup_probe.py"),
         os.path.join(ROOT, "configs", "delta_density.json")],
        capture_output=True, text=True, timeout=120, check=True)
    timings = json.loads(proc.stdout.splitlines()[-1])
    assert set(timings) == {"import_s", "setup_s"}
    assert 0 < timings["import_s"] <= timings["setup_s"]


@pytest.mark.parametrize("workload", ["delta-covariance", "anticommuting-shift"])
def test_a_traced_run_replays_each_check(bench, tmp_path, workload):
    # the traced run captures run_suite's arguments and replays each check
    # alone from them; every replayed entry is the written report's
    cfg = bench.SCENARIO_WORKLOADS[workload](random.Random(3), 0)
    with bench.Tracer() as tracer:
        code, _, out = bench.run_scenario(cfg, tmp_path)
    assert code == 0
    args, kwargs = tracer.captured["verification.run_suite"]
    written = json.loads((out / "report.json").read_text())
    assert verification.run_suite(*args, **kwargs).to_dict() == written
    replayed = []
    for check in bench.CHECKS:
        enabled = {name: name == check for name in bench.CHECKS}
        report = verification.run_suite(*args, **{**kwargs, "enabled": enabled})
        replayed += report.to_dict()["checks"]
    assert sorted(map(json.dumps, replayed)) == sorted(map(json.dumps, written["checks"]))
