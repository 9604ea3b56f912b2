"""Memory: the CLI's allocator policy and the footprint of a blocked stack.

``scenario_cli._keep_freed_memory`` asks glibc, once per process, to keep
freed buffers; it must change no output byte.  ``time_blocks`` sizes every
stack by the bytes a point is budgeted; each budget is a traced peak, and
these tests trace the blocked operations at the block size they get.
"""

import json
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import vndarboux
from test_support import D12_BLOCKS, _rotated_delta_seed
from vndarboux import (build_lax, dressed_trajectory, operator_core, output_files,
                       scenario_cli)
from vndarboux.darboux_engine import DressedFlow
from vndarboux.verification import _covariance_gaps, _per_sample, _spectra
from vndarboux.vne_model import residuals

SRC = os.path.dirname(os.path.dirname(vndarboux.__file__))
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class _Libc:
    # a stand-in for the C library: glibc's version probe and mallopt
    def __init__(self, glibc=True, mallopt=True):
        self.calls = []
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"
        if mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


def _attempt_once():
    cfg, errors = scenario_cli._load_config(os.path.join(CONFIGS, "sigma_x_reference.json"))
    assert not errors
    result, status, message = scenario_cli._attempt(scenario_cli.read_scenario(cfg))
    assert (status, message) == ("ok", None)


def test_allocator_policy_is_applied_once_per_process(monkeypatch, tmp_path):
    libc = _Libc()
    opened = []
    monkeypatch.setattr(scenario_cli, "_freed_memory_kept", False)
    monkeypatch.setattr(output_files, "_glibc", ...)
    monkeypatch.setattr(scenario_cli.ctypes, "CDLL",
                        lambda name: opened.append(name) or libc)
    _attempt_once()
    _attempt_once()
    # the writer looks renameat2 up in the same library, opened once; this
    # one has none, so the rewrite falls back to os.replace
    for text in ("old", "new"):
        output_files.atomic_write(str(tmp_path / "file"), [text])
    assert (tmp_path / "file").read_text() == "new"
    assert opened == [None]
    # the mmap threshold and the trim threshold, both set
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("libc", [
    OSError("no C library"), AttributeError("no dlopen"),
    _Libc(mallopt=False), _Libc(glibc=False),  # the last is not glibc
], ids=["oserror", "attributeerror", "no-mallopt", "not-glibc"])
def test_allocator_policy_without_mallopt_is_a_silent_no_op(monkeypatch, libc):
    def open_library(name):
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(scenario_cli, "_freed_memory_kept", False)
    monkeypatch.setattr(output_files, "_glibc", ...)
    monkeypatch.setattr(scenario_cli.ctypes, "CDLL", open_library)
    _attempt_once()
    assert isinstance(libc, Exception) or libc.calls == []
    assert scenario_cli._freed_memory_kept


RUN = """
import sys
from vndarboux import scenario_cli
if {without_policy}:
    scenario_cli._keep_freed_memory = lambda: None
sys.exit(scenario_cli.main(["run", {config!r}, "--out", {out!r}]))
"""


@pytest.mark.parametrize("workload", ["delta-covariance", "anticommuting-shift"])
def test_allocator_policy_changes_no_output_byte(bench, tmp_path, workload):
    cfg = bench.SCENARIO_WORKLOADS[workload](random.Random(14), 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for without_policy in (False, True):
        out = tmp_path / f"out-{without_policy}"
        done = subprocess.run(
            [sys.executable, "-c", RUN.format(without_policy=without_policy,
                                              config=str(config), out=str(out))],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append({name: (out / name).read_bytes() for name in
                        ("trajectory.csv", "report.json", "scenario.lock.json")})
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# footprints: the traced peak of one full block, per point, against the
# bytes time_blocks budgets for a point

@pytest.fixture(scope="module")
def cases(bench):
    # name -> (Lax solution, flow) at d = 12
    built = {}
    for workload, draw in bench.SCENARIO_WORKLOADS.items():
        cfg, errors = scenario_cli.validate_config(draw(random.Random(14), 0))
        assert not errors
        trajectory = scenario_cli.execute_scenario(cfg).trajectory
        built[workload] = (trajectory.rho_at.root.lax, trajectory.rho_at)
    seed = _rotated_delta_seed(D12_BLOCKS, a=0.9)
    for mode, nu in (("hermitian", None), ("general", 0.5 - 1.1j)):
        lax = build_lax(seed, 0.3 + 0.8j, nu, lam=0.2 + 2.0j)
        built[f"rotated-{mode}"] = (lax, DressedFlow(lax))
    return built


def _block(dim, support=None):
    # the times of one full block
    points = operator_core.time_blocks(1 << 20, dim, support)[0].stop
    return np.linspace(-5.0, 5.0, points)


def _evaluate(lax, flow):
    t = _block(lax.seed.dim, flow.support_size)
    return t, flow.support_size, lambda: flow.root.evaluate(flow.source_times(t))


def _stack(lax, flow):
    t = _block(lax.seed.dim, flow.support_size)
    return t, flow.support_size, lambda: flow.stack(t)


def _residual(lax, flow):
    t = _block(lax.seed.dim, flow.support_size)
    traj = dressed_trajectory(flow, t)
    return t, flow.support_size, lambda: residuals(
        flow, traj.times, states=traj.states)


def _covariance(lax, flow):
    t = _block(lax.seed.dim, flow.support_size)
    traj = dressed_trajectory(flow, t)
    return t, flow.support_size, lambda: _covariance_gaps(traj)


def _spectrum(lax, flow):
    t = _block(lax.seed.dim)
    states = flow.stack(t)
    return t, None, lambda: _per_sample(states, lax.seed.dim, _spectra)


OPERATIONS = {"evaluate": _evaluate, "shift-rescale-stack": _stack,
              "residual": _residual, "covariance": _covariance,
              "spectrum": _spectrum}
TRACED = [
    *(("delta-covariance", op) for op in ("evaluate", "residual", "covariance", "spectrum")),
    *(("anticommuting-shift", op) for op in ("evaluate", "shift-rescale-stack",
                                             "residual", "spectrum")),
    *((f"rotated-{mode}", op) for mode in ("hermitian", "general")
      for op in ("evaluate", "residual", "covariance", "spectrum")),
]


def _traced_peak(fn) -> int:
    # bytes allocated at the peak of fn(), its result included
    fn()  # first calls cache what later calls reuse
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case, operation", TRACED, ids=[f"{c}-{o}" for c, o in TRACED])
def test_traced_peak_stays_within_the_block_budget(cases, case, operation):
    lax, flow = cases[case]
    times, support, run = OPERATIONS[operation](lax, flow)
    assert len(times) > 1
    peak = _traced_peak(run)
    assert peak / len(times) <= operator_core._point_bytes(lax.seed.dim, support)


# ---------------------------------------------------------------------------
# the retained footprint of a trajectory: whole matrices per sample that
# dressed_trajectory's outputs keep

def _traced_kept(fn) -> int:
    # bytes that fn()'s result still holds once fn has returned
    fn()  # first calls cache what later calls reuse
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept = tracemalloc.get_traced_memory()[0] - base
        del result
        return kept
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workload, whole_stacks", [("delta-covariance", 1),
                                                     ("anticommuting-shift", 2)])
def test_trajectory_keeps_no_whole_projector_grid(bench, workload, whole_stacks):
    # the states, and under a flow the dressed states beside them, are the
    # only (N, d, d) stacks kept: the projectors are their J x J blocks.
    # With a whole-matrix projector grid the outputs kept 2.07 and 3.06
    # whole matrices per sample on these scenarios
    draw = bench.SCENARIO_WORKLOADS[workload]
    cfg, errors = scenario_cli.validate_config(draw(random.Random(14), 0))
    assert not errors
    traj = scenario_cli.execute_scenario(cfg).trajectory
    flow = traj.rho_at
    count, dim = len(traj.times), traj.rho_at.root.seed.dim
    assert (count, dim) == (201, 12)
    kept = _traced_kept(lambda: dressed_trajectory(flow, traj.times))
    assert kept / (count * dim * dim * 16) <= whole_stacks + 0.15
    diags = dressed_trajectory(flow, traj.times).diagnostics
    support = len(flow.root.support)
    assert support == 2 and diags.P.shape == (count, support, support)



def test_reading_a_trajectory_holds_little_beside_its_arrays(bench, tmp_path):
    # read_trajectory_csv fills its arrays a row at a time: a list of the
    # file's rows of cells peaked at 3.4 times the arrays on this file
    cfg, errors = scenario_cli.validate_config(
        bench.SCENARIO_WORKLOADS["delta-covariance"](random.Random(14), 0))
    assert not errors
    result = scenario_cli.execute_scenario(cfg)
    scenario_cli.write_outputs(result, str(tmp_path))
    path = str(tmp_path / "trajectory.csv")
    tracemalloc.start()
    try:
        times, states = scenario_cli.read_trajectory_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.tobytes() == result.trajectory.times.tobytes()
    assert states.tobytes() == result.trajectory.states.tobytes()
    assert states.shape == (201, 12, 12)
    assert peak <= 1.25 * (times.nbytes + states.nbytes)
