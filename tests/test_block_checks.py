"""The samples' states, gaps and spectra read from their blocks.

``dressed_trajectory`` dresses each sample on its flow's partition and maps
it there; the whole ``(N, d, d)`` states are assembled once from the
blocks.  The Hermiticity gaps and spectra of the diagnostics, and the
report's ``hermiticity``, ``spectrum`` and ``positivity`` entries, must be
bit for bit what ``hermiticity_gaps`` and ``hermitian_spectra`` give the
whole states, and the assembled states what the flow evaluates whole.
"""

import copy
import glob
import json
import os
import random

import numpy as np
import pytest

from vndarboux import (DressedFlow, RescaledFlow, ShiftedFlow, build_lax,
                       dressed_trajectory, make_anticommuting_seed,
                       make_delta_commuting_seed)
from vndarboux.lax_engine import LaxSolution
from vndarboux.operator_core import hermitian_spectra, hermiticity_gaps
from vndarboux.scenario_cli import execute_scenario, validate_config
from vndarboux.verification import _judged
from vndarboux.vne_model import default_step

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _shipped():
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.json"))):
        with open(path) as handle:
            yield json.load(handle)


def _general(rng, index):
    # a delta_density draw in general mode: random a, blocks, mu and nu
    with open(os.path.join(CONFIGS, "delta_density.json")) as handle:
        cfg = json.load(handle)
    a = rng.uniform(0.3, 1.2)
    cfg["id"] = f"general-{index}"
    cfg["seed"] = {"family": "delta_commuting", "a": a,
                   "blocks": [[rng.uniform(-2, 2), rng.choice([-1, 1]) * a * rng.uniform(0.1, 0.45)]
                              for _ in range(rng.randint(1, 3))]}
    cfg["darboux"]["mu"] = [rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(0.4, 1.5)]
    cfg["darboux"]["nu_mode"] = {"explicit": [rng.uniform(-1, 1),
                                              rng.choice([-1, 1]) * rng.uniform(0.4, 1.5)]}
    return cfg


def _negative_rescalings():
    # Y = -0.5 in both orders, on a stationary and an evolving seed
    with open(os.path.join(CONFIGS, "reversed_anticommuting.json")) as handle:
        three = json.load(handle)
    with open(os.path.join(CONFIGS, "delta_density.json")) as handle:
        delta = json.load(handle)
    delta["times"] = {"t_min": -1.0, "t_max": 1.0, "samples": 11}
    for base in (three, delta):
        for order in ("before", "after"):
            cfg = copy.deepcopy(base)
            cfg["symmetries"] = {"order": order, "rescale_y": -0.5}
            if order == "after":
                cfg["symmetries"]["shift_lambda"] = 0.7
            yield cfg


def _scenarios(bench):
    yield from _shipped()
    for workload, draw in bench.SCENARIO_WORKLOADS.items():
        rng = random.Random(27)
        for index in range(20):
            yield draw(rng, index)
    rng = random.Random(11)
    for index in range(12):
        yield _general(rng, index)
    yield from _negative_rescalings()


def _trajectory(cfg):
    valid, errors = validate_config(cfg)
    assert not errors
    return execute_scenario(valid)


def _assert_read_from_the_whole_states(result):
    traj, report = result.trajectory, result.report
    diags, times = traj.diagnostics, traj.times
    lax = traj.rho_at.root.lax
    assert traj.states.tobytes() == traj.rho_at.stack(times).tobytes()
    assert (diags.hermiticity_gap.tobytes()
            == hermiticity_gaps(diags.rho1).tobytes())
    if not lax.params.hermitian_mode:
        assert diags.spectrum is None
        return
    assert diags.spectrum.tobytes() == hermitian_spectra(diags.rho1).tobytes()
    tolerances = lax.tolerances
    eigs = hermitian_spectra(traj.states)
    reference = hermitian_spectra(traj.reference)
    expected = {
        "hermiticity": _judged("hermiticity", hermiticity_gaps(traj.states),
                               tolerances.hermiticity_gap, times),
        "spectrum": _judged("spectrum", np.max(np.abs(eigs - reference), axis=-1),
                            tolerances.spectral_match, times),
        "positivity": _judged("positivity", -eigs[:, 0],
                              -tolerances.positivity_floor, times),
    }
    entries = {check.name: check for check in report.checks if check.name in expected}
    assert {"hermiticity", "spectrum"} <= set(entries)
    for name, check in entries.items():
        assert check == expected[name]


def test_gaps_and_spectra_are_those_of_the_whole_states(bench):
    count = 0
    for cfg in _scenarios(bench):
        _assert_read_from_the_whole_states(_trajectory(cfg))
        count += 1
    assert count == 8 + 40 + 12 + 4


def _assert_in_line(result, count):
    traj = result.trajectory
    diags = traj.diagnostics
    assert len(traj.times) == len(traj.states) == count
    assert all(value is None or len(value) == count for value in vars(diags).values())
    _assert_read_from_the_whole_states(result)


def test_a_cut_at_the_first_sample_keeps_the_stacks_in_line():
    # STENCIL_SINGULAR: a singular point of the first sample's residual
    # stencil cuts every stack to no sample
    result = _trajectory({
        "id": "stencil-singular", "model": {"n": 1},
        "seed": {"family": "delta_commuting", "a": 0.523, "blocks": [[-1.933, -0.098]]},
        "darboux": {"mu": [0.911, 0.723], "nu_mode": {"explicit": [0.91, 0.739]},
                    "z_nu_pin": [1.104, 0.695]},
        "times": {"t_min": -1.0, "t_max": 1.0, "samples": 11}})
    assert result.trajectory.singular_t == -1.0
    _assert_in_line(result, 0)


@pytest.mark.parametrize("y", [-2.0, 2.0])
def test_a_cut_inside_the_grid_keeps_the_stacks_in_line(monkeypatch, y):
    # chi vanishes at one point of sample 8's residual stencil, under a
    # shift and a rescaling: the states and every diagnostic keep samples
    # 0-7, and their gaps are still those of the whole states
    original = LaxSolution.chi_rows
    grid = np.linspace(-1.0, 1.0, 11)

    def chi_rows(self, times):
        rows, shift = original(self, times)
        h = default_step(self.seed.spec)
        offset = np.asarray(times) / y - grid[8]
        rows[(offset > 0.5 * h) & (offset < 1.25 * h)] = 0.0
        return rows, shift

    monkeypatch.setattr(LaxSolution, "chi_rows", chi_rows)
    with open(os.path.join(CONFIGS, "delta_density.json")) as handle:
        cfg = json.load(handle)
    cfg["times"] = {"t_min": -1.0, "t_max": 1.0, "samples": 11}
    cfg["symmetries"] = {"order": "after", "shift_lambda": 0.5, "rescale_y": y}
    cfg["darboux"]["nu_mode"] = {"explicit": [0.2, -0.5]}
    result = _trajectory(cfg)
    assert result.trajectory.singular_t == grid[8]
    _assert_in_line(result, 8)


def _grid():
    return np.linspace(-1.0, 1.0, 11)  # t = 0 among the samples


@pytest.mark.parametrize("lam", [0.7, -0.7])
def test_a_rescaling_before_a_shift_fills_what_the_maps_make_of_a_zero(lam):
    # Y < 0 turns the zeros off the blocks into -0.0, and a shift by
    # Lambda 1 then leaves +0.0 there but at t = 0, where its similarity
    # is the identity: the assembled states are the flow's whole states
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2), (-0.5, 0.3)], a=0.9)
    dressing = DressedFlow(build_lax(seed, 0.3 + 0.8j))
    flow = ShiftedFlow(RescaledFlow(dressing, -0.5), lam * np.eye(seed.dim, dtype=complex))
    assert len(flow.partition) == 3
    traj = dressed_trajectory(flow, _grid())
    assert traj.states.tobytes() == flow.stack(_grid()).tobytes()
    # the entries off the blocks are +0.0 at t = 0 only when X holds +0.0
    # there: (Lambda + 0j) (0 + 0j) has the real part -0.0 for Lambda < 0
    for index, t in enumerate(_grid()):
        parts = traj.states[index].view(float)
        assert np.signbit(parts[parts == 0]).any() == (t == 0 and lam < 0)


def test_a_shift_with_zeros_of_both_signs_off_the_blocks_takes_one_block():
    seed = make_anticommuting_seed(3, [0.4, -0.7, 0.9], n=2)
    dressing = DressedFlow(build_lax(seed, 0.3 + 0.8j))
    X = 0.6 * np.eye(seed.dim, dtype=complex)
    X[0, 3] = complex(-0.0, 0.0)
    flow = RescaledFlow(ShiftedFlow(dressing, X), -0.5)
    assert len(dressing.partition) == 3 and len(flow.partition) == 1
    traj = dressed_trajectory(flow, _grid())
    assert traj.states.tobytes() == flow.stack(_grid()).tobytes()
