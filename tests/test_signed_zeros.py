"""Zero signs off the blocks under a negative rescaling of the seed.

With ``symmetries.order = "before"`` a rescaling ``Y < 0`` is absorbed into
the seed, so ``Y rho0`` holds ``-0.0`` wherever ``rho0`` is zero.  A
stationary seed keeps those zeros in every state; an evolving one keeps
them only at t = 0, where the state is ``Y rho0`` itself and no phase ran.
``trajectory.csv`` writes them as ``-0``, so the trajectory, its flow and
a fresh dressing of the same Lax solution must agree on them bit for bit.
"""

import json
import os

import numpy as np
import pytest

from vndarboux import scenario_cli
from vndarboux.darboux_engine import DressedFlow

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _config(name: str) -> dict:
    with open(os.path.join(CONFIGS, f"{name}.json")) as handle:
        return json.load(handle)


def _three_pairs() -> dict:
    # stationary: rho0's -0.0 stays off the blocks at every time
    return _config("reversed_anticommuting")


def _delta() -> dict:
    cfg = _config("delta_density")
    cfg["times"] = {"t_min": -1.0, "t_max": 1.0, "samples": 11}
    return cfg


def _negative_zero_rows(states: np.ndarray) -> np.ndarray:
    # the rows with an exact zero of negative sign in a real or imaginary part
    parts = states.view(float).reshape(len(states), -1)
    return ((parts == 0) & np.signbit(parts)).any(axis=-1)


CASES = [(seed, mode) for seed in ("three-pairs", "delta") for mode in ("hermitian", "general")]


@pytest.mark.parametrize("seed, mode", CASES, ids=[f"{s}-{m}" for s, m in CASES])
def test_negative_rescaling_before_keeps_the_zero_signs(seed, mode):
    cfg = _three_pairs() if seed == "three-pairs" else _delta()
    cfg["symmetries"] = {"order": "before", "rescale_y": -0.5}
    if mode == "general":
        cfg["darboux"]["nu_mode"] = {"explicit": [0.5, -1.1]}
    valid, errors = scenario_cli.validate_config(cfg)
    assert not errors
    traj = scenario_cli.execute_scenario(valid).trajectory
    times = traj.times
    assert traj.singular_t is None and len(times) == 11
    assert traj.states.tobytes() == traj.rho_at.stack(times).tobytes()
    assert traj.states.tobytes() == DressedFlow(traj.rho_at.root.lax).stack(times).tobytes()
    rows = _negative_zero_rows(traj.states)
    if seed == "three-pairs":
        assert rows.all()
    else:
        assert rows.tolist() == (times == 0).tolist()
