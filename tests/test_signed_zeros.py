"""Zero signs off the blocks under a negative rescaling.

With ``symmetries.order = "before"`` a rescaling ``Y < 0`` maps the
dressing as under ``"after"``: each state is ``Y rho1(Y t)``, and the
product with ``Y`` turns the real part of each exact zero of ``rho1`` into
``-0.0``, in every state of a stationary seed and of an evolving one.
``trajectory.csv`` writes them as ``-0``, so the trajectory, its flow and a
fresh dressing of the same Lax solution, rescaled, must agree on them bit
for bit.
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
    # stationary: every state holds the zeros of rho0 off the blocks
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
    fresh = -0.5 * DressedFlow(traj.rho_at.root.lax).stack(-0.5 * times)
    assert traj.states.tobytes() == fresh.tobytes()
    assert _negative_zero_rows(traj.states).all()
