"""``trajectory.csv`` byte for byte, and F_a evaluated per block.

The reference writer below formats every value on its own with
``f"{x:.17g}"``; ``write_trajectory_csv`` must produce the same bytes.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from vndarboux import (Diagnostics, Trajectory, build_lax,
                       dressed_trajectory, f_value, make_anticommuting_seed,
                       make_delta_commuting_seed, mat_exp,
                       rk4_integrate)
from vndarboux.scenario_cli import read_trajectory_csv, write_trajectory_csv


def _reference_csv(traj: Trajectory, dim: int) -> str:
    header = ["t"] + [f"{part}_{i}_{j}" for i in range(dim) for j in range(dim)
                      for part in ("re", "im")]
    header += ["phi_norm", "form_gap", "hermiticity_gap", "min_eig",
               "F_re", "F_im", "p_dot_norm"]
    lines = [",".join(header)]
    diag = traj.diagnostics
    for k, (t, state) in enumerate(zip(traj.times, traj.states)):
        cells = [f"{float(t):.17g}"]
        for i in range(dim):
            for j in range(dim):
                cells += [f"{state[i, j].real:.17g}", f"{state[i, j].imag:.17g}"]
        if diag is None:
            cells += [""] * 7
        else:
            F = None if diag.F_value is None else complex(diag.F_value[k])
            min_eig = None if diag.min_eig is None else diag.min_eig[k]
            for x in (diag.phi_norm[k], diag.form_gap[k],
                      diag.hermiticity_gap[k], min_eig,
                      None if F is None else F.real,
                      None if F is None else F.imag, diag.p_dot_norm[k]):
                cells.append("" if x is None else f"{float(x):.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _written(tmp_path, traj: Trajectory, dim: int) -> str:
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), SimpleNamespace(trajectory=traj,
                                                    seed=SimpleNamespace(dim=dim)))
    return path.read_text()


def _delta_seed():
    return make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)


def test_hermitian_delta_rows_match_per_value_format(tmp_path):
    # 201 samples of dimension 4 span three blocks of the sample grid
    seed = _delta_seed()
    traj = dressed_trajectory(build_lax(seed, 0.3 + 0.8j),
                              np.linspace(-5.0, 5.0, 201))
    assert traj.diagnostics.F_value is not None
    assert traj.diagnostics.min_eig is not None
    text = _written(tmp_path, traj, seed.dim)
    assert text == _reference_csv(traj, seed.dim)
    times, states = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert np.array_equal(times, traj.times)
    assert states.shape == traj.states.shape == (201, 4, 4)
    assert all(np.array_equal(a, b) for a, b in zip(states, traj.states))


def test_general_mode_rows_leave_min_eig_and_f_empty(tmp_path):
    seed = _delta_seed()
    traj = dressed_trajectory(build_lax(seed, 0.3 + 0.8j, 0.2 - 0.5j),
                              np.linspace(-1.0, 1.0, 21))
    assert traj.diagnostics.F_value is None and traj.diagnostics.min_eig is None
    text = _written(tmp_path, traj, seed.dim)
    assert text == _reference_csv(traj, seed.dim)
    assert all(line.split(",")[-4:-1] == ["", "", ""]
               for line in text.splitlines()[1:])


def test_rk4_rows_without_diagnostics(tmp_path):
    seed = make_anticommuting_seed(1, [1.0], n=2)
    traj = rk4_integrate(seed.spec, seed.rho0, 0.5, 0.05)
    assert traj.diagnostics is None
    text = _written(tmp_path, traj, seed.dim)
    assert text == _reference_csv(traj, seed.dim)
    assert all(line.endswith(",,,,,,,") for line in text.splitlines()[1:])


def test_special_values_and_non_contiguous_states(tmp_path):
    M = np.empty((2, 2), dtype=complex)
    M.real = [[-0.0, 5e-324], [1e300, 0.1]]
    M.imag = [[2.0 / 3.0, -1.0000000000000002], [np.pi, -0.0]]
    transposed = M.T  # a view in Fortran order
    strided = np.tile(M, (1, 2))[:, ::2]  # every other column of a copy
    assert not (transposed.flags.c_contiguous or strided.flags.c_contiguous)
    # the same three states as a stack that is not C-ordered either
    states = np.stack([M.T, transposed.T, strided.T]).transpose(0, 2, 1)
    assert not states.flags.c_contiguous
    assert all(np.array_equal(a, b) for a, b in zip(states, [M, transposed, strided]))
    diags = Diagnostics(
        rho1=states, P=states, phi_norm=np.full(3, 1e300),
        form_gap=np.full(3, 2.0 / 3.0), hermiticity_gap=np.full(3, 5e-324),
        min_eig=np.full(3, -0.0), F_value=np.full(3, complex(-0.0, 0.1)),
        p_dot_norm=np.full(3, 1.0000000000000002))
    traj = Trajectory(times=[-0.0, 0.1, 1e300], states=states, diagnostics=diags)
    assert not traj.states.flags.c_contiguous
    text = _written(tmp_path, traj, 2)
    assert text == _reference_csv(traj, 2)
    first = text.splitlines()[1].split(",")
    assert first[:5] == ["-0", "-0", "0.66666666666666663",
                         "4.9406564584124654e-324", "-1.0000000000000002"]
    _, back = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert all(np.array_equal(a, b) for a, b in zip(back, states))
    assert np.signbit(back[1][0, 0].real)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


@pytest.mark.parametrize("blocks", [[(1.0, 0.5)], [(1.0, 0.2), (3.0, -0.2)],
                                    [(0.5, 0.1), (-1.0, 0.3), (2.0, -0.4)]],
                         ids=["dim2", "dim4", "dim6"])
def test_stacked_f_value_equals_one_point_bitwise(blocks):
    # 201 samples span one block at dimension 2 and several at 4 and 6
    seed = make_delta_commuting_seed(blocks, a=0.7)
    mu = -0.4 + 1.1j
    lax = build_lax(seed, mu)
    phi0 = lax.phi0
    times = np.linspace(-5.0, 5.0, 201)
    traj = dressed_trajectory(lax, times)
    coeff = 1j * ((mu - np.conj(mu)) / abs(mu) ** 2)
    for t, F in zip(traj.times, traj.diagnostics.F_value):
        one = f_value(seed, mu, phi0, t)
        assert isinstance(F, complex)
        assert _bits(F) == _bits(one)
        assert _bits(f_value(seed, mu, phi0, float(t))) == _bits(one)
        # the per-point formula: one matrix-vector and one dot product
        point = np.conj(phi0) @ (mat_exp(coeff * t * seed.delta_a) @ phi0)
        assert _bits(point) == _bits(one)
    stack = f_value(seed, mu, phi0, times)
    assert stack.shape == times.shape
    assert _bits(stack) == _bits(traj.diagnostics.F_value)
