"""``trajectory.csv`` byte for byte, and F_a evaluated per block.

The reference writer below formats every value on its own with
``f"{x:.17g}"``; ``write_trajectory_csv`` must produce the same bytes.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from vndarboux import (SampleDiagnostics, Trajectory, build_lax,
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
    diags = traj.diagnostics or [None] * len(traj.states)
    for t, state, diag in zip(traj.times, traj.states, diags):
        cells = [f"{float(t):.17g}"]
        for i in range(dim):
            for j in range(dim):
                cells += [f"{state[i, j].real:.17g}", f"{state[i, j].imag:.17g}"]
        if diag is None:
            cells += [""] * 7
        else:
            F = diag.F_value
            for x in (diag.phi_norm, diag.form_gap, diag.hermiticity_gap,
                      diag.min_eig, None if F is None else F.real,
                      None if F is None else F.imag, diag.p_dot_norm):
                cells.append("" if x is None else f"{x:.17g}")
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
    assert all(d.F_value is not None and d.min_eig is not None
               for d in traj.diagnostics)
    text = _written(tmp_path, traj, seed.dim)
    assert text == _reference_csv(traj, seed.dim)
    times, states = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert np.array_equal(times, traj.times)
    assert all(np.array_equal(a, b) for a, b in zip(states, traj.states))


def test_general_mode_rows_leave_min_eig_and_f_empty(tmp_path):
    seed = _delta_seed()
    traj = dressed_trajectory(build_lax(seed, 0.3 + 0.8j, 0.2 - 0.5j),
                              np.linspace(-1.0, 1.0, 21))
    assert all(d.F_value is None and d.min_eig is None for d in traj.diagnostics)
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
    states = [M, transposed, strided]
    diags = [SampleDiagnostics(
        moments=np.zeros(2), hermiticity_gap=5e-324, min_eig=-0.0,
        phi_norm=1e300, F_value=complex(-0.0, 0.1), form_gap=2.0 / 3.0,
        trace=0j, p_dot_norm=1.0000000000000002, P=M, rho1=M)] * 3
    traj = Trajectory(times=[-0.0, 0.1, 1e300], states=states, diagnostics=diags)
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
    for t, diag in zip(traj.times, traj.diagnostics):
        one = f_value(seed, mu, phi0, t)
        assert isinstance(diag.F_value, complex)
        assert _bits(diag.F_value) == _bits(one)
        assert _bits(f_value(seed, mu, phi0, float(t))) == _bits(one)
        # the per-point formula: one matrix-vector and one dot product
        point = np.conj(phi0) @ (mat_exp(coeff * t * seed.delta_a) @ phi0)
        assert _bits(point) == _bits(one)
    stack = f_value(seed, mu, phi0, times)
    assert stack.shape == times.shape
    assert _bits(stack) == _bits([d.F_value for d in traj.diagnostics])
