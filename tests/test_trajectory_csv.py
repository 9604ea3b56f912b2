"""``trajectory.csv`` byte for byte, and F_a evaluated per block.

The reference writer below formats every value on its own with
``"%.17g" % x``; ``write_trajectory_csv``, which formats each distinct
magnitude of the file once, must produce the same bytes.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import rk4_ode
from vndarboux import (Diagnostics, DressedFlow, Trajectory, build_lax,
                       dressed_trajectory, f_value, make_anticommuting_seed,
                       make_delta_commuting_seed, mat_exp, rhs)
from vndarboux import output_files
from vndarboux.output_files import _CSV_BLOCK_ROWS
from vndarboux.scenario_cli import (execute_scenario, read_trajectory_csv,
                                    write_trajectory_csv)


WORKLOADS = ("anticommuting-shift", "delta-covariance")


def _cell(x) -> str:
    return "%.17g" % float(x)


def _reference_csv(traj: Trajectory, dim: int) -> str:
    header = ["t"] + [f"{part}_{i}_{j}" for i in range(dim) for j in range(dim)
                      for part in ("re", "im")]
    header += ["phi_norm", "form_gap", "hermiticity_gap", "min_eig",
               "F_re", "F_im", "p_dot_norm"]
    lines = [",".join(header)]
    diag = traj.diagnostics
    for k, (t, state) in enumerate(zip(traj.times, traj.states)):
        cells = [_cell(t)]
        for i in range(dim):
            for j in range(dim):
                cells += [_cell(state[i, j].real), _cell(state[i, j].imag)]
        if diag is None:
            cells += [""] * 7
        else:
            F = None if diag.F_value is None else complex(diag.F_value[k])
            min_eig = None if diag.spectrum is None else diag.spectrum[k, 0]
            for x in (diag.phi_norm[k], diag.form_gap[k],
                      diag.hermiticity_gap[k], min_eig,
                      None if F is None else F.real,
                      None if F is None else F.imag, diag.p_dot_norm[k]):
                cells.append("" if x is None else _cell(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _written(tmp_path, traj: Trajectory) -> str:
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), SimpleNamespace(trajectory=traj))
    return path.read_text()


def _delta_seed():
    return make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)


def test_hermitian_delta_rows_match_per_value_format(tmp_path):
    # 201 samples of dimension 4 span three blocks of the sample grid
    seed = _delta_seed()
    traj = dressed_trajectory(DressedFlow(build_lax(seed, 0.3 + 0.8j)),
                              np.linspace(-5.0, 5.0, 201))
    assert traj.diagnostics.F_value is not None
    assert traj.diagnostics.spectrum is not None
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, seed.dim)
    times, states = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert np.array_equal(times, traj.times)
    assert states.shape == traj.states.shape == (201, 4, 4)
    assert all(np.array_equal(a, b) for a, b in zip(states, traj.states))


def test_general_mode_rows_leave_min_eig_and_f_empty(tmp_path):
    seed = _delta_seed()
    traj = dressed_trajectory(DressedFlow(build_lax(seed, 0.3 + 0.8j, 0.2 - 0.5j)),
                              np.linspace(-1.0, 1.0, 21))
    assert traj.diagnostics.F_value is None and traj.diagnostics.spectrum is None
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, seed.dim)
    assert all(line.split(",")[-4:-1] == ["", "", ""]
               for line in text.splitlines()[1:])


def test_rk4_rows_without_diagnostics(tmp_path):
    seed = make_anticommuting_seed(1, [1.0], n=2)
    times = np.linspace(0.0, 0.5, 11)
    states = [seed.rho0]
    for _ in times[1:]:
        states.append(rk4_ode(lambda t, y: rhs(seed.spec, y), states[-1], 0.05, 0.05))
    traj = Trajectory(times=times, states=states)
    assert traj.diagnostics is None
    text = _written(tmp_path, traj)
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
        rho1=states, P=states, P_dot=states, phi_norm=np.full(3, 1e300),
        form_gap=np.full(3, 2.0 / 3.0), hermiticity_gap=np.full(3, 5e-324),
        idempotency_gap=np.full(3, 0.1), projector_trace_gap=np.full(3, -0.0),
        F_value=np.full(3, complex(-0.0, 0.1)),
        p_dot_norm=np.full(3, 1.0000000000000002), spectrum=np.full((3, 2), -0.0))
    traj = Trajectory(times=[-0.0, 0.1, 1e300], states=states, diagnostics=diags)
    assert not traj.states.flags.c_contiguous
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, 2)
    first = text.splitlines()[1].split(",")
    assert first[:5] == ["-0", "-0", "0.66666666666666663",
                         "4.9406564584124654e-324", "-1.0000000000000002"]
    _, back = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert all(np.array_equal(a, b) for a, b in zip(back, states))
    assert np.signbit(back[1][0, 0].real)


def _state_cells(text: str, column: str) -> list:
    header, *rows = text.splitlines()
    k = header.split(",").index(column)
    return [row.split(",")[k] for row in rows]


def test_zero_columns_print_zero_and_negative_zeros_keep_their_sign(tmp_path):
    states = np.zeros((3, 2, 2), dtype=complex)
    states[:, 0, 0] = [1.5, -2.0, 0.25]          # im_0_0 is +0.0 in every row
    states[1, 0, 1] = complex(-0.0, 0.0)         # re_0_1: -0.0 in one row
    states[:, 1, 0] = complex(-0.0, 0.0)         # re_1_0: -0.0 in every row
    states[:, 1, 1] = complex(0.0, -0.0)         # im_1_1: -0.0 in every row
    traj = Trajectory(times=[0.0, 0.5, 1.0], states=states)
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, 2)
    for column in ("im_0_0", "im_0_1", "re_1_1"):
        assert _state_cells(text, column) == ["0", "0", "0"]
    assert _state_cells(text, "re_0_1") == ["0", "-0", "0"]
    assert _state_cells(text, "re_1_0") == ["-0", "-0", "-0"]
    assert _state_cells(text, "im_1_1") == ["-0", "-0", "-0"]
    _, back = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert back.tobytes() == states.tobytes()


def test_constant_columns_are_formatted_once_with_their_bits(tmp_path):
    # columns equal in every row, of any value, are fixed in the template;
    # one differing bit (a -0.0 in one row) keeps a column formatted per row
    states = np.zeros((4, 2, 2), dtype=complex)
    states[:, 0, 0] = complex(1.0 / 3.0, 5e-324)       # constant nonzero pair
    states[:, 0, 1] = complex(-0.0, -1e300)            # -0.0 in every row
    states[:, 1, 0] = [0.25, 0.25, complex(-0.0, 0.0), 0.25]
    states[2, 1, 1] = complex(0.0, -0.0)               # -0.0 in one row only
    traj = Trajectory(times=[0.0, 0.5, 1.0, 1.5], states=states)
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, 2)
    assert _state_cells(text, "re_0_0") == ["0.33333333333333331"] * 4
    assert _state_cells(text, "im_0_0") == ["4.9406564584124654e-324"] * 4
    assert _state_cells(text, "re_0_1") == ["-0"] * 4
    assert _state_cells(text, "im_0_1") == ["-1.0000000000000001e+300"] * 4
    assert _state_cells(text, "re_1_0") == ["0.25", "0.25", "-0", "0.25"]
    assert _state_cells(text, "im_1_1") == ["0", "0", "-0", "0"]
    _, back = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert back.tobytes() == states.tobytes()


def _planted(states, general=False, **columns) -> Trajectory:
    # a trajectory on 0, 1, ..., N - 1 whose diagnostics are planted: each
    # column is all ones unless given
    count = len(states)
    ones = np.ones(count)
    values = {name: columns.get(name, ones) for name in
              ("phi_norm", "form_gap", "hermiticity_gap", "p_dot_norm",
               "min_eig", "F_re", "F_im")}
    spectrum = None if general else np.column_stack([values["min_eig"], ones])
    F = None if general else values["F_re"] + 1j * values["F_im"]
    diags = Diagnostics(
        rho1=states, P=states, P_dot=states, phi_norm=values["phi_norm"],
        form_gap=values["form_gap"], hermiticity_gap=values["hermiticity_gap"],
        idempotency_gap=ones, projector_trace_gap=ones, F_value=F,
        p_dot_norm=values["p_dot_norm"], spectrum=spectrum)
    return Trajectory(times=np.arange(float(count)), states=states,
                      diagnostics=diags)


@pytest.mark.parametrize("count", [0, 1, 2, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                                   2 * _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3])
def test_planted_special_values_match_per_value_format(tmp_path, count):
    # one stack, cut to 0, 1, 2 rows and to one row either side of a block
    # boundary, holding in varying columns: a sign-bit NaN, +0.0 and -0.0
    # mixed, +-inf, subnormals, x and -x in different columns and rows, and
    # magnitudes that a state cell shares with a diagnostic
    rng = np.random.default_rng(5)
    full = 2 * _CSV_BLOCK_ROWS + 3
    pool = np.array([0.1, 1.0 / 3.0, 5e-324, 2.2250738585072009e-308, 1e300,
                     np.inf, np.nan, 0.0, 7.0])
    states = np.empty((full, 3, 3), dtype=complex)
    states.real = rng.choice(pool, size=(full, 3, 3))
    states.imag = rng.choice(pool, size=(full, 3, 3))
    signs = rng.random(size=(full, 3, 3, 2)) < 0.5
    pairs = states.view(float).reshape(full, 3, 3, 2)
    pairs[signs] *= -1.0  # NaN and zero flip their sign bits too
    states[:, 2, 2] = complex(0.5, 0.0)  # a constant column pair
    states[::2, 0, 0] = np.copysign(np.nan, -1.0)
    states[1::2, 0, 0] = complex(-0.0, 0.0)
    states[:, 1, 2] = -states[:, 2, 1].conj()
    shared = rng.choice(pool, size=full) * np.where(rng.random(full) < 0.5, -1.0, 1.0)
    states[:, 0, 1] = shared
    traj = _planted(states[:count], phi_norm=-shared[:count],
                    F_im=np.copysign(np.nan, -1.0) * np.ones(count),
                    min_eig=np.where(np.arange(count) % 3, -0.0, 0.0))
    assert np.signbit(traj.states.view(float)[::2, 0, 0]).all()
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, 3)
    assert "-nan" not in text
    rows = text.splitlines()[1:]
    assert len(rows) == count
    if count > 2:
        assert {"-inf", "inf", "-0", "0"} <= {c for r in rows for c in r.split(",")}
    _, back = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
    assert back.shape == (count, 3, 3)
    # NaNs read back unsigned; every other cell keeps its bits
    finite = ~np.isnan(traj.states.view(float))
    assert np.array_equal(back.view(float)[finite].view(np.uint64),
                          traj.states.view(float)[finite].view(np.uint64))


@pytest.mark.parametrize("count", [0, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                                   2 * _CSV_BLOCK_ROWS + 1])
def test_one_grouping_pass_formats_the_whole_file(tmp_path, monkeypatch, count):
    # a magnitude shared by cells in different 64-row blocks, with either
    # sign, beside cells that differ in every row: the file's varying cells
    # are grouped in one call, and the text is the per-value format's
    states = np.zeros((count, 2, 2), dtype=complex)
    states.real = np.arange(count)[:, None, None] / 7.0 + np.arange(4).reshape(2, 2)
    states[::_CSV_BLOCK_ROWS, 0, 1] = 0.1
    states[_CSV_BLOCK_ROWS // 2::_CSV_BLOCK_ROWS, 1, 0] = -0.1j
    calls = []
    grouped = output_files._magnitude_texts
    monkeypatch.setattr(output_files, "_magnitude_texts",
                        lambda values: calls.append(values.shape) or grouped(values))
    traj = _planted(states, phi_norm=np.full(count, -0.1))
    assert _written(tmp_path, traj) == _reference_csv(traj, 2)
    # t, the four real parts, Im rho_10 and the seven diagnostics vary
    assert calls == [(count * 13,)]


@pytest.mark.parametrize("diagnostics", [False, True])
def test_an_empty_trajectory_writes_the_header_alone(tmp_path, diagnostics):
    states = np.empty((0, 2, 2), dtype=complex)
    traj = (_planted(states) if diagnostics
            else Trajectory(times=[], states=states))
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, 2)
    assert text.count("\n") == 1


def test_dense_general_mode_stack_at_dimension_32(tmp_path):
    # every entry varies, nothing repeats but what the draw repeats, and a
    # strided view of a larger stack feeds the writer
    rng = np.random.default_rng(32)
    count = _CSV_BLOCK_ROWS + 7
    big = rng.normal(size=(count, 32, 64)) + 1j * rng.normal(size=(count, 32, 64))
    big[:, :, ::4] = np.round(big[:, :, ::4], 1)  # a few magnitudes, both signs
    states = big[:, :, ::2]
    assert not states.flags.c_contiguous
    traj = _planted(states, general=True, phi_norm=rng.normal(size=count),
                    form_gap=np.abs(states[:, 3, 5].real))
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, 32)
    assert all(line.split(",")[-4:-1] == ["", "", ""]
               for line in text.splitlines()[1:])


def test_trajectory_cut_at_its_first_sample_writes_the_header_alone(tmp_path):
    # <chi|phi> = 0 exactly: the dressing is singular at the first sample
    seed = make_anticommuting_seed(2, [0.7, -0.4], alpha=[1.0, 1.3], n=1)
    nu = 0.2 - 0.5j
    pin = np.linalg.eigvals((seed.rho0 - nu * seed.spec.A)[2:, 2:])[0]
    lax = build_lax(seed, 0.3 + 0.9j, nu, z_nu_pin=pin)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-1.5, 1.5, 13))
    assert len(traj.states) == 0 and traj.singular_t == -1.5
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, seed.dim)
    assert text.count("\n") == 1 and text.startswith("t,re_0_0,")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_drawn_scenario_rows_match_per_value_format(tmp_path, bench, workload):
    # 12 x 12 states, most of whose entries are zero in every sample
    cfg = bench.SCENARIO_WORKLOADS[workload](random.Random(31), 0)
    result = execute_scenario(cfg)
    traj, dim = result.trajectory, result.trajectory.rho_at.root.seed.dim
    assert dim == 12 and len(traj.states) == cfg["times"]["samples"]
    pairs = traj.states.reshape(len(traj.states), -1).view(float)
    assert (~pairs.view(np.uint64).any(axis=0)).sum() > dim * dim
    text = _written(tmp_path, traj)
    assert text == _reference_csv(traj, dim)


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
    traj = dressed_trajectory(DressedFlow(lax), times)
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


def _mat_exp_f_value(delta, mu, phi0, times):
    # F_a as f_value computed it through mat_exp for every Delta_a
    coeff = 1j * ((mu - np.conj(mu)) / abs(mu) ** 2)
    psi = mat_exp(coeff * times[..., None, None] * delta) @ phi0
    return (np.conj(phi0) @ psi[..., None])[..., 0]


@pytest.mark.parametrize("dim", [1, 2, 5, 12])
def test_diagonal_f_value_is_bitwise_the_matrix_exponential(dim):
    # the closed form for an exactly diagonal Delta_a against mat_exp, which
    # gives a diagonal slice np.exp of its diagonal: zero, signed-zero and
    # negative entries, phi(0) with zero entries, t = +-0 among the times,
    # and times far enough out that some exponentials overflow
    rng = np.random.default_rng(70 + dim)
    overflowed = off_support = 0
    for _ in range(20):
        diagonal = rng.normal(size=dim) * 3
        diagonal[rng.random(dim) < 0.3] = 0.0
        diagonal[rng.random(dim) < 0.2] = -0.0
        delta = np.diag(diagonal).astype(complex)
        delta.imag[np.diag_indices(dim)] = np.where(rng.random(dim) < 0.5, -0.0, 0.0)
        phi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi0[rng.random(dim) < 0.3] = 0.0
        phi0[rng.integers(dim)] = 1.0
        mu = complex(rng.normal(), rng.normal())
        times = np.concatenate([[0.0, -0.0], rng.normal(size=30) * 5,
                                rng.normal(size=1) * 300])
        seed = SimpleNamespace(delta_a=delta)
        try:
            expected = _mat_exp_f_value(delta, mu, phi0, times)
        except OverflowError as error:
            # an entry where phi(0) is zero does not enter F_a: zeroed
            # there, the reference is f_value's; an exponential beyond the
            # double range on phi(0)'s support takes mat_exp's path
            try:
                expected = _mat_exp_f_value(delta * (phi0 != 0), mu, phi0, times)
            except OverflowError:
                with pytest.raises(OverflowError) as raised:
                    f_value(seed, mu, phi0, times)
                assert str(raised.value) == str(error)
                overflowed += 1
                continue
            off_support += 1
        assert _bits(f_value(seed, mu, phi0, times)) == _bits(expected)
    assert overflowed < 20
    if dim >= 5:
        assert overflowed and off_support
