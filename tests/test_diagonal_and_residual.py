"""Entry-wise products for an exactly diagonal A, and the residual stencil
evaluated one offset at a time.

Every seed family builds an exactly diagonal A with a real diagonal, so
``hamiltonian_of`` and the dressing's ``[P, A_J]`` scale entries instead of
multiplying matrices; a dense A keeps the matrix products.  The formulas the
code replaced are rebuilt here and compared bit for bit.
"""

import random

import numpy as np
import numpy.testing as npt
import pytest

from conftest import PlantedError
from test_support import D12_BLOCKS, _rotated_delta_seed
from vndarboux import (DEFAULT, ModelSpec, build_lax, dressed_trajectory,
                       hamiltonian_of, make_delta_commuting_seed, rescaled_flow,
                       residuals, shifted_flow)
from vndarboux import darboux_engine
from vndarboux.darboux_engine import DressedFlow, _commutator_with
from vndarboux.operator_core import blocks_of, frob, frob_stack, time_blocks
from vndarboux.scenario_cli import execute_scenario
from vndarboux.vne_model import Flow, default_step


def _matmul_hamiltonian(spec, rho):
    # the matrix-product form: sum_k A^{n-k} rho A^k from the cached powers
    n, powers = spec.n, spec.powers
    total = np.zeros_like(rho)
    total += powers[n] @ rho
    for k in range(1, n):
        total += powers[n - k] @ rho @ powers[k]
    total += rho @ powers[n]
    return total


def _stack_with_zeros(rng, count, d):
    # random entries, some exactly zero in some slices, some -0.0 parts
    rho = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    rho[rng.random(rho.shape) < 0.4] = 0
    rho.real[rng.random(rho.shape) < 0.1] = -0.0
    rho.imag[rng.random(rho.shape) < 0.1] = -0.0
    return rho


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_entrywise_hamiltonian_is_the_matmul_form_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    for d in range(1, 17):
        # repeated, negative and zero diagonal entries
        a = rng.choice(np.r_[rng.normal(size=d // 2 + 1), 0.0], size=d)
        spec = ModelSpec(n, np.diag(a))
        assert spec.diagonals is not None
        for k, power in enumerate(spec.powers):
            npt.assert_array_equal(spec.diagonals[k], np.diagonal(power))
        rho = _stack_with_zeros(rng, 5, d)
        out = hamiltonian_of(spec, rho)
        # values and zero signs alike, at every size: the sum starts from
        # +0.0 in both forms, so every exact zero of the total is +0.0
        # whatever sign the kernel gives a term's zero
        assert out.tobytes() == _matmul_hamiltonian(spec, rho).tobytes(), d
        flat = out.view(float)
        assert not np.signbit(flat[flat == 0]).any()
        # one matrix is the one-point case of the same code
        assert hamiltonian_of(spec, rho[1]).tobytes() == out[1].tobytes()


@pytest.mark.parametrize("size", [1, 2, 3, 5, 12])
def test_entrywise_commutator_is_the_matmul_form_bit_for_bit(size):
    rng = np.random.default_rng(400 + size)
    d = 16
    # repeated and negative diagonal entries; J is not contiguous
    a = rng.choice(rng.normal(size=8), size=d)
    A = np.diag(a).astype(complex)
    J = np.sort(rng.choice(d, size=size, replace=False))
    A_J = A[np.ix_(J, J)]
    P = rng.normal(size=(7, size, size)) + 1j * rng.normal(size=(7, size, size))
    entrywise = _commutator_with(P, A, J, diagonal=True)
    assert entrywise.tobytes() == (P @ A_J - A_J @ P).tobytes()
    assert entrywise.tobytes() == _commutator_with(P, A, J).tobytes()
    # with exact zeros in P or on the diagonal of A the values still agree;
    # the sign of a zero that a matrix product sums is the BLAS kernel's
    A[J[0], J[0]] = 0.0
    A_J = A[np.ix_(J, J)]
    P[rng.random(P.shape) < 0.3] = 0
    npt.assert_array_equal(_commutator_with(P, A, J, diagonal=True).view(float),
                           (P @ A_J - A_J @ P).view(float))


def test_a_dense_model_keeps_the_matrix_products(monkeypatch):
    seed = _rotated_delta_seed()
    spec = seed.spec
    assert spec.diagonals is None
    rng = np.random.default_rng(7)
    rho = _stack_with_zeros(rng, 4, spec.dim)
    assert hamiltonian_of(spec, rho).tobytes() == _matmul_hamiltonian(spec, rho).tobytes()
    # the dressing takes [P, A] from the matrix products
    flags = []

    def spy(P, A, J, diagonal=False):
        flags.append(diagonal)
        A_J = A[np.ix_(J, J)]
        return P @ A_J - A_J @ P

    times = np.linspace(-1.0, 1.0, 9)
    lax = build_lax(seed, 0.3 + 0.8j)
    expected = dressed_trajectory(DressedFlow(lax), times).states
    monkeypatch.setattr(darboux_engine, "_commutator_with", spy)
    states = dressed_trajectory(DressedFlow(lax), times).states
    assert flags and not any(flags)
    assert states.tobytes() == expected.tobytes()
    # a diagonal A whose diagonal is not exactly real is dense here too
    B = np.diag([1.0, 2.0]).astype(complex)
    B[0, 0] += 1e-14j
    assert ModelSpec(1, B).diagonals is None
    assert ModelSpec(1, np.ones((2, 2))).diagonals is None


# ---------------------------------------------------------------------------
# scenarios drawn as the benchmark workloads draw them

def _sign(rng):
    return rng.choice((-1.0, 1.0))


def _mu(rng):
    return [rng.uniform(-1.0, 1.0), _sign(rng) * rng.uniform(0.4, 1.5)]


def _delta_config(rng, index):
    a = rng.uniform(0.5, 1.0)
    return {
        "id": f"delta-{index}", "model": {"n": 1},
        "seed": {"family": "delta_commuting", "a": a,
                 "blocks": [[rng.uniform(-2.0, 2.0), _sign(rng) * a * rng.uniform(0.1, 0.45)]
                            for _ in range(6)]},
        "darboux": {"mu": _mu(rng), "nu_mode": "conjugate",
                    "lambda": [rng.uniform(-1.0, 1.0), rng.uniform(1.5, 3.0)]},
        "times": {"t_min": -5.0, "t_max": 5.0, "samples": 201},
    }


def _shift_config(rng, index):
    b = [_sign(rng) * rng.uniform(0.2, 1.0) for _ in range(6)]
    shift = max(abs(x) for x in b) + 0.1
    return {
        "id": f"shift-{index}", "model": {"n": 3},
        "seed": {"family": "anticommuting", "dim_pairs": 6, "b": b,
                 "alpha": [_sign(rng) * rng.uniform(0.5, 1.5) for _ in range(6)]},
        "darboux": {"mu": _mu(rng), "nu_mode": "conjugate"},
        "times": {"t_min": -5.0, "t_max": 5.0, "samples": 201},
        "symmetries": {"order": "after", "shift_lambda": shift,
                       "rescale_y": 1.0 / (12 * shift)},
    }


DRAWN = {f"{name}-{i}": (draw, i)
         for name, draw in (("delta", _delta_config), ("shift", _shift_config))
         for i in range(3)}


def _drawn(name):
    draw, index = DRAWN[name]
    return execute_scenario(draw(random.Random(name), index))


def _time_major_residuals(spec, flow, times, states):
    # the stencil as time-major rings of whole states, differenced by one
    # formula, and H from the matrix products.  A ring holds a block's four
    # stencil points per time within the budget of a block's points
    h = default_step(spec)
    offsets = np.array([2 * h, h, -h, -2 * h])
    block = time_blocks(1 << 20, spec.dim, support=flow.support_size)[0]
    per_ring = (block.stop - block.start) // len(offsets)
    norms, scales = [], []
    for start in range(0, len(times), per_ring):
        t, rho = times[start:start + per_ring], states[start:start + per_ring]
        # the whole-matrix evaluation: the flow's code on one whole block
        ring = flow.blocks((t[:, None] + offsets).ravel(), np.arange(spec.dim)[None])
        ring = ring.reshape((len(t), len(offsets)) + rho.shape[-2:])
        rdot = (-ring[:, 0] + 8 * ring[:, 1] - 8 * ring[:, 2] + ring[:, 3]) / (12 * h)
        H = _matmul_hamiltonian(spec, rho)
        norms.append(frob_stack(1j * rdot - (H @ rho - rho @ H)))
        scales.append(frob_stack(H) * frob_stack(rho))
    generator_scale = (spec.n + 1) * (1.0 + frob(spec.A)) ** (spec.n + 1)
    C = (generator_scale * np.maximum(1.0, frob_stack(states))) ** 5 / 30.0
    return (np.concatenate(norms), np.maximum(DEFAULT.residual_floor, C * h ** 4),
            np.concatenate(scales))


#: the residual's norms on blocks against the whole-matrix formula, per
#: sample, in units of eps ||H(rho)||_F ||rho||_F: the commutator's products
#: and the norm's sums round in another order (measured at most 0.092 on
#: the drawn scenarios)
RESIDUAL_ROUNDOFF = 4 * np.finfo(float).eps


@pytest.mark.parametrize("name", sorted(DRAWN))
def test_offset_by_offset_residual_is_the_time_major_formula(name):
    result = _drawn(name)
    traj = result.trajectory
    spec = traj.rho_at.spec
    assert spec.diagonals is not None and len(traj.times) == 201
    norms, tols = residuals(traj.rho_at, traj.times, states=traj.states)
    ref_norms, ref_tols, scales = _time_major_residuals(spec, traj.rho_at, traj.times,
                                                        traj.states)
    assert np.all(np.abs(norms - ref_norms) <= RESIDUAL_ROUNDOFF * scales)
    assert tols.tobytes() == ref_tols.tobytes()


def _flow(name):
    # a drawn scenario's flow, a shift and a rescaling by a negative Y of a
    # Delta seed in either order, or a shift by a matrix X
    if name in DRAWN:
        return _drawn(name).trajectory.rho_at
    seed = make_delta_commuting_seed(D12_BLOCKS, a=0.9)
    dressed = DressedFlow(build_lax(seed, 0.3 + 0.8j))
    X = 0.5 * np.eye(seed.dim, dtype=complex)
    if name == "shift-rescale-negative":
        return rescaled_flow(shifted_flow(dressed, X), -0.5)
    if name == "rescale-negative-shift":
        return shifted_flow(rescaled_flow(dressed, -0.5), -X)
    X_blocks = np.diag(np.repeat([0.25, 0.0, 0.5, 0.25, 0.0, 0.75], 2)).astype(complex)
    return shifted_flow(dressed, X_blocks)


@pytest.mark.parametrize("name", sorted(DRAWN) + ["shift-rescale-negative",
                                                  "rescale-negative-shift", "shift-x"])
def test_ring_blocks_are_the_blocks_of_the_whole_matrix_stencil(name):
    flow = _flow(name)
    parts = flow.partition
    dim = parts.size
    assert len(parts) == dim // 2 and parts.shape[1] == 2
    h = default_step(flow.root.seed.spec)
    # the samples themselves (t = 0 among them) and their stencil rings
    t = np.linspace(-1.0, 1.0, 11)
    ring = np.concatenate([t, (t[:, None] + np.array([2 * h, h, -h, -2 * h])).ravel()])
    whole = flow.blocks(ring, np.arange(dim)[None])[:, 0]
    blocks = flow.blocks(ring)
    assert blocks.tobytes() == blocks_of(whole, parts).tobytes()
    assert flow.stack(ring).tobytes() == whole.tobytes()
    # off the partition every entry is the zero the whole evaluation gives:
    # Y * (+0.0) under a rescaling, -0.0 in its real part for a negative Y
    inside = np.zeros((dim, dim), dtype=bool)
    inside[parts[:, :, None], parts[:, None, :]] = True
    Y = -0.5 if "negative" in name else 1.0
    expected = Y * np.zeros((len(ring), int((~inside).sum())), dtype=complex)
    if name == "rescale-negative-shift":
        # a shift of Y rho by X = -0.5 1: +0.0 wherever the shift's phase
        # ran, and at t = 0, where the state is Y rho + X itself, Y * 0.0
        # plus X's off-diagonal -(0.0 + 0.0j)
        at_zero = expected[ring == 0] + -np.zeros(1, dtype=complex)
        expected = np.zeros_like(expected)
        expected[ring == 0] = at_zero
        assert np.signbit(at_zero.real).all()
    assert whole[:, ~inside].tobytes() == expected.tobytes()


@pytest.mark.parametrize("where", ["outside-J", "on-J"])
def test_a_planted_error_fails_the_residual_at_its_block(where):
    # t * E on one 2 x 2 block: off the support J, which the dressing never
    # touches, or on J; the residual checks every block at every point
    seed = make_delta_commuting_seed(D12_BLOCKS, a=0.9)
    lax = build_lax(seed, 0.3 + 0.8j)
    flow = DressedFlow(lax)
    J = flow.support
    part = J if where == "on-J" else next(p for p in flow.partition if not np.isin(p, J).any())
    E = np.zeros((seed.dim, seed.dim), dtype=complex)
    E[np.ix_(part, part)] = 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    planted = PlantedError(flow, E)
    npt.assert_array_equal(planted.partition, flow.partition)
    times = np.linspace(-1.0, 1.0, 21)
    states = planted.stack(times)
    spec = seed.spec
    clean, _ = residuals(flow, times, states=flow.stack(times))
    norms, tols = residuals(planted, times, states=states)
    assert np.all(clean <= tols) and np.all(norms > tols)
    ref_norms, _, scales = _time_major_residuals(spec, planted, times, states)
    assert np.all(np.abs(norms - ref_norms) <= RESIDUAL_ROUNDOFF * scales)


_diagonal_post_init = ModelSpec.__post_init__


def _dense_post_init(self):
    # the model with its diagonal forgotten: every product with A is a
    # matrix product again
    _diagonal_post_init(self)
    object.__setattr__(self, "diagonals", None)


@pytest.mark.parametrize("name", ["delta-0", "shift-0"])
def test_entrywise_products_leave_a_scenario_bit_for_bit(name, monkeypatch):
    result = _drawn(name)
    monkeypatch.setattr(ModelSpec, "__post_init__", _dense_post_init)
    dense = _drawn(name)
    assert dense.trajectory.rho_at.spec.diagonals is None
    assert dense.trajectory.states.tobytes() == result.trajectory.states.tobytes()
    assert dense.report.to_dict() == result.report.to_dict()


def test_offset_by_offset_residual_on_a_dense_seed():
    seed = _rotated_delta_seed()
    lax = build_lax(seed, 0.3 + 0.8j)
    times = np.linspace(-1.0, 1.0, 21)
    traj = dressed_trajectory(DressedFlow(lax), times)
    norms, tols = residuals(traj.rho_at, times, states=traj.states)
    ref_norms, ref_tols, _ = _time_major_residuals(seed.spec, traj.rho_at, times,
                                                   traj.states)
    assert norms.tobytes() == ref_norms.tobytes()
    assert tols.tobytes() == ref_tols.tobytes()
    assert np.all(norms <= tols)


class _PlantedFlow(Flow):
    # a constant state that fails at planted times, at the first one in
    # stack order, as a dressed flow's stack does
    def __init__(self, spec, planted):
        self.spec = spec
        self.planted = planted

    def stack(self, times):
        for t in times:
            if float(t) in self.planted:
                raise ArithmeticError(f"planted failure at t = {float(t)!r}")
        return np.broadcast_to(np.eye(2, dtype=complex), (len(times), 2, 2)).copy()


@pytest.mark.parametrize("kind", ["flow", "rescaled"])
def test_a_ring_with_two_failing_points_raises_the_time_major_error(kind):
    spec = ModelSpec(1, np.diag([1.0, -1.0]))
    h = default_step(spec)
    offsets = np.array([2 * h, h, -h, -2 * h])
    times = np.linspace(-1.0, 1.0, 6)
    # time-major order reaches sample 1's t-2h before sample 3's t+2h;
    # offset by offset, the t+2h stack comes first
    first, later = times[1] + offsets[3], times[3] + offsets[0]
    flow = _PlantedFlow(spec, {float(first), float(later)})
    # Y = 1 maps every time to itself, bit for bit, through a transform
    checked = flow if kind == "flow" else rescaled_flow(flow, 1.0)
    with pytest.raises(ArithmeticError) as time_major:
        flow.stack((times[:, None] + offsets).ravel())
    assert repr(float(first)) in str(time_major.value)
    with pytest.raises(ArithmeticError) as raised:
        residuals(checked, times, states=np.broadcast_to(np.eye(2), (6, 2, 2)))
    assert str(raised.value) == str(time_major.value)
    # one failing point in the first offset's stack only
    flow.planted = {float(later)}
    with pytest.raises(ArithmeticError, match=repr(float(later))):
        residuals(checked, times, states=np.broadcast_to(np.eye(2), (6, 2, 2)))
