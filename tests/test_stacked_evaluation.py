"""Stacked evaluation: one plan per scenario, blocked, overflow-safe.

The point-by-point entry points (``dressed_state_at``, one-element stacks of
``DressedFlow.evaluate``, ``phi_at``, a flow called with one time) are the
reference for the stacks.
"""

import dataclasses
import json
import random

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from conftest import whole_projectors
from test_support import D12_BLOCKS, _rotated_delta_seed

from vndarboux import (DEFAULT, DefectiveEigenproblem, NormalExp,
                       SingularDarboux, build_lax, dressed_state_at,
                       dressed_trajectory, make_anticommuting_seed,
                       make_commuting_seed, make_delta_commuting_seed, mat_exp,
                       operator_core, projector, rescaled_flow, run_suite,
                       shifted_flow)
from vndarboux.darboux_engine import Diagnostics, DressedFlow, _projector_stack
from vndarboux.scenario_cli import (execute_scenario, read_scenario,
                                    validate_config)

TIMES = np.linspace(-1.5, 1.5, 31)
DP = 1e-4  # a central difference's step for p_dot_norm
#: a bound on ||P'''||_F over these scenarios (measured at most 0.041)
P_DDDOT = 0.1

SCENARIOS = {
    # name: (seed factory, mu, nu); nu None is hermitian mode
    **{f"anticommuting-n{n}-{mode}": (
        lambda n=n: make_anticommuting_seed(2, [0.7, -0.4], alpha=[1.0, 1.3], n=n),
        0.3 + 0.9j, nu)
       for n in (1, 2, 3) for mode, nu in (("herm", None), ("general", 0.2 - 0.5j))},
    **{f"commuting-n{n}-{mode}": (
        lambda n=n: make_commuting_seed([0.3, 0.5, 0.2], [1.0, -0.5, 0.7], n=n),
        0.4 + 0.6j, nu)
       # equal Re(nu) selects the same basis vector on both sides
       for n in (1, 2, 3) for mode, nu in (("herm", None), ("general", 0.4 - 0.2j))},
    **{f"delta-n1-{mode}": (
        lambda: make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5),
        0.3 + 0.8j, nu)
       for mode, nu in (("herm", None), ("general", 0.5 - 1.1j))},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trajectory_matches_point_evaluation(name):
    make, mu, nu = SCENARIOS[name]
    seed = make()
    lax = build_lax(seed, mu, nu)
    traj = dressed_trajectory(DressedFlow(lax), TIMES)
    assert traj.singular_t is None
    diag = traj.diagnostics
    whole = whole_projectors(traj)
    flow = DressedFlow(lax)

    def projector_at(t):
        # the support blocks of one projector and its derivative, from a
        # one-element stack
        dressed = flow.evaluate([t])
        assert dressed.failure is None
        return dressed.P[0], flow.projector_rates(dressed)[0]

    for k, (t, state) in enumerate(zip(traj.times, traj.states)):
        point = dressed_state_at(seed, lax, t)
        npt.assert_allclose(state, point.rho1, rtol=0, atol=1e-13)
        npt.assert_allclose(whole[k], point.P, rtol=0, atol=1e-13)
        P, P_dot = projector_at(t)
        npt.assert_allclose(diag.P[k], P, rtol=0, atol=1e-13)
        assert abs(diag.form_gap[k] - point.form_gap) <= 1e-13
        phi_norm = np.linalg.norm(lax.phi_at(t))
        assert abs(diag.phi_norm[k] - phi_norm) <= 1e-13 * phi_norm
        # the exact derivative of a one-point stack is the sample's, bitwise
        npt.assert_array_equal(diag.P_dot[k], P_dot)
        assert diag.p_dot_norm[k] == operator_core.frob_stack(P_dot)
        # a central difference: round-off in P is amplified by 1 / (2 dp),
        # and its truncation is at most ||P'''||_F dp^2 / 6
        p_dot = np.linalg.norm(projector_at(t + DP)[0] - projector_at(t - DP)[0]) / (2 * DP)
        assert abs(diag.p_dot_norm[k] - p_dot) <= 1e-13 / DP + P_DDDOT * DP ** 2 / 6
        if diag.spectrum is not None:
            assert abs(diag.spectrum[k, 0] - np.linalg.eigvalsh((state + state.conj().T) / 2)[0]) <= 1e-13


@pytest.mark.parametrize("name", ["anticommuting-n3-herm", "delta-n1-herm",
                                  "anticommuting-n2-general"])
def test_symmetry_flow_stacks_match_point_evaluation(name):
    make, mu, nu = SCENARIOS[name]
    seed = make()
    lax = build_lax(seed, mu, nu)
    traj = dressed_trajectory(DressedFlow(lax), TIMES)
    spec = seed.spec
    X = 0.7 * np.eye(seed.dim)
    shifted = shifted_flow(traj.rho_at, X)
    flow = rescaled_flow(shifted, 0.6)
    stacked = flow.stack(TIMES)
    K = (spec.n + 1) * (X @ spec.powers[spec.n])
    for t, state in zip(TIMES, stacked):
        npt.assert_allclose(state, flow(t), rtol=0, atol=1e-13)
        s = 0.6 * t
        U = sla.expm(-1j * s * K)
        expected = 0.6 * (U @ (dressed_state_at(seed, lax, s).rho1 + X)
                          @ sla.expm(1j * s * K))
        npt.assert_allclose(state, expected, rtol=0, atol=1e-12)


def _config(name):
    cfgs = {
        "delta-covariance": {
            "id": "delta", "model": {"n": 1},
            "seed": {"family": "delta_commuting",
                     "blocks": [[1.0, 0.2], [3.0, -0.2], [-0.5, 0.3]], "a": 0.9},
            "darboux": {"mu": [0.3, 0.8], "nu_mode": "conjugate", "lambda": [0.2, 2.0]},
            "times": {"t_min": -3.0, "t_max": 3.0, "samples": 23}},
        "anticommuting-shift": {
            "id": "anti", "model": {"n": 3},
            "seed": {"family": "anticommuting", "dim_pairs": 3, "b": [0.5, -0.8, 0.3],
                     "alpha": [1.0, -1.2, 0.7]},
            "darboux": {"mu": [0.4, 0.9], "nu_mode": "conjugate"},
            "times": {"t_min": -2.0, "t_max": 2.0, "samples": 23},
            "symmetries": {"order": "after", "shift_lambda": 0.9, "rescale_y": 0.3}},
        "delta-general": {
            "id": "general", "model": {"n": 1},
            "seed": {"family": "delta_commuting", "blocks": [[1.0, 0.2], [3.0, -0.2]],
                     "a": 0.5},
            "darboux": {"mu": [0.3, 0.8], "nu_mode": {"explicit": [0.5, -1.1]},
                        "lambda": [0.0, 3.0]},
            "times": {"t_min": -2.0, "t_max": 2.0, "samples": 17}},
    }
    cfg, errors = validate_config(json.loads(json.dumps(cfgs[name])))
    assert not errors
    return cfg


CHECK_NAMES = ("residual", "idempotency", "form_gap", "trace", "hermiticity",
               "spectrum", "moments", "positivity", "covariance")


@pytest.mark.parametrize("name", ["delta-covariance", "anticommuting-shift",
                                  "delta-general"])
def test_states_do_not_depend_on_checks(name):
    cfg = _config(name)
    checked = execute_scenario(cfg)
    assert checked.report.overall
    unchecked = execute_scenario({**cfg, "checks": dict.fromkeys(CHECK_NAMES, False)})
    assert len(checked.trajectory.states) == len(unchecked.trajectory.states)
    for a, b in zip(checked.trajectory.states, unchecked.trajectory.states):
        assert np.array_equal(a, b)


def _verdicts(result):
    return [(c.name, c.passed, c.location_t) for c in result.report.checks]


@pytest.mark.parametrize("name", ["delta-covariance", "anticommuting-shift"])
def test_block_boundaries_change_no_verdict(name, monkeypatch):
    # budgets of one to a few points per block put block boundaries between
    # a sample and its stencil points at every position; every point is
    # computed on its own, so states, diagnostics and worst values are
    # bitwise equal whatever the blocks
    cfg = _config(name)
    reference = execute_scenario(cfg)
    dim = reference.trajectory.rho_at.spec.dim
    support = reference.trajectory.rho_at.support_size
    point_bytes = 16 * (operator_core._FULL_MATRICES * dim * dim
                        + operator_core._SUPPORT_MATRICES * support * support)
    for points in (1, 3, 5, 7, 11):
        monkeypatch.setattr(operator_core, "BLOCK_BYTES", points * point_bytes)
        result = execute_scenario(cfg)
        assert _verdicts(result) == _verdicts(reference)
        assert ([c.worst_value for c in result.report.checks]
                == [c.worst_value for c in reference.report.checks])
        npt.assert_array_equal(result.trajectory.states, reference.trajectory.states)
        for entry in dataclasses.fields(Diagnostics):
            a = getattr(result.trajectory.diagnostics, entry.name)
            b = getattr(reference.trajectory.diagnostics, entry.name)
            assert (a is None) == (b is None), entry.name
            if b is not None:
                npt.assert_array_equal(a, b, err_msg=entry.name)


def test_time_blocks_cover_the_grid_in_order():
    blocks = operator_core.time_blocks(1000, 12)
    covered = np.concatenate([np.arange(1000)[b] for b in blocks])
    npt.assert_array_equal(covered, np.arange(1000))
    assert len({b.stop - b.start for b in blocks[:-1]}) == 1
    # a point beyond the whole budget still gets a block of its own
    assert operator_core.time_blocks(3, 400)[0] == slice(0, 1)


def test_projector_stack_reports_first_failing_point():
    rng = np.random.default_rng(5)
    phi = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    chi = np.conj(phi)
    chi[4] = [phi[4, 1], -phi[4, 0], 0.0]  # <chi|phi> = 0 at points 4 ...
    chi[2] = [phi[2, 1], -phi[2, 0], 0.0]  # ... and 2
    *_, failure = _projector_stack(phi, chi, DEFAULT)
    index, error = failure
    assert index == 2 and isinstance(error, SingularDarboux)
    with pytest.raises(SingularDarboux) as point:
        projector(phi[2], chi[2])
    assert str(error) == str(point.value)


def test_normal_exp_degenerate_spectrum():
    # A^2 at even n has every eigenvalue twice; Q must stay unitary
    A = np.diag([1.0, -1.0, 2.0, -2.0]).astype(complex)
    rng = np.random.default_rng(3)
    V, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    G = V @ (A @ A) @ V.conj().T
    factor = NormalExp(G)
    s = np.array([0.0, 0.7j, -2.5j, 1.3])
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    rows, shift = factor.act(v, s)
    for row, k, sb in zip(rows, shift, s):
        npt.assert_allclose(row * np.exp(k), sla.expm(sb * G) @ v, atol=1e-12)
    npt.assert_array_equal(rows[0], v)
    M = rng.normal(size=(4, 4))
    for out, sb in zip(factor.similarity(M, s), s):
        npt.assert_allclose(out, sla.expm(sb * G) @ M @ sla.expm(-sb * G), atol=1e-11)


def test_normal_exp_rejects_non_normal_generator():
    with pytest.raises(DefectiveEigenproblem, match="not normal"):
        NormalExp(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_normal_exp_rows_stay_finite_at_large_s():
    G = np.diag([1.0 + 2.0j, -0.5 + 1.0j, 3.0])
    factor = NormalExp(G)
    v = np.array([1.0, 1.0, 0.0])  # the fastest mode is absent from v
    rows, shift = factor.act(v, np.array([-1j * 1e4]))
    assert np.all(np.isfinite(rows)) and np.isfinite(shift[0])
    # direction of exp(-i G t) v: the Im(g) = 2 mode dominates
    npt.assert_allclose(np.abs(rows[0]) / np.linalg.norm(rows[0]), [1.0, 0.0, 0.0],
                        atol=1e-12)


def test_mat_exp_stack_matches_slices():
    # each slice is scaled by its own norm: bitwise its one-point result
    rng = np.random.default_rng(9)
    stack = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
    stack *= np.array([1e-8, 0.3, 1.0, 7.0, 50.0, 300.0, 0.0, 1.0])[:, None, None]
    stack[7] = np.diag(rng.normal(size=3) * 4j)
    out = mat_exp(stack)
    for M, E in zip(stack, out):
        npt.assert_array_equal(E, mat_exp(M))
    npt.assert_array_equal(out[1:4], mat_exp(stack[1:4]))
    with pytest.raises(OverflowError):
        mat_exp(np.stack([np.zeros((2, 2)), np.diag([1e5, 0.0])]))


def test_large_t_dressing_has_no_spurious_singularity():
    # phi(t) underflows at |t| ~ 400 without the per-point shift
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)
    lax = build_lax(seed, 0.3 + 0.8j)
    traj = dressed_trajectory(DressedFlow(lax), np.linspace(-2000, 2000, 9))
    assert traj.singular_t is None
    for state in traj.states:
        assert np.all(np.isfinite(state))
        npt.assert_allclose(np.trace(state), np.trace(seed.rho0), atol=1e-10)


# numpy evaluates ``a * b`` in place into a temporary operand once it holds
# 256 KiB; on a 12 x 12 benchmark state with 24 nonzero entries the diagonal
# similarity's temporaries reach it at 683 points
ELISION_SIZES = (683, 700, 1400)


@pytest.fixture(scope="module")
def shifted_points(bench):
    # a drawn anticommuting-shift scenario's shift flow, and its states at
    # the largest size's times, each evaluated on its own
    cfg = bench.anticommuting_shift_config(random.Random(1), 0)
    scenario = read_scenario(cfg)
    seed = scenario.build_seed()
    flow = shifted_flow(DressedFlow(build_lax(seed, scenario.mu)),
                        scenario.shift_lambda * np.eye(seed.dim))
    times = np.linspace(-5.0, 5.0, max(ELISION_SIZES))
    return flow, times, np.concatenate([flow.stack(times[k:k + 1])
                                        for k in range(len(times))])


@pytest.mark.parametrize("size", ELISION_SIZES)
def test_shifted_stack_past_the_elision_size_matches_point_evaluation(
        shifted_points, size):
    flow, times, points = shifted_points
    npt.assert_array_equal(flow.stack(times[:size]), points[:size])


def _whole_result(result):
    # states, every diagnostic and the report of an executed scenario
    diagnostics = result.trajectory.diagnostics
    return (result.trajectory.states,
            {entry.name: getattr(diagnostics, entry.name)
             for entry in dataclasses.fields(Diagnostics)},
            result.report.to_dict())


def _assert_bitwise(a, b):
    npt.assert_array_equal(a[0], b[0])
    for name, value in b[1].items():
        assert (a[1][name] is None) == (value is None), name
        if value is not None:
            npt.assert_array_equal(a[1][name], value, err_msg=name)
    assert a[2] == b[2]


@pytest.mark.parametrize("workload", ["delta-covariance", "anticommuting-shift"])
def test_a_whole_grid_in_one_stack_is_bitwise_every_other_cut(bench, workload,
                                                               monkeypatch):
    # a drawn 201-sample 12 x 12 scenario (the anticommuting one under the
    # shift and rescale chain) is one stack now; its states and report are
    # bitwise those of 105-point blocks (the budget of 8 whole and 24
    # support matrices per point, 32 whole per checked state) and of
    # one-point blocks
    cfg, errors = validate_config(
        bench.SCENARIO_WORKLOADS[workload](random.Random(21), 0))
    assert not errors
    assert operator_core.time_blocks(201, 12, support=2) == [slice(0, 201)]
    assert operator_core.time_blocks(201, 12) == [slice(0, 201)]
    whole = _whole_result(execute_scenario(cfg))
    assert len(whole[0]) == 201

    monkeypatch.setattr(operator_core, "_FULL_MATRICES", 8)
    monkeypatch.setattr(operator_core, "_SUPPORT_MATRICES", 24)
    monkeypatch.setattr(operator_core, "_CHECK_MATRICES", 32)
    assert operator_core.time_blocks(201, 12, support=2)[0] == slice(0, 105)
    assert operator_core.time_blocks(201, 12)[0] == slice(0, 28)
    _assert_bitwise(_whole_result(execute_scenario(cfg)), whole)

    monkeypatch.setattr(operator_core, "BLOCK_BYTES", 1)
    assert len(operator_core.time_blocks(201, 12, support=2)) == 201
    _assert_bitwise(_whole_result(execute_scenario(cfg)), whole)


@pytest.mark.parametrize("dim", [2, 12, 32])
def test_normal_exp_rows_of_one_point_are_bitwise_rows_of_a_stack(dim):
    # numpy multiplies a lone row by gemv and a stack of rows by gemm, which
    # round differently; a one-point stack must give its row of a larger one
    rng = np.random.default_rng(dim)
    H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    factor = NormalExp(H + H.conj().T)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    s = -1j * np.linspace(-3.0, 3.0, 7)
    for left in (False, True):
        rows, shift = factor.act(v, s, left=left)
        for k in range(len(s)):
            one, one_shift = factor.act(v, s[k:k + 1], left=left)
            npt.assert_array_equal(one[0], rows[k])
            assert one_shift[0] == shift[k]


@pytest.mark.parametrize("nu", [None, 0.5 - 1.1j], ids=["hermitian", "general"])
def test_dense_one_point_blocks_are_bitwise_the_whole_stack(nu, monkeypatch):
    # a 12 x 12 seed in a random frame: J is every index and the Lax rows
    # are multiplied by the factored generators' bases
    seed = _rotated_delta_seed(D12_BLOCKS, a=0.9)
    lax = build_lax(seed, 0.3 + 0.8j, nu, lam=0.2 + 2.0j)
    times = np.linspace(-2.0, 2.0, 17)
    whole = dressed_trajectory(DressedFlow(lax), times)
    assert operator_core.time_blocks(len(times), seed.dim, seed.dim) == [slice(0, 17)]
    report = run_suite(whole).to_dict()
    monkeypatch.setattr(operator_core, "BLOCK_BYTES", 1)
    points = dressed_trajectory(DressedFlow(lax), times)
    npt.assert_array_equal(points.states, whole.states)
    for entry in dataclasses.fields(Diagnostics):
        a, b = getattr(points.diagnostics, entry.name), getattr(whole.diagnostics, entry.name)
        if b is not None:
            npt.assert_array_equal(a, b, err_msg=entry.name)
    assert run_suite(points).to_dict() == report
