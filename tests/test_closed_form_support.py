"""The closed forms on a 2 x 2 support: the t_equality exponential and P @ P.

In hermitian mode a 2 x 2 projector's ``exp(z P)`` comes from the closed-form
eigen-split of its Hermitian part, and the idempotency gate squares it from
four entry formulas.  These tests hold both to ``scipy.linalg.expm`` and to
the matrix product, hold the gate to the verdicts of the batched ``eigh`` it
replaces, and pin the paths every other support size and general mode keep.
"""

import random

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla

from vndarboux import (DEFAULT, ModelSpec, SeedFamily, SeedSolution, build_lax,
                       darboux_engine, make_commuting_seed,
                       make_delta_commuting_seed)
from vndarboux.darboux_engine import (DressedFlow, _hermitian_exp,
                                      _similarity_stack)
from vndarboux.operator_core import block_matmul, dagger, frob_stack
from vndarboux.scenario_cli import read_scenario

MU = (0.3 + 0.8j, -1.1 + 0.2j, 0.05 - 1.4j, 0.9 - 0.4j)
# hermitian-mode exponents ln(mu / conj(mu)), and one with a real part: the
# closed form assumes no symmetry of z
Z = tuple(np.log(mu / np.conj(mu)) for mu in MU) + (0.4 - 1.3j,)
WORKLOADS = ("delta-covariance", "anticommuting-shift")


def _eigh_exp(z, P):
    # the batched eigh path, as every support size but 2 computes it
    w, V = np.linalg.eigh((P + dagger(P)) / 2)
    return (V * np.exp(z * w)[:, None, :]) @ dagger(V)


def _hermitian(rng, count, dim=2, scale=1.0):
    X = scale * (rng.normal(size=(count, dim, dim))
                 + 1j * rng.normal(size=(count, dim, dim)))
    return (X + dagger(X)) / 2


def _relative_gap(z, P):
    expected = np.array([sla.expm(z * M) for M in (P + dagger(P)) / 2])
    return np.max(frob_stack(_hermitian_exp(z, P) - expected)
                  / frob_stack(expected))


def _edge_cases():
    rng = np.random.default_rng(5)
    H = _hermitian(rng, 6)
    diagonal = H * np.eye(2)                           # b = 0
    scalar = np.array([c * np.eye(2) for c in (0.0, 1.0, -2.5, 1e-300)])  # r = 0
    near = np.repeat(np.diag([0.7, 0.7])[None], 5, axis=0).astype(complex)
    near[:, 0, 0] += np.array([1e-8, 1e-12, 1e-15, 0.0, 0.0])
    near[:, 0, 1] = np.array([0.0, 1e-13j, 1e-16, 1e-15 + 1e-15j, 5e-324])
    near[:, 1, 0] = np.conj(near[:, 0, 1])
    return {"diagonal": diagonal, "scalar": scalar, "near-degenerate": near}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_closed_form_matches_expm_on_random_hermitian_stacks(scale):
    P = _hermitian(np.random.default_rng(int(scale * 1000)), 200, scale=scale)
    for z in Z:
        assert _relative_gap(z, P) <= 1e-12


@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_closed_form_matches_expm_at_the_edge_cases(case):
    P = _edge_cases()[case]
    for z in Z:
        assert _relative_gap(z, P) <= 1e-12


def _workload_projectors(bench, workload, draws=4):
    # the 2 x 2 support projectors of drawn benchmark scenarios, at the times
    # their dressing is evaluated (Y t under the anticommuting-shift rescale)
    stacks = []
    for index in range(draws):
        cfg = bench.SCENARIO_WORKLOADS[workload](random.Random(41 + index), index)
        scenario = read_scenario(cfg)
        seed = scenario.build_seed()
        lax = build_lax(seed, scenario.mu, scenario.nu, scenario.lam)
        flow = DressedFlow(lax)
        assert flow.support_size == 2 and lax.params.hermitian_mode
        dressed = flow.evaluate(scenario.rescale_y * scenario.times)
        assert dressed.failure is None
        stacks.append((np.log(lax.params.mu / lax.params.nu), dressed.P))
    return stacks


@pytest.mark.parametrize("workload", WORKLOADS)
def test_closed_form_matches_expm_on_the_workload_projectors(bench, workload):
    for z, P in _workload_projectors(bench, workload):
        assert _relative_gap(z, P) <= 1e-12


@pytest.mark.parametrize("workload", WORKLOADS)
def test_square_is_the_matrix_product_to_one_ulp(bench, workload):
    # each real and imaginary part within one ulp of the entry's terms,
    # sum_k |P_ik| |P_kj|, on projectors and on random (general) matrices
    rng = np.random.default_rng(11)
    X = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    stacks = [P for _, P in _workload_projectors(bench, workload)] + [X]
    for P in stacks:
        terms = (np.abs(P[..., :, :1]) * np.abs(P[..., :1, :])
                 + np.abs(P[..., :, 1:]) * np.abs(P[..., 1:, :]))
        gap = block_matmul(P, P) - P @ P
        for part in (gap.real, gap.imag):
            assert np.all(np.abs(part) <= np.spacing(terms))


def _verdicts(P, mu, monkeypatch):
    # (closed form, batched eigh) t_equality failures of a hermitian-mode P
    closed = _similarity_stack(P, mu, np.conj(mu), DEFAULT, True)[1]
    with monkeypatch.context() as patch:
        patch.setattr(darboux_engine, "_hermitian_exp", _eigh_exp)
        eigh = _similarity_stack(P, mu, np.conj(mu), DEFAULT, True)[1]
    return closed, eigh


def _delta_projectors():
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2), (-0.5, 0.3)], a=0.9)
    mu = 0.9 - 0.4j
    flow = DressedFlow(build_lax(seed, mu))
    assert flow.support_size == 2
    return flow.evaluate(np.linspace(-2.0, 2.0, 9)).P, mu


def test_planted_excess_trips_where_eigh_trips(monkeypatch):
    # (1 + eps) P from the fourth point on: the same eps trips, at the same
    # point, with the same message
    P, mu = _delta_projectors()
    for excess in (1e-9, 1e-10, 3e-11, 1e-11, 1e-12):
        planted = P.copy()
        planted[3:] *= 1 + excess
        closed, eigh = _verdicts(planted, mu, monkeypatch)
        assert (closed is None) == (eigh is None) == (excess < 1e-10), excess
        if closed is not None:
            assert closed[0] == eigh[0] == 3
            assert type(closed[1]) is type(eigh[1])
            assert str(closed[1]) == str(eigh[1])


def test_planted_anti_hermitian_part_is_never_looser_than_eigh(monkeypatch):
    # both leave P's anti-Hermitian part out of the exponential: the closed
    # form's gap is the eigh gap to round-off, and trips wherever it trips
    P, mu = _delta_projectors()
    rng = np.random.default_rng(17)
    K = 1j * _hermitian(rng, len(P))
    z = np.log(mu / np.conj(mu))
    verdicts = []
    for eps in (1e-8, 1e-9, 3e-10, 1e-10, 3e-11, 1e-11, 1e-12):
        planted = P + eps * K
        T = np.eye(2) + ((mu - np.conj(mu)) / np.conj(mu)) * planted
        closed_gap = frob_stack(T - _hermitian_exp(z, planted))
        eigh_gap = frob_stack(T - _eigh_exp(z, planted))
        assert np.all(closed_gap >= eigh_gap - 1e-15), eps
        closed, eigh = _verdicts(planted, mu, monkeypatch)
        assert eigh is None or (closed is not None and closed[0] <= eigh[0]), eps
        verdicts.append(closed is None)
    # the largest part trips and the smallest passes
    assert not verdicts[0] and verdicts[-1]


@pytest.mark.parametrize("dim", [1, 3, 5, 12])
def test_other_sizes_keep_the_batched_eigh_bitwise(dim):
    P = _hermitian(np.random.default_rng(dim), 40, dim)
    for z in Z:
        npt.assert_array_equal(_hermitian_exp(z, P), _eigh_exp(z, P))


def _frame(dim):
    rng = np.random.default_rng(3)
    return np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))[0]


def _rotated_seed(blocks=6):
    # a Delta-commuting seed in a random unitary frame: J is every index
    seed = make_delta_commuting_seed(
        [(0.4 * k - 1.0, 0.1 + 0.05 * k) for k in range(blocks)], a=0.9)
    U = _frame(2 * blocks)
    A = U @ seed.spec.A @ dagger(U)
    return SeedSolution(SeedFamily.DELTA_COMMUTING, U @ seed.rho0 @ dagger(U),
                        ModelSpec(1, (A + dagger(A)) / 2), a=seed.a)


def _spy(monkeypatch, owner, name):
    calls, original = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(
        np.shape(args[-1])) or original(*args))
    return calls


@pytest.mark.parametrize("case", ["support-2", "support-3", "rotated-12", "general"])
def test_each_support_takes_its_exponential(case, monkeypatch):
    # |J| = 2 in hermitian mode is the closed form, with no eigh and no
    # mat_exp; |J| = 3 and the rotated seed's |J| = 12 keep the batched eigh,
    # and general mode keeps mat_exp, each once per evaluated stack
    if case == "support-3":
        # a commuting seed in a random unitary frame of 3 indices
        base = make_commuting_seed([0.3, 0.5, 0.2], [1.0, -0.5, 0.7])
        U = _frame(3)
        seed = SeedSolution(SeedFamily.COMMUTING, U @ base.rho0 @ dagger(U),
                            ModelSpec(1, U @ base.spec.A @ dagger(U)))
    elif case == "rotated-12":
        seed = _rotated_seed()
    else:
        seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.9)
    nu = 0.5 - 1.1j if case == "general" else None
    lax = build_lax(seed, 0.3 + 0.8j, nu)
    flow = DressedFlow(lax)
    times = np.linspace(-1.0, 1.0, 7)
    eigh = _spy(monkeypatch, np.linalg, "eigh")
    mat_exp = _spy(monkeypatch, darboux_engine, "mat_exp")
    closed = _spy(monkeypatch, darboux_engine, "_hermitian_exp_2x2")
    dressed = flow.evaluate(times)
    assert dressed.failure is None
    k = flow.support_size
    expected = {"support-2": (2, [], [], [(7, 2, 2)]),
                "support-3": (3, [(7, 3, 3)], [], []),
                "rotated-12": (12, [(7, 12, 12)], [], []),
                "general": (2, [], [(7, 2, 2)], [])}[case]
    assert (k, eigh, mat_exp, closed) == expected
