"""The support J of a dressing: found once per flow, and exact.

The paper's seeds are built from blocks, so the pencil ``rho0 - mu A`` is
block-diagonal and its Lax eigenvector lies in one block.  ``DressedFlow``
computes projectors, T and every gate on ``J x J``; these tests pin J for
each family and compare what the flow returns with the whole-matrix formulas.
"""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla

from conftest import assert_near_eigvalsh, scaled_projectors, whole_projectors
from vndarboux import (DEFAULT, InconsistentLax, ModelSpec, SeedFamily,
                       SeedSolution, SingularDarboux, build_lax,
                       darboux_engine, dressed_state_at, dressed_trajectory,
                       make_anticommuting_seed, make_commuting_seed,
                       make_delta_commuting_seed, rescaled_flow, run_suite,
                       shifted_flow)
from vndarboux.darboux_engine import DressedFlow, _block, _similarity_stack
from vndarboux.operator_core import hermitian_spectra
from vndarboux.vne_model import five_point

TIMES = np.linspace(-1.5, 1.5, 13)
DP = 1e-4  # a central difference's step for p_dot_norm
#: a bound on ||P'''||_F over the seeds below (measured at most 0.43)
P_DDDOT = 1.0
GENERAL_NU = 0.2 - 0.5j


#: the blocks of a 12 x 12 Delta-commuting seed, the benchmark's dimension
D12_BLOCKS = ((1.0, 0.2), (3.0, -0.2), (-0.5, 0.3), (2.0, 0.15), (-1.5, -0.25),
              (0.5, 0.1))


def _rotated_delta_seed(blocks=((1.0, 0.2), (3.0, -0.2)), a=0.5):
    # a Delta-commuting seed in a random unitary basis: every entry of A and
    # rho0 is nonzero, so J is every index
    seed = make_delta_commuting_seed(blocks, a=a)
    rng = np.random.default_rng(3)
    d = seed.dim
    U = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    A = U @ seed.spec.A @ U.conj().T
    return SeedSolution(SeedFamily.DELTA_COMMUTING, U @ seed.rho0 @ U.conj().T,
                        ModelSpec(1, (A + A.conj().T) / 2), a=seed.a)


SEEDS = {
    **{f"anticommuting-n{n}": (
        lambda n=n: make_anticommuting_seed(3, [0.7, -0.4, 0.5],
                                            alpha=[1.0, 1.3, -0.8], n=n), 2)
       for n in (1, 2, 3)},
    "delta": (lambda: make_delta_commuting_seed(
        [(1.0, 0.2), (3.0, -0.2), (-0.5, 0.3)], a=0.9), 2),
    # a diagonal seed: every block is one index
    "commuting": (lambda: make_commuting_seed([0.3, 0.5, 0.2], [1.0, -0.5, 0.7]), 1),
    "sigma-x": (lambda: make_anticommuting_seed(1, [1.0], n=2), 2),
    "dense": (_rotated_delta_seed, 4),
}


def _components(seed):
    # the blocks of the seed's nonzero pattern, by a plain graph search
    pattern = (seed.spec.A != 0) | (seed.rho0 != 0)
    pattern = pattern | pattern.T
    left, blocks = set(range(seed.dim)), []
    while left:
        block, todo = set(), [min(left)]
        while todo:
            i = todo.pop()
            if i not in block:
                block.add(i)
                todo.extend(np.flatnonzero(pattern[i]))
        blocks.append(sorted(block))
        left -= block
    return blocks


@pytest.mark.parametrize("name", sorted(SEEDS))
@pytest.mark.parametrize("nu", [None, GENERAL_NU])
def test_support_is_the_block_of_the_eigenvector(name, nu):
    make, size = SEEDS[name]
    seed = make()
    lax = build_lax(seed, 0.3 + 0.9j, nu)
    support = DressedFlow(lax).support
    assert len(support) == size
    assert list(support) in _components(seed)
    outside = np.setdiff1d(np.arange(seed.dim), support)
    assert not lax.phi0[outside].any() and not lax.chi0[outside].any()


def test_chi_in_another_block_gives_the_union():
    # a pinned nu root whose left eigenvector lies in the second block
    seed = make_anticommuting_seed(2, [0.7, -0.4], alpha=[1.0, 1.3], n=1)
    mu, nu = 0.3 + 0.9j, GENERAL_NU
    pin = np.linalg.eigvals((seed.rho0 - nu * seed.spec.A)[2:, 2:])[0]
    lax = build_lax(seed, mu, nu, z_nu_pin=pin)
    assert not lax.chi0[:2].any() and not lax.phi0[2:].any()
    npt.assert_array_equal(DressedFlow(lax).support, [0, 1, 2, 3])
    # <chi|phi> = 0 exactly: singular at the first sample, as before
    traj = dressed_trajectory(DressedFlow(lax), TIMES)
    assert traj.singular_t == TIMES[0] and len(traj.states) == 0


def test_an_operator_coupling_two_blocks_joins_them():
    # H couples index 1 of the first block to index 2 of the second; equal
    # |kappa| keep Delta_a a multiple of the identity on both, so the seed is
    # still Delta-commuting
    seed = make_delta_commuting_seed([(1.0, 0.2), (1.5, -0.2), (3.0, 0.3)], a=0.9)
    H = np.array(seed.spec.A)
    H[1, 2] = H[2, 1] = 0.4
    coupled = SeedSolution(SeedFamily.DELTA_COMMUTING, seed.rho0, ModelSpec(1, H),
                           a=seed.a)
    lax = build_lax(coupled, 0.3 + 0.8j)
    npt.assert_array_equal(DressedFlow(lax).support, [0, 1, 2, 3])
    traj = dressed_trajectory(DressedFlow(lax), TIMES)
    assert run_suite(traj).overall
    rho1, P, _ = _reference(coupled, lax, TIMES)
    npt.assert_array_equal(whole_projectors(traj), P)
    npt.assert_allclose(traj.states, rho1, rtol=0, atol=1e-15)
    # a coupling through rho0: A is degenerate on indices 0 and 2, which
    # rho0 joins; the union is not contiguous
    A = np.diag([1.0, 2.0, 1.0, 3.0]).astype(complex)
    rho0 = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    rho0[0, 2] = rho0[2, 0] = 0.05
    seed = SeedSolution(SeedFamily.COMMUTING, rho0, ModelSpec(1, A))
    lax = build_lax(seed, 0.3 + 0.9j)
    npt.assert_array_equal(DressedFlow(lax).support, [0, 2])
    traj = dressed_trajectory(DressedFlow(lax), TIMES)
    assert run_suite(traj).overall
    rho1, P, _ = _reference(seed, lax, TIMES)
    npt.assert_array_equal(whole_projectors(traj), P)
    npt.assert_allclose(traj.states, rho1, rtol=0, atol=1e-15)


def _rows(lax, t):
    # the normalized whole rows of phi and chi
    phi = lax.phi_rows(t)[0]
    chi = np.conj(phi) if lax.params.hermitian_mode else lax.chi_rows(t)[0]
    return (phi / np.linalg.norm(phi, axis=-1)[:, None],
            chi / np.linalg.norm(chi, axis=-1)[:, None])


def _whole_projectors(lax, t):
    phi, chi = _rows(lax, t)
    overlap = np.sum(chi * phi, axis=-1)
    return phi[:, :, None] * chi[:, None, :] / overlap[:, None, None]


def _reference(seed, lax, times):
    # the whole-matrix formulas: P = |phi><chi| / <chi|phi> from the
    # normalized rows, rho[1] = rho + (mu - nu) [P, A], and P' by the
    # quotient rule on phi' = -i G phi and chi' = i chi G_nu with the
    # whole generators
    params = lax.params
    P = _whole_projectors(lax, times)
    A = seed.spec.A
    rho1 = seed.stack(times) + (params.mu - params.nu) * (P @ A - A @ P)
    phi, chi = _rows(lax, times)
    G = lax.generators
    dphi = -1j * phi @ G[0].T
    dchi = np.conj(dphi) if params.hermitian_mode else 1j * chi @ G[-1]
    overlap = np.sum(chi * phi, axis=-1)[:, None, None]
    rate = np.sum(dchi * phi + chi * dphi, axis=-1)[:, None, None]
    P_dot = (dphi[:, :, None] * chi[:, None, :] + phi[:, :, None] * dchi[:, None, :]
             - P * rate) / overlap
    return rho1, P, P_dot


@pytest.mark.parametrize("name", sorted(SEEDS))
@pytest.mark.parametrize("nu", [None, GENERAL_NU])
@pytest.mark.parametrize("h", [1e-2, 1e-3])
def test_projector_rates_match_a_five_point_difference(name, nu, h):
    # P' against the 5-point stencil of the projectors themselves, within
    # its truncation h^4 ||P^(5)||_F / 30, with ||P^(5)||_F bounded by
    # (2 ||G_J||_2)^5 ||P||_F over the generators' support blocks, and its
    # round-off 2 eps ||P||_F / h (the measured error is at most 0.38 of it)
    seed = SEEDS[name][0]()
    lax = build_lax(seed, 0.3 + 0.9j, nu)
    flow = DressedFlow(lax)
    dressed = flow.evaluate(TIMES)
    assert dressed.failure is None
    P, P_dot = dressed.P, flow.projector_rates(dressed)
    stencil = five_point(lambda ring: flow.evaluate(ring).P, TIMES, h)
    rate = max(np.linalg.norm(_block(G, flow.support), 2) for G in lax.generators)
    size = np.linalg.norm(P, axis=(-2, -1))
    bound = h ** 4 / 30 * (2 * rate) ** 5 * size + 2 * np.finfo(float).eps * size / h
    assert np.all(np.linalg.norm(P_dot - stencil, axis=(-2, -1)) <= bound)


@pytest.mark.parametrize("name", sorted(SEEDS))
@pytest.mark.parametrize("nu", [None, GENERAL_NU])
def test_trajectory_is_bitwise_the_whole_matrix_dressing(name, nu):
    seed = SEEDS[name][0]()
    lax = build_lax(seed, 0.3 + 0.9j, nu)
    traj = dressed_trajectory(DressedFlow(lax), TIMES)
    assert traj.singular_t is None
    rho1, P, P_dot = _reference(seed, lax, TIMES)
    diag = traj.diagnostics
    npt.assert_array_equal(traj.states, rho1)
    npt.assert_array_equal(diag.rho1, rho1)
    npt.assert_array_equal(whole_projectors(traj), P)
    states = traj.states
    npt.assert_array_equal(diag.hermiticity_gap,
                           np.linalg.norm(states - states.conj().transpose(0, 2, 1),
                                          axis=(-2, -1)))
    if diag.spectrum is not None:
        # the spectra of the states' blocks: round-off away from eigvalsh's
        npt.assert_array_equal(diag.spectrum, hermitian_spectra(states))
        assert_near_eigvalsh(diag.spectrum, states)
    rows, shift = lax.phi_rows(TIMES)
    npt.assert_array_equal(diag.phi_norm, np.exp(shift) * np.linalg.norm(rows, axis=-1))
    # P' on the support against the whole-matrix quotient rule: round-off only
    J = traj.rho_at.root.support
    whole_P_dot = np.zeros_like(P_dot)
    whole_P_dot[:, J[:, None], J] = diag.P_dot
    npt.assert_allclose(whole_P_dot, P_dot, rtol=0, atol=1e-14)
    npt.assert_allclose(diag.p_dot_norm, np.linalg.norm(P_dot, axis=(-2, -1)),
                        rtol=1e-13, atol=1e-15)
    # and against a central difference of the whole projectors: round-off
    # amplified by 1 / (2 dp), and a truncation of at most ||P'''||_F dp^2 / 6
    p_dot = np.linalg.norm(_whole_projectors(lax, TIMES + DP)
                           - _whole_projectors(lax, TIMES - DP), axis=(-2, -1)) / (2 * DP)
    assert np.all(np.abs(diag.p_dot_norm - p_dot) <= 1e-13 / DP + P_DDDOT * DP ** 2 / 6)
    T = np.eye(seed.dim) + ((lax.params.mu - lax.params.nu) / lax.params.nu) * P
    T_inv = np.eye(seed.dim) + ((lax.params.nu - lax.params.mu) / lax.params.mu) * P
    form_gap = np.linalg.norm(rho1 - T @ seed.stack(TIMES) @ T_inv, axis=(-2, -1))
    assert np.all(np.abs(diag.form_gap - form_gap) <= 1e-14 * np.maximum(1.0, np.abs(P).max()))


@pytest.mark.parametrize("nu", [None, 0.5 - 1.1j])
def test_t_equality_trips_on_the_support_as_on_whole_matrices(nu, monkeypatch):
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2), (-0.5, 0.3)], a=0.9)
    mu = 0.9 - 0.4j if nu is None else 0.3 + 0.8j
    lax = build_lax(seed, mu, nu)
    flow = DressedFlow(lax)
    assert len(flow.support) == 2
    times = np.linspace(-2.0, 2.0, 9)
    _, P_full, _ = _reference(seed, lax, times)
    for excess in (1e-10, 1e-11):
        with monkeypatch.context() as patch:
            patch.setattr(darboux_engine, "_projector_stack", lambda phi, chi, tol:
                          scaled_projectors(1 + excess, phi, chi, tol))
            failure = flow.evaluate(times).failure
        whole = _similarity_stack((1 + excess) * P_full, mu, lax.params.nu, DEFAULT,
                                  lax.params.hermitian_mode)[1]
        assert (failure is None) == (whole is None) == (excess < 1e-10), excess
        if failure is not None:
            assert failure[0] == whole[0] == 0
            assert isinstance(failure[1], InconsistentLax)
            assert str(failure[1]) == str(whole[1])


def test_overlap_floor_trips_at_the_same_sample():
    # the relative overlap |<chi|phi>| / (|phi| |chi|) from whole rows; a
    # floor just above it is singular at the first sample, just below passes
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2), (-0.5, 0.3)], a=0.9)
    lax = build_lax(seed, 0.3 + 0.8j, 0.5 - 1.1j)
    phi, chi = lax.phi_rows(TIMES)[0], lax.chi_rows(TIMES)[0]
    relative = (np.abs(np.sum(chi * phi, axis=-1))
                / (np.linalg.norm(phi, axis=-1) * np.linalg.norm(chi, axis=-1)))
    for factor, singular in ((1 + 1e-9, True), (1 - 1e-9, False)):
        tolerances = dataclasses.replace(DEFAULT, overlap_floor=float(relative.max() * factor))
        lax_t = dataclasses.replace(lax, tolerances=tolerances)
        traj = dressed_trajectory(DressedFlow(lax_t), TIMES)
        assert traj.singular_t == (TIMES[0] if singular else None)
        if singular:
            with pytest.raises(SingularDarboux, match="below the relative floor"):
                DressedFlow(lax_t).stack(TIMES)


def test_support_blocks_match_scipy_exponential():
    # T on the support against scipy's expm of the whole projector
    seed = SEEDS["delta"][0]()
    lax = build_lax(seed, 0.3 + 0.8j)
    flow = DressedFlow(lax)
    dressed = flow.evaluate(TIMES)
    _, P_full, _ = _reference(seed, lax, TIMES)
    z = np.log(lax.params.mu / lax.params.nu)
    for T, P in zip(dressed.T, P_full):
        npt.assert_allclose(_block(sla.expm(z * P), flow.support), T, rtol=0, atol=1e-13)
        outside = np.setdiff1d(np.arange(seed.dim), flow.support)
        npt.assert_allclose(sla.expm(z * P)[np.ix_(outside, outside)],
                            np.eye(len(outside)), rtol=0, atol=1e-13)


def _shift_rescale(seed, lax):
    # a shift, then a rescaling by a negative Y, of the dressing
    flow = shifted_flow(DressedFlow(lax), 0.7 * np.eye(seed.dim))
    return rescaled_flow(flow, -0.6)


@pytest.mark.parametrize("name, nu, flowed", [
    ("delta", None, False), ("delta", GENERAL_NU, False),
    ("dense", None, False), ("dense", GENERAL_NU, False),
    ("anticommuting-n3", None, True), ("delta", None, True)])
def test_recorded_projectors_embed_to_the_point_projectors(name, nu, flowed):
    # each recorded block, put at J into a zero matrix, is bitwise the whole
    # projector of dressed_state_at at the time the sample was dressed
    seed = SEEDS[name][0]()
    lax = build_lax(seed, 0.3 + 0.9j, nu)
    flow = _shift_rescale(seed, lax) if flowed else DressedFlow(lax)
    traj = dressed_trajectory(flow, TIMES)
    assert traj.singular_t is None
    diag = traj.diagnostics
    J = DressedFlow(lax).support
    npt.assert_array_equal(traj.rho_at.root.support, J)
    assert diag.P.shape == (len(TIMES), len(J), len(J))
    at = TIMES if flow is None else flow.source_times(TIMES)
    whole = whole_projectors(traj)
    for k, t in enumerate(at):
        assert whole[k].tobytes() == dressed_state_at(seed, lax, t).P.tobytes()
