"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE k (<name>): PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  Randomized criteria use a fixed RNG
stream, so the whole suite is deterministic.
"""

import dataclasses

import numpy as np
import pytest

from conftest import SX, SZ, draw_valid_scenario, rk4_ode
from vndarboux import (InconsistentLax, build_lax, dressed_trajectory,
                       explicit_eavn, make_anticommuting_seed,
                       make_commuting_seed, make_delta_commuting_seed,
                       make_pure_state_seed, nlse_rhs, normalize_to_density,
                       residual, rescaled_flow, run_suite, shifted_flow,
                       trace_moments, transform_psi)
from vndarboux.darboux_engine import projector_at
from vndarboux.lax_engine import DarbouxParams
from vndarboux.operator_core import dagger, frob
from vndarboux.symmetry_transforms import ShiftSpec
from vndarboux.vne_model import ModelSpec, default_step, hamiltonian_of


SAMPLES = np.linspace(-2.0, 2.0, 5)


def _report(k, name, ok, detail):
    line = f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scenario_batch():
    rng = np.random.default_rng(20260810)
    return [draw_valid_scenario(rng, SAMPLES) for _ in range(200)]


def test_criterion_1_projector_idempotency(scenario_batch):
    worst_idem, worst_trace = 0.0, 0.0
    for _, _, traj in scenario_batch:
        for P in traj.diagnostics.P:
            worst_idem = max(worst_idem, frob(P @ P - P))
            worst_trace = max(worst_trace, abs(np.trace(P) - 1.0))
    ok = worst_idem <= 1e-11 and worst_trace <= 1e-11
    _report(1, "idempotency", ok,
            f"200 scenarios, worst |P^2-P| = {worst_idem:.2e}, "
            f"worst |Tr P - 1| = {worst_trace:.2e}, tol 1e-11")


def test_criterion_2_two_form_equality(scenario_batch):
    worst_gap, worst_bridge = 0.0, 0.0
    for seed, lax, traj in scenario_batch:
        mu, nu = lax.params.mu, lax.params.nu
        A = seed.spec.A
        diag = traj.diagnostics
        for t, form_gap, P in zip(traj.times, diag.form_gap, diag.P):
            worst_gap = max(worst_gap, form_gap)
            rho = seed.rho_at(t)
            bridge = (((nu - mu) / (mu * nu)) * (P @ rho @ P)
                      - (rho @ P) / mu + (P @ rho) / nu)
            worst_bridge = max(worst_bridge, frob((P @ A - A @ P) - bridge))
    ok = worst_gap <= 1e-9 and worst_bridge <= 1e-10
    _report(2, "two-form equality", ok,
            f"worst form_gap = {worst_gap:.2e} (tol 1e-9), "
            f"worst bridge gap = {worst_bridge:.2e} (tol 1e-10)")


def test_criterion_3_spectral_invariance(scenario_batch):
    worst_spec, worst_mom = 0.0, 0.0
    n_herm = n_gen = 0
    for seed, lax, traj in scenario_batch:
        if lax.params.hermitian_mode:
            n_herm += 1
            ref = np.linalg.eigvalsh(seed.rho0)
            for state in traj.states:
                vals = np.linalg.eigvalsh((state + dagger(state)) / 2)
                worst_spec = max(worst_spec, float(np.max(np.abs(vals - ref))))
        else:
            n_gen += 1
            ref = trace_moments(seed.rho0, seed.dim)
            for state in traj.states:
                gap = np.max(np.abs(trace_moments(state, seed.dim) - ref))
                worst_mom = max(worst_mom, float(gap))
    ok = worst_spec <= 1e-9 and worst_mom <= 1e-8
    _report(3, "spectral invariance", ok,
            f"{n_herm} hermitian (worst eig gap {worst_spec:.2e}, tol 1e-9), "
            f"{n_gen} general (worst moment gap {worst_mom:.2e}, tol 1e-8)")


def test_criterion_4_dressed_solutions_solve_equation():
    cases = [
        make_anticommuting_seed(2, [0.8, 1.1], alpha=[1.0, 1.3], n=1),
        make_anticommuting_seed(2, [0.8, 1.1], alpha=[1.0, 1.3], n=2),
        make_anticommuting_seed(1, [1.0], n=3),
        make_delta_commuting_seed([(1.0, 0.5), (2.0, -0.4)], a=0.7),
        make_commuting_seed([0.3, 0.9, 0.5], [1.0, -0.6, 0.4], n=1),
        make_commuting_seed([0.3, 0.9, 0.5], [1.0, -0.6, 0.4], n=2),
        make_commuting_seed([0.3, 0.9], [1.0, -0.6], n=3),
    ]
    worst = 0.0
    for seed in cases:
        lax = build_lax(seed, mu=0.6 + 0.7j)
        traj = dressed_trajectory(lax, SAMPLES)
        assert traj.singular_t is None
        for t in traj.times:
            worst = max(worst, residual(seed.spec, traj.rho_at, t).residual_norm)
    ok = worst <= 1e-6
    _report(4, "dressed solutions solve the flow", ok,
            f"families x n in {{1,2,3}}, worst residual = {worst:.2e}, tol 1e-6")


def test_criterion_5_density_matrix_preservation():
    # unit-trace PSD Delta-commuting seeds (a = 1/blocks, |kappa| < a/2)
    seeds = [
        make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5),
        make_delta_commuting_seed([(0.5, 0.1), (1.5, 0.08), (2.5, -0.09),
                                   (3.5, 0.11)], a=0.25),
    ]
    worst_h = worst_tr = 0.0
    worst_min = np.inf
    for seed, mu in zip(seeds, (0.3 + 0.8j, 1.0 - 0.6j)):
        vals0 = np.linalg.eigvalsh(seed.rho0)
        assert vals0[0] >= 0 and abs(np.trace(seed.rho0) - 1) <= 1e-12
        lax = build_lax(seed, mu=mu)
        traj = dressed_trajectory(lax, SAMPLES)
        for state, min_eig in zip(traj.states, traj.diagnostics.min_eig):
            worst_h = max(worst_h, frob(state - dagger(state)))
            worst_tr = max(worst_tr, abs(np.trace(state) - 1.0))
            worst_min = min(worst_min, min_eig)
    ok = worst_h <= 1e-10 and worst_tr <= 1e-11 and worst_min >= -1e-10
    _report(5, "hermiticity/trace/positivity", ok,
            f"worst herm gap {worst_h:.2e} (tol 1e-10), trace gap "
            f"{worst_tr:.2e} (tol 1e-11), min eig {worst_min:.2e} (floor -1e-10)")


def test_criterion_6_covariance_of_transformed_left_solution():
    rng = np.random.default_rng(87)
    times = np.linspace(-1.5, 1.5, 3)
    worst_eig, worst_teq = 0.0, 0.0
    pairs = 0
    from vndarboux import DarbouxError
    while pairs < 50:
        try:
            seed, lax, traj = draw_valid_scenario(rng, times)
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
            if abs(lam - lax.params.mu) < 0.3 or abs(lam) < 0.2:
                continue
            lax = build_lax(seed, lax.params.mu, lax.params.nu, lam)
            traj = dressed_trajectory(lax, times)
            if traj.singular_t is not None:
                continue
        except (DarbouxError, ValueError, RuntimeError):
            continue
        pairs += 1
        params = lax.params
        spec = seed.spec
        h = 10 * default_step(spec)

        def psi1_at(t):
            P = projector_at(lax, t)
            return transform_psi(lax.psi_at(t), P, params.mu, params.nu, params.lam)

        for t, rho1, P in zip(traj.times, traj.states, traj.diagnostics.P):
            psi1 = transform_psi(lax.psi_at(t), P, params.mu, params.nu,
                                 params.lam)
            # the lambda-solution carries an arbitrary (often exponentially
            # growing) scale, so both residuals are measured per unit norm
            scale = max(1.0, float(np.linalg.norm(psi1)))
            worst_eig = max(worst_eig, float(np.linalg.norm(
                params.z_lambda * psi1
                - psi1 @ (rho1 - params.lam * spec.A))) / scale)
            dpsi = (-psi1_at(t + 2 * h) + 8 * psi1_at(t + h)
                    - 8 * psi1_at(t - h) + psi1_at(t - 2 * h)) / (12 * h)
            V2 = hamiltonian_of(spec, rho1)
            worst_teq = max(worst_teq, float(np.linalg.norm(
                -1j * dpsi
                - psi1 @ (V2 - params.lam * spec.powers[spec.n + 1]))) / scale)
    ok = worst_eig <= 1e-9 and worst_teq <= 1e-8
    _report(6, "left-solution covariance", ok,
            f"50 (lambda, scenario) pairs, worst eigen-relation gap "
            f"{worst_eig:.2e} (tol 1e-9), worst time-equation gap "
            f"{worst_teq:.2e} (tol 1e-8), per unit psi norm")


def test_criterion_7_explicit_formula_matches_general_dressing():
    times = np.linspace(-5.0, 5.0, 101)
    worst = 0.0
    for blocks, mu in (
            ([(1.0, 0.5), (2.5, -0.4)], 1 + 1j),
            ([(0.5, 0.3), (1.2, -0.5), (2.2, 0.4), (3.0, 0.25)], 1 + 1j)):
        seed = make_delta_commuting_seed(blocks, a=0.8)
        lax = build_lax(seed, mu=mu)
        traj = dressed_trajectory(lax, times)
        assert traj.singular_t is None
        for t, state in zip(traj.times, traj.states):
            worst = max(worst, frob(explicit_eavn(seed, mu, lax.phi0, t) - state))
    ok = worst <= 1e-8
    _report(7, "explicit closed formula", ok,
            f"dims 4 and 8, t in [-5, 5] x 101, worst gap = {worst:.2e}, tol 1e-8")


def test_criterion_8_pure_state_equivalence():
    worst = 0.0
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for dim in (2, 4, 8):
            alpha = rng.uniform(-1.0, 1.0, dim)
            spec = ModelSpec(n, np.diag(alpha))
            psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi0 /= np.linalg.norm(psi0)
            psi_t = rk4_ode(lambda t, y: nlse_rhs(spec, y), psi0, 1.0, 1e-3)
            oracle = np.outer(psi_t, np.conj(psi_t))
            closed = make_pure_state_seed(spec, psi0).rho_at(1.0)
            worst = max(worst, frob(closed - oracle))
    # n = 1 reduces to the linear flow
    spec1 = ModelSpec(1, SZ)
    psi = np.array([0.6, 0.8j])
    linear_gap = np.linalg.norm(nlse_rhs(spec1, psi) - (-1j * SZ @ psi))
    ok = worst <= 1e-6 and linear_gap <= 1e-13
    _report(8, "pure-state equivalence", ok,
            f"n in {{1,2,3}}, dim <= 8: worst closed-form vs RK4 gap = "
            f"{worst:.2e} (tol 1e-6); n=1 linear-generator gap = {linear_gap:.2e}")


def test_criterion_9_symmetry_closure():
    # passing trajectories: the reference scenario and a Delta scenario
    sigma_seed = make_anticommuting_seed(1, [1.0], n=2)
    sigma_traj = dressed_trajectory(build_lax(sigma_seed, 1j), SAMPLES)
    delta_seed = make_delta_commuting_seed([(1.0, 0.4)], a=0.6)
    delta_traj = dressed_trajectory(build_lax(delta_seed, 0.5 + 0.5j), SAMPLES)
    worst_ratio = 0.0
    for seed, traj in ((sigma_seed, sigma_traj), (delta_seed, delta_traj)):
        spec = seed.spec
        for lam in (-1.0, 0.5, 2.0):
            flow = shifted_flow(spec, traj.rho_at, ShiftSpec.uniform(lam, seed.dim))
            tol = 1e-6 * (1.0 + abs(lam)) * max(1.0, frob(spec.A) ** spec.n)
            for t in traj.times:
                worst_ratio = max(worst_ratio,
                                  residual(spec, flow, t).residual_norm / tol)
        for Y in (0.5, 2.0):
            flow = rescaled_flow(traj.rho_at, Y)
            tol = 1e-6 * Y ** 2
            for t in traj.times:
                worst_ratio = max(worst_ratio,
                                  residual(spec, flow, t).residual_norm / tol)
    # normalize_to_density on the sigma-x seed
    X, Y, flow = normalize_to_density(sigma_seed.rho_at, sigma_seed.spec)
    start = flow(0.0)
    vals = np.linalg.eigvalsh((start + dagger(start)) / 2)
    eig_gap = float(np.max(np.abs(vals - np.array([0.0, 1.0]))))
    trace_gap = abs(np.trace(start) - 1.0)
    ok = worst_ratio <= 1.0 and eig_gap <= 1e-10 and trace_gap <= 1e-10
    _report(9, "symmetry closure", ok,
            f"worst residual/tolerance ratio = {worst_ratio:.2e}; normalized "
            f"sigma-x spectrum gap {eig_gap:.2e}, trace gap {trace_gap:.2e} "
            "(tol 1e-10)")


def test_criterion_10_reference_scenario():
    # hand oracle: pencil sx - i diag(1,-1) = [[-i,1],[1,i]] has the double
    # root z = 0 and null vector (1, i); P = |(1,i)><(1,-i)| / 2.
    # [P, A] = i sx, so rho[1] = sx + (mu - nu)[P, A] = sx - 2 sx = -sx.
    seed = make_anticommuting_seed(1, [1.0], n=2)
    lax = build_lax(seed, mu=1j)
    assert abs(lax.params.nu - (-1j)) <= 1e-15
    traj = dressed_trajectory(lax, SAMPLES)
    z_gap = abs(lax.params.z_mu)
    p_gap = max(frob(P - 0.5 * np.array([[1.0, -1j], [1j, 1.0]]))
                for P in traj.diagnostics.P)
    state_gap = max(frob(s - (-SX)) for s in traj.states)
    ok = z_gap <= 1e-12 and p_gap <= 1e-12 and state_gap <= 1e-10
    _report(10, "sigma-x reference scenario", ok,
            f"|z_mu| = {z_gap:.2e}, |P - P_ref| = {p_gap:.2e}, "
            f"|rho1(t) + sx| = {state_gap:.2e} (tol 1e-10)")


def test_criterion_11_fault_injection():
    seed = make_anticommuting_seed(1, [1.0], n=2)
    lax = build_lax(seed, mu=1j)
    detected = []

    # (a) P from a non-eigenvector phi: the form-gap/bridge named checks
    # fire as InconsistentLax inside dress
    from vndarboux import dress, projector
    phi_bad = (lax.phi0 + np.array([0.4, 0.0])) / np.linalg.norm(lax.phi0 + np.array([0.4, 0.0]))
    P_bad = projector(phi_bad, np.conj(phi_bad))
    try:
        dress(seed.rho0, seed.spec.A, P_bad, 1j, -1j)
        detected.append(False)
    except InconsistentLax:
        detected.append(True)

    # (b) hermitian_mode claimed while nu != conj(mu): chi = conj(phi) is not
    # a genuine nu-eigenvector, so the bridge identity trips
    fake = DarbouxParams(mu=1j, nu=2j, lam=None, z_mu=lax.params.z_mu,
                         z_nu=np.conj(lax.params.z_mu), z_lambda=None,
                         hermitian_mode=True)
    chi_fake = dataclasses.replace(lax, params=fake).chi_at(0.0)
    P_fake = projector(lax.phi0, chi_fake)
    try:
        dress(seed.rho0, seed.spec.A, P_fake, fake.mu, fake.nu)
        detected.append(False)
    except InconsistentLax:
        detected.append(True)

    # (c) perturbed trajectory: the residual named check fails
    traj = dressed_trajectory(lax, SAMPLES)
    from vndarboux import Trajectory
    corrupted_at = lambda t: traj.rho_at(t) + 0.1 * t * SX
    bad = Trajectory(times=traj.times,
                     states=[corrupted_at(t) for t in traj.times],
                     lax=lax, diagnostics=traj.diagnostics,
                     rho_at=corrupted_at)
    report = run_suite(bad, scenario_id="fault")
    by_name = {c.name: c.passed for c in report.checks}
    detected.append(not by_name["residual"])

    ok = all(detected)
    _report(11, "fault injection", ok,
            f"non-eigenvector={detected[0]}, fake hermitian pairing="
            f"{detected[1]}, perturbed trajectory={detected[2]}")
