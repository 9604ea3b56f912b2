"""Machine-checkable claims over a trajectory.

``rk4_integrate`` is the independent fixed-step oracle for the nonlinear
flow; ``run_suite`` aggregates every named check (residual, spectrum or
trace-moment invariance, Hermiticity, trace, positivity, projector
idempotency, form gap, covariance of the transformed left solution) into a
single deterministic report.  Every check reduces over slices of the
trajectory's stacks in blocks (``time_blocks``): the spectrum and positivity
checks share one eigensolve per state; the residual evaluates its stencil
through the trajectory's flow and reuses the sample states as centres; the
covariance check reuses the trajectory's Lax solution and the dressed states
and projectors of its ``Diagnostics``, and builds only the projectors of its
stencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .darboux_engine import DressedFlow, Trajectory
from .operator_core import (dagger, frob, frob_stack, time_blocks,
                            trace_moments)
from .tolerances import DEFAULT, Tolerances
from .vne_model import ModelSpec, default_step, hamiltonian_of, residuals, rhs

# the names ``run_suite(enabled=...)`` switches on and off
CHECKS = ("residual", "idempotency", "form_gap", "trace", "hermiticity",
          "spectrum", "moments", "positivity", "covariance")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_value: float
    tolerance: float
    location_t: float | None


@dataclass(eq=False)
class VerificationReport:
    scenario_id: str
    checks: list
    overall: bool = field(init=False)
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "overall", all(c.passed for c in self.checks))

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "overall": self.overall,
            "checks": [
                {"name": c.name, "pass": c.passed, "worst_value": c.worst_value,
                 "tolerance": c.tolerance, "location_t": c.location_t}
                for c in self.checks
            ],
            "notes": self.notes,
        }


def rk4_integrate(spec: ModelSpec, rho0, t_end: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 for rho' = rhs(spec, rho).

    The state is re-symmetrized (``(rho + rho^dag)/2``) after every step and
    the largest correction is logged in the trajectory diagnostics.  Negative
    ``t_end`` integrates backwards.  Steps are rejected once ``||rho||``
    exceeds 1e6.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rho = np.array(rho0, dtype=complex)
    steps = int(round(abs(t_end) / dt))
    h = dt if t_end >= 0 else -dt
    times = np.zeros(steps + 1)
    states = np.empty((steps + 1,) + rho.shape, dtype=complex)
    states[0] = rho
    drift = 0.0
    t = 0.0
    for step in range(1, steps + 1):
        k1 = rhs(spec, rho)
        k2 = rhs(spec, rho + (h / 2) * k1)
        k3 = rhs(spec, rho + (h / 2) * k2)
        k4 = rhs(spec, rho + h * k3)
        rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        sym = (rho + dagger(rho)) / 2
        drift = max(drift, frob(rho - sym))
        rho = sym
        if frob(rho) > 1e6:
            raise RuntimeError(f"state norm exceeded 1e6 at t = {t + h:.3g}")
        t += h
        times[step] = t
        states[step] = rho
    if h < 0:
        times = times[::-1]
        states = states[::-1]
    return Trajectory(times=times, states=states, resym_drift=drift)


def _worst(values, times):
    idx = int(np.argmax(values))
    return float(values[idx]), float(times[idx])


def _per_sample(matrices: np.ndarray, dim: int, measure) -> np.ndarray:
    # measure(stack) over a stack of matrices, a block at a time
    return np.concatenate([measure(matrices[block])
                           for block in time_blocks(len(matrices), dim)])


def _covariance_gaps(traj: Trajectory, tolerances: Tolerances):
    # per-sample (eigen-equation gap, time-equation gap) of the transformed
    # left lambda-solution psi[1] against the dressed state itself
    lax, diagnostics = traj.lax, traj.diagnostics
    seed = lax.seed
    spec = seed.spec
    params = lax.params
    lam, z_l = params.lam, params.z_lambda
    flow = DressedFlow(seed, lax, tolerances)
    # the psi stencil is roundoff-limited, not truncation-limited, so a
    # coarser step than the matrix-residual default is strictly better
    h = 10 * default_step(spec)
    offsets = np.array([2 * h, h, -h, -2 * h])
    eig_gaps, teq_gaps = [], []
    for block in time_blocks(len(traj.times), spec.dim, points_per_item=5):
        t = traj.times[block]
        rho1 = diagnostics.rho1[block]
        psi1, shift = flow.psi1_rows(t, P=diagnostics.P[block])
        # the stencil shares its centre's shift: one scaled psi is differenced
        ring, _ = flow.psi1_rows((t[:, None] + offsets).ravel(),
                                 shift=np.repeat(shift, len(offsets)))
        ring = ring.reshape(len(t), len(offsets), -1)
        dpsi = (-ring[:, 0] + 8 * ring[:, 1] - 8 * ring[:, 2] + ring[:, 3]) / (12 * h)
        # psi solves a linear equation and carries an arbitrary scale (often
        # exponentially growing), so residuals are per unit norm of
        # e^{shift} psi1, floored at 1 as in max(1, |psi1|)
        with np.errstate(over="ignore"):
            scale = np.maximum(np.exp(-shift), np.linalg.norm(psi1, axis=-1))
        rows = psi1[:, None, :]
        eig = z_l * psi1 - (rows @ (rho1 - lam * spec.A))[:, 0]
        generator = hamiltonian_of(spec, rho1) - lam * spec.powers[spec.n + 1]
        teq = -1j * dpsi - (rows @ generator)[:, 0]
        eig_gaps.append(np.linalg.norm(eig, axis=-1) / scale)
        teq_gaps.append(np.linalg.norm(teq, axis=-1) / scale)
    return np.concatenate(eig_gaps), np.concatenate(teq_gaps)


def run_suite(traj: Trajectory, *, scenario_id: str = "scenario",
              enabled: dict | None = None, reference: np.ndarray | None = None,
              residual_tol_scale: float = 1.0,
              tolerances: Tolerances = DEFAULT,
              notes: dict | None = None) -> VerificationReport:
    """Run every applicable named check over a dressed trajectory.

    ``reference`` overrides the matrix whose spectrum / moments / trace the
    samples are compared against (defaults to the seed's rho(0); symmetry
    pipelines pass the transformed reference).  ``enabled`` maps names from
    ``CHECKS`` to booleans.  Check failures become report entries, never
    exceptions.
    """
    if traj.lax is None:
        raise ValueError("run_suite needs a trajectory with its Lax solution")
    seed, params = traj.lax.seed, traj.lax.params
    spec = seed.spec
    dim = spec.dim
    ref = seed.rho0 if reference is None else np.asarray(reference, dtype=complex)
    herm = params.hermitian_mode
    times = traj.times
    states = traj.states
    have_samples = len(times) > 0
    diags = traj.diagnostics if have_samples else None

    def on(name: str, default: bool = True) -> bool:
        if enabled is None:
            return default
        return bool(enabled.get(name, default))

    checks: list[CheckResult] = []

    def add(name, worst, tol, loc):
        checks.append(CheckResult(name=name, passed=bool(worst <= tol),
                                  worst_value=float(worst), tolerance=float(tol),
                                  location_t=loc))

    if on("residual") and have_samples and traj.rho_at is not None:
        norms, tols = residuals(spec, traj.rho_at, times, states=states,
                                tol_scale=residual_tol_scale,
                                tolerances=tolerances)
        worst_idx = int(np.argmax(norms))
        add("residual", norms[worst_idx], tols[worst_idx], float(times[worst_idx]))

    if on("idempotency") and diags is not None:
        vals = _per_sample(diags.P, dim, lambda P: frob_stack(P @ P - P))
        worst, loc = _worst(vals, times)
        add("idempotency", worst, tolerances.idempotency, loc)
        trs = _per_sample(diags.P, dim, lambda P: np.abs(
            np.trace(P, axis1=-2, axis2=-1) - 1.0))
        worst, loc = _worst(trs, times)
        add("projector_trace", worst, tolerances.projector_trace, loc)

    if on("form_gap") and diags is not None:
        worst, loc = _worst(diags.form_gap, times)
        add("form_gap", worst, tolerances.form_gap, loc)

    if on("trace") and have_samples:
        ref_trace = complex(np.trace(ref))
        vals = _per_sample(states, dim, lambda S: np.abs(
            np.trace(S, axis1=-2, axis2=-1) - ref_trace))
        worst, loc = _worst(vals, times)
        add("trace", worst, tolerances.trace_match, loc)

    if herm:
        def spectra(S):
            return np.linalg.eigvalsh((S + dagger(S)) / 2)

        if on("hermiticity") and have_samples:
            vals = _per_sample(states, dim, lambda S: frob_stack(S - dagger(S)))
            worst, loc = _worst(vals, times)
            add("hermiticity", worst, tolerances.hermiticity_gap, loc)
        ref_vals = spectra(ref)
        seed_positive = float(ref_vals[0]) >= tolerances.positivity_floor
        spectrum = on("spectrum") and have_samples
        positivity = (on("positivity", default=seed_positive) and seed_positive
                      and have_samples)
        if spectrum or positivity:
            # one eigensolve per state serves both checks
            eigs = _per_sample(states, dim, spectra)
        if spectrum:
            gaps = np.max(np.abs(eigs - ref_vals), axis=-1)
            worst, loc = _worst(gaps, times)
            add("spectrum", worst, tolerances.spectral_match, loc)
        if positivity:
            worst, loc = _worst(-eigs[:, 0], times)
            add("positivity", worst, -tolerances.positivity_floor, loc)
    else:
        if on("moments") and have_samples:
            ref_moments = trace_moments(ref, dim)
            gaps = _per_sample(states, dim, lambda S: np.max(
                np.abs(trace_moments(S, dim) - ref_moments), axis=-1))
            worst, loc = _worst(gaps, times)
            add("moments", worst, tolerances.moment_match, loc)

    if params.lam is not None and on("covariance") and have_samples:
        eig_gaps, teq_gaps = _covariance_gaps(traj, tolerances)
        worst, loc = _worst(eig_gaps, times)
        add("covariance", worst, tolerances.covariance, loc)
        worst, loc = _worst(teq_gaps, times)
        add("time_equation", worst, tolerances.time_equation, loc)

    if traj.singular_t is not None:
        checks.append(CheckResult(name="singularity", passed=False,
                                  worst_value=float("inf"), tolerance=0.0,
                                  location_t=float(traj.singular_t)))

    return VerificationReport(scenario_id=scenario_id, checks=checks,
                              notes=notes or {})
