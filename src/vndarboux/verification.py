"""Machine-checkable claims over a trajectory.

``run_suite`` aggregates every named check (residual, spectrum or
trace-moment invariance, Hermiticity, trace, positivity, projector
idempotency, form gap, covariance of the transformed left solution) into a
single deterministic report.  The trajectory's flow is the one source of
what the checks compare against: its dressing's Lax solution (seed,
parameters, tolerances) and the reference spectrum, the flow's map of the
seed's rho(0).  Every check reduces over slices of the
trajectory's stacks in blocks (``time_blocks``): the spectrum and positivity
checks share one spectrum per state, taken on the state's blocks.  The
idempotency, projector trace and form gap checks read the values the
dressing's gates compared, and the
hermiticity check the dressing's gaps when the checked states are the
dressed states.  The residual evaluates its stencil through the
trajectory's flow and reuses the sample states as centres; it is the one
finite-difference check, and the independent check of the derivatives
below.  The covariance check reuses the trajectory's dressing (its flow's
``root``) and Lax solution and the dressed states, the projectors' support
blocks and their exact derivatives of its ``Diagnostics``, at their
dressing times: psi[1] and its derivative come from the psi generator and
P', and the eigen and time equations are taken on the blocks of the
dressing's ``partition``.  It dresses no point of its own.

One rule (``_judged``) turns every check's per-sample values into its
``CheckResult``: the check passes when every sample's value is within its
limit (``value <= limit``, so a NaN fails), and it reports the largest
value, the first on a tie, or, when some sample fails, the largest failing
value, with that sample's limit and time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .darboux_engine import Trajectory
from .errors import SingularDarboux
from .operator_core import (blocks_of, hermiticity_gaps, row_matmul, time_blocks,
                            trace_moments, hermitian_spectra as _spectra)
from .vne_model import default_step, hamiltonian_of, residuals, stencil

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
    notes: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """The report as JSON values: a non-finite worst value or tolerance
        (a singular dressing's infinity) is ``None``."""
        return {
            "scenario_id": self.scenario_id,
            "overall": self.overall,
            "checks": [
                {"name": c.name, "pass": c.passed,
                 "worst_value": _finite(c.worst_value),
                 "tolerance": _finite(c.tolerance), "location_t": c.location_t}
                for c in self.checks
            ],
            "notes": self.notes,
        }


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _judged(name: str, values: np.ndarray, limits, times) -> CheckResult:
    # the one verdict rule (module docstring); ``limits`` is a scalar or one
    # limit per sample
    within = values <= limits
    passed = bool(within.all())
    if passed:
        idx = int(values.argmax())
    else:
        failing = np.flatnonzero(~within)
        idx = int(failing[values[failing].argmax()])
    limit = limits[idx] if isinstance(limits, np.ndarray) else limits
    return CheckResult(name=name, passed=passed, worst_value=float(values[idx]),
                       tolerance=float(limit), location_t=float(times[idx]))


def _per_sample(matrices: np.ndarray, dim: int, measure) -> np.ndarray:
    # measure(stack) over a stack of matrices, a block at a time
    return np.concatenate([measure(matrices[block])
                           for block in time_blocks(len(matrices), dim)])


def _covariance_gaps(traj: Trajectory):
    # per-sample (eigen-equation gap, time-equation gap) of the transformed
    # left lambda-solution psi[1] against the dressed state itself, from the
    # trajectory's own dressing, a DressedFlow, and its Lax solution
    flow, diagnostics = traj.rho_at.root, traj.diagnostics
    spec, parts = flow.spec, flow.partition
    lam, z_l = flow.lax.params.lam, flow.lax.params.z_lambda
    # A and A^{n+1} are block-diagonal on the partition, and so is every
    # dressed state: a row times one of them is its parts times the blocks
    A, top = (blocks_of(M, parts) for M in (spec.A, spec.powers[spec.n + 1]))
    # the diagnostics hold each sample's dressing, at the time its flow
    # evaluates the dressed flow
    times = traj.rho_at.source_times(traj.times)
    eig_gaps, teq_gaps = [], []
    for block in time_blocks(len(times), spec.dim, support=flow.support_size):
        psi1, dpsi1, shift = flow.psi1_rows(times[block], diagnostics.P[block],
                                            diagnostics.P_dot[block])
        # psi solves a linear equation and carries an arbitrary scale (often
        # exponentially growing), so residuals are per unit norm of
        # e^{shift} psi1, floored at 1 as in max(1, |psi1|)
        with np.errstate(over="ignore"):
            scale = np.maximum(np.exp(-shift), np.linalg.norm(psi1, axis=-1))
        rho1 = blocks_of(diagnostics.rho1[block], parts)
        rows = psi1[:, parts]
        eig = z_l * rows - row_matmul(rows, rho1 - lam * A)
        teq = -1j * dpsi1[:, parts] - row_matmul(
            rows, hamiltonian_of(spec, rho1, parts) - lam * top)
        eig_gaps.append(np.linalg.norm(eig.reshape(len(rows), -1), axis=-1) / scale)
        teq_gaps.append(np.linalg.norm(teq.reshape(len(rows), -1), axis=-1) / scale)
    return np.concatenate(eig_gaps), np.concatenate(teq_gaps)


def run_suite(traj: Trajectory, *, scenario_id: str = "scenario",
              enabled: dict | None = None, residual_tol_scale: float = 1.0,
              notes: dict | None = None) -> VerificationReport:
    """Run every applicable named check over a dressed trajectory.

    Everything the checks read comes from the trajectory's flow
    (``traj.rho_at``): the Lax solution of its dressing
    (``rho_at.root.lax``), with its seed, parameters and tolerances, and
    the reference whose spectrum, moments and trace the samples keep
    (``Trajectory.reference``).  ``enabled`` maps names from ``CHECKS`` to
    booleans.  Check failures become report entries, never exceptions:
    every entry comes from the one rule of the module docstring, so a check
    fails when any one sample is over its limit.  A
    singular dressing at a point of the residual's stencil cuts ``traj`` in
    place at the first sample whose stencil holds it (``Trajectory.cut``),
    as ``dressed_trajectory`` cuts at a singular sample, and the checks run
    again on the samples before it.
    """
    if traj.rho_at is None:
        raise ValueError("run_suite needs a trajectory with its flow")
    while True:
        try:
            checks = _checks(traj, enabled, residual_tol_scale)
            break
        except SingularDarboux as error:
            # the first sample whose residual stencil holds the dressing time
            # of the singular point; the stencil is built as the residual
            # builds it, so their times match bit for bit
            flow = traj.rho_at
            hit = (flow.source_times(stencil(traj.times, default_step(flow.spec)))
                   == error.t).any(axis=-1)
            if not hit.any():
                raise
            traj.cut(int(np.argmax(hit)))
    if traj.singular_t is not None:
        checks.append(_judged("singularity", np.array([np.inf]), 0.0,
                              [traj.singular_t]))
    return VerificationReport(scenario_id=scenario_id, checks=checks,
                              notes=notes or {})


def _checks(traj: Trajectory, enabled: dict | None, residual_tol_scale: float) -> list:
    times = traj.times
    if not len(times):
        return []
    flow = traj.rho_at
    lax = flow.root.lax
    seed, params, tolerances = lax.seed, lax.params, lax.tolerances
    dim = seed.dim
    ref = traj.reference
    herm = params.hermitian_mode
    states = traj.states
    diags = traj.diagnostics

    def on(name: str, default: bool = True) -> bool:
        if enabled is None:
            return default
        return bool(enabled.get(name, default))

    checks: list[CheckResult] = []

    def add(name, values, limits):
        checks.append(_judged(name, values, limits, times))

    if on("residual"):
        # the tolerance grows with each sample's norm: one limit per sample
        add("residual", *residuals(flow, times, states=states,
                                   tol_scale=residual_tol_scale,
                                   tolerances=tolerances))

    if on("idempotency") and diags is not None:
        # the values the projector gates compared, at the absolute tolerance
        add("idempotency", diags.idempotency_gap, tolerances.idempotency)
        add("projector_trace", diags.projector_trace_gap, tolerances.projector_trace)

    if on("form_gap") and diags is not None:
        add("form_gap", diags.form_gap, tolerances.form_gap)

    if on("trace"):
        ref_trace = complex(np.trace(ref))
        add("trace", _per_sample(states, dim, lambda S: np.abs(
            np.trace(S, axis1=-2, axis2=-1) - ref_trace)), tolerances.trace_match)

    if herm:
        # the dressing's own gaps and spectra when the checked states are
        # the dressed states; a flow's states get their own, from their
        # blocks on the flow's partition
        dressed = diags is not None and states is diags.rho1
        parts = np.arange(dim)[None] if flow.partition is None else flow.partition
        if on("hermiticity"):
            add("hermiticity", diags.hermiticity_gap if dressed else _per_sample(
                states, dim, lambda S: hermiticity_gaps(blocks_of(S, parts), parts)),
                tolerances.hermiticity_gap)
        ref_vals = _spectra(ref)
        seed_positive = float(ref_vals[0]) >= tolerances.positivity_floor
        spectrum = on("spectrum")
        positivity = on("positivity", default=seed_positive) and seed_positive
        if spectrum or positivity:
            # one spectrum per state serves both checks
            if dressed and diags.spectrum is not None:
                eigs = diags.spectrum
            else:
                eigs = _per_sample(states, dim, lambda S: _spectra(S, blocks_of(S, parts)))
        if spectrum:
            add("spectrum", np.max(np.abs(eigs - ref_vals), axis=-1),
                tolerances.spectral_match)
        if positivity:
            add("positivity", -eigs[:, 0], -tolerances.positivity_floor)
    elif on("moments"):
        ref_moments = trace_moments(ref, dim)
        add("moments", _per_sample(states, dim, lambda S: np.max(
            np.abs(trace_moments(S, dim) - ref_moments), axis=-1)),
            tolerances.moment_match)

    if params.lam is not None and on("covariance"):
        eig_gaps, teq_gaps = _covariance_gaps(traj)
        add("covariance", eig_gaps, tolerances.covariance)
        add("time_equation", teq_gaps, tolerances.time_equation)

    return checks
