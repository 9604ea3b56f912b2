"""Centralized numerical tolerances.

Every gate used by the library lives in one frozen record.  A scenario sets
a gate by name in its config's ``tolerances`` section, which its
``scenario.lock.json`` embeds, so a replay runs under the same gates.  Gates
are absolute numbers for desk-scale operators; checks that must survive
large norms use them relative-guarded as ``tol * max(1, scale)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # operator predicates / solver contracts
    hermiticity: float = 1e-10          # input gate for the Hermitian eigensolver
    model_hermiticity: float = 1e-12    # A must be self-adjoint to this level
    eig_pair_residual: float = 1e-9     # |Mv - zv| <= tol * ||M||_F * |v|
    # seed certification
    seed_structure: float = 1e-11       # anticommutation / [Delta_a, H] / purity
    # Darboux integrity
    idempotency: float = 1e-11
    projector_trace: float = 1e-11
    overlap_floor: float = 1e-10        # relative floor for <chi|phi>
    form_gap: float = 1e-9
    bridge_identity: float = 1e-10
    t_equality: float = 1e-11           # rational vs exponential form of T
    t_unitarity: float = 1e-10
    f_floor: float = 1e-12              # |F_a(t)| singularity guard
    # claim checks
    residual_floor: float = 1e-6
    spectral_match: float = 1e-9
    moment_match: float = 1e-8
    hermiticity_gap: float = 1e-10
    trace_match: float = 1e-11
    positivity_floor: float = -1e-10
    covariance: float = 1e-9
    time_equation: float = 1e-8


DEFAULT = Tolerances()
