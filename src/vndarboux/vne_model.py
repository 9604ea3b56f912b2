"""The nonlinear von Neumann family i rho' = sum_k [A^{n-k} rho A^k, rho].

``ModelSpec`` fixes the nonlinearity order n and the time-independent
self-adjoint operator A; ``rhs`` evaluates the flow and ``residuals``
certifies, on stacks of times, that a trajectory actually solves the
equation (``residual`` is its one-point case).  A ``Flow`` is a solution the
library evaluates on stacks; ``stack_of`` calls any other callable once per
time, never with an array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator_core import (as_operator, as_operators, commutator, frob,
                            frob_stack, is_hermitian, time_blocks)
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """One member of the equation family: order ``n`` and generator ``A``.

    Powers A^0 .. A^{n+1} are cached eagerly (A is time-independent), so all
    reads after construction are contention-free.
    """

    n: int
    A: np.ndarray
    powers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("nonlinearity order n must be a positive integer")
        A = as_operator(self.A)
        if not is_hermitian(A, DEFAULT.model_hermiticity):
            raise ValueError("A must be self-adjoint")
        A = A.copy()
        A.setflags(write=False)
        powers = [np.eye(A.shape[0], dtype=complex)]
        for _ in range(int(self.n) + 1):
            powers.append(powers[-1] @ A)
        for p in powers:
            p.setflags(write=False)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "powers", tuple(powers))

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ResidualReport:
    t: float
    residual_norm: float
    tolerance_used: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed",
                           bool(self.residual_norm <= self.tolerance_used))


class Flow:
    """A solution ``t -> rho(t)`` that the library evaluates on stacks of times.

    Subclasses implement ``stack(times)``, returning ``(len(times), d, d)``;
    calling the flow with one time is the one-point case of the same code.
    """

    def stack(self, times) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t: float) -> np.ndarray:
        return self.stack([t])[0]


def stack_of(rho_at, times) -> np.ndarray:
    """``rho_at`` at each time as a ``(len(times), d, d)`` stack.

    A ``Flow`` evaluates the whole stack at once; any other callable is
    called once per time with a float.
    """
    if isinstance(rho_at, Flow):
        return rho_at.stack(times)
    return np.stack([as_operator(rho_at(float(t))) for t in times])


def hamiltonian_of(spec: ModelSpec, rho) -> np.ndarray:
    """sum_{k=0}^{n} A^{n-k} rho A^k, the state-dependent generator.

    ``rho`` may be a stack ``(..., d, d)``; the result has its shape.
    """
    rho = as_operators(rho)
    if rho.shape[-2:] != spec.A.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs A {spec.A.shape}")
    total = np.zeros_like(rho)
    for k in range(spec.n + 1):
        total += spec.powers[spec.n - k] @ rho @ spec.powers[k]
    return total


def rhs_alt(spec: ModelSpec, rho) -> np.ndarray:
    """The commutator-free form -i sum_k [A^{n-k}, rho A^k rho]."""
    rho = as_operator(rho)
    total = np.zeros_like(rho)
    for k in range(spec.n + 1):
        total += commutator(spec.powers[spec.n - k], rho @ spec.powers[k] @ rho)
    return -1j * total


def rhs(spec: ModelSpec, rho) -> np.ndarray:
    """Time derivative rho' = -i [H(rho), rho].

    The equivalent form ``rhs_alt`` is evaluated alongside and the two must
    agree to 1e-11 (relative-guarded); a disagreement indicates corrupted
    inputs, not round-off.
    """
    rho = as_operator(rho)
    H = hamiltonian_of(spec, rho)
    primary = -1j * commutator(H, rho)
    alt = rhs_alt(spec, rho)
    scale = max(1.0, frob(H) * frob(rho))
    gap = frob(primary - alt)
    if gap > 1e-11 * scale:
        raise ArithmeticError(
            f"the two algebraic forms of the flow disagree by {gap:.3g}")
    return primary


def default_step(spec: ModelSpec) -> float:
    # generator norms scale like ||A||^{n+1}
    return 1e-3 * (1.0 + frob(spec.A)) ** (-(spec.n + 1))


def residuals(spec: ModelSpec, rho_at, times, states=None,
              h: float | None = None, tol: float | None = None,
              tol_scale: float = 1.0,
              tolerances: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Residual norm and tolerance of ``rho_at`` at each time.

    rho' is estimated by the 5-point central stencil (O(h^4)); the default
    tolerance is ``max(residual_floor, C h^4)`` with
    ``C = ((n+1) (1+||A||_F)^{n+1} max(1, ||rho(t)||_F))^5 / 30``, a bound on
    the fifth time-derivative entering the stencil error.  ``states`` is the
    ``(len(times), d, d)`` stack of rho(t) when it is already known;
    otherwise it is evaluated first.  Times are taken in blocks
    (``time_blocks``); within a block the stencil points are evaluated in the
    order t+2h, t+h, t-h, t-2h per time.
    """
    if h is None:
        h = default_step(spec)
    if h <= 0:
        raise ValueError("step h must be positive")
    times = np.asarray(times, dtype=float)
    offsets = np.array([2 * h, h, -h, -2 * h])
    generator_scale = (spec.n + 1) * (1.0 + frob(spec.A)) ** (spec.n + 1)
    norms, tols = [], []
    for block in time_blocks(len(times), spec.dim, points_per_item=len(offsets)):
        t = times[block]
        rho_t = (stack_of(rho_at, t) if states is None
                 else as_operators(states[block]))
        ring = stack_of(rho_at, (t[:, None] + offsets).ravel())
        ring = ring.reshape((len(t), len(offsets)) + rho_t.shape[-2:])
        rdot = (-ring[:, 0] + 8 * ring[:, 1] - 8 * ring[:, 2] + ring[:, 3]) / (12 * h)
        H = hamiltonian_of(spec, rho_t)
        norms.append(frob_stack(1j * rdot - (H @ rho_t - rho_t @ H)))
        if tol is None:
            C = (generator_scale * np.maximum(1.0, frob_stack(rho_t))) ** 5 / 30.0
            tols.append(np.maximum(tolerances.residual_floor, C * h ** 4))
        else:
            tols.append(np.full(len(t), float(tol)))
    return np.concatenate(norms), np.concatenate(tols) * tol_scale


def residual(spec: ModelSpec, rho_at, t: float, h: float | None = None,
             tol: float | None = None, tol_scale: float = 1.0,
             tolerances: Tolerances = DEFAULT) -> ResidualReport:
    """Finite-difference check that ``rho_at`` solves the equation at ``t``.

    The one-point case of ``residuals``, which documents the stencil and
    the default tolerance.
    """
    norms, tols = residuals(spec, rho_at, [t], h=h, tol=tol,
                            tol_scale=tol_scale, tolerances=tolerances)
    return ResidualReport(t=float(t), residual_norm=float(norms[0]),
                          tolerance_used=float(tols[0]))
