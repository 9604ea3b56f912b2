"""The nonlinear von Neumann family i rho' = sum_k [A^{n-k} rho A^k, rho].

``ModelSpec`` fixes the nonlinearity order n and the time-independent
self-adjoint operator A; ``rhs`` evaluates the flow.  A ``Flow`` is a
solution of one model, its ``spec``, evaluated on stacks of times, as whole
states, and the only form in which the library takes one.
``residuals(flow, times)`` certifies, on stacks of times, that a flow
actually solves the equation of its model (``residual`` is its one-point
case); it evaluates its stencil ring (``five_point``) as the states'
diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator_core import (as_operator, as_operators, block_matmul, blocks_of,
                            commutator, frob, frob_stack, is_hermitian,
                            off_diagonal, time_blocks)
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """One member of the equation family: order ``n`` and generator ``A``.

    Powers A^0 .. A^{n+1} are cached eagerly (A is time-independent), so all
    reads after construction are contention-free.  ``diagonals`` holds the
    diagonals of those powers when A is exactly diagonal with a real
    diagonal, as every seed family builds it, and is None otherwise; a
    product with such a power scales entries, bit for bit what the matrix
    product gives to every nonzero entry.
    """

    n: int
    A: np.ndarray
    powers: tuple = field(init=False, repr=False)
    diagonals: tuple | None = field(init=False, repr=False)

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
        diagonals = None
        if not (off_diagonal(A) or A.diagonal().imag.any()):
            diagonals = tuple(p.diagonal() for p in powers)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "powers", tuple(powers))
        object.__setattr__(self, "diagonals", diagonals)

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

    ``stack(times)`` evaluates the whole ``(len(times), d, d)`` states.  A
    flow's states are block-diagonal on its ``partition``, a ``(B, b)``
    array of index sets (``operator_core.partition``); None is one whole
    block.  ``blocks(times, parts)`` evaluates the states as the
    ``(len(times), B, b, b)`` stack of their blocks on ``parts``, a
    partition no finer than ``partition`` (its default); ``stack`` is its
    one whole block.  A subclass implements ``blocks``, or only ``stack`` and
    is one whole block.  Calling the flow with one time is the one-point
    case of the same code.  ``support_size`` is the size of the block a
    point is dressed on, which sizes the stacks (``time_blocks``); None
    means whole states.

    ``spec`` is the model the flow solves: a seed's own, and the one of the
    flow beneath it for a dressing or a transform.

    A flow may transform the states of another (``symmetry_transforms``).
    ``root`` is the flow beneath every transform; its blocks at
    ``source_times(times)``, passed through ``finish(times, blocks, parts)``,
    are this flow's blocks at ``times``, and ``finish_off_blocks`` gives
    what the entries off the blocks become.  For a flow that transforms
    nothing ``root`` is the flow itself and the maps are the identity.
    """

    spec: ModelSpec
    support_size: int | None = None
    partition: np.ndarray | None = None

    @property
    def root(self) -> "Flow":
        return self

    def source_times(self, times) -> np.ndarray:
        return np.asarray(times, dtype=float)

    def finish(self, times, blocks: np.ndarray, parts: np.ndarray) -> np.ndarray:
        return blocks

    def finish_off_blocks(self, times, values: np.ndarray) -> np.ndarray:
        """What ``finish`` makes of the entries off the blocks of
        ``partition``, which hold ``values`` at the times (one per time)."""
        return values

    def blocks(self, times, parts: np.ndarray | None = None) -> np.ndarray:
        if parts is not None and len(parts) != 1:
            raise ValueError("this flow evaluates whole states only")
        return self.stack(times)[:, None]

    def stack(self, times) -> np.ndarray:
        whole = None if self.partition is None else np.arange(self.partition.size)[None]
        return self.blocks(np.asarray(times, dtype=float), whole)[:, 0]

    def __call__(self, t: float) -> np.ndarray:
        return self.stack([t])[0]


def hamiltonian_of(spec: ModelSpec, rho, parts: np.ndarray | None = None) -> np.ndarray:
    """sum_{k=0}^{n} A^{n-k} rho A^k, the state-dependent generator.

    ``rho`` may be a stack ``(..., d, d)``; the result has its shape.  With
    ``parts``, on whose blocks A is block-diagonal, ``rho`` and the result
    are the blocks ``(..., B, b, b)`` (``operator_core.blocks_of``).  For an
    exactly diagonal A (``ModelSpec.diagonals``) each term is
    ``(a_i^{n-k} rho_ij) a_j^k``, multiplied and summed in the order of the
    matrix products, which it equals bit for bit: every term's nonzero
    entries are the same products, and the sum starts from ``+0.0``, so an
    exact zero of the total is ``+0.0`` either way.
    """
    rho = as_operators(rho)
    shape = spec.A.shape if parts is None else parts.shape + parts.shape[-1:]
    if rho.shape[-len(shape):] != shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs blocks {shape}")
    n = spec.n
    # A^0 is the identity: the k = 0 and k = n terms are one product each
    total = np.zeros_like(rho)
    if spec.diagonals is not None:
        a = [d if parts is None else d[parts] for d in spec.diagonals]
        total += a[n][..., :, None] * rho
        for k in range(1, n):
            total += (a[n - k][..., :, None] * rho) * a[k][..., None, :]
        total += rho * a[n][..., None, :]
        return total
    powers = spec.powers if parts is None else [blocks_of(p, parts) for p in spec.powers]
    total += powers[n] @ rho
    for k in range(1, n):
        total += powers[n - k] @ rho @ powers[k]
    total += rho @ powers[n]
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


def stencil(t: np.ndarray, h: float) -> np.ndarray:
    """The points t+2h, t+h, t-h, t-2h of each of the times ``t``, ``(N, 4)``."""
    return t[:, None] + np.array([2 * h, h, -h, -2 * h])


def five_point(evaluate, t: np.ndarray, h: float) -> np.ndarray:
    """The time derivative at each of the times ``t`` of what ``evaluate``
    returns, by the 5-point central stencil (O(h^4)) with step ``h``.

    ``evaluate`` takes the stencil points as one time-major ring, t+2h, t+h,
    t-h, t-2h per time, and returns one stack with a row per point, so a
    failing point raises what evaluating the times one by one raises first.
    """
    ring = evaluate(stencil(t, h).ravel())
    ring = ring.reshape((len(t), 4) + ring.shape[1:])
    return (-ring[:, 0] + 8 * ring[:, 1] - 8 * ring[:, 2] + ring[:, 3]) / (12 * h)


def _defect(spec: ModelSpec, rdot: np.ndarray, rho: np.ndarray,
            parts: np.ndarray) -> np.ndarray:
    # i rho' - [H(rho), rho] on the blocks, written over the stack rdot:
    # the products and differences of ``1j * rdot - (H @ rho - rho @ H)``
    # in their order, with two stacks fewer alive
    H = hamiltonian_of(spec, rho, parts)
    drift = block_matmul(H, rho)
    drift -= block_matmul(rho, H)
    rdot *= 1j
    rdot -= drift
    return rdot


def residuals(flow: Flow, times, states=None, tol_scale: float = 1.0,
              tolerances: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Residual norm and tolerance of ``flow`` at each time, in its model
    ``flow.spec``.

    rho' is estimated by the 5-point central stencil (O(h^4)) with
    ``h = default_step(spec)``; the tolerance is
    ``max(residual_floor, C h^4)`` with
    ``C = ((n+1) (1+||A||_F)^{n+1} max(1, ||rho(t)||_F))^5 / 30``, a bound on
    the fifth time-derivative entering the stencil error.  ``states`` is the
    ``(len(times), d, d)`` stack of rho(t) when it is already known;
    otherwise it is evaluated first.  The residual is taken on the blocks of
    the flow's ``partition``, where A and every state are block-diagonal:
    each block of times is one ring of stencil points (``five_point``),
    evaluated in one ``flow.blocks`` call.  ``i rho' - [H(rho), rho]`` is
    formed block by block, every block of every time, and its norm is the
    root-sum-square of the block norms; the tolerance takes the whole
    states' norms.
    """
    spec = flow.spec
    h = default_step(spec)
    times = np.asarray(times, dtype=float)
    generator_scale = (spec.n + 1) * (1.0 + frob(spec.A)) ** (spec.n + 1)
    parts = np.arange(spec.dim)[None] if flow.partition is None else flow.partition
    norms, tols = [], []
    # a flow without a support is budgeted as a dressing on whole states
    support = flow.support_size or spec.dim
    # the stencil ring holds four points per time
    for block in time_blocks(len(times), spec.dim, support=support,
                             block=parts.shape[1], per_time=4):
        t = times[block]
        rho_t = (flow.stack(t) if states is None
                 else as_operators(states[block]))
        rdot = five_point(lambda ring: flow.blocks(ring, parts), t, h)
        defect = _defect(spec, rdot, blocks_of(rho_t, parts), parts)
        norms.append(np.linalg.norm(frob_stack(defect), axis=-1))
        C = (generator_scale * np.maximum(1.0, frob_stack(rho_t))) ** 5 / 30.0
        tols.append(np.maximum(tolerances.residual_floor, C * h ** 4))
    return np.concatenate(norms), np.concatenate(tols) * tol_scale


def residual(flow: Flow, t: float, tol_scale: float = 1.0,
             tolerances: Tolerances = DEFAULT) -> ResidualReport:
    """Finite-difference check that ``flow`` solves the equation at ``t``.

    The one-point case of ``residuals``, which documents the stencil and
    the tolerance.
    """
    norms, tols = residuals(flow, [t], tol_scale=tol_scale, tolerances=tolerances)
    return ResidualReport(t=float(t), residual_norm=float(norms[0]),
                          tolerance_used=float(tols[0]))
