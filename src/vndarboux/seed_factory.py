"""Seed solutions with exact closed-form time evolution.

Three nontrivial families are provided, each certified at build time:

* anticommuting seeds (``A rho = -rho A``), stationary for every order n;
* Delta-commuting seeds for n = 1 (``[rho^2 - a rho, H] = 0``), evolving by
  conjugation with ``exp(-i a H t)``;
* pure states ``|psi><psi|``, evolving by the moment-generated unitary.

Seeds with ``[rho, A] = 0`` are also constructible; they are stationary and
produce a trivial dressing (the projector commutes with everything), which
makes them useful as degenerate test cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .operator_core import (NormalExp, as_operator, as_state, blocks_of,
                            commutator, frob)
from .tolerances import DEFAULT
from .vne_model import Flow, ModelSpec, rhs


class SeedFamily(str, Enum):
    ANTICOMMUTING = "anticommuting"
    DELTA_COMMUTING = "delta_commuting"
    PURE_STATE = "pure_state"
    COMMUTING = "commuting"


@dataclass(frozen=True, eq=False)
class SeedSolution(Flow):
    """A certified seed rho(0) together with its exact evolution rule: a
    ``Flow`` whose ``stack`` is the closed-form rho(t)."""

    family: SeedFamily
    rho0: np.ndarray
    spec: ModelSpec
    a: float | None = None  # Delta-commuting only

    def __post_init__(self):
        rho0 = as_operator(self.rho0).copy()
        if rho0.shape != self.spec.A.shape:
            raise ValueError("seed and model dimensions disagree")
        rho0.setflags(write=False)
        object.__setattr__(self, "rho0", rho0)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @cached_property
    def delta_a(self) -> np.ndarray:
        if self.family is not SeedFamily.DELTA_COMMUTING:
            raise ValueError("delta_a is defined for Delta-commuting seeds only")
        return self.rho0 @ self.rho0 - self.a * self.rho0

    @cached_property
    def _pure_generator(self) -> np.ndarray:
        # moments Tr(rho A^k) are real for Hermitian rho, A and time-independent
        moments = [np.trace(self.rho0 @ p).real for p in self.spec.powers[:self.spec.n + 1]]
        total = np.zeros_like(self.rho0)
        for k, m in enumerate(moments):
            total = total + m * self.spec.powers[self.spec.n - k]
        return total

    @cached_property
    def _evolution(self) -> NormalExp | None:
        # rho(t) = exp(-i G t) rho0 exp(i G t) with a constant Hermitian G
        if self.family is SeedFamily.DELTA_COMMUTING:
            return NormalExp(self.a * self.spec.A)
        if self.family is SeedFamily.PURE_STATE:
            return NormalExp(self._pure_generator)
        return None  # stationary families

    @property
    def generators(self) -> tuple:
        """The generator of the seed's evolution; none for stationary seeds."""
        return () if self._evolution is None else (self._evolution.G,)

    def blocks(self, times, parts: np.ndarray | None = None) -> np.ndarray:
        """Closed-form rho(t) for each time as its ``(len(times), B, b, b)``
        blocks on ``parts`` (default one whole block), a partition on whose
        blocks A, rho0 and a diagonal generator act.  Rows at t = 0 are
        exactly ``rho0``'s blocks."""
        times = np.asarray(times, dtype=float)
        parts = np.arange(self.dim)[None] if parts is None else parts
        rho0 = blocks_of(self.rho0, parts)
        if self._evolution is None:
            return np.repeat(rho0[None], len(times), axis=0)
        return self._evolution.similarity(rho0, -1j * times, parts)

    def rho_at(self, t: float) -> np.ndarray:
        """Closed-form rho(t); ``rho_at(0)`` is exactly ``rho0``."""
        return self.stack([t])[0]


def _block_diag(blocks) -> np.ndarray:
    # one complex matrix with the 2 x 2 blocks on its diagonal, zero elsewhere
    out = np.zeros((2 * len(blocks), 2 * len(blocks)), dtype=complex)
    for j, block in enumerate(blocks):
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
    return out


def _certify(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def make_anticommuting_seed(dim_pairs: int, b, alpha=None,
                            n: int = 2) -> SeedSolution:
    """Block seed with ``A rho0 = -rho0 A``, stationary for every n.

    Block j couples the eigenvalue pair ``(+alpha_j, -alpha_j)`` of A through
    an off-diagonal coupling ``b_j``:

        A_j = diag(alpha_j, -alpha_j),   rho_j = [[0, b_j], [b_j, 0]].

    ``alpha`` defaults to all ones.  Zero couplings or zero alpha entries are
    rejected (they make the block degenerate).
    """
    if int(dim_pairs) != dim_pairs or dim_pairs < 1:
        raise ValueError("dim_pairs must be a positive integer")
    b = np.asarray(b, dtype=float)
    if b.shape != (dim_pairs,):
        raise ValueError(f"b must have exactly {dim_pairs} entries")
    if np.any(b == 0):
        raise ValueError("every coupling b_j must be nonzero")
    if alpha is None:
        alpha = np.ones(dim_pairs)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (dim_pairs,):
        raise ValueError(f"alpha must have exactly {dim_pairs} entries")
    if np.any(alpha == 0):
        raise ValueError("every alpha_j must be nonzero")

    A = _block_diag([np.diag([aj, -aj]) for aj in alpha])
    rho0 = _block_diag([np.array([[0.0, bj], [bj, 0.0]]) for bj in b])
    spec = ModelSpec(n, A)

    gate = DEFAULT.seed_structure
    _certify(frob(A @ rho0 + rho0 @ A) <= gate, "anticommutation failed at build")
    _certify(abs(np.trace(rho0 @ A)) <= gate, "Tr(rho0 A) must vanish")
    _certify(frob(commutator(rho0, A @ A)) <= gate, "rho0 must commute with A^2")
    _certify(frob(rhs(spec, rho0)) <= gate * max(1.0, frob(A) ** (n + 1)),
             "anticommuting seed is not stationary")
    return SeedSolution(SeedFamily.ANTICOMMUTING, rho0, spec)


def make_delta_commuting_seed(blocks, a: float) -> SeedSolution:
    """n = 1 seed with ``[rho0^2 - a rho0, H] = 0`` but ``[rho0, H] != 0``.

    Each block ``(omega_j, kappa_j)`` contributes H_j = diag(omega_j,
    omega_j + 1) and rho_j = (a/2) I + kappa_j sigma_x, which makes
    ``rho_j^2 - a rho_j = (kappa_j^2 - a^2/4) I`` a blockwise scalar.
    Evolution: rho(t) = exp(-i a H t) rho0 exp(i a H t).
    """
    if isinstance(a, complex) and a.imag != 0:
        raise ValueError("a must be real")
    a = float(a)
    blocks = list(blocks)
    if not blocks:
        raise ValueError("at least one (omega, kappa) block is required")
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h_blocks, r_blocks = [], []
    for j, (omega, kappa) in enumerate(blocks):
        if kappa == 0:
            raise ValueError(f"kappa must be nonzero (block {j})")
        h_blocks.append(np.diag([float(omega), float(omega) + 1.0]))
        r_blocks.append((a / 2.0) * np.eye(2) + float(kappa) * sx)
    H = _block_diag(h_blocks)
    rho0 = _block_diag(r_blocks)
    spec = ModelSpec(1, H)

    delta = rho0 @ rho0 - a * rho0
    _certify(frob(commutator(delta, H)) <= DEFAULT.seed_structure,
             "[rho0^2 - a rho0, H] does not vanish at build")
    return SeedSolution(SeedFamily.DELTA_COMMUTING, rho0, spec, a=a)


def make_commuting_seed(p, alpha, n: int = 1) -> SeedSolution:
    """Diagonal seed with ``[rho0, A] = 0``; stationary and dressing-trivial."""
    p = np.asarray(p, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if p.ndim != 1 or p.shape != alpha.shape:
        raise ValueError("p and alpha must be 1-D with matching length")
    rho0 = np.diag(p).astype(complex)
    A = np.diag(alpha).astype(complex)
    spec = ModelSpec(n, A)
    _certify(frob(commutator(rho0, A)) <= DEFAULT.seed_structure,
             "commuting seed failed to commute")
    return SeedSolution(SeedFamily.COMMUTING, rho0, spec)


def make_pure_state_seed(spec: ModelSpec, psi0) -> SeedSolution:
    """Projector seed ``|psi0><psi0|`` for a normalized psi0.

    Its exact solution is ``rho_at(t) = U(t) |psi0><psi0| U(t)^dag`` with
    ``U(t) = exp(-i sum_k Tr(rho(0) A^k) A^{n-k} t)``; the moments are
    evaluated once at t = 0 (they are conserved along the flow).
    """
    psi0 = as_state(psi0)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-12:
        raise ValueError("psi0 must be normalized to 1e-12")
    rho0 = np.outer(psi0, np.conj(psi0))
    gate = DEFAULT.seed_structure
    _certify(frob(rho0 @ rho0 - rho0) <= gate, "pure seed is not idempotent")
    _certify(abs(np.trace(rho0) - 1.0) <= gate, "pure seed trace must be 1")
    return SeedSolution(SeedFamily.PURE_STATE, rho0, spec)
