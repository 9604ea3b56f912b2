"""Spectrum shifting and rescaling of solutions.

For any X with ``[X, A] = [X, rho] = 0`` (typically X = Lambda 1),

    rho_X(t) = exp(-i (n+1) X A^n t) (rho(t) + X) exp(+i (n+1) X A^n t)

is again a solution, with the inner spectrum shifted by Lambda; and

    rho_Y(t) = Y rho(Y t),  Y != 0,

rescales spectrum and time together.  Composing the two turns non-positive or
non-normalized solutions into density matrices.

``ShiftedFlow`` and ``RescaledFlow`` evaluate both on stacks of times, in
the model of the flow they transform (its ``spec``): the shift generator
``(n+1) X A^n`` is factored once (``NormalExp``), and the flow beneath the
chain (its ``root``) is evaluated once per stack, at the times
``source_times`` maps the stack to, as the blocks of a partition no finer
than the chain's; ``finish`` then applies every transform to those blocks,
entry by entry, and ``finish_off_blocks`` to the entries off them.
``dressed_trajectory`` dresses the samples of a chain through the same two
maps, on the chain's partition, as the residual's stencil ring is.  A
shift whose X holds zeros of both signs off the parts takes one whole
block.  Each transforms a
``Flow``; calling the flows that ``shifted_flow``/``rescaled_flow`` return
at one time is the one-point case.
"""

from __future__ import annotations

import numpy as np

from .errors import UnnormalizableError
from .operator_core import (NormalExp, as_operator, block_matmul, blocks_of,
                            coupling, eig_hermitian, frob, frob_stack,
                            is_hermitian, off_blocks, off_diagonal, partition)
from .tolerances import DEFAULT, Tolerances
from .vne_model import Flow


def _check_commutes(X: np.ndarray, M: np.ndarray, gate: float, name: str):
    # X and M as their (B, b, b) blocks on one partition
    gap = np.linalg.norm(frob_stack(block_matmul(X, M) - block_matmul(M, X)))
    size = np.linalg.norm(frob_stack(X)) * np.linalg.norm(frob_stack(M))
    if gap > gate * max(1.0, size):
        raise ValueError(f"shift operator must commute with {name}")


class _Transform(Flow):
    """A map of the flow ``source``: the state at t comes from ``source``'s
    state at ``_inner(t)``, through ``_apply``, which maps blocks entry by
    entry.  ``blocks`` evaluates the root once at ``source_times`` on
    ``parts`` (this flow's partition by default) and applies every
    transform of the chain with ``finish``."""

    def __init__(self, source: Flow, partition: np.ndarray | None):
        self._source = source
        self.spec = source.spec
        self.support_size = source.support_size
        self.partition = partition

    @property
    def root(self) -> Flow:
        return self._source.root

    def source_times(self, times) -> np.ndarray:
        return self._source.source_times(self._inner(np.asarray(times, dtype=float)))

    def finish(self, times, blocks: np.ndarray, parts: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        inner = self._inner(times)
        return self._apply(times, self._source.finish(inner, blocks, parts), parts)

    def finish_off_blocks(self, times, values: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        inner = self._inner(times)
        return self._apply_off_blocks(times, self._source.finish_off_blocks(inner, values))

    def _apply_off_blocks(self, times: np.ndarray, values: np.ndarray) -> np.ndarray:
        # a map that adds zeros off the blocks keeps the entries there
        return values

    def blocks(self, times, parts: np.ndarray | None = None) -> np.ndarray:
        parts = self.partition if parts is None else parts
        return self.finish(times, self.root.blocks(self.source_times(times), parts), parts)


class ShiftedFlow(_Transform):
    """rho_X on stacks of times, in the model of ``source``.

    ``[X, A] = 0`` is checked up front.  Given it, ``[X, rho(t)]`` solves a
    linear homogeneous equation along the solution, so it vanishes at every
    t or at none, and ``[X, rho(0)] = 0`` is checked on the first state of
    each stack the flow maps: a trajectory's first regular sample, so a
    dressing that is singular at t = 0 does not fail the construction.
    The partition is the source's with the parts that X or the shift
    generator couple joined (one whole block for a source without one, or
    a generator that is not diagonal)."""

    def __init__(self, source: Flow, X: np.ndarray,
                 tolerances: Tolerances = DEFAULT):
        spec = source.spec
        X = as_operator(X)
        _check_commutes(X[None], spec.A[None], tolerances.seed_structure, "A")
        factor = NormalExp((spec.n + 1) * (X @ spec.powers[spec.n]), tolerances)
        whole = parts = np.arange(spec.dim)[None]
        if source.partition is not None and not off_diagonal(factor.G):
            parts = partition(coupling(spec.dim, (X,), source.partition))
        # X's zeros off the blocks must be one value, which every state
        # off its blocks gets at t = 0
        off = off_blocks(X, parts)
        bits = off.view(np.uint64).reshape(-1, 2)
        if (bits != bits[:1]).any():
            parts = whole
        super().__init__(source, parts)
        self._X = X
        self._X_off = complex(off[0]) if len(off) else 0j
        self._factor = factor
        self._gate = tolerances.seed_structure

    def _inner(self, times: np.ndarray) -> np.ndarray:
        return times

    def _apply(self, times: np.ndarray, blocks: np.ndarray, parts: np.ndarray) -> np.ndarray:
        X = blocks_of(self._X, parts)
        if len(blocks):
            _check_commutes(X, blocks[0], self._gate, "rho(0)")
        return self._factor.similarity(blocks + X, -1j * times, parts)

    def _apply_off_blocks(self, times: np.ndarray, values: np.ndarray) -> np.ndarray:
        # an entry zero at every time is +0.0 but at t = 0, where the
        # similarity is the identity
        return np.where(times == 0, values + self._X_off, 0.0)


class RescaledFlow(_Transform):
    """Y rho(Y t) on stacks of times."""

    def __init__(self, source: Flow, Y: float):
        Y = float(Y)
        if Y == 0:
            raise ValueError("Y must be nonzero")
        super().__init__(source, source.partition)
        self._Y = Y

    def _inner(self, times: np.ndarray) -> np.ndarray:
        return self._Y * times

    def _apply(self, times: np.ndarray, blocks: np.ndarray, parts: np.ndarray) -> np.ndarray:
        return self._Y * blocks

    def _apply_off_blocks(self, times: np.ndarray, values: np.ndarray) -> np.ndarray:
        return self._Y * values


def shifted_flow(source: Flow, X: np.ndarray,
                 tolerances: Tolerances = DEFAULT) -> ShiftedFlow:
    """Return ``t -> rho_X(t)`` in the model of ``source`` (``ShiftedFlow``)."""
    return ShiftedFlow(source, X, tolerances)


def rescaled_flow(source: Flow, Y: float) -> RescaledFlow:
    """Return ``t -> Y rho(Y t)``."""
    return RescaledFlow(source, Y)


def normalize_to_density(source: Flow, tolerances: Tolerances = DEFAULT):
    """Shift then rescale a Hermitian solution into a density matrix.

    Chooses ``Lambda = max(0, -lambda_min(rho(0)))`` and
    ``Y = 1 / (Tr rho(0) + Lambda dim)``; returns ``(X, Y, flow)`` with
    ``X = Lambda 1``, where ``flow(t) = Y rho_X(Y t)`` has unit trace and no
    eigenvalue below the positivity floor at t = 0.
    """
    rho0 = as_operator(source(0.0))
    if not is_hermitian(rho0, tolerances.hermiticity):
        raise ValueError("normalize_to_density requires a Hermitian rho(0)")
    values, _ = eig_hermitian(rho0, eps=tolerances.hermiticity)
    lam = max(0.0, -float(values[0]))
    dim = rho0.shape[0]
    total = float(np.trace(rho0).real) + lam * dim
    if abs(total) < 1e-14 * max(1.0, frob(rho0)):
        raise UnnormalizableError(
            "shifted solution has zero trace and cannot be normalized")
    Y = 1.0 / total
    X = lam * np.eye(dim, dtype=complex)
    base = shifted_flow(source, X, tolerances=tolerances)
    flow = rescaled_flow(base, Y)

    start = flow(0.0)
    start_vals, _ = eig_hermitian((start + start.conj().T) / 2)
    if start_vals[0] < tolerances.positivity_floor:
        raise UnnormalizableError(
            f"normalized start is not positive (min eig {start_vals[0]:.3e})")
    if abs(np.trace(start) - 1.0) > 1e-10:
        raise UnnormalizableError("normalized start does not have unit trace")
    return X, Y, flow
