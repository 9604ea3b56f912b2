"""Shared oracles and scenario generators for the test suite."""

from __future__ import annotations

import importlib.util
import os
import sys

import numpy as np
import pytest

from vndarboux import (DressedFlow, SeedFamily, SeedSolution, SingularDarboux,
                       UnsupportedScenario, build_lax, dressed_trajectory,
                       make_anticommuting_seed, make_commuting_seed,
                       make_delta_commuting_seed)
from vndarboux.darboux_engine import _projector_stack
from vndarboux.operator_core import as_state, blocks_of, coupling, partition
from vndarboux.symmetry_transforms import _Transform

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def rk4_ode(f, y0, t_end, dt):
    """Classical fixed-step RK4 for dy/dt = f(t, y).

    Test-local oracle, deliberately independent of the library code paths it
    cross-checks.
    """
    steps = int(round(abs(t_end) / dt))
    h = dt if t_end >= 0 else -dt
    t = 0.0
    y = np.array(y0, dtype=complex)
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + (h / 2) * k1)
        k3 = f(t + h / 2, y + (h / 2) * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def nlse_rhs(spec, psi):
    """-i sum_{k=0}^{n-1} <psi|A^k|psi> A^{n-k} |psi>, the state-vector flow.

    The oracle for the projector dynamics of pure states; for n = 1 it
    reduces to the linear -i A |psi> on normalized states.
    """
    psi = as_state(psi)
    total = np.zeros_like(psi)
    for k in range(spec.n):
        coeff = np.conj(psi) @ (spec.powers[k] @ psi)
        total = total + coeff * (spec.powers[spec.n - k] @ psi)
    return -1j * total


class PlantedError(_Transform):
    """The states of ``source`` plus ``t * error`` at each time t: a flow
    that solves nothing, for the checks to catch.  It transforms its
    source, so its ``root`` is the source's (a trajectory's checks read the
    Lax solution there), and ``finish`` adds ``t * error``.  It is
    evaluated on the blocks of the source's partition, with the parts that
    ``error`` couples joined (one whole block for a source without a
    partition), in the source's model."""

    def __init__(self, source, error):
        self.error = np.asarray(error, dtype=complex)
        parts = None
        if source.partition is not None:
            parts = partition(coupling(len(self.error), (self.error,), source.partition))
        super().__init__(source, parts)

    def _inner(self, times):
        return times

    def _apply(self, times, blocks, parts):
        if parts is None:
            parts = np.arange(len(self.error))[None]
        return blocks + times[:, None, None, None] * blocks_of(self.error, parts)


def reseeded(seed, Y=1.0, shift=0.0):
    """The transformed seed ``Y (rho + Lambda)`` built as a seed of its own:
    the reference for ``symmetries.order = "before"``, which the library
    computes as the shift and rescaling of rho's dressing instead.

    A Delta-commuting seed's ``a`` becomes ``Y (a + 2 Lambda)`` (the n = 1
    gauge transformation, then the time scale); an anticommuting seed takes
    ``Y rho`` and no shift, which breaks its structure.
    """
    if seed.family is SeedFamily.DELTA_COMMUTING:
        return SeedSolution(seed.family, Y * (seed.rho0 + shift * np.eye(seed.dim)),
                            seed.spec, a=Y * (seed.a + 2.0 * shift))
    if shift != 0.0:
        raise UnsupportedScenario(
            f"a uniform shift breaks the {seed.family.value} structure")
    return SeedSolution(seed.family, Y * seed.rho0, seed.spec)


#: how far ``hermitian_spectra``, which takes the eigenvalues of a stack's
#: blocks, may lie from ``eigvalsh`` of each whole Hermitian part H, in
#: units of ``||H||_F``: 10 eps (the worst measured over 15,000 random
#: block-diagonal states up to d = 32, near-degenerate blocks included,
#: was 6.7 eps)
SPECTRUM_EPS = 10 * np.finfo(float).eps


def assert_near_eigvalsh(values, S):
    """Each row of ``values`` lies within ``SPECTRUM_EPS ||H||_F`` of
    ``eigvalsh`` of the Hermitian part H of the matching matrix of ``S``."""
    H = (S + np.swapaxes(S.conj(), -1, -2)) / 2
    gaps = np.abs(values - np.linalg.eigvalsh(H)).max(axis=-1)
    assert np.all(gaps <= SPECTRUM_EPS * np.linalg.norm(H, axis=(-2, -1)))


def whole_projectors(traj):
    """A trajectory's projectors as whole ``(N, d, d)`` matrices: the
    ``Diagnostics.P`` blocks on its dressing's support
    (``traj.rho_at.root.support``), zero elsewhere."""
    diagnostics, J = traj.diagnostics, traj.rho_at.root.support
    dim = diagnostics.rho1.shape[-1]
    P = np.zeros((len(diagnostics.P), dim, dim), dtype=complex)
    P[:, J[:, None], J] = diagnostics.P
    return P


def scaled_projectors(factor, phi, chi, tolerances):
    """``_projector_stack`` with each P scaled by ``factor`` and no gate
    failure: the stand-in that pushes a flow's projectors past their gates.
    The gaps are those of the unscaled P."""
    P, idempotency, trace_gap, _ = _projector_stack(phi, chi, tolerances)
    return factor * P, idempotency, trace_gap, None


def random_seed_solution(rng, family=None):
    """One random certified seed with moderate norms (desk scale)."""
    if family is None:
        family = rng.choice(["anticommuting", "delta_commuting", "commuting"])
    if family == "anticommuting":
        pairs = int(rng.integers(1, 4))
        b = rng.uniform(0.3, 1.2, pairs) * rng.choice([-1.0, 1.0], pairs)
        alpha = rng.uniform(0.5, 1.4, pairs)
        n = int(rng.integers(1, 4))
        return make_anticommuting_seed(pairs, b, alpha=alpha, n=n)
    if family == "delta_commuting":
        nblocks = int(rng.integers(1, 4))
        blocks = [(float(rng.uniform(-1.0, 2.0)),
                   float(rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0])))
                  for _ in range(nblocks)]
        a = float(rng.uniform(-1.0, 1.5))
        return make_delta_commuting_seed(blocks, a)
    dim = int(rng.integers(2, 7))
    p = rng.uniform(-1.0, 1.0, dim)
    alpha = rng.uniform(0.5, 1.5, dim) * rng.choice([-1.0, 1.0], dim)
    n = int(rng.integers(1, 4))
    return make_commuting_seed(p, alpha, n=n)


def _random_mu(rng):
    mu = complex(rng.uniform(-1.2, 1.2),
                 float(rng.uniform(0.25, 1.0) * rng.choice([-1.0, 1.0])))
    if abs(mu) < 0.35:
        mu = 0.5 * mu / abs(mu)
    return mu


def draw_valid_scenario(rng, times, hermitian=None, family=None, max_tries=60):
    """Draw (seed, lax, trajectory) with a complete (nonsingular) sampling.

    Deterministic for a given rng state; general-mode draws that hit a
    singular overlap are redrawn.
    """
    for _ in range(max_tries):
        herm = bool(rng.random() < 0.7) if hermitian is None else hermitian
        seed = random_seed_solution(rng, family=family)
        mu = _random_mu(rng)
        nu = None if herm else _random_mu(rng)
        try:
            lax = build_lax(seed, mu, nu)
            traj = dressed_trajectory(DressedFlow(lax), times)
        except (SingularDarboux, ValueError):
            continue
        if traj.singular_t is None:
            return seed, lax, traj
    raise RuntimeError("could not draw a valid scenario")


@pytest.fixture(scope="session")
def bench():
    """``benchmarks/run.py``, for its scenario generators."""
    # it imports its neighbour tracing.py, and its dataclasses look the
    # module up by name
    spec = importlib.util.spec_from_file_location(
        "benchmark_run", os.path.join(BENCHMARKS, "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, BENCHMARKS)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCHMARKS)
    return module
