"""Binary Darboux dressing: projector, similarity operator, dressed states.

The rank-one idempotent ``P = |phi><chi| / <chi|phi>`` turns a seed solution
rho into ``rho[1] = rho + (mu - nu)[P, A]``, which equals the similarity form
``T rho T^{-1}`` with ``T = 1 + ((mu - nu)/nu) P = exp(P ln(mu/nu))``.  Both
forms are computed independently on every call; their distance (``form_gap``)
is the strongest integrity check of the whole pipeline and a disagreement is
an error, never a warning.

Dressing runs on stacks of time points.  ``DressedFlow`` is the evaluation
plan of one scenario: it takes phi and chi from the Lax generators and the
seed state from its evolution, each factored once, and builds projectors and
dressed states for a whole stack.  Every gate (overlap floor, idempotency,
projector trace, ``t_equality`` against one stacked ``expm``, ``form_gap``,
bridge identity, unitarity) is a reduction over the stack, and the first
failing point in stack order raises what a point-by-point loop would.
``projector``, ``similarity_T``, ``dress``, ``projector_at`` and
``dressed_state_at`` are the one-point case.  ``dressed_trajectory`` cuts the
sample grid into blocks (``time_blocks``) and fills one ``Trajectory``: the
states as one ``(N, d, d)`` stack, a ``Diagnostics`` record of per-sample
arrays (dressed states, projectors and scalar diagnostics) and the Lax
solution.  The checks in ``verification`` slice those stacks and evaluate
their stencils through the same flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InconsistentLax, SingularDarboux
from .lax_engine import (LaxSolution, check_params, hermitian_pairing,
                         require_nonzero)
from .operator_core import (as_operator, as_state, commutator, dagger,
                            frob_stack, mat_exp, time_blocks)
from .seed_factory import SeedFamily, SeedSolution
from .tolerances import DEFAULT, Tolerances
from .vne_model import Flow


@dataclass(frozen=True, eq=False)
class DressedState:
    """rho[1] at one time together with the operators that produced it."""

    rho1: np.ndarray
    P: np.ndarray
    T: np.ndarray
    t: float
    form_gap: float


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Per-sample arrays of a dressed trajectory, one entry per state.

    ``rho1`` is the ``(N, d, d)`` stack of dressed states, before any
    symmetry flow, and ``P`` their projectors; ``min_eig`` is None outside
    hermitian mode and ``F_value`` off Delta-commuting seeds in hermitian
    mode.
    """

    rho1: np.ndarray
    P: np.ndarray
    phi_norm: np.ndarray
    form_gap: np.ndarray
    hermiticity_gap: np.ndarray
    min_eig: np.ndarray | None
    F_value: np.ndarray | None
    p_dot_norm: np.ndarray


@dataclass(eq=False)
class Trajectory:
    """Sampled rho[1](t) as one ``(N, d, d)`` stack, with per-sample
    diagnostics and an exact re-evaluator.

    ``states`` may be given as a list and is stored as a stack; ``rho_at``
    recomputes the state at arbitrary t (used by the residual check; a
    ``Flow`` evaluates stacks of times); ``lax`` is the Lax solution the
    samples were dressed with, whose ``seed`` and ``params`` the checks read;
    ``singular_t`` is set when the dressing blew up and the sampling was
    truncated; ``resym_drift`` is the largest re-symmetrization correction of
    an ``rk4_integrate`` run.
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: Diagnostics | None = None
    rho_at: object = None
    singular_t: float | None = None
    lax: LaxSolution | None = None
    resym_drift: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if (self.diagnostics is not None
                and len(self.diagnostics.rho1) != len(self.states)):
            raise ValueError("diagnostics length must match states")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


# A gate failure is ``(index, exception)``: the first failing point of a
# stack and what a point-by-point loop would have raised there.

def _first(mask: np.ndarray, error) -> tuple[int, Exception] | None:
    if not mask.any():
        return None
    index = int(np.argmax(mask))
    return index, error(index)


def _earliest(*failures):
    """The failure at the earliest point; on a tie the earlier argument wins."""
    found = None
    for failure in failures:
        if failure is not None and (found is None or failure[0] < found[0]):
            found = failure
    return found


def _raise(failure):
    if failure is not None:
        raise failure[1]


def _projector_stack(phi: np.ndarray, chi: np.ndarray, tolerances: Tolerances):
    # rows of phi and chi -> P per row, with the first failing gate
    with np.errstate(all="ignore"):
        overlap = np.sum(chi * phi, axis=-1)
        floor = (tolerances.overlap_floor * np.linalg.norm(phi, axis=-1)
                 * np.linalg.norm(chi, axis=-1))
        P = phi[:, :, None] * chi[:, None, :] / overlap[:, None, None]
        idempotency = frob_stack(P @ P - P)
        limit = tolerances.idempotency * np.maximum(1.0, frob_stack(P))
        trace_gap = np.abs(np.trace(P, axis1=-2, axis2=-1) - 1.0)
    failure = _earliest(
        _first(np.abs(overlap) < floor, lambda i: SingularDarboux(
            f"<chi|phi> = {overlap[i]:.3e} is below the relative floor {floor[i]:.3e}")),
        _first(idempotency > limit, lambda i: SingularDarboux(
            "projector lost idempotency to round-off; the pair is too close "
            "to orthogonal for a reliable dressing")),
        _first(trace_gap > tolerances.projector_trace, lambda i: SingularDarboux(
            "projector trace moved away from 1")))
    return P, failure


def _similarity_stack(P: np.ndarray, mu: complex, nu: complex,
                      tolerances: Tolerances):
    eye = np.eye(P.shape[-1], dtype=complex)
    T = eye + ((mu - nu) / nu) * P
    gap = frob_stack(T - mat_exp(np.log(mu / nu) * P))
    failure = _first(
        gap > tolerances.t_equality * np.maximum(1.0, frob_stack(T)),
        lambda i: InconsistentLax(
            "rational and exponential forms of T disagree; P is not idempotent"))
    return T, failure


def _dress_stack(rho: np.ndarray, A: np.ndarray, P: np.ndarray, mu: complex,
                 nu: complex, tolerances: Tolerances):
    # (rho1, T, form_gap, failure) for stacks rho and P
    comm_PA = P @ A - A @ P
    rho1 = rho + (mu - nu) * comm_PA
    T, failure = _similarity_stack(P, mu, nu, tolerances)
    eye = np.eye(rho.shape[-1], dtype=complex)
    T_inv = eye + ((nu - mu) / mu) * P
    form_gap = frob_stack(rho1 - T @ rho @ T_inv)
    bridge = (((nu - mu) / (mu * nu)) * (P @ rho @ P)
              - (rho @ P) / mu + (P @ rho) / nu)
    bridge_gap = frob_stack(comm_PA - bridge)
    bridge_limit = tolerances.bridge_identity * np.maximum(
        1.0, frob_stack(rho) * frob_stack(P))
    gates = [
        failure,
        _first(form_gap > tolerances.form_gap, lambda i: InconsistentLax(
            f"form_gap = {form_gap[i]:.3e}: commutator and similarity forms of "
            "rho[1] disagree, so P was not built from genuine eigenvectors")),
        _first(bridge_gap > bridge_limit, lambda i: InconsistentLax(
            f"[P, A] bridging identity violated by {bridge_gap[i]:.3e}")),
    ]
    if hermitian_pairing(mu, nu):
        unitarity = frob_stack(dagger(T) @ T - eye)
        gates.append(_first(unitarity > tolerances.t_unitarity, lambda i: InconsistentLax(
            f"T fails unitarity by {unitarity[i]:.3e} although nu = conj(mu)")))
    return rho1, T, form_gap, _earliest(*gates)


def _transform_rows(psi: np.ndarray, P: np.ndarray, mu: complex, nu: complex,
                    lam: complex) -> np.ndarray:
    return psi - ((nu - mu) / (lam - mu)) * (psi[:, None, :] @ P)[:, 0, :]


def projector(phi, chi, tolerances: Tolerances = DEFAULT) -> np.ndarray:
    """Rank-one idempotent ``|phi><chi| / <chi|phi>``.

    ``chi`` is a row vector (conjugation folded in), so the overlap is the
    plain contraction ``chi @ phi``.  Near-orthogonal pairs raise
    ``SingularDarboux``: the quotient loses all digits past the floor.
    """
    phi = as_state(phi)
    chi = as_state(chi)
    if phi.shape != chi.shape:
        raise ValueError("phi and chi dimensions disagree")
    P, failure = _projector_stack(phi[None], chi[None], tolerances)
    _raise(failure)
    return P[0]


def similarity_T(P, mu: complex, nu: complex,
                 tolerances: Tolerances = DEFAULT) -> np.ndarray:
    """T = 1 + ((mu - nu)/nu) P, asserted equal to exp(P ln(mu/nu)).

    The principal branch is used for the logarithm; the equality is
    branch-independent because exp(zP) = 1 - P + e^z P for idempotent P.
    """
    P = as_operator(P)
    mu = complex(mu)
    nu = complex(nu)
    require_nonzero(mu=mu, nu=nu)
    T, failure = _similarity_stack(P[None], mu, nu, tolerances)
    _raise(failure)
    return T[0]


def dress(rho, A, P, mu: complex, nu: complex, t: float = 0.0,
          tolerances: Tolerances = DEFAULT) -> DressedState:
    """Dress one state: rho[1] by the commutator form, cross-checked.

    Computes ``rho + (mu - nu)[P, A]`` and ``T rho T^{-1}`` independently
    (``T^{-1} = 1 + ((nu - mu)/mu) P`` analytically) and records their
    distance as ``form_gap``.  Also asserts the bridging identity

        [P, A] = ((nu - mu)/(mu nu)) P rho P - (1/mu) rho P + (1/nu) P rho,

    which only holds when P comes from genuine eigenvectors of the pencils.
    """
    rho = as_operator(rho)
    A = as_operator(A)
    P = as_operator(P)
    if not rho.shape == A.shape == P.shape:
        raise ValueError(f"dimension mismatch: {rho.shape}, {A.shape}, {P.shape}")
    mu = complex(mu)
    nu = complex(nu)
    require_nonzero(mu=mu, nu=nu)
    rho1, T, form_gap, failure = _dress_stack(rho[None], A, P[None], mu, nu,
                                              tolerances)
    _raise(failure)
    return DressedState(rho1=rho1[0], P=P, T=T[0], t=float(t),
                        form_gap=float(form_gap[0]))


class DressedStack(NamedTuple):
    """Dressed states of a stack of times, cut at the first failing point."""

    rho1: np.ndarray
    P: np.ndarray
    T: np.ndarray
    form_gap: np.ndarray
    phi_norm: np.ndarray
    failure: tuple | None


class DressedFlow(Flow):
    """rho[1](t) of one seed and Lax solution, evaluated on stacks of times.

    Projectors use the scaled rows of ``LaxSolution``, normalized per point,
    so they stay finite at any |t|; ``phi_norm`` is ``e^{shift} |row|``.
    """

    def __init__(self, seed: SeedSolution, lax: LaxSolution,
                 tolerances: Tolerances = DEFAULT):
        self.seed = seed
        self.lax = lax
        self.tolerances = tolerances

    def projectors(self, times):
        """``(P, phi_norm, failure)`` for each time, with every projector gate."""
        times = np.asarray(times, dtype=float)
        phi, shift = self.lax.phi_rows(times)
        phi_len = np.linalg.norm(phi, axis=-1)
        gates = [_first(phi_len == 0, lambda i: SingularDarboux(
            "phi(t) vanished", t=float(times[i])))]
        with np.errstate(all="ignore"):
            phi_norm = np.exp(shift) * phi_len
            phi_hat = phi / phi_len[:, None]
            if self.lax.params.hermitian_mode:
                chi_hat = np.conj(phi_hat)
            else:
                chi, _ = self.lax.chi_rows(times)
                chi_len = np.linalg.norm(chi, axis=-1)
                gates.append(_first(chi_len == 0, lambda i: SingularDarboux(
                    "chi(t) vanished", t=float(times[i]))))
                chi_hat = chi / chi_len[:, None]
        P, failure = _projector_stack(phi_hat, chi_hat, self.tolerances)
        return P, phi_norm, _earliest(*gates, failure)

    def evaluate(self, times) -> DressedStack:
        """Projectors and dressed states with every gate; the stack stops at
        the first failing point."""
        times = np.asarray(times, dtype=float)
        P, phi_norm, failure = self.projectors(times)
        done = len(times) if failure is None else failure[0]
        params = self.lax.params
        rho1, T, form_gap, dress_failure = _dress_stack(
            self.seed.rho_stack(times[:done]), self.seed.spec.A, P[:done],
            params.mu, params.nu, self.tolerances)
        return DressedStack(rho1, P[:done], T, form_gap, phi_norm[:done],
                            dress_failure or failure)

    def stack(self, times) -> np.ndarray:
        dressed = self.evaluate(times)
        _raise(dressed.failure)
        return dressed.rho1

    def psi1_rows(self, times, shift: np.ndarray | None = None,
                  P: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Scaled rows of the transformed left lambda-solution (see
        ``transform_psi``) and their shifts.

        ``P`` reuses known projectors at the times; otherwise they are built
        with every gate.  ``shift`` gives points one common scale.
        """
        if P is None:
            P, _, failure = self.projectors(times)
            _raise(failure)
        rows, shift = self.lax.psi_rows(times, shift)
        params = self.lax.params
        return _transform_rows(rows, P, params.mu, params.nu, params.lam), shift


def projector_at(lax: LaxSolution, t: float,
                 tolerances: Tolerances = DEFAULT) -> np.ndarray:
    P, _, failure = DressedFlow(lax.seed, lax, tolerances).projectors([t])
    _raise(failure)
    return P[0]


def f_value(seed: SeedSolution, mu: complex, phi0, times):
    """F_a(t) = <phi(0)| exp(i ((mu - conj mu)/|mu|^2) Delta_a t) |phi(0)>.

    ``times`` is one time (the result is one complex number) or a stack of
    times (one value per time).  A stack takes one stacked ``mat_exp``, which
    scipy evaluates slice by slice, so every value equals its one-point
    result bitwise.
    """
    phi0 = as_state(phi0)
    mu = complex(mu)
    t = np.asarray(times, dtype=float)
    coeff = 1j * ((mu - np.conj(mu)) / abs(mu) ** 2)
    psi = mat_exp(coeff * t[..., None, None] * seed.delta_a) @ phi0
    # <phi0|psi> is one (1, d) @ (d, 1) dot product per point, as for a
    # single vector; [()] turns the 0-d result of one time into a scalar
    return (np.conj(phi0) @ psi[..., None])[..., 0][()]


def dressed_state_at(seed: SeedSolution, lax: LaxSolution, t: float,
                     tolerances: Tolerances = DEFAULT) -> DressedState:
    dressed = DressedFlow(seed, lax, tolerances).evaluate([t])
    _raise(dressed.failure)
    return DressedState(rho1=dressed.rho1[0], P=dressed.P[0], T=dressed.T[0],
                        t=float(t), form_gap=float(dressed.form_gap[0]))


def dressed_trajectory(lax: LaxSolution, times,
                       tolerances: Tolerances = DEFAULT) -> Trajectory:
    """Sample rho[1](t), dressed with ``lax``, over a time grid with full
    per-sample diagnostics.

    The states and every diagnostic are stacks allocated for the whole grid
    and filled block by block (``time_blocks``, which depend on the grid
    alone).  Each block dresses its samples and, in separate stacks, builds
    the projectors at ``t +- dp`` for ``p_dot_norm``; on Delta-commuting
    seeds in hermitian mode it evaluates ``f_value`` for all its samples in
    one call.  A ``SingularDarboux`` at some sample cuts the stacks there
    and records the singular time instead of aborting.
    """
    times = np.asarray(times, dtype=float)
    seed, params = lax.seed, lax.params
    flow = DressedFlow(seed, lax, tolerances)
    herm = params.hermitian_mode
    with_f = seed.family is SeedFamily.DELTA_COMMUTING and herm

    count = len(times)
    rho1 = np.empty((count, seed.dim, seed.dim), dtype=complex)
    P = np.empty_like(rho1)
    phi_norm, form_gap, herm_gap, p_dot = (np.empty(count) for _ in range(4))
    min_eig = np.empty(count) if herm else None
    F = np.empty(count, dtype=complex) if with_f else None
    filled = 0
    singular_t = None
    dp = 1e-4
    for block in time_blocks(count, seed.dim, points_per_item=3):
        t = times[block]
        dressed = flow.evaluate(t)
        p_plus, _, plus_failure = flow.projectors(t + dp)
        p_minus, _, minus_failure = flow.projectors(t - dp)
        failure = _earliest(dressed.failure, plus_failure, minus_failure)
        done = len(t) if failure is None else failure[0]
        out = slice(filled, filled + done)
        states = dressed.rho1[:done]
        rho1[out] = states
        P[out] = dressed.P[:done]
        phi_norm[out] = dressed.phi_norm[:done]
        form_gap[out] = dressed.form_gap[:done]
        herm_gap[out] = frob_stack(states - dagger(states))
        if herm:
            min_eig[out] = np.linalg.eigvalsh((states + dagger(states)) / 2)[:, 0]
        p_dot[out] = frob_stack((p_plus[:done] - p_minus[:done]) / (2 * dp))
        if with_f:
            F[out] = f_value(seed, params.mu, lax.phi0, t[:done])
        filled += done
        if failure is not None:
            index, error = failure
            if not isinstance(error, SingularDarboux):
                raise error
            singular_t = float(t[index]) if error.t is None else float(error.t)
            break

    cut = slice(0, filled)
    diagnostics = Diagnostics(
        rho1=rho1[cut], P=P[cut], phi_norm=phi_norm[cut], form_gap=form_gap[cut],
        hermiticity_gap=herm_gap[cut],
        min_eig=None if min_eig is None else min_eig[cut],
        F_value=None if F is None else F[cut], p_dot_norm=p_dot[cut])
    return Trajectory(times=times[cut], states=diagnostics.rho1,
                      diagnostics=diagnostics, rho_at=flow,
                      singular_t=singular_t, lax=lax)


def explicit_eavn(seed: SeedSolution, mu: complex, phi0, t: float,
                  tolerances: Tolerances = DEFAULT) -> np.ndarray:
    """Closed-form dressed solution for n = 1 Delta-commuting seeds.

    Valid in hermitian mode (nu = conj(mu) is built in) with H = A:

        rho[1](t) = e^{-iaHt} ( rho(0) + (mu - conj mu) F_a(t)^{-1}
                    e^{-(i/mu) Delta_a t} [|phi0><phi0|, H]
                    e^{(i/conj mu) Delta_a t} ) e^{iaHt}.
    """
    if seed.family is not SeedFamily.DELTA_COMMUTING or seed.spec.n != 1:
        raise ValueError("explicit_eavn requires an n = 1 Delta-commuting seed")
    phi0 = as_state(phi0)
    mu = complex(mu)
    require_nonzero(mu=mu)
    H = seed.spec.A
    a = seed.a
    delta = seed.delta_a
    F = complex(f_value(seed, mu, phi0, t))
    if abs(F) < tolerances.f_floor:
        raise SingularDarboux(f"F_a({t}) = {F:.3e} vanished", t=t)
    proj0 = np.outer(phi0, np.conj(phi0))
    core = (mat_exp(-(1j / mu) * t * delta)
            @ commutator(proj0, H)
            @ mat_exp((1j / np.conj(mu)) * t * delta))
    inner = seed.rho0 + ((mu - np.conj(mu)) / F) * core
    U = mat_exp(-1j * a * t * H)
    return U @ inner @ dagger(U)


def transform_psi(psi, P, mu: complex, nu: complex, lam: complex) -> np.ndarray:
    """Covariance transform of the left lambda-solution:

    psi[1] = psi (1 - ((nu - mu)/(lambda - mu)) P).
    """
    psi = as_state(psi)
    P = as_operator(P)
    mu = complex(mu)
    nu = complex(nu)
    lam = complex(lam)
    check_params(mu, lam=lam)
    return _transform_rows(psi[None], P[None], mu, nu, lam)[0]
