"""Binary Darboux dressing: projector, similarity operator, dressed states.

The rank-one idempotent ``P = |phi><chi| / <chi|phi>`` turns a seed solution
rho into ``rho[1] = rho + (mu - nu)[P, A]``, which equals the similarity form
``T rho T^{-1}`` with ``T = 1 + ((mu - nu)/nu) P = exp(P ln(mu/nu))``.  The
two forms are not independent: with the analytic ``T^{-1} = 1 + ((nu -
mu)/mu) P``, ``T rho T^{-1} - rho = (mu - nu) B`` for any P, rho and A, where
B is the right side of the bridge identity

    [P, A] = ((nu - mu)/(mu nu)) P rho P - (1/mu) rho P + (1/nu) P rho.

So ``form_gap = |mu - nu| * bridge gap`` before round-off.  Both gates stay:
each is a named claim of the construction, and a disagreement is an error,
never a warning.

The similarity form, the bridge and unitarity (``T^dag T = 1`` when
``nu = conj(mu)``) are computed from P's factors ``P = U W``: with
``a = W rho``, ``b = rho U`` and ``s = W rho U``,
``T rho T^{-1} = rho + c U a + c' b W + c c' U s W`` (``c = (mu - nu)/nu``,
``c' = (nu - mu)/mu``), the bridge is
``((nu - mu)/(mu nu)) U s W - b W / mu + U a / nu`` and
``T^dag T - 1 = conj(c) P^dag + c P + |c|^2 W^dag (U^dag U) W``.  A dressed
point has rank one, ``U = phi / <chi|phi>`` and ``W = chi``, so these are
vector-matrix and outer products, and ``T^{-1}`` is never built; a P that a
caller hands to ``dress`` is its own factor (``U = P``, ``W = 1``).  The
commutator form, the idempotency gate ``P @ P`` and the ``t_equality``
exponential keep their matrix forms: the first is the state, and the other
two measure round-off in P itself.  On a 2 x 2 block those forms are
written out entry by entry, with no matrix product.

Dressing runs on stacks of time points.  ``DressedFlow(lax)`` is the
evaluation plan of one scenario: it takes the seed, its model and the
tolerances from the Lax solution, phi and chi from the Lax generators and the
seed state from its evolution, each factored once, and builds projectors and
dressed states for a whole stack.  It works on the support J of the Lax
eigenvector: the union of the connected components, in the nonzero pattern
of A, rho0 and the generators, that phi0 or chi0 meet.  The paper's seeds are
built from blocks, so their pencil is block-diagonal and J is one block;
phi and chi vanish outside J, P and ``rho[1] - rho`` outside ``J x J``, and
T is the identity there.  Projectors, T and every gate are computed on
``J x J``, and a dressed state is its seed state with that block replaced;
for a dense seed J is every index.  States are evaluated as their blocks
on a partition no finer than the flow's (``operator_core.partition``: the
components of A, rho0 and the seed's generator, with J as one part),
``(N, B, b, b)``: the seed's blocks, with ``rho1_J`` written into J's part.
Whole states are the one whole block, ``B = 1``.  The samples and the
residual's stencil ring are dressed on the partition of the flow that
samples them.  When the parts differ in size, the seed's generator is not
diagonal or rho0 holds a ``-0.0`` off the parts, the flow's partition is
one whole block.
For an exactly diagonal A, as every seed family builds it, ``[P, A_J]``
scales P's entries by A's diagonal instead of multiplying matrices.  Every
gate (overlap floor, idempotency, projector trace, ``t_equality``,
``form_gap``, bridge identity, unitarity) is a reduction over the stack, and
the first failing point in stack order raises what a point-by-point loop
would.  ``t_equality`` compares T with one stacked exponential: in
hermitian mode, where P is Hermitian by construction, from one batched
``eigh`` of P's Hermitian part, or on a 2 x 2 block from that part's
closed-form eigen-split; otherwise, and for any P a caller hands in, from
``mat_exp``.
``projector``, ``dress`` and ``dressed_state_at`` are the one-point case;
the first two take whole matrices.  ``dressed_trajectory(flow, times)``
samples a ``DressedFlow`` or a symmetry flow of one: it cuts the sample grid
into blocks (``time_blocks``, sized by the full and the support
matrices a point holds), dresses each block on the flow's partition,
records it in a ``Diagnostics`` of per-sample arrays (dressed states, the
projectors' ``J x J`` blocks and their exact time derivatives, the gates'
values and other scalar diagnostics, the Hermiticity gaps and spectra
read from the states' blocks) and joins the blocks' states and records
field by field into one ``Trajectory``.  The whole ``(N, d, d)`` states
are assembled once from their blocks (``operator_core.whole_of``).  The
derivatives need no second dressing: phi, chi and psi evolve by factored
generators, so ``phi' = -i G phi``,
``chi' = +i chi G_nu`` and ``psi' = +i psi G_lambda``, and P' follows by the
quotient rule from the rows each sample was dressed with
(``DressedFlow.projector_rates``).  Under a symmetry flow
(``symmetry_transforms``) it dresses each sample once, at the time the flow
evaluates the dressing (``Y t``), and the flow maps that dressing to the
sample's state.  The trajectory keeps its flow and nothing the flow
holds: the dressing (``rho_at.root``) with its support and Lax solution,
and the map of the seed's rho(0) to the reference spectrum.  The checks in
``verification`` read those gate values and derivatives, slice those
stacks and evaluate the residual's stencil through the same flow.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InconsistentLax, SingularDarboux
from .lax_engine import LaxSolution, hermitian_pairing, require_nonzero
from .operator_core import (as_operator, as_state, block_matmul, commutator,
                            components, coupling, dagger, frob_stack,
                            hermitian_spectra, hermiticity_gaps, mat_exp,
                            off_blocks, off_diagonal, partition, row_matmul,
                            time_blocks, whole_of)
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
    symmetry flow.  ``P`` holds their projectors as the ``(N, |J|, |J|)``
    blocks on the dressing's ``support`` J, outside which every projector
    vanishes, and ``P_dot`` the blocks of their exact time derivatives
    (``DressedFlow.projector_rates``), whose norms are ``p_dot_norm``;
    ``idempotency_gap`` and ``projector_trace_gap`` are the values their
    gates compared.  ``spectrum`` holds the ascending eigenvalues of
    each dressed state's Hermitian part, its first column the smallest.
    It is None outside hermitian mode, and ``F_value`` off Delta-commuting
    seeds in hermitian mode.
    """

    rho1: np.ndarray
    P: np.ndarray
    P_dot: np.ndarray
    phi_norm: np.ndarray
    form_gap: np.ndarray
    hermiticity_gap: np.ndarray
    idempotency_gap: np.ndarray
    projector_trace_gap: np.ndarray
    F_value: np.ndarray | None
    p_dot_norm: np.ndarray
    spectrum: np.ndarray | None = None


@dataclass(eq=False)
class Trajectory:
    """Sampled rho[1](t) as one ``(N, d, d)`` stack, with per-sample
    diagnostics and an exact re-evaluator.

    ``states`` may be given as a list and is stored as a stack; ``rho_at``
    is the ``Flow`` that recomputes the states at arbitrary times (the
    residual evaluates its stencil through it),
    and the one holder of what the checks read: its ``root`` is the
    dressing, whose ``lax`` is the Lax solution the samples were dressed
    with, and its ``finish`` maps the seed's rho(0) to the reference whose
    spectrum the samples keep; ``singular_t`` is set when the dressing blew
    up and the sampling was truncated.
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: Diagnostics | None = None
    rho_at: Flow | None = None
    singular_t: float | None = None

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

    @property
    def reference(self) -> np.ndarray:
        """The flow's map (``finish``) at t = 0 of the seed's rho(0), whose
        spectrum the samples keep: rho(0) itself for a dressing,
        ``rho(0) + X`` under a shift and ``Y rho(0)`` under a rescaling."""
        seed = self.rho_at.root.lax.seed
        return self.rho_at.finish(np.zeros(1), seed.rho0[None, None],
                                  np.arange(seed.dim)[None])[0, 0]

    def cut(self, count: int):
        """Keep the samples before sample ``count``, whose time becomes
        ``singular_t``."""
        if self.diagnostics is not None:
            self.diagnostics = Diagnostics(*(
                None if value is None else value[:count]
                for value in vars(self.diagnostics).values()))
        self.states = self.states[:count]
        self.singular_t = float(self.times[count])
        self.times = self.times[:count]


# A gate failure is ``(index, exception)``: the first failing point of a
# stack and what a point-by-point loop would have raised there.  A gate
# passes a point only where its value is within its limit (``~(value <=
# limit)`` fails), so a NaN fails it.

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


def _raise(failure, times=None):
    # a failing point of a stack of ``times`` is dated by its time
    if failure is not None:
        if times is not None:
            failure[1].t = float(times[failure[0]])
        raise failure[1]


def _projector_stack(phi: np.ndarray, chi: np.ndarray, tolerances: Tolerances):
    # rows of phi and chi -> (P, idempotency gap, trace gap, first failing
    # gate) per row
    with np.errstate(all="ignore"):
        overlap = np.sum(chi * phi, axis=-1)
        floor = (tolerances.overlap_floor * np.linalg.norm(phi, axis=-1)
                 * np.linalg.norm(chi, axis=-1))
        P = phi[:, :, None] * chi[:, None, :] / overlap[:, None, None]
        idempotency = frob_stack(block_matmul(P, P) - P)
        trace_gap = np.abs(np.trace(P, axis1=-2, axis2=-1) - 1.0)
    failure = _earliest(
        _first(~(np.abs(overlap) >= floor), lambda i: SingularDarboux(
            f"<chi|phi> = {overlap[i]:.3e} is below the relative floor {floor[i]:.3e}")),
        # the report's absolute limit: an oblique P, whose ||P||_F is about
        # 1/overlap, is not dressed past the gap its report would fail
        _first(~(idempotency <= tolerances.idempotency), lambda i: SingularDarboux(
            "projector lost idempotency to round-off; the pair is too close "
            "to orthogonal for a reliable dressing")),
        _first(~(trace_gap <= tolerances.projector_trace), lambda i: SingularDarboux(
            "projector trace moved away from 1")))
    return P, idempotency, trace_gap, failure


def _hermitian_exp(z: complex, P: np.ndarray) -> np.ndarray:
    # exp(z P) for a stack of P Hermitian to round-off, from the Hermitian
    # part H = (P + P^dag)/2: V diag(e^{z w}) V^dag, from one batched eigh
    # or, at 2 x 2, in closed form.  An anti-Hermitian part of P is left
    # out, which can only widen the t_equality gap.
    H = (P + dagger(P)) / 2
    if H.shape[-1] == 2:
        return _hermitian_exp_2x2(z, H)
    w, V = np.linalg.eigh(H)
    return (V * np.exp(z * w)[:, None, :]) @ dagger(V)


def _hermitian_exp_2x2(z: complex, H: np.ndarray) -> np.ndarray:
    # V diag(e^{z w}) V^dag written out for a stack of Hermitian
    # H = [[a, b], [conj(b), d]]: with m = (a + d)/2, h = (a - d)/2 and
    # r = hypot(h, |b|) the eigenvalues are m +- r, and
    # exp(zH) = e^{zm} (cosh(zr) 1 + (sinh(zr)/r) (H - m 1)), where
    # sinh(zr)/r is z to the last bit once |zr| < 1e-8 (the series'
    # next term is (zr)^2/6), and z at r = 0.  It assumes no idempotency,
    # trace or rank, so it stays independent of the rational T
    a, d = H[..., 0, 0].real, H[..., 1, 1].real
    m, h = (a + d) / 2, (a - d) / 2
    r = np.hypot(h, np.abs(H[..., 0, 1]))
    zr = z * r
    scale = np.exp(z * m)
    sinc = np.full(r.shape, z, dtype=complex)
    np.divide(np.sinh(zr), r, out=sinc, where=np.abs(zr) >= 1e-8)
    cosh, sinc = scale * np.cosh(zr), scale * sinc
    out = np.empty(H.shape, dtype=complex)
    out[..., 0, 0] = cosh + sinc * h
    out[..., 0, 1] = sinc * H[..., 0, 1]
    out[..., 1, 0] = sinc * H[..., 1, 0]
    out[..., 1, 1] = cosh - sinc * h
    return out


def _similarity_stack(P: np.ndarray, mu: complex, nu: complex,
                      tolerances: Tolerances, hermitian: bool = False,
                      beyond: int = 0):
    # T on the block that P lives on; beyond it T is the identity, whose
    # ``beyond`` unit diagonal entries count in ||T||_F.  hermitian: P is
    # Hermitian by construction (chi = conj(phi)); any other P, above all
    # one handed in by a caller, goes through mat_exp
    eye = np.eye(P.shape[-1], dtype=complex)
    T = eye + ((mu - nu) / nu) * P
    z = np.log(mu / nu)
    gap = frob_stack(T - (_hermitian_exp(z, P) if hermitian else mat_exp(z * P)))
    size = np.hypot(frob_stack(T), np.sqrt(beyond))
    failure = _first(
        ~(gap <= tolerances.t_equality * np.maximum(1.0, size)),
        lambda i: InconsistentLax(
            "rational and exponential forms of T disagree; P is not idempotent"))
    return T, failure


def _block(M: np.ndarray, J: np.ndarray) -> np.ndarray:
    # the J x J block of a matrix or of each matrix of a stack, C-ordered:
    # numpy lays out a fancy-indexed stack by its length, and matmul rounds
    # by layout, so a block's bits would depend on how the grid was cut
    return M.take(J, axis=-2).take(J, axis=-1)


def _embed(block: np.ndarray, J: np.ndarray, base: np.ndarray) -> np.ndarray:
    # ``base`` (one matrix or a stack) with the J x J block of each matrix
    # replaced by ``block``
    out = np.array(np.broadcast_to(base, block.shape[:-2] + base.shape[-2:]))
    out[..., J[:, None], J] = block
    return out


def _similarity_terms(rho: np.ndarray, U: np.ndarray, W: np.ndarray,
                      mu: complex, nu: complex):
    # (T rho T^{-1}, bridge expression) for P = U W with U (N, k, r) and
    # W (N, r, k), from a = W rho, b = rho U and s = W rho U: with
    # c = (mu - nu)/nu and c' = (nu - mu)/mu, T rho T^{-1} is
    # rho + c U a + c' b W + c c' U s W, and T^{-1} is never built
    a = W @ rho
    b = rho @ U
    Ua, bW, UsW = U @ a, b @ W, (U @ (a @ U)) @ W
    c, c_inv = (mu - nu) / nu, (nu - mu) / mu
    similar = rho + c * Ua + c_inv * bW + (c * c_inv) * UsW
    bridge = ((nu - mu) / (mu * nu)) * UsW - bW / mu + Ua / nu
    return similar, bridge


def _unitarity_defect(P: np.ndarray, U: np.ndarray, W: np.ndarray,
                      c: complex) -> np.ndarray:
    # T^dag T - 1 for T = 1 + c P and P = U W:
    # conj(c) P^dag + c P + |c|^2 W^dag (U^dag U) W
    return (np.conj(c) * dagger(P) + c * P
            + abs(c) ** 2 * (dagger(W) @ ((dagger(U) @ U) @ W)))


def _commutator_with(P: np.ndarray, A: np.ndarray, J: np.ndarray,
                     diagonal: bool = False) -> np.ndarray:
    # [P, A_J] for a stack P of J x J blocks.  For an exactly diagonal A
    # with a real diagonal a it is P_ij a_j - a_i P_ij, whose nonzero entries
    # are those of the matrix products bit for bit
    if diagonal:
        a = A.diagonal().take(J)
        return P * a - a[:, None] * P
    A_J = _block(A, J)
    return P @ A_J - A_J @ P


def _dress_stack(rho_J: np.ndarray, rho_norm: np.ndarray, dim: int,
                 A: np.ndarray, P: np.ndarray, U: np.ndarray, W: np.ndarray,
                 J: np.ndarray, mu: complex, nu: complex,
                 tolerances: Tolerances, hermitian: bool = False,
                 diagonal: bool = False):
    # (rho1_J, T, form_gap, failure) for seed states of dimension dim given
    # as their J x J blocks rho_J and their norms ||rho||_F, whose
    # projectors vanish outside J x J, with P their J x J blocks and U, W
    # the factors P = U W.  A couples no index in J to one outside it, so
    # [P, A], T - 1 and rho1 - rho vanish outside J x J too: rho1 is rho
    # with its block replaced by rho1_J, T is returned as its block, and
    # every gate is evaluated on the blocks.  diagonal: A is exactly
    # diagonal with a real diagonal (``ModelSpec.diagonals``)
    comm_PA = _commutator_with(P, A, J, diagonal)
    rho1_J = rho_J + (mu - nu) * comm_PA
    T, failure = _similarity_stack(P, mu, nu, tolerances, hermitian, dim - len(J))
    similar, bridge = _similarity_terms(rho_J, U, W, mu, nu)
    form_gap = frob_stack(rho1_J - similar)
    bridge_gap = frob_stack(comm_PA - bridge)
    bridge_limit = tolerances.bridge_identity * np.maximum(1.0, rho_norm * frob_stack(P))
    gates = [
        failure,
        _first(~(form_gap <= tolerances.form_gap), lambda i: InconsistentLax(
            f"form_gap = {form_gap[i]:.3e}: commutator and similarity forms of "
            "rho[1] disagree, so P was not built from genuine eigenvectors")),
        _first(~(bridge_gap <= bridge_limit), lambda i: InconsistentLax(
            f"[P, A] bridging identity violated by {bridge_gap[i]:.3e}")),
    ]
    if hermitian_pairing(mu, nu):
        unitarity = frob_stack(_unitarity_defect(P, U, W, (mu - nu) / nu))
        gates.append(_first(~(unitarity <= tolerances.t_unitarity), lambda i: InconsistentLax(
            f"T fails unitarity by {unitarity[i]:.3e} although nu = conj(mu)")))
    return rho1_J, T, form_gap, _earliest(*gates)


def _transform_rows(psi: np.ndarray, P: np.ndarray, c: complex) -> np.ndarray:
    # psi (1 - c P) for a stack of rows
    return psi - c * row_matmul(psi, P)


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
    P, _, _, failure = _projector_stack(phi[None], chi[None], tolerances)
    _raise(failure)
    return P[0]


def dress(rho, A, P, mu: complex, nu: complex, t: float = 0.0,
          tolerances: Tolerances = DEFAULT) -> DressedState:
    """Dress one state: rho[1] by the commutator form, cross-checked.

    Computes ``rho + (mu - nu)[P, A]`` and ``T rho T^{-1}`` (from P as its
    own factor, ``T^{-1} = 1 + ((nu - mu)/mu) P`` analytically) and records
    their distance as ``form_gap``.  Also asserts the bridging identity

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
    # the caller's P is its own factor: U = P, W = 1
    J = np.arange(len(A))
    rho1, T, form_gap, failure = _dress_stack(
        _block(rho[None], J), frob_stack(rho[None]), len(A), A, P[None], P[None],
        np.eye(len(A), dtype=complex)[None], J, mu, nu, tolerances)
    _raise(failure)
    return DressedState(rho1=rho1[0], P=P, T=T[0], t=float(t),
                        form_gap=float(form_gap[0]))


class DressedStack(NamedTuple):
    """Dressed states of a stack of times, cut at the first failing point.

    ``rho1`` holds the states as their blocks on a partition of the flow
    (``Flow.blocks``); ``P`` and ``T`` are the blocks on the flow's
    ``support``, outside which P vanishes and T is the identity.
    ``idempotency_gap`` (``||P^2 - P||_F``) and ``projector_trace_gap``
    (``|Tr P - 1|``) are the values the projector gates compared; ``phi``
    and ``chi`` are the normalized support rows P was built from.
    """

    rho1: np.ndarray
    P: np.ndarray
    T: np.ndarray
    form_gap: np.ndarray
    phi_norm: np.ndarray
    idempotency_gap: np.ndarray
    projector_trace_gap: np.ndarray
    phi: np.ndarray
    chi: np.ndarray
    failure: tuple | None


class DressedFlow(Flow):
    """rho[1](t) of one Lax solution, evaluated on stacks of times.

    The seed, the model and every gate's tolerance are the Lax solution's
    (``lax.seed``, its ``spec`` and ``lax.tolerances``).  Projectors use the
    scaled rows of ``LaxSolution``, normalized per point, so they stay
    finite at any |t|; ``phi_norm`` is ``e^{shift} |row|``.
    ``support`` is the index set J, found once, outside which phi and chi
    vanish: the union of the connected components, in the nonzero pattern
    of A, rho0 and the generators of the seed, phi and chi, that phi0 or
    chi0 meet.  Projectors, T and every gate are computed on ``J x J``.
    ``partition`` is the components of the pattern of A, rho0 and the
    seed's generator with J as one part (``operator_core.partition``): a
    dressed state is its seed state's blocks with J's block replaced, and
    ``+0.0`` off them.  It is one whole block when the parts differ in
    size, when the seed's generator is not diagonal (its similarity does
    not act on blocks), when rho0 holds a ``-0.0`` off the parts, and for a
    dense seed, where J is every index.
    """

    def __init__(self, lax: LaxSolution):
        seed = lax.seed
        self.seed = seed
        self.spec = seed.spec
        self.lax = lax
        states = (seed.spec.A, seed.rho0, *seed.generators)
        label = components(coupling(seed.dim, states + lax.generators))
        met = np.zeros(seed.dim, dtype=bool)
        met[label[(lax.phi0 != 0) | (lax.chi0 != 0)]] = True
        self.support = np.flatnonzero(met[label])
        self.support_size = len(self.support)
        # the generators of phi and, outside hermitian mode, chi on J x J
        self._generators = [_block(G, self.support) for G in lax.generators]
        self.partition = partition(coupling(seed.dim, states, [self.support]))
        # a state holds +0.0 off its blocks only if rho0 does
        if (any(off_diagonal(G) for G in seed.generators)
                or np.signbit(off_blocks(seed.rho0, self.partition).view(float)).any()):
            self.partition = np.arange(seed.dim)[None]

    def _rows(self, times):
        # the support entries of phi and chi per point, normalized, with
        # phi_norm and the first point where a row is not finite or vanished

        def normalized(rows, name):
            length = np.linalg.norm(rows, axis=-1)
            finite = np.isfinite(rows).all(axis=-1)
            return rows.take(self.support, axis=-1) / length[:, None], length, _first(
                ~finite | (length == 0), lambda i: SingularDarboux(
                    f"{name}(t) " + ("vanished" if finite[i] else "has a non-finite entry"),
                    t=float(times[i])))

        phi, shift = self.lax.phi_rows(times)
        with np.errstate(all="ignore"):
            phi_hat, phi_len, failure = normalized(phi, "phi")
            chi_hat = np.conj(phi_hat)
            if not self.lax.params.hermitian_mode:
                chi_hat, _, chi_failure = normalized(self.lax.chi_rows(times)[0], "chi")
                failure = _earliest(failure, chi_failure)
            return phi_hat, chi_hat, np.exp(shift) * phi_len, failure

    def projector_rates(self, dressed: DressedStack) -> np.ndarray:
        """The time derivatives ``P'`` of the projectors
        ``P = |phi><chi| / <chi|phi>`` of a dressed stack (``evaluate``), from
        its normalized support rows phi and chi, as ``support`` blocks.

        The quotient rule on ``phi' = -i G phi`` and ``chi' = +i chi G_nu``
        (``conj(phi')`` in hermitian mode), with the Lax generators' ``J x J``
        blocks:
        ``P' = (phi' chi + phi chi' - P (chi' phi + chi phi')) / <chi|phi>``.
        A part of phi' along phi, or of chi' along chi, cancels, so the
        rows' scale does not matter.  Every product is an entry formula,
        so a point's bits do not depend on its stack.
        """
        phi, chi, P = dressed.phi, dressed.chi, dressed.P
        dphi = -1j * row_matmul(phi, self._generators[0].T)
        dchi = (np.conj(dphi) if self.lax.params.hermitian_mode
                else 1j * row_matmul(chi, self._generators[1]))
        overlap = np.sum(chi * phi, axis=-1)
        rate = np.sum(dchi * phi + chi * dphi, axis=-1)
        return ((dphi[:, :, None] * chi[:, None, :] + phi[:, :, None] * dchi[:, None, :]
                 - P * rate[:, None, None]) / overlap[:, None, None])

    def evaluate(self, times, parts: np.ndarray | None = None) -> DressedStack:
        """Projectors and dressed states with every gate; the stack stops at
        the first failing point.  The states are their blocks on ``parts``,
        a partition no finer than ``partition`` (its default).  The dressing
        gates take P's factors ``U = phi / <chi|phi>`` and ``W = chi`` (rank
        one)."""
        times = np.asarray(times, dtype=float)
        parts = self.partition if parts is None else parts
        phi, chi, phi_norm, failure = self._rows(times)
        P, idempotency, trace_gap, projector_failure = _projector_stack(
            phi, chi, self.lax.tolerances)
        failure = _earliest(failure, projector_failure)
        done = len(times) if failure is None else failure[0]
        phi, chi = phi[:done], chi[:done]
        with np.errstate(all="ignore"):
            U = phi / np.sum(chi * phi, axis=-1)[:, None]
        params, spec, J = self.lax.params, self.spec, self.support
        # J lies in one part; its indices sit at ``local`` within it
        part = int(np.flatnonzero((parts == J[0]).any(axis=-1))[0])
        local = np.searchsorted(parts[part], J)
        rho = self.seed.blocks(times[:done], parts)
        rho1_J, T, form_gap, dress_failure = _dress_stack(
            rho[:, part].take(local, axis=-2).take(local, axis=-1),
            np.linalg.norm(frob_stack(rho), axis=-1), spec.dim, spec.A,
            P[:done], U[:, :, None], chi[:, None, :], J, params.mu, params.nu,
            self.lax.tolerances, params.hermitian_mode, spec.diagonals is not None)
        # the seed stack is fresh: it becomes the dressed stack in place
        rho[:, part, local[:, None], local] = rho1_J
        return DressedStack(rho, P[:done], T, form_gap, phi_norm[:done],
                            idempotency[:done], trace_gap[:done], phi, chi,
                            dress_failure or failure)

    def blocks(self, times, parts: np.ndarray | None = None) -> np.ndarray:
        dressed = self.evaluate(times, parts)
        _raise(dressed.failure, times)
        return dressed.rho1

    def psi1_rows(self, times, P: np.ndarray, P_dot: np.ndarray) -> tuple:
        """``(rows, rates, shift)``: scaled rows of the transformed left
        lambda-solution ``psi[1] = psi (1 - c P)``, with
        ``c = (nu - mu)/(lambda - mu)``, the rows of its time derivative
        ``psi[1]' = psi' (1 - c P) - c psi P'`` at the same scale, where
        ``psi' = i psi G_lambda`` (``LaxSolution.psi_generator``), and the
        shifts: ``psi[1](t_b) = e^{shift_b} rows[b]``.

        ``P`` and ``P_dot`` are the projectors and their derivatives at the
        times, as ``support`` blocks (``Diagnostics``).
        Only the ``support`` entries of a row change.
        """
        lax, params = self.lax, self.lax.params
        c = (params.nu - params.mu) / (params.lam - params.mu)
        rows, shift = lax.psi_rows(times)
        rates = 1j * row_matmul(rows, lax.psi_generator)
        psi, dpsi = rows.take(self.support, axis=-1), rates.take(self.support, axis=-1)
        rows[:, self.support] = _transform_rows(psi, P, c)
        rates[:, self.support] = _transform_rows(dpsi, P, c) - c * row_matmul(psi, P_dot)
        return rows, rates, shift


def f_value(seed: SeedSolution, mu: complex, phi0, times):
    """F_a(t) = <phi(0)| exp(i ((mu - conj mu)/|mu|^2) Delta_a t) |phi(0)>.

    ``times`` is one time (the result is one complex number) or a stack of
    times (one value per time), and every value equals its one-point result
    bitwise.  For an exactly diagonal ``Delta_a``, as every seed family
    builds it, the exponential is ``np.exp`` of the exponent's diagonal,
    applied to phi(0) entry by entry where phi(0) is nonzero, and every
    other entry is ``+0.0``: what ``mat_exp`` gives an exactly diagonal
    slice, bit for bit, wherever that is finite.  A phase that overflows
    where phi(0) is zero would make that entry NaN, not zero.  A
    ``Delta_a`` that is not diagonal, or a non-finite result, takes one
    stacked ``mat_exp``, which treats each slice on its own and raises
    ``OverflowError`` on overflow.
    """
    phi0 = as_state(phi0)
    mu = complex(mu)
    t = np.asarray(times, dtype=float)
    coeff = 1j * ((mu - np.conj(mu)) / abs(mu) ** 2)
    support = np.flatnonzero(phi0 != 0)
    exponent = (coeff * t)[..., None] * seed.delta_a.diagonal()[support]
    psi = np.zeros(t.shape + phi0.shape, dtype=complex)
    with np.errstate(all="ignore"):
        psi[..., support] = np.multiply(np.exp(exponent), phi0[support])
    if off_diagonal(seed.delta_a) or not np.isfinite(psi).all():
        psi = mat_exp(coeff * t[..., None, None] * seed.delta_a) @ phi0
    # <phi0|psi> is one (1, d) @ (d, 1) dot product per point, as for a
    # single vector; [()] turns the 0-d result of one time into a scalar
    return (np.conj(phi0) @ psi[..., None])[..., 0][()]


def dressed_state_at(seed: SeedSolution, lax: LaxSolution, t: float) -> DressedState:
    """rho[1](t) with its P and T as whole matrices, gated by
    ``lax.tolerances``; ``seed`` must be the seed ``lax`` was solved for."""
    if seed is not lax.seed:
        raise ValueError("seed is not the seed of this Lax solution")
    flow = DressedFlow(lax)
    dressed = flow.evaluate([t], np.arange(seed.dim)[None])
    _raise(dressed.failure)
    J, eye = flow.support, np.eye(seed.dim, dtype=complex)
    return DressedState(rho1=dressed.rho1[0, 0], P=_embed(dressed.P[0], J, 0 * eye),
                        T=_embed(dressed.T[0], J, eye), t=float(t),
                        form_gap=float(dressed.form_gap[0]))


def _joined(pieces: list):
    # the blocks' stacks as one, or their records field by field; a
    # one-block grid keeps its fresh arrays
    if len(pieces) == 1 or pieces[0] is None:
        return pieces[0]
    if isinstance(pieces[0], Diagnostics):
        return Diagnostics(*(_joined([getattr(p, f.name) for p in pieces])
                             for f in fields(Diagnostics)))
    return np.concatenate(pieces)


def dressed_trajectory(flow: Flow, times) -> Trajectory:
    """Sample ``flow``, a ``DressedFlow`` or a symmetry flow of one
    (``symmetry_transforms``), over a time grid with full per-sample
    diagnostics.

    The grid is evaluated block by block (``time_blocks``, which depend on
    the grid and the flow's support alone; an empty grid is one empty
    block), each block's states as their blocks on ``flow.partition``
    (``DressedFlow.evaluate``), mapped there by the flow, and assembled
    whole once (``whole_of``), each entry off the blocks what the flow's
    maps make of a zero (``Flow.finish_off_blocks``).  The Hermiticity
    gaps and the spectra are read from the dressed blocks, bit for bit
    what ``hermiticity_gaps`` and ``hermitian_spectra`` give the whole
    states.  Each block fills its own ``Diagnostics``, and the states and
    the records are joined field by field when the grid has more than one
    block.  ``P`` holds the projectors as their blocks on
    the dressing's support J, with the values their gates compared, and
    ``P_dot`` their exact derivatives, from the rows each sample was
    dressed with (``DressedFlow.projector_rates``); no point beside the
    samples is dressed.  On Delta-commuting seeds in hermitian mode each
    block evaluates ``f_value`` for all its samples in one call.  A
    ``SingularDarboux`` at some sample cuts the stacks there and records the
    singular sample's time instead of aborting.

    The dressing is ``flow.root``, and its ``lax`` is the Lax solution.
    Under a symmetry flow each sample is dressed once, at the time
    ``flow.source_times`` maps it to (``Y t`` under a rescaling, in reverse
    order for a negative Y), and ``flow.finish`` maps the dressed state to
    the sample's.  The diagnostics describe that dressing.  The samples keep
    ``times`` and its order.
    """
    times = np.asarray(times, dtype=float)
    dressing = flow.root
    lax = dressing.lax
    seed, params = lax.seed, lax.params
    at = flow.source_times(times)
    herm = params.hermitian_mode
    with_f = seed.family is SeedFamily.DELTA_COMMUTING and herm
    parts = np.arange(seed.dim)[None] if flow.partition is None else flow.partition
    states, records = [], []
    singular_t = None
    for block in (time_blocks(len(times), seed.dim, support=dressing.support_size)
                  or [slice(0, 0)]):
        t = at[block]
        dressed = dressing.evaluate(t, parts)
        failure = dressed.failure
        done = len(t) if failure is None else failure[0]
        blocks = dressed.rho1[:done]
        rho1 = whole_of(blocks, parts)
        if flow is not dressing:
            sampled = times[block][:done]
            states.append(whole_of(
                flow.finish(sampled, blocks, parts), parts,
                flow.finish_off_blocks(sampled, np.zeros(done, dtype=complex))))
        P_dot = dressing.projector_rates(dressed)[:done]
        records.append(Diagnostics(
            rho1=rho1, P=dressed.P[:done], P_dot=P_dot, phi_norm=dressed.phi_norm[:done],
            form_gap=dressed.form_gap[:done], hermiticity_gap=hermiticity_gaps(blocks, parts),
            idempotency_gap=dressed.idempotency_gap[:done],
            projector_trace_gap=dressed.projector_trace_gap[:done],
            F_value=f_value(seed, params.mu, lax.phi0, t[:done]) if with_f else None,
            p_dot_norm=frob_stack(P_dot),
            spectrum=hermitian_spectra(rho1, blocks) if herm else None))
        if failure is not None:
            index, error = failure
            if not isinstance(error, SingularDarboux):
                raise error
            singular_t = float(times[block][index])
            break

    diagnostics = _joined(records)
    return Trajectory(times=times[:len(diagnostics.rho1)],
                      states=_joined(states) if states else diagnostics.rho1,
                      diagnostics=diagnostics, rho_at=flow, singular_t=singular_t)


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
