"""Lax eigenproblem at t = 0 and closed-form evolution of the linear pairs.

The right problem is ``z_mu |phi> = (rho - mu A)|phi>`` together with
``i |phi'> = (sum_k A^{n-k} rho A^k - mu A^{n+1}) |phi>``; two conjugate
left problems (parameters nu and lambda) mirror it.  For every supported
seed family the time equation has a constant effective generator G on the
eigenvector orbit, so

    phi(t) = exp(-i G t) phi(0),        chi(t) = chi(0) exp(+i G_nu t),

with the same dispatch serving both sides:

* anticommuting, even n:  G = z A^n
* anticommuting, odd n:   G = -parameter A^{n+1}
* commuting (stationary): G = sum_k A^{n-k} rho0 A^k - parameter A^{n+1}
* Delta-commuting, n = 1: G = a H + Delta_a/parameter - ((z^2 - a z)/parameter) 1

The scalar term in the last line is the integrating factor that makes the
time equation hold exactly; it cancels in every rank-one projector built
from the pair, so dressed states do not depend on it.

Every generator is normal (a polynomial in commuting Hermitian A, rho0 and
Delta_a), so ``LaxSolution`` factors each one once (``NormalExp``) and
evaluates phi, chi and psi on stacks of times.  The stacked rows carry a
per-point scale: ``phi(t) = e^{shift} * row``, where the shift is the largest
real part of the exponent.  Projectors are homogeneous of degree zero in phi
and chi, so they use the rows directly and stay finite at any |t|.  The
scalar ``phi_at``/``chi_at``/``psi_at`` are the one-point case and raise
``OverflowError`` when the unscaled vector overflows.

The guards on the Darboux parameters (``check_params``, ``identity_pair``,
``hermitian_pairing``) are defined here once and shared by the engine and the
config reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FarPin, UnsupportedScenario
from .operator_core import NormalExp, eig_pair_general, eig_pair_left
from .seed_factory import SeedFamily, SeedSolution
from .tolerances import DEFAULT, Tolerances
from .vne_model import hamiltonian_of


@dataclass(frozen=True)
class DarbouxParams:
    """Transformation parameters and the eigenvalues selected for them.

    ``hermitian_mode`` is equivalent to ``nu == conj(mu)``; in that regime the
    projector is Hermitian, T is unitary and density-matrix structure is
    preserved.  ``mu == nu`` is rejected: it generates the identity map.
    """

    mu: complex
    nu: complex
    lam: complex | None
    z_mu: complex
    z_nu: complex
    z_lambda: complex | None
    hermitian_mode: bool

    def __post_init__(self):
        check_params(self.mu, self.nu, self.lam)


def require_nonzero(**parameters: complex):
    """Raise ``ValueError("<names> must be nonzero")`` if one of them is zero."""
    if any(value == 0 for value in parameters.values()):
        raise ValueError(f"{' and '.join(parameters)} must be nonzero")


def identity_pair(mu: complex, nu: complex) -> bool:
    """``mu == nu`` to round-off: the pair generates the identity map."""
    return abs(mu - nu) <= 1e-14 * max(1.0, abs(mu))


def hermitian_pairing(mu: complex, nu: complex) -> bool:
    """``nu == conj(mu)`` to 1e-12: P is Hermitian and T unitary."""
    return bool(abs(nu - np.conj(mu)) <= 1e-12 * max(1.0, abs(mu)))


def check_params(mu: complex, nu: complex | None = None,
                 lam: complex | None = None):
    """The Darboux-parameter guards: nonzero mu and nu, ``mu != nu``
    (``identity_pair``) and ``lambda != mu``; ``nu=None`` skips the pair."""
    require_nonzero(mu=mu)
    if nu is not None:
        require_nonzero(nu=nu)
        if identity_pair(mu, nu):
            raise ValueError(
                "mu == nu generates the identity transformation; pick distinct "
                "parameters (a real mu with conjugate nu does this too)")
    if lam is not None and lam == mu:
        raise ValueError("lambda must differ from mu")


def solve_initial(seed: SeedSolution, mu: complex, pin: complex | None = None,
                  tolerances: Tolerances = DEFAULT) -> tuple[complex, np.ndarray]:
    """Deterministic eigenpair of ``rho0 - mu A`` at t = 0."""
    mu = complex(mu)
    require_nonzero(mu=mu)
    pencil = seed.rho0 - mu * seed.spec.A
    return eig_pair_general(pencil, pin=pin, tolerances=tolerances)


def solve_initial_left(seed: SeedSolution, param: complex,
                       pin: complex | None = None,
                       tolerances: Tolerances = DEFAULT) -> tuple[complex, np.ndarray]:
    """Deterministic left eigenpair ``w (rho0 - param A) = z w`` (row vector)."""
    param = complex(param)
    require_nonzero(parameter=param)
    pencil = seed.rho0 - param * seed.spec.A
    return eig_pair_left(pencil, pin=pin, tolerances=tolerances)


def eigenvalue_multiplicity(seed: SeedSolution, param: complex, z: complex) -> int:
    """How many pencil eigenvalues coincide with ``z`` numerically."""
    pencil = seed.rho0 - complex(param) * seed.spec.A
    roots = np.linalg.eigvals(pencil)
    scale = max(1.0, float(np.abs(roots).max()))
    return int(np.sum(np.abs(roots - z) <= 1e-8 * scale))


def lax_generator(seed: SeedSolution, param: complex, z: complex) -> np.ndarray:
    """Constant effective generator for the given seed family (see module doc)."""
    spec = seed.spec
    n = spec.n
    if seed.family is SeedFamily.ANTICOMMUTING:
        if n % 2 == 0:
            return z * spec.powers[n]
        return -param * spec.powers[n + 1]
    if seed.family is SeedFamily.COMMUTING:
        return hamiltonian_of(spec, seed.rho0) - param * spec.powers[n + 1]
    if seed.family is SeedFamily.DELTA_COMMUTING:
        a = seed.a
        scalar = (z * z - a * z) / param
        return (a * spec.A + seed.delta_a / param
                - scalar * np.eye(spec.dim, dtype=complex))
    raise UnsupportedScenario(
        f"no closed-form Lax evolution for {seed.family.value} seeds (n={n})")


def _unscaled(rows: np.ndarray, shift: np.ndarray, name: str, t: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        vector = rows[0] * np.exp(shift[0])
    if not np.all(np.isfinite(vector)):
        raise OverflowError(f"{name} overflowed at t = {t:.6g}")
    return vector


@dataclass(frozen=True, eq=False)
class LaxSolution:
    """Assembled Lax data: parameters, initial vectors and evolution rules.

    Each generator is factored once (``lax_generator``, then ``NormalExp``,
    gated by ``tolerances``): phi's at construction, so that a seed family
    without a closed-form evolution fails here, chi's and psi's on first use.
    """

    params: DarbouxParams
    seed: SeedSolution
    phi0: np.ndarray
    chi0: np.ndarray
    psi0: np.ndarray | None
    tolerances: Tolerances = DEFAULT

    def __post_init__(self):
        self._phi_factor

    def _factor(self, param: complex, z: complex) -> NormalExp:
        return NormalExp(lax_generator(self.seed, param, z), self.tolerances)

    @cached_property
    def _phi_factor(self) -> NormalExp:
        return self._factor(self.params.mu, self.params.z_mu)

    @cached_property
    def _chi_factor(self) -> NormalExp:
        return self._factor(self.params.nu, self.params.z_nu)

    @cached_property
    def _psi_factor(self) -> NormalExp:
        if self.params.lam is None or self.params.z_lambda is None:
            raise ValueError("lambda is not configured on these parameters")
        return self._factor(self.params.lam, self.params.z_lambda)

    @property
    def generators(self) -> tuple:
        """The factored generators of phi and, outside hermitian mode, chi."""
        if self.params.hermitian_mode:
            return (self._phi_factor.G,)
        return (self._phi_factor.G, self._chi_factor.G)

    def phi_rows(self, times) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, shift)`` with ``phi(t_b) = e^{shift_b} rows[b]``."""
        return self._phi_factor.act(self.phi0, -1j * np.asarray(times, dtype=float))

    def chi_rows(self, times) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, shift)`` with ``chi(t_b) = e^{shift_b} rows[b]``."""
        if self.params.hermitian_mode:
            rows, shift = self.phi_rows(times)
            return np.conj(rows), shift
        return self._chi_factor.act(self.chi0, 1j * np.asarray(times, dtype=float),
                                    left=True)

    @property
    def psi_generator(self) -> np.ndarray:
        """psi's factored generator ``G_lambda``: ``psi' = i psi G_lambda``."""
        return self._psi_factor.G

    def psi_rows(self, times) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, shift)`` with ``psi(t_b) = e^{shift_b} rows[b]``."""
        return self._psi_factor.act(self.psi0, 1j * np.asarray(times, dtype=float),
                                    left=True)

    def phi_at(self, t: float) -> np.ndarray:
        return _unscaled(*self.phi_rows([t]), "phi(t)", t)

    def chi_at(self, t: float) -> np.ndarray:
        return _unscaled(*self.chi_rows([t]), "chi(t)", t)

    def psi_at(self, t: float) -> np.ndarray:
        return _unscaled(*self.psi_rows([t]), "psi(t)", t)


def pinned(name: str, solve, *args, **kwargs):
    """``solve(*args, **kwargs)``, where a pin far from every root (``FarPin``)
    is a config error that names the pin ``darboux.<name>``."""
    try:
        return solve(*args, **kwargs)
    except FarPin as exc:
        raise FarPin(f"darboux.{name}: {exc}") from None


def build_lax(seed: SeedSolution, mu: complex, nu: complex | None = None,
              lam: complex | None = None, *,
              z_mu_pin: complex | None = None,
              z_nu_pin: complex | None = None,
              z_lambda_pin: complex | None = None,
              tolerances: Tolerances = DEFAULT) -> LaxSolution:
    """Solve all configured pencils at t = 0 and package the evolution rules.

    ``nu`` defaults to ``conj(mu)`` (hermitian mode).  ``lam`` is optional and
    only needed for covariance checks; it must differ from ``mu``.  A pin far
    from every root of its pencil raises ``FarPin`` (a ``ValueError``) whose
    message names it as a config does, e.g. ``darboux.z_mu_pin: ...``.
    """
    mu = complex(mu)
    nu = complex(np.conj(mu) if nu is None else nu)
    lam = None if lam is None else complex(lam)
    check_params(mu, nu, lam)
    herm = hermitian_pairing(mu, nu)

    z_mu, phi0 = pinned("z_mu_pin", solve_initial, seed, mu, z_mu_pin,
                        tolerances)
    if herm:
        z_nu = np.conj(z_mu)
        # conj turns an imaginary +0.0 into -0.0: the zeros stay +0.0
        chi0 = np.conj(phi0) + 0.0
    else:
        z_nu, chi0 = pinned("z_nu_pin", solve_initial_left, seed, nu,
                            z_nu_pin, tolerances)

    z_lambda, psi0 = None, None
    if lam is not None:
        z_lambda, psi0 = pinned("z_lambda_pin", solve_initial_left, seed, lam,
                                z_lambda_pin, tolerances)

    params = DarbouxParams(mu=mu, nu=nu, lam=lam,
                           z_mu=z_mu, z_nu=complex(z_nu), z_lambda=z_lambda,
                           hermitian_mode=herm)
    return LaxSolution(params=params, seed=seed, phi0=phi0, chi0=chi0,
                       psi0=psi0, tolerances=tolerances)
