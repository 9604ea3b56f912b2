"""Dense complex matrix algebra with deterministic, documented tolerances.

All operations are pure functions on numpy arrays: square complex matrices
act as operators, 1-D complex arrays as kets (columns) or bras (rows,
conjugation already folded in).  Stacks ``(..., d, d)`` hold one operator per
time point; ``as_operators``, ``mat_exp``, ``trace_moments`` and
``NormalExp`` work on them, and ``time_blocks`` bounds how many points one
stack holds.  Nothing here mutates its inputs, so every function is safe to
call from multiple threads.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

from .errors import DefectiveEigenproblem, FarPin
from .tolerances import DEFAULT, Tolerances

#: dimension guard for the general eigenpair extraction
DIM_CAP = 32

#: relative pivot threshold deciding numerical rank during elimination
_PIVOT_RTOL = 1e-12

#: bytes of d x d work arrays one stack of time points may hold
BLOCK_BYTES = 2 << 20

#: d x d complex work arrays a dressed time point keeps alive at once
_WORK_MATRICES = 32


def time_blocks(count: int, dim: int, points_per_item: int = 1) -> list:
    """Consecutive slices of ``range(count)`` sized from ``BLOCK_BYTES``.

    Each item evaluates ``points_per_item`` time points of dimension ``dim``;
    a block holds as many items as fit the budget, and at least one.  The
    slices depend only on the arguments, so the same grid is always cut the
    same way.
    """
    point_bytes = _WORK_MATRICES * 16 * dim * dim
    per_block = max(1, BLOCK_BYTES // (point_bytes * points_per_item))
    return [slice(i, min(i + per_block, count))
            for i in range(0, count, per_block)]


def as_operators(M) -> np.ndarray:
    """Validate and return ``M`` as a stack ``(..., d, d)`` of complex matrices."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[-1] < 1:
        raise ValueError("operator dimension must be at least 1")
    if not np.all(np.isfinite(M)):
        raise ValueError("operator has non-finite entries")
    return M


def as_operator(M) -> np.ndarray:
    """Validate and return ``M`` as a square complex matrix."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return as_operators(M)


def as_state(v, allow_zero: bool = False) -> np.ndarray:
    """Validate and return ``v`` as a 1-D complex vector."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"expected a 1-D state vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite entries")
    if not allow_zero and not np.any(v):
        raise ValueError("zero vector is not a valid state here")
    return v


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(M.conj(), -1, -2)


def frob(M) -> float:
    """Frobenius norm (2-norm for vectors)."""
    return float(np.linalg.norm(M))


def frob_stack(M) -> np.ndarray:
    """Frobenius norm of each matrix of a stack ``(..., d, d)``."""
    return np.linalg.norm(M, axis=(-2, -1))


def is_hermitian(M, eps: float = DEFAULT.hermiticity) -> bool:
    """True when ``||M - M^dag||_F <= eps * max(1, ||M||_F)``."""
    M = as_operator(M)
    return frob(M - dagger(M)) <= eps * max(1.0, frob(M))


def commutator(A, B) -> np.ndarray:
    """AB - BA."""
    A = as_operator(A)
    B = as_operator(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def anticommutator(A, B) -> np.ndarray:
    """AB + BA."""
    A = as_operator(A)
    B = as_operator(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B + B @ A


def mat_exp(M) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with Pade approximants.

    ``M`` is one matrix or a stack ``(..., d, d)``, exponentiated slice by
    slice in one call.  Accurate to ~1e-12 relative in the Frobenius norm for
    ||M||_F <= 50.  Raises ``OverflowError`` instead of returning non-finite
    entries; the message names the first slice that overflowed.
    """
    M = as_operators(M)
    with warnings.catch_warnings():
        # overflow becomes an explicit error below, not a warning
        warnings.simplefilter("ignore", RuntimeWarning)
        E = sla.expm(M)
    finite = np.isfinite(E).all(axis=(-2, -1))
    if not finite.all():
        first = np.unravel_index(np.argmin(finite), finite.shape)
        raise OverflowError(
            f"matrix exponential overflowed (||M||_F = {frob_stack(M[first]):.3g})")
    return E


class NormalExp:
    """``exp(s G)`` of one normal matrix G for a stack of complex ``s``.

    G is factored once, ``G = Q diag(g) Q^dag``, by a complex Schur
    decomposition: Q is unitary even when eigenvalues repeat.  A triangular
    factor that is not diagonal to ``seed_structure * ||G||_F`` means G is
    not normal, and raises ``DefectiveEigenproblem``; there is no fallback.
    """

    def __init__(self, G, tolerances: Tolerances = DEFAULT):
        G = as_operator(G)
        R, Q = sla.schur(G, output="complex")
        off = frob(np.triu(R, 1))
        if off > tolerances.seed_structure * frob(G):
            raise DefectiveEigenproblem(
                f"generator is not normal: its Schur factor is {off:.3g} "
                "away from diagonal")
        self.g = np.diag(R).copy()
        self._Q = Q
        self._QT = Q.T.copy()
        self._QH = dagger(Q).copy()
        self._gap = self.g[:, None] - self.g[None, :]

    def act(self, v: np.ndarray, s, shift: np.ndarray | None = None,
            left: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``exp(s_b G) v / e^{shift_b}`` (``v exp(s_b G)`` if ``left``).

        ``shift`` defaults to each point's largest ``Re(s_b g_k)`` over the
        eigencomponents present in ``v``, which keeps every row finite for
        any s; pass one to share a scale between points.  Returns the rows and
        the shifts.  A row with ``s_b = 0`` and zero shift is ``v`` itself.
        """
        s = np.asarray(s, dtype=complex)
        coeffs = v @ self._Q if left else self._QH @ v
        exponents = s[:, None] * self.g
        if shift is None:
            shift = np.where(coeffs != 0, exponents.real, -np.inf).max(axis=1)
        rows = (coeffs * np.exp(exponents - shift[:, None])) @ (
            self._QH if left else self._QT)
        rows[(s == 0) & (shift == 0)] = v
        return rows, shift

    def similarity(self, M: np.ndarray, s) -> np.ndarray:
        """``exp(s_b G) M_b exp(-s_b G)`` for each ``s_b``.

        ``M`` is one matrix or a stack aligned with ``s``; points with
        ``s_b = 0`` return ``M_b`` itself.  Raises ``OverflowError`` instead
        of returning non-finite entries.
        """
        s = np.asarray(s, dtype=complex)
        phase = np.exp(s[:, None, None] * self._gap)
        out = self._Q @ ((self._QH @ M @ self._Q) * phase) @ self._QH
        zero = s == 0
        out[zero] = M if M.ndim == 2 else M[zero]
        if not np.all(np.isfinite(out)):
            raise OverflowError("exp(sG) M exp(-sG) overflowed")
        return out


def eig_hermitian(M, eps: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with real eigenvalues in ascending order
    and orthonormal eigenvectors as columns.  Rejects non-Hermitian input.
    """
    M = as_operator(M)
    gate = DEFAULT.hermiticity if eps is None else eps
    if not is_hermitian(M, gate):
        raise ValueError("eig_hermitian requires a Hermitian matrix "
                         f"(gap {frob(M - dagger(M)):.3g} exceeds gate {gate:.3g})")
    values, vectors = np.linalg.eigh(M)
    return values, vectors


def trace_moments(M, kmax: int) -> np.ndarray:
    """(Tr M, Tr M^2, ..., Tr M^kmax) — a similarity-invariant fingerprint.

    For a stack ``(..., d, d)`` the result has shape ``(..., kmax)``.
    """
    M = as_operators(M)
    if int(kmax) != kmax or kmax < 1:
        raise ValueError("kmax must be a positive integer")
    moments = np.empty(M.shape[:-2] + (int(kmax),), dtype=complex)
    power = M
    for k in range(int(kmax)):
        if k:
            power = power @ M
        moments[..., k] = np.trace(power, axis1=-2, axis2=-1)
    return moments


def _polish_root(M: np.ndarray, z: complex, max_iter: int = 2) -> complex:
    # Newton on det(M - zI) via LU: dz = 1 / tr((M - zI)^{-1}).
    # Shifts already singular to machine precision are left untouched.
    n = M.shape[0]
    eye = np.eye(n)
    scale = max(1.0, frob(M))
    for _ in range(max_iter):
        shifted = M - z * eye
        try:
            with warnings.catch_warnings():
                # an exactly singular shift just means the root has converged
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(shifted, check_finite=False)
        except Exception:
            break
        if np.abs(np.diag(lu)).min() <= 1e-14 * scale:
            break
        trace_inv = np.trace(sla.lu_solve((lu, piv), eye, check_finite=False))
        if trace_inv == 0 or not np.isfinite(trace_inv):
            break
        dz = 1.0 / trace_inv
        if not np.isfinite(dz) or abs(dz) > 0.1 * scale:
            break
        z = z + dz
    return complex(z)


def _select_root(roots: np.ndarray, pin: complex | None) -> complex:
    # lexicographic (Re, Im) maximum with a tolerance band on Re, so that
    # round-off dust on numerically equal real parts cannot flip the choice;
    # a pin selects its nearest root and must lie nearer to it than half the
    # distance to the next distinct root (roots within the band are one)
    scale = max(1.0, float(np.abs(roots).max()))
    band = 1e-9 * scale
    cands = roots
    if pin is not None:
        dist = np.abs(roots - pin)
        cands = roots[dist <= dist.min() + band]
    cands = cands[cands.real >= cands.real.max() - band]
    z = complex(cands[int(np.argmax(cands.imag))])
    if pin is not None:
        gaps = np.abs(roots - z)
        gaps = gaps[gaps > band]
        if gaps.size and not abs(pin - z) < gaps.min() / 2:
            raise FarPin(
                f"{complex(pin)} lies {abs(pin - z):.3g} from the nearest root "
                f"{z:.6g}; a pin must lie within {gaps.min() / 2:.3g} of its "
                "root, half the distance to the next root")
    return z


def _null_vector(B: np.ndarray) -> np.ndarray | None:
    # Deterministic null vector by full-pivot Gaussian elimination; the first
    # free (permuted) coordinate is set to 1 and pivots back-substituted.
    n = B.shape[0]
    U = np.array(B, dtype=complex)
    colperm = np.arange(n)
    scale = max(1.0, float(np.abs(U).max()))
    rank = 0
    for step in range(n):
        sub = np.abs(U[step:, step:])
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i, j] <= _PIVOT_RTOL * scale:
            break
        U[[step, step + i], :] = U[[step + i, step], :]
        U[:, [step, step + j]] = U[:, [step + j, step]]
        colperm[[step, step + j]] = colperm[[step + j, step]]
        factors = U[step + 1:, step] / U[step, step]
        U[step + 1:, :] -= np.outer(factors, U[step, :])
        rank += 1
    if rank == n:
        return None
    x = np.zeros(n, dtype=complex)
    x[rank] = 1.0
    for r in range(rank - 1, -1, -1):
        x[r] = -(U[r, r + 1:] @ x[r + 1:]) / U[r, r]
    v = np.zeros(n, dtype=complex)
    v[colperm] = x
    return v


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Normalize and rotate so the first significant component is real positive."""
    v = as_state(v)
    v = v / np.linalg.norm(v)
    top = np.abs(v).max()
    idx = int(np.argmax(np.abs(v) > 1e-12 * top))
    pivot = v[idx]
    return v * (np.conj(pivot) / abs(pivot))


def eig_pair_general(M, pin: complex | None = None, dim_cap: int = DIM_CAP,
                     tolerances: Tolerances = DEFAULT) -> tuple[complex, np.ndarray]:
    """One deterministic eigenpair of a general complex matrix.

    Candidate eigenvalues are polished by Newton iteration on ``det(M - zI)``
    via LU.  Selection: the root maximizing ``(Re z, Im z)`` lexicographically,
    or the polished root closest to ``pin`` when given; a pin that is not
    nearer that root than half its distance to the next distinct root raises
    ``FarPin`` (a ``ValueError``).  The eigenvector is a
    deterministic null vector of ``M - zI`` (full-pivot elimination) with its
    first significant component made real positive.

    Raises
    ------
    DefectiveEigenproblem
        when no vector meets ``|Mv - zv| <= tol * ||M||_F * |v|``.
    """
    M = as_operator(M)
    n = M.shape[0]
    if n > dim_cap:
        raise ValueError(f"dimension {n} exceeds the configured cap {dim_cap}")
    roots = np.array([_polish_root(M, z) for z in np.linalg.eigvals(M)])
    z = _select_root(roots, pin)
    v = _null_vector(M - z * np.eye(n))
    if v is None:
        raise DefectiveEigenproblem(
            f"no null direction found for eigenvalue z = {z}")
    v = canonical_phase(v)
    residual = float(np.linalg.norm(M @ v - z * v))
    if residual > tolerances.eig_pair_residual * max(frob(M), 1e-30):
        raise DefectiveEigenproblem(
            f"eigenpair residual {residual:.3g} exceeds tolerance at z = {z}")
    return z, v


def eig_pair_left(M, pin: complex | None = None,
                  tolerances: Tolerances = DEFAULT) -> tuple[complex, np.ndarray]:
    """Left eigenpair ``w M = z w``; ``w`` is returned as a 1-D row vector."""
    M = as_operator(M)
    z, w = eig_pair_general(M.T, pin=pin, tolerances=tolerances)
    return z, w
