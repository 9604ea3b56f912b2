"""Dense complex matrix algebra with deterministic, documented tolerances.

All operations are pure functions on numpy arrays: square complex matrices
act as operators, 1-D complex arrays as kets (columns) or bras (rows,
conjugation already folded in).  Stacks ``(..., d, d)`` hold one operator per
time point; ``as_operators``, ``mat_exp``, ``trace_moments`` and
``NormalExp`` work on them, and ``time_blocks`` bounds how many points one
stack holds from the whole and the support-sized matrices a point holds.
A ``partition`` of the indices into equal parts, on which operators are
block-diagonal, lets a stack of states be read as the ``(N, B, b, b)``
stack of its diagonal blocks (``blocks_of``), and the blocks as the whole
matrices again (``whole_of``); ``hermitian_spectra`` takes a stack's
spectra on the blocks of its own nonzero pattern, and ``hermiticity_gaps``
measures whole states, both also from the blocks of a partition.  A
pencil's null vector is eliminated on the block that holds its root.
Nothing here mutates its inputs, so every function is safe to
call from multiple threads.

The kernels need numpy alone: ``mat_exp`` is a batched Pade-13
scaling-and-squaring, ``NormalExp`` factors with ``np.linalg.eig`` and
``np.linalg.qr``, and pencil roots are ``np.linalg.eigvals``'s.  An
exactly diagonal generator needs no factoring: ``NormalExp`` then scales
entries by their phases, bit for bit what the factored formulas give.
"""

from __future__ import annotations

import numpy as np

from .errors import DefectiveEigenproblem, FarPin
from .tolerances import DEFAULT, Tolerances

#: dimension guard for the general eigenpair extraction
DIM_CAP = 32

#: relative pivot threshold deciding numerical rank during elimination
_PIVOT_RTOL = 1e-12

#: bytes of work arrays one stack of time points may hold
BLOCK_BYTES = 2 << 20

#: states, whole or as their blocks, a dressed time point holds at the peak
#: of the largest of its blocked operations, traced by tracemalloc on 12 x 12
#: benchmark scenarios: the residual's ring, four points of blocks per time
#: (5,431 B of its 10,240 on delta-covariance, 8,476 B on
#: anticommuting-shift under a shift and a rescaling); the covariance check,
#: on the states' blocks, peaks at 2,535 B per sample on delta-covariance
_FULL_MATRICES = 4

#: |J| x |J| complex work matrices a dressed time point holds on its support
#: J beyond those: the projector, T and the matrices of its gates (on a
#: dense 12 x 12 seed, where J is every index, the residual peaks at 14.4
#: whole matrices in hermitian mode and 18.3 in general mode)
_SUPPORT_MATRICES = 16

#: d x d complex matrices a point of a check on whole states holds: the
#: spectrum check's Hermitian part and its temporaries (2.3 traced)
_CHECK_MATRICES = 3


def _point_bytes(dim: int, support: int | None = None, block: int | None = None) -> int:
    # the bytes ``time_blocks`` budgets for one point; a state held as its
    # blocks of size ``block`` has dim * block entries, a whole one dim * dim
    if support is None:
        return 16 * _CHECK_MATRICES * dim * dim
    state = dim * (dim if block is None else block)
    return 16 * (_FULL_MATRICES * state + _SUPPORT_MATRICES * support * support)


def time_blocks(count: int, dim: int, support: int | None = None,
                block: int | None = None, per_time: int = 1) -> list:
    """Consecutive slices of ``range(count)`` sized from ``BLOCK_BYTES``.

    A dressed time point of dimension ``dim`` is budgeted ``_FULL_MATRICES``
    states, whole or as their blocks of size ``block`` (``partition``), and
    ``_SUPPORT_MATRICES`` matrices of ``support x support``, the size of the
    block it is dressed on; a point of a check on whole states (``support``
    None) is budgeted ``_CHECK_MATRICES`` matrices of ``dim x dim``.  What
    is computed beside a sample's dressing fits in its budget: the
    projector's derivative and the covariance check's psi rows, their
    derivatives and the states' blocks.  The budgets are traced peaks
    (tests pin them), so a block's
    work arrays stay near ``BLOCK_BYTES``.  A block holds as many points as
    fit, and at least one; a time that is evaluated at ``per_time`` points
    (the residual's stencil ring holds four per time, as blocks) takes that
    many, so a block holds that share of the points, to the nearest whole
    time.  The slices depend only on the arguments, so the same grid is
    always cut the same way.
    """
    points = BLOCK_BYTES // _point_bytes(dim, support, block)
    per_block = max(1, round(points / per_time))
    return [slice(i, min(i + per_block, count))
            for i in range(0, count, per_block)]


def coupling(dim: int, operators, parts=()) -> np.ndarray:
    """The symmetric ``(dim, dim)`` pattern of index pairs that some operator
    couples (its nonzero entries, either way round), with each index set of
    ``parts`` coupled within itself and each index with itself."""
    coupled = np.eye(dim, dtype=bool)
    for M in operators:
        nonzero = M != 0
        coupled |= nonzero | nonzero.T
    for part in parts:
        coupled[np.ix_(part, part)] = True
    return coupled


def components(coupled: np.ndarray) -> np.ndarray:
    """The connected components of a symmetric pattern, or of each pattern
    of a stack ``(..., m, m)``: each index labelled by the smallest index of
    its component."""
    m = coupled.shape[-1]
    label = np.broadcast_to(np.arange(m), coupled.shape[:-1])
    while True:
        grown = np.where(coupled, label[..., None, :], m).min(axis=-1)
        if np.array_equal(grown, label):
            return grown
        label = grown


def partition(coupled: np.ndarray) -> np.ndarray:
    """The components of a pattern as a ``(B, b)`` array of sorted index
    sets, ordered by their first index, or one whole block ``(1, dim)`` when
    the components differ in size.  Operators that couple nothing across
    the parts act on a stack of states as one ``(N, B, b, b)`` stack of
    their diagonal blocks."""
    if coupled[0].all():
        # index 0 coupled with every index: one component, a dense pattern
        # among others, known without labelling the components
        return np.arange(len(coupled))[None]
    label = components(coupled)
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]
    if (sizes != sizes[0]).any():
        return np.arange(len(coupled))[None]
    # a stable sort groups the indices by label, each group in order
    return np.argsort(label, kind="stable").reshape(len(sizes), sizes[0])


def blocks_of(M: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """The diagonal blocks ``(..., B, b, b)`` on ``parts`` of a matrix or of
    each matrix of a stack, C-ordered; one whole block is a view."""
    if len(parts) == 1:
        return M[..., None, :, :]
    return np.ascontiguousarray(M[..., parts[:, :, None], parts[:, None, :]])


def whole_of(blocks: np.ndarray, parts: np.ndarray, fill=None) -> np.ndarray:
    """The block-diagonal matrices ``(..., d, d)`` whose diagonal blocks on
    ``parts`` are ``blocks`` (``blocks_of`` in reverse), each entry off the
    blocks ``+0.0`` or, per matrix, ``fill``; one whole block is a view."""
    if len(parts) == 1:
        return blocks[..., 0, :, :]
    shape = blocks.shape[:-3] + (parts.size, parts.size)
    if fill is None:
        whole = np.zeros(shape, dtype=blocks.dtype)
    else:
        whole = np.empty(shape, dtype=blocks.dtype)
        whole[...] = fill[..., None, None]
    whole[..., parts[:, :, None], parts[:, None, :]] = blocks
    return whole


def off_blocks(M: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """The entries of a matrix off its diagonal blocks on ``parts``."""
    inside = np.zeros(M.shape, dtype=bool)
    inside[parts[:, :, None], parts[:, None, :]] = True
    return M[~inside]


def groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, group)`` of a 1-D array of keys, which may be empty:
    ``keys[first]`` are its distinct values in ascending order, and
    ``keys[first][group]`` is ``keys``.  One ``np.argsort`` groups them;
    ``np.unique`` would import ``numpy.ma`` on its first call."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def _phases(s: np.ndarray, gap: np.ndarray) -> np.ndarray:
    # exp(s_b gap_e) of each point b and entry e, one exponential per point
    # and distinct gap.  An imaginary s and real gaps fold -gamma onto gamma
    # and take the conjugate: sincos is odd, so exp(-iy) is conj(exp(iy))
    # bit for bit at y != 0, and at y = +-0 only the sign of the imaginary
    # zero differs, which the caller's + 0.0 erases.  Otherwise each
    # distinct complex gap, by the bits of both its parts, is exponentiated
    # as it is.
    if not s.real.any() and not gap.imag.any():
        magnitude = np.abs(gap.real)
        first, group = groups(magnitude.view(np.uint64))
        table = np.exp(s[:, None] * (magnitude[first] + 0j))
        table = np.concatenate((table, table.conj()), axis=1)
        return table[:, group + len(first) * np.signbit(gap.real)]
    real, imag = (groups(part.view(np.uint64))[1] for part in (gap.real, gap.imag))
    first, group = groups(real * len(gap) + imag)
    return np.exp(s[:, None] * gap[first])[:, group]


def off_diagonal(M: np.ndarray) -> bool:
    """True when the square matrix ``M`` has a nonzero entry off its diagonal."""
    return bool(M[~np.eye(len(M), dtype=bool)].any())


def block_matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``X @ Y`` for stacks of matrices; at 2 x 2 from its four entry
    formulas ``(XY)_ij = X_i0 Y_0j + X_i1 Y_1j``, which spares a stack of
    2 x 2 blocks numpy's per-matrix matmul dispatch."""
    if X.shape[-1] != 2:
        return X @ Y
    return X[..., :, :1] * Y[..., :1, :] + X[..., :, 1:] * Y[..., 1:, :]


def row_matmul(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``v @ M`` for a stack of rows ``(..., k)`` and one matrix or a stack
    ``(..., k, m)``, from the entry formulas ``sum_k v_k M_kj`` summed in
    order of k.  numpy sends a lone row's ``@`` to gemv, which rounds
    differently from the gemm of a larger stack; entry formulas give a row
    the same bits in any stack.  A matrix shared by the rows gets their
    leading axes as ones: a ``(N, 1)`` column times a ``(1,)`` row, which
    numpy broadcasts by prepending an axis, takes a complex kernel that
    rounds a point by its place in the stack."""
    M = M.reshape((1,) * (v.ndim + 1 - M.ndim) + M.shape)
    return sum(v[..., k:k + 1] * M[..., k, :] for k in range(v.shape[-1]))


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


def as_state(v) -> np.ndarray:
    """Validate and return ``v`` as a nonzero 1-D complex vector."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"expected a 1-D state vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite entries")
    if not np.any(v):
        raise ValueError("zero vector is not a valid state here")
    return v


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(M.conj(), -1, -2)


def frob(M) -> float:
    """Frobenius norm (2-norm for vectors)."""
    return float(np.linalg.norm(M))


def frob_stack(M) -> np.ndarray:
    """Frobenius norm of each matrix of a stack ``(..., d, d)``: the formula
    of ``np.linalg.norm(M, axis=(-2, -1))``, bit for bit, without its
    argument handling, which costs more than the norm of a small stack."""
    M = np.asarray(M)
    return np.sqrt(np.add.reduce((M.conj() * M).real, axis=(-2, -1)))


def hermitian_spectra(S: np.ndarray, blocks: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part ``(S + S^dag)/2`` of a
    matrix or of each matrix of a stack.

    The stack is split on its own nonzero pattern (``partition`` of the
    components of the entries nonzero in some matrix), so no nonzero entry
    is left out.  ``blocks`` are S's diagonal blocks ``(..., B, b, b)`` on
    a partition that S is block-diagonal on (``blocks_of``); when the
    pattern of each block is connected, they are that split, and they are
    read in place of S.  Each block's eigenvalues come in closed form at
    2 x 2 (``m +- hypot(h, |b|)``) and from one batched ``eigvalsh``
    otherwise, and are sorted together: round-off away from ``eigvalsh``
    of the whole matrix.  A dense stack, or one whose components differ in
    size, is one block, and its spectra are ``eigvalsh``'s bit for bit.
    """
    dim = S.shape[-1]
    if blocks is None or blocks.shape[-3] == 1 or components(_coupled(blocks)).any():
        parts = partition(coupling(dim, [S.reshape(-1, dim, dim).any(axis=0)]))
        blocks = blocks_of(S, parts)
    if blocks.shape[-3] == 1:
        return np.linalg.eigvalsh((S + dagger(S)) / 2)
    H = (blocks + dagger(blocks)) / 2
    if blocks.shape[-1] == 2:
        a, d = H[..., 0, 0].real, H[..., 1, 1].real
        m, r = (a + d) / 2, np.hypot((a - d) / 2, np.abs(H[..., 0, 1]))
        values = np.stack([m - r, m + r], axis=-1)
    else:
        values = np.linalg.eigvalsh(H)
    return np.sort(values.reshape(S.shape[:-2] + (dim,)), axis=-1)


def _coupled(blocks: np.ndarray) -> np.ndarray:
    # the coupling pattern (B, b, b) of the entries of a stack of blocks
    # (..., B, b, b) nonzero in some matrix
    nonzero = blocks.reshape((-1,) + blocks.shape[-3:]).any(axis=0)
    return nonzero | np.swapaxes(nonzero, -1, -2) | np.eye(blocks.shape[-1], dtype=bool)


def hermiticity_gaps(S: np.ndarray, parts: np.ndarray | None = None) -> np.ndarray:
    """``||S - S^dag||_F`` of each matrix of a stack.  With ``parts``, S
    holds the diagonal blocks ``(..., B, b, b)`` on ``parts`` of
    block-diagonal matrices: the squares of their entries are summed where
    the whole matrices hold them, between zeros, so that the sum rounds as
    the whole matrices' does, bit for bit."""
    gap = S - dagger(S)
    if parts is None or len(parts) == 1:
        return frob_stack(gap if parts is None else gap[..., 0, :, :])
    squares = np.zeros(S.shape[:-3] + (parts.size, parts.size))
    squares[..., parts[:, :, None], parts[:, None, :]] = (gap.conj() * gap).real
    return np.sqrt(np.add.reduce(squares, axis=(-2, -1)))


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


#: numerator coefficients b_0..b_13 of the degree-13 Pade approximant to exp
#: (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179, Table 2.3)
_PADE13 = (64764752532480000., 32382376266240000., 7771770303897600.,
           1187353796428800., 129060195264000., 10559470521600.,
           670442572800., 33522128640., 1323241920., 40840800., 960960.,
           16380., 182., 1.)

#: largest 1-norm for which Pade-13 needs no scaling (Higham 2005, Table 2.3)
_THETA13 = 5.371920351148152


def _pade13(A: np.ndarray, squarings: np.ndarray) -> np.ndarray:
    # exp of each slice of a scaled (k, d, d) stack by Pade-13, then squared
    # squarings[k] times; matmul and solve act slice by slice, so the bits of
    # a slice do not depend on the other slices of the stack
    b = _PADE13
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        E[more] = E[more] @ E[more]
    return E


def mat_exp(M) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with the Pade-13 approximant.

    ``M`` is one matrix or a stack ``(..., d, d)``, exponentiated in one
    batched pass (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179).  Each
    slice is scaled by its own 1-norm, so its result does not depend on the
    rest of the stack, and an exactly diagonal slice is ``np.exp`` of its
    diagonal.  Accurate to ~1e-12 relative in the Frobenius norm for
    ||M||_F <= 50.  Raises ``OverflowError`` instead of returning non-finite
    entries; the message names the first slice that overflowed.
    """
    M = as_operators(M)
    d = M.shape[-1]
    flat = M.reshape(-1, d, d)
    E = np.zeros_like(flat)
    # masks and diagonals, never copies of whole slices
    off_diagonal = flat != 0
    off_diagonal[:, np.eye(d, dtype=bool)] = False
    full = off_diagonal.any(axis=(-2, -1))
    with np.errstate(all="ignore"):
        # overflow becomes an explicit error below, not a warning
        diagonal = np.einsum("kii->ki", E)
        diagonal[~full] = np.exp(np.einsum("kii->ki", flat)[~full])
        if full.any():
            norm = np.abs(flat[full]).sum(axis=-2).max(axis=-1)
            finite = np.isfinite(norm)
            squarings = np.where(finite, np.ceil(np.log2(norm / _THETA13)), 0).clip(min=0)
            # a 1-norm beyond the float range poisons its slice, which overflows
            scale = np.where(finite, np.exp2(-squarings), np.nan)
            E[full] = _pade13(flat[full] * scale[:, None, None], squarings.astype(int))
        E = E.reshape(M.shape)
        finite = np.isfinite(E).all(axis=(-2, -1))
        if not finite.all():
            first = np.unravel_index(np.argmin(finite), finite.shape)
            raise OverflowError(
                f"matrix exponential overflowed (||M||_F = {frob_stack(M[first]):.3g})")
    return E


class NormalExp:
    """``exp(s G)`` of one normal matrix G for a stack of complex ``s``.

    G is factored once, ``G = Q diag(g) Q^dag``: Q is the QR factor of the
    eigenvectors of G, which for a normal G is the unitary Schur basis that
    the eigensolver builds, even when eigenvalues repeat.  If ``Q^dag G Q``
    is not diagonal to ``seed_structure * ||G||_F``, G is not normal, and
    ``DefectiveEigenproblem`` is raised; there is no fallback.  G itself is
    kept as ``G``.

    A G with no nonzero off-diagonal entry is its own factorization: ``g``
    is its diagonal and Q the identity, so neither ``eig`` nor ``qr`` runs,
    and ``act`` and ``similarity`` scale entries instead of multiplying
    matrices.  Their values are those of the factored formulas bit for bit,
    and each zero they compute is ``+0.0`` (they add ``+0.0``), as a product
    with the identity Q sums it; at some sizes a BLAS remainder kernel sums
    an exact zero to ``-0.0`` instead.
    """

    def __init__(self, G, tolerances: Tolerances = DEFAULT):
        G = as_operator(G)
        self.G = G
        if not off_diagonal(G):
            self.g = np.diag(G) + 0.0
            self._Q = None
        else:
            Q = np.linalg.qr(np.linalg.eig(G)[1])[0]
            R = dagger(Q) @ G @ Q
            self.g = np.diag(R).copy()
            off = frob(R - np.diag(self.g))
            if off > tolerances.seed_structure * frob(G):
                raise DefectiveEigenproblem(
                    f"generator is not normal: its Schur factor is {off:.3g} "
                    "away from diagonal")
            self._Q = Q
            self._QT = Q.T.copy()
            self._QH = dagger(Q).copy()
        self._gap = self.g[:, None] - self.g[None, :]

    def act(self, v: np.ndarray, s, left: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``exp(s_b G) v / e^{shift_b}`` (``v exp(s_b G)`` if ``left``).

        ``shift`` is each point's largest ``Re(s_b g_k)`` over the
        eigencomponents present in ``v``, which keeps every row finite for
        any s.  Returns the rows and the shifts.  A row with ``s_b = 0`` and
        zero shift is ``v`` itself.
        For a diagonal G the phase is evaluated only on the entries where
        ``v`` is nonzero; every other entry is ``+0.0``.
        """
        s = np.asarray(s, dtype=complex)
        if self._Q is None:
            # only the nonzero coefficients are scaled: a zero one times a
            # phase that overflows at large |t| would be NaN, not zero
            coeffs, support = v, np.flatnonzero(v != 0)
        else:
            coeffs, support = (v @ self._Q if left else self._QH @ v), slice(None)
        exponents = s[:, None] * self.g[support]
        shift = np.where(coeffs[support] != 0, exponents.real, -np.inf).max(axis=1)
        scaled = np.multiply(coeffs[support], np.exp(exponents - shift[:, None]))
        if self._Q is None:
            rows = np.zeros((len(s), len(v)), dtype=complex)
            rows[:, support] = scaled + 0.0
        elif len(s) == 1:
            # numpy multiplies a lone row by gemv, which rounds differently
            # from the gemm of a larger stack: it goes as a row of two
            rows = (np.repeat(scaled, 2, axis=0) @ (self._QH if left else self._QT))[:1]
        else:
            rows = scaled @ (self._QH if left else self._QT)
        rows[(s == 0) & (shift == 0)] = v
        return rows, shift

    def similarity(self, M: np.ndarray, s, parts: np.ndarray | None = None) -> np.ndarray:
        """``exp(s_b G) M_b exp(-s_b G)`` for each ``s_b``.

        ``M`` is one matrix or a stack aligned with ``s``; points with
        ``s_b = 0`` return ``M_b`` itself.  With ``parts`` (``partition``),
        on whose blocks G is diagonal, ``M`` and the result are the blocks
        ``(B, b, b)`` or ``(N, B, b, b)``; a factored G takes one whole
        block.  For a diagonal G the phase is evaluated only on the entries
        where some ``M_b`` is nonzero, one exponential per point and
        distinct gap ``g_i - g_j`` among them (``_phases``: with an
        imaginary s and real gaps, ``-gamma`` takes the conjugate of
        ``gamma``'s); every other entry is ``+0.0``.  The values are the
        per-entry formula's bit for bit.
        Raises ``OverflowError`` instead of returning non-finite entries.
        """
        s = np.asarray(s, dtype=complex)
        if self._Q is None:
            gap = self._gap if parts is None else self._gap[parts[:, :, None], parts[:, None, :]]
            index = np.nonzero(M.reshape((-1,) + gap.shape).any(axis=0))
            # np.multiply, not ``*``: numpy may evaluate ``*`` in place over
            # the fancy-index temporary once it reaches 256 KiB, and that
            # kernel rounds complex products differently.  The entries are
            # computed before ``out`` is allocated, so their temporaries and
            # ``out`` are never alive together
            values = np.multiply(M[(..., *index)], _phases(s, gap[index])) + 0.0
            out = np.zeros((len(s),) + gap.shape, dtype=complex)
            out[(slice(None), *index)] = values
        else:
            if parts is not None and len(parts) != 1:
                raise ValueError("a generator that is not diagonal acts on whole states")
            whole = M if parts is None else M[..., 0, :, :]
            phase = np.exp(s[:, None, None] * self._gap)
            out = self._Q @ ((self._QH @ whole @ self._Q) * phase) @ self._QH
            if parts is not None:
                out = out[:, None]
        zero = s == 0
        out[zero] = M if M.ndim < out.ndim else M[zero]
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


def select_root(roots: np.ndarray, pin: complex | None) -> complex:
    """The root ``eig_pair_general`` selects among ``roots``."""
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


def _eliminate(U: np.ndarray, scale: float):
    # Full-pivot Gaussian elimination of each matrix of a stack (k, m, m),
    # in place.  The pivot is the first largest |entry| of what is left, in
    # row-major order, and a matrix stops at a pivot within _PIVOT_RTOL *
    # scale.  Returns each matrix's column order, its pivots' magnitudes,
    # its rank and whether some pivot was tied with another entry as large.
    # The one elimination: a whole pencil is a stack of one, a block-diagonal
    # one the stack of its blocks (``_root_block_vector``)
    count, m = U.shape[:2]
    index = np.arange(count)
    columns = np.tile(np.arange(m), (count, 1))
    tops = np.zeros((count, m))
    rank = np.zeros(count, dtype=int)
    tied = np.zeros(count, dtype=bool)
    for step in range(m):
        sub = np.abs(U[:, step:, step:]).reshape(count, -1)
        flat = sub.argmax(axis=1)
        tops[:, step] = top = sub[index, flat]
        live = (rank == step) & (top > _PIVOT_RTOL * scale)
        if not live.any():
            break
        tied |= live & ((sub == top[:, None]).sum(axis=1) > 1)
        rank += live
        if step == m - 1:
            break
        # the pivot's row and column swapped into place; a matrix that has
        # stopped swaps nothing and subtracts zeros
        i, j = np.divmod(flat * live, m - step)
        i, j = i + step, j + step
        U[index, step], U[index, i] = U[index, i], U[index, step]
        U[index, :, step], U[index, :, j] = U[index, :, j], U[index, :, step]
        columns[index, step], columns[index, j] = columns[index, j], columns[index, step]
        factors = U[:, step + 1:, step] / np.where(live, U[:, step, step], 1)[:, None]
        U[:, step + 1:] -= (factors * live[:, None])[:, :, None] * U[:, step, None, :]
    return columns, tops, rank, tied


def _root_block_vector(B: np.ndarray, parts: np.ndarray) -> np.ndarray | None:
    # The null vector of a singular B that is block-diagonal on ``parts``,
    # eliminated on the one block that is singular, bit for bit in its
    # entries what the elimination of the whole of B gives, and zero
    # elsewhere.  That elimination takes each block's pivots in its own
    # order, interleaved with the other blocks' by their size, and leaves
    # its one free column last.  None when the whole elimination must
    # decide: one part, no singular block or more than one, a block short
    # of more than one pivot, or a tie that the whole matrix's row order
    # would break
    if len(parts) == 1:
        return None
    n, m = B.shape[0], parts.shape[1]
    U = blocks_of(B, parts)
    columns, tops, rank, tied = _eliminate(U, max(1.0, float(np.abs(B).max())))
    singular = np.flatnonzero(rank < m)
    if len(singular) != 1 or rank[singular[0]] != m - 1 or tied[singular[0]]:
        return None
    k = int(singular[0])
    # a row with at most one term beside its pivot sums the same in any
    # layout; a longer one is summed where the whole elimination put it
    at = np.arange(m) if m <= 2 else _pivot_steps(tops, rank, k, tied)
    if at is None:
        return None
    v = np.zeros(n, dtype=complex)
    v[parts[k]] = _back_substituted(U[k], columns[k], m - 1, at, at[-1] + 1)
    return v


def _pivot_steps(tops: np.ndarray, rank: np.ndarray, k: int,
                 tied: np.ndarray) -> np.ndarray | None:
    # the steps at which the elimination of the whole block-diagonal matrix
    # takes block k's pivots, then its free column: each step takes the
    # block whose next pivot is largest.  None on a tie, within a block or
    # between blocks
    if tied.any():
        return None
    heads = [top[:r] for top, r in zip(tops.tolist(), rank.tolist())]
    taken = [0] * len(heads)
    steps = []
    for step in range(int(rank.sum())):
        nexts = [h[t] if t < len(h) else -1.0 for h, t in zip(heads, taken)]
        top = max(nexts)
        if nexts.count(top) > 1:
            return None
        block = nexts.index(top)
        if block == k:
            steps.append(step)
        taken[block] += 1
    return np.array(steps + [int(rank.sum())])


def _back_substituted(U: np.ndarray, columns: np.ndarray, rank: int,
                      at: np.ndarray, n: int) -> np.ndarray:
    # the null vector of an eliminated matrix U: its first free coordinate
    # set to 1 and its pivots back-substituted, each row's sum taken with
    # column c of U at position at[c] of an n-wide row, as the elimination
    # of that row laid them out
    rows = np.zeros((rank, n), dtype=complex)
    rows[:, at] = U[:rank]
    x = np.zeros(n, dtype=complex)
    x[at[rank]] = 1.0
    for r in range(rank - 1, -1, -1):
        p = at[r]
        x[p] = -(rows[r, p + 1:] @ x[p + 1:]) / U[r, r]
    v = np.zeros(len(columns), dtype=complex)
    v[columns] = x[at]
    return v


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Normalize and rotate so the first significant component is real positive."""
    v = as_state(v)
    v = v / np.linalg.norm(v)
    top = np.abs(v).max()
    idx = int(np.argmax(np.abs(v) > 1e-12 * top))
    pivot = v[idx]
    return v * (np.conj(pivot) / abs(pivot))


def eig_pair_general(M, pin: complex | None = None,
                     tolerances: Tolerances = DEFAULT) -> tuple[complex, np.ndarray]:
    """One deterministic eigenpair of a general complex matrix.

    The roots are ``np.linalg.eigvals``'s, unpolished: it is backward
    stable, so ``M - zI`` is singular to round-off at each of them.
    Selection: the root maximizing ``(Re z, Im z)`` lexicographically, or
    the root closest to ``pin`` when given; a pin that is not nearer that
    root than half its distance to the next distinct root raises ``FarPin``
    (a ``ValueError``).  The eigenvector is a deterministic null vector of
    ``M - zI``, its full-pivot elimination (``_eliminate`` on a stack of
    one matrix) back-substituted with the first free coordinate set to 1,
    and its first significant component made real positive.  When M is
    block-diagonal on equal parts (``partition``) and one block is singular
    at z, one pivot short, only that block is eliminated: the vector's
    entries there are bit for bit the elimination of the whole matrix's,
    and every other entry is ``+0.0``.  A dense M, parts of different
    sizes, a root that more than one block holds, and pivots tied in size
    keep the whole elimination.

    Raises
    ------
    ValueError
        when ``M`` is larger than ``DIM_CAP``.
    DefectiveEigenproblem
        when no vector meets ``|Mv - zv| <= tol * ||M||_F * |v|``.
    """
    M = as_operator(M)
    n = M.shape[0]
    if n > DIM_CAP:
        raise ValueError(f"dimension {n} exceeds the configured cap {DIM_CAP}")
    z = select_root(np.linalg.eigvals(M), pin)
    B = M - z * np.eye(n)
    v = _root_block_vector(B, partition(coupling(n, [M])))
    if v is not None:
        # its zeros +0.0, whatever sign the phase gives them
        v = canonical_phase(v) + 0.0
    else:
        # the whole matrix, eliminated in place as a stack of one
        columns, _, rank, _ = _eliminate(B[None], max(1.0, float(np.abs(B).max())))
        if rank[0] == n:
            raise DefectiveEigenproblem(
                f"no null direction found for eigenvalue z = {z}")
        v = canonical_phase(_back_substituted(B, columns[0], rank[0], np.arange(n), n))
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
