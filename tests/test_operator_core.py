import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from conftest import SX, SZ, assert_near_eigvalsh
from vndarboux import DefectiveEigenproblem, FarPin, Tolerances
from vndarboux.operator_core import (DIM_CAP, NormalExp, _phases,
                                     canonical_phase, commutator,
                                     eig_hermitian, eig_pair_general,
                                     eig_pair_left, frob, hermitian_spectra,
                                     is_hermitian, mat_exp, select_root,
                                     trace_moments)


def _random_complex_matrix(rng, dim, scale=1.0):
    return scale * (rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim)))


# ---------------------------------------------------------------------------
# commutator

def test_commutator_with_itself_vanishes():
    rng = np.random.default_rng(0)
    M = _random_complex_matrix(rng, 4)
    npt.assert_allclose(commutator(M, M), np.zeros((4, 4)), atol=1e-14)


def test_commutator_frozen_2x2():
    # hand arithmetic: diag(1,-1) @ sx = [[0,1],[-1,0]], sx @ diag(1,-1) = [[0,-1],[1,0]]
    expected = np.array([[0.0, 2.0], [-2.0, 0.0]])
    npt.assert_allclose(commutator(SZ, SX), expected, atol=1e-15)


def test_identity_is_central():
    rng = np.random.default_rng(1)
    M = _random_complex_matrix(rng, 3)
    npt.assert_allclose(commutator(np.eye(3), M), np.zeros((3, 3)), atol=1e-15)


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        commutator(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# mat_exp

def test_mat_exp_zero_is_identity():
    npt.assert_array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_scalar_phases():
    npt.assert_allclose(mat_exp(np.diag([1j * np.pi, 0.0])),
                        np.diag([-1.0 + 0j, 1.0]), atol=1e-14)


def test_mat_exp_projector_phase():
    P = np.diag([1.0, 0.0]).astype(complex)
    npt.assert_allclose(mat_exp(1j * np.pi * P), np.eye(2) - 2 * P, atol=1e-14)


def test_mat_exp_matches_eigendecomposition_oracle():
    # Hermitian H: exp(iH) = V diag(exp(i lam)) V^dag is exact up to round-off
    rng = np.random.default_rng(2)
    M = _random_complex_matrix(rng, 6, scale=3.0)
    H = (M + M.conj().T) / 2
    vals, vecs = np.linalg.eigh(H)
    oracle = vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T
    got = mat_exp(1j * H)
    assert frob(got - oracle) <= 1e-12 * frob(oracle)


def test_mat_exp_overflow_is_explicit():
    with pytest.raises(OverflowError):
        mat_exp(np.diag([1e5, 0.0]))


def test_mat_exp_overflow_names_the_first_overflowing_slice():
    stack = np.array([np.eye(2), np.diag([1e3, 0.0]), np.diag([1e5, 0.0])])
    with pytest.raises(OverflowError, match=r"\|\|M\|\|_F = 1e\+03\)"):
        mat_exp(stack)


def test_mat_exp_with_a_one_norm_beyond_the_float_range_overflows():
    M = np.array([[0.0, 1e308, 1e308], [0.0, 0.0, 0.0], [1e308, 0.0, 0.0]])
    with pytest.raises(OverflowError, match="matrix exponential overflowed"):
        mat_exp(np.stack([np.eye(3), M]))


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
       st.integers(0, 10 ** 6))
def test_mat_exp_idempotent_identity(z, seed):
    # exp(zP) = 1 - P + e^z P for any idempotent P
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = np.conj(u) + 0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    P = np.outer(u, w) / (w @ u)
    expected = np.eye(3) - P + np.exp(z) * P
    assert frob(mat_exp(z * P) - expected) <= 1e-11 * max(1.0, frob(expected))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mat_exp_inverse(seed):
    rng = np.random.default_rng(seed)
    M = _random_complex_matrix(rng, 4)
    M *= min(1.0, 10.0 / max(frob(M), 1e-12))  # keep ||M||_F <= 10
    assert frob(mat_exp(M) @ mat_exp(-M) - np.eye(4)) <= 1e-10


# ---------------------------------------------------------------------------
# eig_hermitian

def test_eigh_ascending():
    vals, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    npt.assert_allclose(vals, [1.0, 2.0, 3.0], atol=1e-14)


def test_eigh_sigma_x():
    vals, _ = eig_hermitian(SX)
    npt.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eigh_dressed_reference_state():
    # rho[1](0) of the reference scenario is -sx; char poly lam^2 - 1
    vals, _ = eig_hermitian(-SX)
    npt.assert_allclose(vals, [-1.0, 1.0], atol=1e-12)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_eigh_reconstruction(seed):
    rng = np.random.default_rng(seed)
    M = _random_complex_matrix(rng, 5)
    H = (M + M.conj().T) / 2
    vals, vecs = eig_hermitian(H)
    assert frob(vecs @ np.diag(vals) @ vecs.conj().T - H) <= 1e-10 * max(1.0, frob(H))
    assert frob(vecs.conj().T @ vecs - np.eye(5)) <= 1e-12


# ---------------------------------------------------------------------------
# numpy kernels against scipy, an independent implementation

def _rel_gap(got, expected):
    return frob(got - expected) / frob(expected)


@pytest.mark.parametrize("hermitian", [True, False])
def test_mat_exp_of_the_dressing_exponent_matches_scipy(hermitian):
    # ln(mu/nu) P as t_equality builds it; the general-mode projectors are
    # oblique, and nearly orthogonal pairs make them large (||.||_F <= 150
    # tested: beyond it the two implementations drift apart by round-off)
    rng = np.random.default_rng(11)
    largest = 0.0
    for k in range(60):
        d = int(rng.integers(2, 13))
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        chi = np.conj(phi)
        mu = complex(rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(0.4, 1.5))
        nu = np.conj(mu)
        if not hermitian:
            other = rng.normal(size=d) + 1j * rng.normal(size=d)
            other -= (other @ phi) / (chi @ phi) * chi  # now orthogonal to phi
            chi = chi * 10.0 ** -rng.uniform(0, 2) + other
            nu = complex(rng.uniform(-1, 1), rng.uniform(0.4, 1.5))
        M = np.log(mu / nu) * np.outer(phi, chi) / (chi @ phi)
        if frob(M) > 150.0:
            continue
        largest = max(largest, frob(M))
        assert _rel_gap(mat_exp(M), sla.expm(M)) <= 1e-12
    assert largest > (3.0 if hermitian else 100.0)


@pytest.mark.parametrize("norm", [1e-8, 1e-4, 0.1, 1.0, 5.0, 20.0, 50.0])
def test_mat_exp_of_random_matrices_matches_scipy(norm):
    rng = np.random.default_rng(12)
    for d in (2, 3, 5, 12, 32):
        M = _random_complex_matrix(rng, d)
        M *= norm / frob(M)
        assert _rel_gap(mat_exp(M), sla.expm(M)) <= 1e-12


def test_mat_exp_of_a_nilpotent_rank_one_matrix():
    # u v^T with v.u = 0 squares to zero: exp(M) = 1 + M
    u = np.array([1.0, 2.0, -1.0, 0.5j])
    v = np.array([2.0, -1.0, 0.0, 0.0])
    M = 3.0 * np.outer(u, v)
    assert frob(M @ M) == 0
    npt.assert_allclose(mat_exp(M), np.eye(4) + M, rtol=0, atol=1e-14)
    npt.assert_allclose(mat_exp(M), sla.expm(M), rtol=0, atol=1e-14)


def test_mat_exp_of_diagonal_slices_is_np_exp_bitwise():
    rng = np.random.default_rng(13)
    diagonals = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5)) * 30
    stack = np.zeros((6, 5, 5), dtype=complex)
    np.einsum("kii->ki", stack)[:] = diagonals
    out = mat_exp(stack)
    npt.assert_array_equal(np.einsum("kii->ki", out), np.exp(diagonals))
    npt.assert_array_equal(out - np.einsum("kii->ki", out)[:, :, None] * np.eye(5), 0)
    npt.assert_array_equal(out, sla.expm(stack))


@pytest.mark.parametrize("d", [2, 3, 8, 16, DIM_CAP])
def test_normal_exp_on_degenerate_normal_matrices(d):
    # eigenvalues repeated, some of them split by 1e-13, in a random basis
    rng = np.random.default_rng(15 + d)
    for _ in range(10):
        V, _ = np.linalg.qr(_random_complex_matrix(rng, d))
        values = rng.choice(rng.normal(size=max(1, d // 3))
                            + 1j * rng.normal(size=max(1, d // 3)), size=d)
        values = values + 1e-13 * (rng.random(d) < 0.3)
        G = V @ np.diag(values) @ V.conj().T
        factor = NormalExp(G)
        Q = factor._Q
        assert frob(Q.conj().T @ Q - np.eye(d)) <= 1e-13
        assert _rel_gap(Q @ np.diag(factor.g) @ Q.conj().T, G) <= 1e-13
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        s = np.array([0.7j, -2.5j, 0.4])
        rows, shift = factor.act(v, s)
        for row, k, sb in zip(rows, shift, s):
            expected = sla.expm(sb * G) @ v
            assert frob(row * np.exp(k) - expected) <= 1e-12 * frob(expected)


# the factored formulas, as NormalExp evaluates a generator that is not
# diagonal: Q from eig + qr, then whole d x d products


def _eig_factor(G):
    Q = np.linalg.qr(np.linalg.eig(G)[1])[0]
    return Q, np.diag(Q.conj().T @ G @ Q).copy()


def _eig_similarity(G, M, s):
    Q, g = _eig_factor(G)
    QH = Q.conj().T.copy()
    phase = np.exp(s[:, None, None] * (g[:, None] - g[None, :]))
    out = Q @ ((QH @ M @ Q) * phase) @ QH
    out[s == 0] = M if M.ndim == 2 else M[s == 0]
    return out


def _eig_act(G, v, s, left):
    Q, g = _eig_factor(G)
    QH = Q.conj().T.copy()
    coeffs = v @ Q if left else QH @ v
    exponents = s[:, None] * g
    shift = np.where(coeffs != 0, exponents.real, -np.inf).max(axis=1)
    rows = (coeffs * np.exp(exponents - shift[:, None])) @ (QH if left else Q.T.copy())
    rows[(s == 0) & (shift == 0)] = v
    return rows, shift


def _assert_eig_path_bits(out, ref, d):
    # values bit for bit, and every zero of the diagonal path is +0.0 (rows
    # 1: are off s = 0, which returns its input as it is)
    npt.assert_array_equal(out.view(float), ref.view(float))
    moved = out[1:].view(float)
    assert not np.signbit(moved[moved == 0]).any()
    if d % 4 == 0:
        # the products with the identity Q sum their zeros from +0.0 at these
        # sizes, so the zero signs match too; at other sizes a BLAS remainder
        # kernel may sum an exact zero to -0.0, which no output keeps
        assert out.tobytes() == ref.tobytes()


def _diagonal_case(rng, d, count):
    # repeated diagonal entries; a stack whose entries are zero in some
    # slices only, with some -0.0 parts; s = 0 in the first row
    values = rng.choice(rng.normal(size=d // 2 + 1)
                        + 1j * rng.normal(size=d // 2 + 1), size=d)
    G = np.diag(values)
    M = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    M[rng.random(M.shape) < 0.5] = 0
    M[:, rng.random((d, d)) < 0.3] = 0
    M.real[rng.random(M.shape) < 0.1] = -0.0
    s = np.concatenate([[0.0], rng.normal(size=count - 1) * 3j])
    s[-1] += 0.4  # one point off the imaginary axis
    return G, M, s


@pytest.mark.parametrize("d", [1, 3, 5, 12])
def test_diagonal_generator_skips_the_factorization(d):
    rng = np.random.default_rng(40 + d)
    G, M, s = _diagonal_case(rng, d, 7)
    factor = NormalExp(G)
    assert factor._Q is None
    npt.assert_array_equal(factor.g, np.diag(G))
    for stack in (M, M[2]):
        out = factor.similarity(stack, s)
        _assert_eig_path_bits(out, _eig_similarity(G, stack, s), d)
        slices = np.broadcast_to(stack, M.shape)
        assert out[0].tobytes() == slices[0].tobytes()
        for point, Mb, sb in zip(out, slices, s):
            expected = sla.expm(sb * G) @ Mb @ sla.expm(-sb * G)
            assert frob(point - expected) <= 1e-12 * max(1.0, frob(expected))
    # an entry zero in every slice is +0.0 wherever s is not 0
    empty = ~M.any(axis=0)
    assert not factor.similarity(M, s)[1:, empty].tobytes().strip(b"\0")


@pytest.mark.parametrize("d", [1, 3, 5, 12])
@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_diagonal_generator_acts_entry_by_entry(d, left):
    rng = np.random.default_rng(60 + d)
    G, _, s = _diagonal_case(rng, d, 6)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v[rng.random(d) < 0.3] = 0
    v[0] = 1.0
    rows, shift = NormalExp(G).act(v, s, left=left)
    ref_rows, ref_shift = _eig_act(G, v, s, left)
    assert shift.tobytes() == ref_shift.tobytes()
    _assert_eig_path_bits(rows, ref_rows, d)
    assert rows[0].tobytes() == v.tobytes()
    for row, k, sb in zip(rows, shift, s):
        expected = v @ sla.expm(sb * G) if left else sla.expm(sb * G) @ v
        assert frob(row * np.exp(k) - expected) <= 1e-12 * frob(expected)


@pytest.mark.parametrize("d", [1, 2, 5, 12])
@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_diagonal_act_scales_only_the_nonzero_coefficients(d, left):
    # on the support of v the rows are the full formula
    # v_k exp(s g_k - shift) + 0.0 bit for bit; elsewhere every entry is
    # +0.0; a row at s = 0 and zero shift is v itself, -0.0 parts included
    rng = np.random.default_rng(80 + d)
    for _ in range(20):
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v[rng.random(d) < 0.4] = 0
        v.real[rng.random(d) < 0.2] = -0.0
        v[rng.integers(d)] = 1.0
        s = np.concatenate([[0.0], rng.normal(size=6) * 3j, [0.4 + 2.0j]])
        rows, out_shift = NormalExp(np.diag(g)).act(v, s, left=left)
        support = v != 0
        exponents = s[:, None] * g
        shift = np.where(support, exponents.real, -np.inf).max(axis=1)
        # a max over fewer entries may pick the other zero of a tie between
        # 0.0 and -0.0, which moves no row: exp(+-0 + iy) is one value
        npt.assert_array_equal(out_shift, shift)
        full = v * np.exp(exponents - shift[:, None]) + 0.0
        assert rows[1:, support].tobytes() == full[1:, support].tobytes()
        assert not rows[1:, ~support].tobytes().strip(b"\0")
        assert rows[0].tobytes() == v.tobytes()


def test_diagonal_act_skips_the_phases_of_absent_modes():
    # phi(t) = exp(-i G t) phi0 at t = -2e4: the absent mode's phase is
    # exp(4e4), so the full formula gives 0 * inf = NaN there, and warns
    G = np.diag([1j, -1j, 1j + 0.5])
    v = np.array([1.0, 0.0, 0.5], dtype=complex)
    s = np.array([-1j * -2e4, -1j * 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, shift = NormalExp(G).act(v, s)
    npt.assert_array_equal(shift, [-2e4, 3.0])
    assert not rows[:, 1].tobytes().strip(b"\0")
    npt.assert_array_equal(rows[:, 0], [1.0, 1.0])
    npt.assert_allclose(rows[0, 2], 0.5 * np.exp(1e4j), rtol=1e-12)
    for row, k, sb in zip(rows[1:], shift[1:], s[1:]):
        npt.assert_allclose(row * np.exp(k), sla.expm(sb * G) @ v, rtol=1e-14)
    with np.errstate(all="ignore"):
        assert np.isnan((v * np.exp(s[:, None] * np.diag(G) - shift[:, None]))[0, 1])


def test_diagonal_similarity_overflows_only_where_m_is_nonzero():
    G = np.diag([1.0, -1.0, 0.5])
    s = np.array([0.3, 400.0])  # exp(400 (g_0 - g_1)) overflows
    factor = NormalExp(G)
    coupled = np.diag([1.0, 2.0, 3.0]).astype(complex)
    coupled[0, 1] = 1e-3
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            OverflowError, match=r"^exp\(sG\) M exp\(-sG\) overflowed$"):
        factor.similarity(coupled, s)
    # zero where the phase overflows, in one matrix or in every slice: the
    # entries there are exact zeros; the factored formula returns NaN
    diagonal = np.diag([1.0, 2.0, 3.0]).astype(complex)
    diagonal[2, 0] = 0.25j
    for M in (diagonal, np.stack([diagonal, 2 * diagonal])):
        out = factor.similarity(M, s)
        assert np.isfinite(out).all()
        assert not out[:, 0, 1].tobytes().strip(b"\0")
        npt.assert_array_equal(out[1].diagonal(), np.diag(M if M.ndim == 2 else M[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(_eig_similarity(G, M, s)).all()


def test_dense_generator_keeps_the_factorization():
    G = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    factor = NormalExp(G)
    assert factor._Q is not None
    s = np.array([0.0, 0.7j, -2.5j])
    M = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    assert factor.similarity(M, s).tobytes() == _eig_similarity(G, M, s).tobytes()


# ---------------------------------------------------------------------------
# the diagonal similarity's phases: one exponential per point and distinct gap

def _per_entry_similarity(G, M, s, parts=None):
    # every nonzero entry's phase on its own: M exp(s gap) + 0.0 there, +0.0
    # elsewhere, and M itself at s = 0
    g = np.diag(G) + 0.0
    gap = g[:, None] - g[None, :]
    if parts is not None:
        gap = gap[parts[:, :, None], parts[:, None, :]]
    index = np.nonzero(M.reshape((-1,) + gap.shape).any(axis=0))
    out = np.zeros((len(s),) + gap.shape, dtype=complex)
    out[(slice(None), *index)] = np.multiply(
        M[(..., *index)], np.exp(s[:, None] * gap[index])) + 0.0
    out[s == 0] = M if M.ndim < out.ndim else M[s == 0]
    return out


PHASE_KINDS = ("real-gaps", "complex-gaps", "complex-s")


def _phase_case(rng, kind, d, count):
    # a diagonal generator with repeated and zero entries; s = -i t with
    # t = +-0 and |t| up to 1e4 among the times, so s = 0 in some rows
    pool = rng.normal(size=d // 2 + 1) * 3
    if kind == "complex-gaps":
        pool = pool + 1e-3j * rng.normal(size=len(pool))
    g = rng.choice(np.concatenate([pool, [0.0, -0.0]]), size=d)
    t = rng.normal(size=count) * rng.choice([1.0, 100.0, 1e4], size=count)
    t[:3] = [0.0, -0.0, 2.5]
    s = -1j * t
    if kind == "complex-s":
        s[-1] += 0.3
    return np.diag(g).astype(complex), s


def _phase_stack(rng, shape):
    # entries zero in some slices only or in all, and -0.0 parts
    M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    M[rng.random(shape) < 0.3] = 0
    M[:, rng.random(shape[1:]) < 0.3] = 0
    M.real[rng.random(shape) < 0.1] = -0.0
    M.imag[rng.random(shape) < 0.1] = -0.0
    return M


@pytest.mark.parametrize("kind", PHASE_KINDS)
@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_diagonal_similarity_is_the_per_entry_phase_bitwise(kind, d):
    rng = np.random.default_rng([d, PHASE_KINDS.index(kind)])
    for _ in range(10):
        G, s = _phase_case(rng, kind, d, 40)
        factor = NormalExp(G)
        M = _phase_stack(rng, (len(s), d, d))
        for stack in (M, M[5], np.zeros_like(M)):
            out = factor.similarity(stack, s)
            assert out.tobytes() == _per_entry_similarity(G, stack, s).tobytes()


@pytest.mark.parametrize("kind", PHASE_KINDS)
@pytest.mark.parametrize("shape", [(6, 2), (4, 3), (1, 12)], ids=str)
def test_diagonal_similarity_on_blocks_is_the_per_entry_phase_bitwise(kind, shape):
    # index sets that are not contiguous, as the partition of a rotated
    # block basis gives them, and one whole block
    rng = np.random.default_rng([shape[0], PHASE_KINDS.index(kind)])
    parts = np.sort(rng.permutation(12).reshape(shape), axis=1)
    parts = parts[np.argsort(parts[:, 0])]
    for _ in range(10):
        G, s = _phase_case(rng, kind, 12, 40)
        factor = NormalExp(G)
        M = _phase_stack(rng, (len(s),) + shape + shape[1:])
        for stack in (M, M[5], np.zeros_like(M)):
            out = factor.similarity(stack, s, parts)
            assert out.tobytes() == _per_entry_similarity(G, stack, s, parts).tobytes()


@pytest.mark.parametrize("shift", [0.0, 0.2], ids=["imaginary-s", "complex-s"])
def test_phases_of_signed_zero_gaps_scale_entries_alike(shift):
    # gaps of +-0.0 in either part beside +-gamma, as no NormalExp forms
    # them (it adds +0.0 to g): times M, plus 0.0, the phases are the
    # per-entry exponentials bit for bit
    rng = np.random.default_rng(12)
    gap = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0),
                    1.5, -1.5, 1.5, 0.0])
    s = -1j * np.array([0.0, -0.0, 1.0, -3.0, 1e-300, 1e5]) + shift
    M = _phase_stack(rng, (len(s), len(gap)))
    expected = np.multiply(M, np.exp(s[:, None] * gap)) + 0.0
    assert (np.multiply(M, _phases(s, gap)) + 0.0).tobytes() == expected.tobytes()


def test_diagonal_similarity_exponentiates_each_distinct_gap_once(monkeypatch):
    # six 2 x 2 blocks, 24 nonzero entries, whose gaps are 0 and +-gamma_k
    # for six distinct gamma_k: seven exponentials per point, with the fold
    g = np.array([0.5, -0.5, 1.0, 3.0, 0.0, 3.0, -1.0, 3.0, 4.0, -1.0, 0.0, 0.5])
    parts = np.arange(12).reshape(6, 2)
    M = np.ones((6, 2, 2), dtype=complex)
    sizes = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
    for s, distinct in ((-1j * np.linspace(-5, 5, 50), 7),
                        (-1j * np.linspace(-5, 5, 50) + 0.1, 13)):
        sizes.clear()
        NormalExp(np.diag(g)).similarity(M, s, parts)
        assert sizes == [50 * distinct]


def test_the_fold_is_bitwise_on_this_platform():
    # exp(-i y g) is conj(exp(-i y (-g))) bit for bit for y != 0 up to
    # |y| = 1e5 (glibc's sincos is odd); at y = +-0 only the sign of the
    # imaginary zero may differ
    rng = np.random.default_rng(11)
    g = rng.normal(size=400) * rng.choice([1e-3, 1.0, 30.0], size=400)
    y = np.exp(rng.uniform(np.log(1e-3), np.log(1e5), size=500))
    y = np.concatenate([y, -y[:250]])[:, None]
    direct, folded = np.exp(-1j * y * g), np.conj(np.exp(-1j * y * -g))
    assert direct.tobytes() == folded.tobytes()
    for zero in (0.0, -0.0):
        direct, folded = np.exp(-1j * zero * g), np.conj(np.exp(-1j * zero * -g))
        assert direct.real.tobytes() == folded.real.tobytes()
        assert not direct.imag.any() and not folded.imag.any()


# ---------------------------------------------------------------------------
# hermitian_spectra: the blocks of a stack's own nonzero pattern

def _block_stack(rng, parts, dim, count=7):
    # random complex matrices that vanish outside the blocks on ``parts``
    mask = np.zeros((dim, dim), dtype=bool)
    for part in parts:
        mask[np.ix_(part, part)] = True
    S = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return S * mask


def _eigvalsh(S):
    return np.linalg.eigvalsh((S + np.swapaxes(S.conj(), -1, -2)) / 2)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_spectra_of_block_stacks_are_near_eigvalsh(b):
    # index sets that are not contiguous, at several scales, with
    # near-degenerate blocks; one matrix is the row of its stack
    rng = np.random.default_rng(90 + b)
    dim = 4 * b
    for scale in (1e-3, 1.0, 1e3):
        parts = rng.permutation(dim).reshape(-1, b)
        S = scale * _block_stack(rng, parts, dim)
        S[0] *= np.where(rng.random((dim, dim)) < 0.5, 1e-9, 1.0)
        values = hermitian_spectra(S)
        assert values.shape == (len(S), dim)
        assert np.all(np.diff(values, axis=-1) >= 0)
        assert_near_eigvalsh(values, S)
        npt.assert_array_equal(hermitian_spectra(S[3]), values[3])


def test_a_coupling_at_one_time_joins_its_blocks():
    # pairs {0, 4}, {1, 5}, {2, 6}, {3, 7}; one entry couples the first two
    # pairs at time 2 and another the last two at time 5, so the pattern's
    # blocks are {0, 1, 4, 5} and {2, 3, 6, 7}.  Dropping either coupling
    # would move its time's spectrum by far more than round-off
    rng = np.random.default_rng(97)
    S = _block_stack(rng, [[0, 4], [1, 5], [2, 6], [3, 7]], 8)
    S[2, 0, 1] = 1.0
    S[5, 6, 3] = 1.0j
    values = hermitian_spectra(S)
    assert_near_eigvalsh(values, S)
    uncoupled = S.copy()
    uncoupled[2, 0, 1] = uncoupled[5, 6, 3] = 0
    moved = np.abs(_eigvalsh(uncoupled) - values).max(axis=-1)
    assert moved[2] > 1e-3 and moved[5] > 1e-3
    # a third coupling joins the two blocks: the stack is one block
    S[4, 4, 2] = 0.5
    assert hermitian_spectra(S).tobytes() == _eigvalsh(S).tobytes()


@pytest.mark.parametrize("case", ["dense", "unequal-blocks", "one-matrix"])
def test_one_block_spectra_are_eigvalsh_bitwise(case):
    rng = np.random.default_rng(98)
    if case == "dense":
        S = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
    elif case == "unequal-blocks":
        S = _block_stack(rng, [[0, 3], [1, 2, 4]], 5)
    else:
        S = _random_complex_matrix(rng, 5)
    assert hermitian_spectra(S).tobytes() == _eigvalsh(S).tobytes()


# ---------------------------------------------------------------------------
# eig_pair_general

def test_eig_pair_diagonal():
    z, v = eig_pair_general(np.diag([5.0, 2.0]))
    assert z == pytest.approx(5.0)
    npt.assert_allclose(v, [1.0, 0.0], atol=1e-14)


def test_eig_pair_defective_pencil():
    # (sx - i diag(1,-1)) has the double root z = 0 with the single
    # eigenvector (1, i)/sqrt 2; verified by substitution
    M = np.array([[-1j, 1.0], [1.0, 1j]])
    z, v = eig_pair_general(M)
    assert abs(z) <= 1e-12
    npt.assert_allclose(v, np.array([1.0, 1j]) / np.sqrt(2), atol=1e-12)
    npt.assert_allclose(M @ v, z * v, atol=1e-12)


def test_eig_pair_selection_rule():
    # char poly z^2 + 3 = 0 -> z = +/- i sqrt 3; rule picks +i sqrt 3
    M = np.array([[-2j, 1.0], [1.0, 2j]])
    z, v = eig_pair_general(M)
    assert z == pytest.approx(1j * np.sqrt(3.0), abs=1e-12)
    npt.assert_allclose(M @ v, z * v, atol=1e-12)


def test_eig_pair_pinning():
    M = np.array([[-2j, 1.0], [1.0, 2j]])
    z, _ = eig_pair_general(M, pin=-1.7j)
    assert z == pytest.approx(-1j * np.sqrt(3.0), abs=1e-12)


def test_eig_pair_pin_must_lie_within_half_the_root_gap():
    M = np.array([[-2j, 1.0], [1.0, 2j]])  # roots +-i sqrt 3
    with pytest.raises(FarPin, match="half the distance"):
        eig_pair_general(M, pin=100.0)
    with pytest.raises(ValueError):
        eig_pair_general(M, pin=1.0)  # 2 from both roots, beyond sqrt 3
    z, _ = eig_pair_general(M, pin=0.5 - 0.5j)
    assert z == pytest.approx(-1j * np.sqrt(3.0), abs=1e-12)


def test_eig_pair_pin_counts_repeated_roots_once():
    M = np.diag([1.0, 1.0, 3.0]).astype(complex)
    assert eig_pair_general(M, pin=1.9)[0] == pytest.approx(1.0)
    assert eig_pair_general(M, pin=2.1)[0] == pytest.approx(3.0)
    with pytest.raises(FarPin):
        eig_pair_general(M, pin=2.0)  # halfway between the distinct roots
    # a single distinct root accepts any pin
    assert eig_pair_general(2.0 * np.eye(3), pin=1e6)[0] == pytest.approx(2.0)


def _with_roots(rng, roots):
    # a non-normal matrix with the given eigenvalues
    V = _random_complex_matrix(rng, len(roots)) + 2 * np.eye(len(roots))
    return V @ np.diag(roots) @ np.linalg.inv(V)


def _pencils(rng):
    # random matrices, Lax-type pencils rho0 - mu A, and near-ties in Re
    # around the selection band 1e-9 * max(1, |z|)
    for d in (2, 3, 5, 8, 12):
        yield _random_complex_matrix(rng, d)
        H = _random_complex_matrix(rng, d)
        A = np.diag(rng.normal(size=d))
        yield (H + H.conj().T) / 2 - complex(rng.normal(), 1.0) * A
    for ties in ([0.0, 0.5, 2.0], [0.0, 0.99, 1.01, 1.05, 3e6],
                 [0.0, 0.0, 1e-3, 0.97, 1.03, 5e5]):
        roots = np.concatenate([1.5 + 1j * rng.normal(size=len(ties)),
                                rng.normal(size=3) - 2.0 + 1j * rng.normal(size=3)])
        band = 1e-9 * np.abs(roots).max()
        roots[:len(ties)] -= band * np.array(ties)
        yield _with_roots(rng, roots)


def _pins(rng, M):
    # no pin, pins at the roots, near half of each gap to the nearest other
    # root, and far away
    roots = np.linalg.eigvals(M)
    yield None
    for z in roots[:4]:
        others = roots[np.abs(roots - z) > 1e-6]
        yield z + 1e-7 * (rng.normal() + 1j * rng.normal())
        if others.size:
            w = others[np.argmin(np.abs(others - z))]
            for half in (0.5 - 1e-6, 0.5 + 1e-6):
                yield z + half * (w - z)
    yield 100.0 + 100.0j


def test_eig_pair_selects_among_the_unpolished_roots():
    # eigvals is backward stable: M - zI is singular to round-off at the
    # selected root, which is one of its roots bit for bit, so no polish
    # could move it.  Near-ties in Re around the selection band, and pins at,
    # near half of and far beyond the gaps between roots
    rng = np.random.default_rng(90)
    far = 0
    for M in _pencils(rng):
        roots = np.linalg.eigvals(M)
        for pin in _pins(rng, M):
            try:
                z, _ = eig_pair_general(M, pin=pin)
            except FarPin:
                far += 1
                continue
            assert z == select_root(roots, pin)
            sigma_min = np.linalg.svd(M - z * np.eye(len(M)), compute_uv=False)[-1]
            assert sigma_min <= 1e-14 * max(1.0, frob(M))
    assert far > 10  # the FarPin cases are exercised too


def test_eig_pair_dim_cap():
    with pytest.raises(ValueError,
                       match="^dimension 40 exceeds the configured cap 32$"):
        eig_pair_general(np.eye(40))


def test_eig_pair_left_matches_right_spectrum():
    rng = np.random.default_rng(7)
    M = _random_complex_matrix(rng, 4)
    z, w = eig_pair_left(M)
    npt.assert_allclose(w @ M, z * w, atol=1e-9 * frob(M))


def test_eig_pair_residual_gate():
    # an artificially tightened tolerance must trip the defect error
    M = np.array([[-1j, 1.0], [1.0, 1j]])
    with pytest.raises(DefectiveEigenproblem, match="z ="):
        eig_pair_general(M, tolerances=Tolerances(eig_pair_residual=1e-30))


# ---------------------------------------------------------------------------
# the null vector on the root's block

def _whole_elimination(B):
    # the null vector by full-pivot elimination of the whole matrix, one
    # matrix at a time: the reference the block elimination must keep
    n = B.shape[0]
    U = np.array(B, dtype=complex)
    colperm = np.arange(n)
    scale = max(1.0, float(np.abs(U).max()))
    rank = 0
    for step in range(n):
        sub = np.abs(U[step:, step:])
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i, j] <= 1e-12 * scale:
            break
        U[[step, step + i], :] = U[[step + i, step], :]
        U[:, [step, step + j]] = U[:, [step + j, step]]
        colperm[[step, step + j]] = colperm[[step + j, step]]
        factors = U[step + 1:, step] / U[step, step]
        U[step + 1:, :] -= np.outer(factors, U[step, :])
        rank += 1
    x = np.zeros(n, dtype=complex)
    x[rank] = 1.0
    for r in range(rank - 1, -1, -1):
        x[r] = -(U[r, r + 1:] @ x[r + 1:]) / U[r, r]
    v = np.zeros(n, dtype=complex)
    v[colperm] = x
    return canonical_phase(v)


def _block_diagonal(blocks, order):
    # the matrix with ``blocks`` on the index sets of ``order`` cut in parts
    size, count = blocks.shape[-1], len(blocks)
    M = np.zeros((size * count, size * count), dtype=complex)
    for part, block in zip(order.reshape(count, size), blocks):
        M[np.ix_(part, part)] = block
    return M


def _reference_pair(M, left):
    # the root eig_pair_general selects and the whole elimination's vector
    M = M.T if left else M
    z = select_root(np.linalg.eigvals(M), None)
    return z, _whole_elimination(M - z * np.eye(len(M)))


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_a_block_pencil_keeps_the_whole_elimination_on_its_root_block(size):
    # random block-diagonal pencils, some with their indices shuffled: the
    # vector's nonzero entries are bit for bit those of the whole matrix's
    # elimination, and every other entry is +0.0
    rng = np.random.default_rng(40 + size)
    on_block = 0
    for trial in range(60):
        count = int(rng.integers(2, min(16, DIM_CAP // size) + 1))
        blocks = (rng.standard_normal((count, size, size))
                  + 1j * rng.standard_normal((count, size, size)))
        order = rng.permutation(count * size) if trial % 2 else np.arange(count * size)
        M = _block_diagonal(blocks, order)
        for left in (False, True):
            z, v = (eig_pair_left if left else eig_pair_general)(M)
            z_ref, w = _reference_pair(M, left)
            zeros = w == 0
            assert z == z_ref
            assert v[~zeros].tobytes() == w[~zeros].tobytes()
            assert not v[zeros].view(float).any()
            assert not np.signbit(v[zeros].view(float)).any()
            on_block += zeros.sum() >= len(M) - size
    assert on_block == 120


@pytest.mark.parametrize("kind", ["dense", "unequal-parts", "one-block",
                                  "tied-pivots", "rank-2-deficient"])
def test_a_pencil_without_equal_parts_keeps_the_whole_elimination(kind):
    # bit for bit in full, the signs of its zeros included: entries of equal
    # size tie the pivot choice, and a twice-held root leaves two free
    # columns, the first of which back-substitution sets to 1
    kinds = ["dense", "unequal-parts", "one-block", "tied-pivots", "rank-2-deficient"]
    rng = np.random.default_rng(1 + kinds.index(kind))
    deficient = 0
    for _ in range(40):
        if kind == "dense":
            M = _random_complex_matrix(rng, int(rng.integers(1, 13)))
        elif kind == "unequal-parts":
            M = np.zeros((5, 5), dtype=complex)
            M[:2, :2] = _random_complex_matrix(rng, 2)
            M[2:, 2:] = _random_complex_matrix(rng, 3)
        elif kind == "one-block":
            M = np.kron(np.eye(1), _random_complex_matrix(rng, 3))
        elif kind == "tied-pivots":
            n = int(rng.integers(2, 9))
            M = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n)).astype(complex)
        else:
            n = int(rng.integers(3, 9))
            roots = np.concatenate([[5.0, 5.0], rng.uniform(-3.0, 3.0, n - 2)])
            M = _with_roots(rng, roots)
        for left in (False, True):
            z, v = (eig_pair_left if left else eig_pair_general)(M)
            assert v.tobytes() == _reference_pair(M, left)[1].tobytes()
            B = (M.T if left else M) - z * np.eye(len(M))
            deficient += np.linalg.matrix_rank(B, tol=1e-10 * max(1.0, frob(M))) \
                <= len(M) - 2
    if kind == "rank-2-deficient":
        assert deficient == 80


def test_a_root_two_blocks_hold_keeps_the_whole_elimination():
    # the pencil of two equal Delta blocks has each root twice: the whole
    # elimination puts phi0 on indices 2-3, where the first singular block
    # would have put it on 0-1, a different dressing
    from vndarboux import build_lax, make_delta_commuting_seed
    seed = make_delta_commuting_seed([(0.5, 0.2), (0.5, 0.2)], a=0.8)
    mu, nu, lam = 0.3 + 0.8j, 0.5 - 1.1j, 0.1 + 2.0j
    lax = build_lax(seed, mu, nu, lam)
    for param, vector, left in ((mu, lax.phi0, False), (nu, lax.chi0, True),
                                (lam, lax.psi0, True)):
        _, w = _reference_pair(seed.rho0 - param * seed.spec.A, left)
        assert vector.tobytes() == w.tobytes()
    assert np.flatnonzero(lax.phi0).tolist() == [2, 3]


@pytest.mark.parametrize("values, singular", [
    ([5.0, 2.0, 2.0], [0]),        # one singular 1 x 1 block at z = 5
    ([2.0, 2.0, 1.0], [0, 1]),     # z = 2 is held twice: the whole elimination
])
def test_diagonal_pencils_take_their_root_block(values, singular):
    z, v = eig_pair_general(np.diag(values))
    w = _reference_pair(np.diag(values), False)[1]
    assert z == max(values)
    assert v.tobytes() == w.tobytes() if len(singular) > 1 else (
        np.flatnonzero(v).tolist() == singular and v[singular[0]] == 1.0)


def test_canonical_phase_first_component_real_positive():
    v = canonical_phase(np.array([-1j, 1.0]))
    assert v[0].imag == pytest.approx(0.0, abs=1e-15)
    assert v[0].real > 0


# ---------------------------------------------------------------------------
# trace_moments

@pytest.mark.parametrize("M, kmax, expected", [
    (np.eye(3), 2, [3.0, 3.0]),
    (np.diag([1.0, -1.0]), 3, [0.0, 2.0, 0.0]),
    (SX, 2, [0.0, 2.0]),
])
def test_trace_moments_frozen(M, kmax, expected):
    npt.assert_allclose(trace_moments(M, kmax), expected, atol=1e-14)


def test_trace_moments_requires_positive_kmax():
    with pytest.raises(ValueError):
        trace_moments(np.eye(2), 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_trace_moments_conjugation_invariant(seed):
    rng = np.random.default_rng(seed)
    M = _random_complex_matrix(rng, 4)
    S = np.eye(4) + 0.3 * _random_complex_matrix(rng, 4)
    if np.linalg.cond(S) > 1e3:
        return
    conjugated = S @ M @ np.linalg.inv(S)
    gap = np.max(np.abs(trace_moments(conjugated, 4) - trace_moments(M, 4)))
    assert gap <= 1e-9 * max(1.0, frob(M) ** 4)


def test_is_hermitian_definition():
    H = (SX + 1e-12 * np.array([[0, 1j], [0, 0]]))
    assert is_hermitian(H, 1e-10)
    assert not is_hermitian(H, 1e-14)
