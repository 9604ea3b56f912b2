import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SX, SZ
from vndarboux import DefectiveEigenproblem, FarPin, Tolerances
from vndarboux.operator_core import (anticommutator, canonical_phase,
                                     commutator, eig_hermitian,
                                     eig_pair_general, eig_pair_left, frob,
                                     is_hermitian, mat_exp, trace_moments)


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


def test_anticommutator_pauli():
    npt.assert_allclose(anticommutator(SX, SZ), np.zeros((2, 2)), atol=1e-15)


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


def test_eig_pair_dim_cap():
    with pytest.raises(ValueError, match="cap"):
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
