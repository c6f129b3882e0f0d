"""Dense symmetric kernel: SPD solves, the singularity rule and shifted
solves, rank-one inverse updates, and the symmetric eigensolver.  Oracles
are hand inversions and the NumPy reference decomposition on seeded random
matrices."""

import numpy as np
import pytest

from advreg.exceptions import DimensionMismatch, NotPositiveDefinite, SingularDesign
from advreg.linalg import (
    PIVOT_RTOL,
    nonsingular,
    rank_one_inverse_update,
    shifted_solve,
    solve_spd,
    sym_eig,
)


def random_spd(rng, n, jitter=0.5):
    M = rng.normal(size=(n, n))
    return M @ M.T + jitter * np.eye(n)


# ---------------------------------------------------------------- solve_spd

def test_solve_identity_system():
    x = solve_spd(np.eye(2), np.array([3.0, 4.0]))
    assert np.allclose(x, [3.0, 4.0], atol=1e-12)


def test_solve_diagonal_system():
    x = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_solve_2x2_verified_by_multiplying_back():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([3.0, 3.0])
    x = solve_spd(A, b)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)
    assert np.allclose(A @ x, b, atol=1e-12)


def test_solve_random_spd_residuals():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        A = random_spd(rng, n)
        b = rng.normal(size=n)
        x = solve_spd(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-8 * (1 + np.linalg.norm(b))


def test_solve_several_right_hand_sides_at_once():
    rng = np.random.default_rng(12)
    A = random_spd(rng, 5)
    B = rng.normal(size=(5, 3))
    X = solve_spd(A, B)
    assert X.shape == (5, 3)
    for k in range(3):
        assert np.allclose(X[:, k], solve_spd(A, B[:, k]), rtol=1e-12, atol=1e-14)


def test_solve_rejects_indefinite():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    # positive definite, but its pivot 1e-13 is below PIVOT_RTOL * max diag,
    # which LAPACK alone would accept
    tiny_pivot = np.diag([1.0, 1e-13])
    for A in (indefinite, tiny_pivot):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(A, np.array([1.0, 1.0]))


def test_solve_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_spd(np.eye(2), np.array([1.0, 2.0, 3.0]))


# ------------------------------------------------ nonsingular, shifted_solve

def test_nonsingular_refuses_exactly_at_the_threshold():
    lam = np.array([1.0, PIVOT_RTOL])
    assert not nonsingular(lam)
    assert nonsingular(np.array([1.0, 2.0 * PIVOT_RTOL]))
    with pytest.raises(SingularDesign):
        shifted_solve(np.diag(lam), np.ones(2), np.zeros(1))


def test_a_shift_rescues_a_singular_spectrum():
    G = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 2 and 0
    lam, _ = sym_eig(G)
    assert not nonsingular(lam)
    assert nonsingular(lam, 0.5)
    assert list(nonsingular(lam, np.array([0.0, 0.5]))) == [False, True]
    x = shifted_solve(G, np.array([1.0, 2.0]), np.array([0.5]))[0]
    assert np.allclose((G + 0.5 * np.eye(2)) @ x, [1.0, 2.0], atol=1e-12)
    with pytest.raises(SingularDesign):
        shifted_solve(G, np.array([1.0, 2.0]), np.array([0.5, 0.0]))


def test_nonsingular_agrees_in_sign_with_eigvalsh():
    # on random symmetric matrices the rule reads lam_min > 0 off any
    # spectrum not within PIVOT_RTOL of singular
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        M = rng.normal(size=(n, n))
        A = (M + M.T) / 2
        vals = np.linalg.eigvalsh(A)
        assert nonsingular(sym_eig(A)[0]) == bool(vals.min() > 0)


# ------------------------------------------------- rank_one_inverse_update

def test_rank_one_scalar():
    out = rank_one_inverse_update(np.array([[1.0]]), np.array([1.0]))
    assert np.allclose(out, [[0.5]], atol=1e-14)


def test_rank_one_zero_vector_is_identity_map():
    out = rank_one_inverse_update(np.eye(2), np.zeros(2))
    assert np.allclose(out, np.eye(2), atol=0)


def test_rank_one_matches_direct_inverse():
    # I + (1,1)(1,1)^T = [[2,1],[1,2]], inverse [[2/3,-1/3],[-1/3,2/3]]
    out = rank_one_inverse_update(np.eye(2), np.array([1.0, 1.0]))
    expect = np.array([[2, -1], [-1, 2]]) / 3.0
    assert np.allclose(out, expect, atol=1e-14)


def test_rank_one_chain_inverts_accumulated_matrix():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.5, 2.0))
        A = lam * np.eye(d)
        A_inv = np.eye(d) / lam
        for _ in range(int(rng.integers(1, 5))):
            v = rng.uniform(-1, 1, d)
            A += np.outer(v, v)
            A_inv = rank_one_inverse_update(A_inv, v)
        assert np.allclose(A_inv @ A, np.eye(d), atol=1e-10)


# ------------------------------------------------------------------ sym_eig

def test_sym_eig_diagonal():
    vals, vecs = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
    # eigenvectors match e1, e2 up to sign
    assert np.allclose(np.abs(vecs), np.eye(2), atol=1e-12)


def test_sym_eig_identity():
    vals, _ = sym_eig(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0], atol=1e-12)


def test_sym_eig_2x2_hand_oracle():
    vals, vecs = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    v = np.array([1.0, -1.0]) / np.sqrt(2)
    assert min(np.linalg.norm(vecs[:, 0] - u), np.linalg.norm(vecs[:, 0] + u)) < 1e-10
    assert min(np.linalg.norm(vecs[:, 1] - v), np.linalg.norm(vecs[:, 1] + v)) < 1e-10


def test_sym_eig_reconstruction_and_order():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        A = (M + M.T) / 2
        vals, vecs = sym_eig(A)
        assert np.all(np.diff(vals) <= 1e-12)                    # descending
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-9)  # orthonormal
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, A, atol=1e-8)
        assert np.allclose(np.sort(vals), np.sort(np.linalg.eigvalsh(A)), atol=1e-8)


def test_sym_eig_handles_tiny_off_diagonal_mass():
    # Eigenvalues spread over 16 orders of magnitude with tiny off-diagonal
    # mass must still decompose into finite values.
    A = np.diag([1e8, 1.0, 1e-8]) + 1e-9
    A = (A + A.T) / 2
    vals, vecs = sym_eig(A)
    assert np.all(np.isfinite(vals))
    assert np.allclose(vecs @ np.diag(vals) @ vecs.T, A, atol=1e-6)
