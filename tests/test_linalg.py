"""Dense symmetric kernel: SPD solves, the singularity rule and shifted
solves, rank-one inverse updates, and the symmetric eigensolver.  Oracles
are hand inversions and the NumPy reference decomposition on seeded random
matrices."""

import itertools

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


def test_rank_one_stacked_equals_each_slice_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(250):
        d = int(rng.integers(1, 7))
        lead = tuple(int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 3))))
        M = rng.uniform(-1, 1, lead + (d, d))
        A_inv = M @ np.swapaxes(M, -1, -2) + np.eye(d)
        v = rng.uniform(-1, 1, lead + (d,))
        v[(0,) * len(lead)] = 0.0  # a zero vector leaves its slice unchanged
        out = rank_one_inverse_update(A_inv, v)
        for idx in np.ndindex(*lead):
            assert np.array_equal(out[idx], rank_one_inverse_update(A_inv[idx], v[idx]))
        assert np.array_equal(out[(0,) * len(lead)], A_inv[(0,) * len(lead)])


def test_rank_one_refuses_mismatched_stacks():
    with pytest.raises(DimensionMismatch):
        rank_one_inverse_update(np.zeros((2, 3, 3)), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        rank_one_inverse_update(np.zeros((2, 3, 2)), np.zeros((2, 3)))


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


# ---------------------------------------------------------------- stacks

def random_grams(rng, k, d, max_cond=1e12):
    """k symmetric positive semidefinite (d, d) Grams with condition numbers
    spread log-uniformly up to max_cond, each exactly symmetric."""
    Q = np.linalg.qr(rng.normal(size=(k, d, d)))[0]
    spread = 10.0 ** (rng.uniform(0, np.log10(max_cond), size=(k, 1)) * np.linspace(0, 1, d))
    G = (Q * (rng.uniform(0.1, 10.0, size=(k, 1)) / spread)[:, None, :]) @ np.swapaxes(Q, 1, 2)
    return (G + np.swapaxes(G, 1, 2)) / 2


def reference_shifted_solve(G, b, shifts):
    # the 2-D arithmetic shifted_solve has always had, straight from eigh
    vals, vecs = np.linalg.eigh(G)
    lam, V = vals[::-1], vecs[:, ::-1]
    return (V.T @ b / (lam + shifts[:, None])) @ V.T


def assert_stack_equals_slices(G, b, shifts):
    """sym_eig, nonsingular and shifted_solve on the stack G, b equal the 2-D
    calls on each slice bit for bit; returns how many slices were solved."""
    lam, V = sym_eig(G)
    ok = nonsingular(lam)
    rows = nonsingular(lam[:, None, :], shifts)
    for i in range(len(G)):
        lam_i, V_i = sym_eig(G[i])
        assert np.array_equal(lam[i], lam_i) and np.array_equal(V[i], V_i)
        assert ok[i] == nonsingular(lam_i)
        assert np.array_equal(rows[i], nonsingular(lam_i, shifts))
    solvable = rows.all(axis=1)
    x = shifted_solve(G[solvable], b[solvable], shifts)
    for x_i, G_i, b_i in zip(x, G[solvable], b[solvable]):
        assert np.array_equal(x_i, shifted_solve(G_i, b_i, shifts))
        assert np.array_equal(x_i, reference_shifted_solve(G_i, b_i, shifts))
    return int(solvable.sum())


@pytest.mark.parametrize("d", [1, 2, 5, 11, 13])
def test_stacks_equal_each_slice_bit_for_bit_up_to_cond_1e12(d):
    rng = np.random.default_rng(40 + d)
    G = random_grams(rng, 200, d)
    b = rng.normal(size=(200, d)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
    assert assert_stack_equals_slices(G, b, np.logspace(-4.0, 2.0, 13)) == 200
    # at shift 0 the stack keeps the slices the rule admits, and one is refused
    G[7] = np.diag(np.r_[np.ones(d - 1), 0.0]) if d > 1 else np.zeros((1, 1))
    assert 0 < assert_stack_equals_slices(G, b, np.zeros(1)) < 200


def test_a_stack_refuses_a_non_symmetric_slice():
    G = random_grams(np.random.default_rng(41), 6, 4)
    sym_eig(G)
    G[3, 0, 2] += 1e-6 * np.abs(G[3]).max()
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(G)
    with pytest.raises(ValueError, match="not symmetric"):
        shifted_solve(G, np.ones((6, 4)), np.ones(1))


def test_a_stack_refuses_a_singular_slice_as_the_slice_alone():
    rng = np.random.default_rng(42)
    G, b = random_grams(rng, 5, 3, max_cond=10.0), rng.normal(size=(5, 3))
    G[2] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]  # eigenvalues 2, 2, 0
    G[4] = np.zeros((3, 3))
    for shifts in (np.zeros(1), np.array([0.5, 0.0, 0.0])):
        with pytest.raises(SingularDesign) as alone:
            shifted_solve(G[2], b[2], shifts)
        with pytest.raises(SingularDesign) as stacked:
            shifted_solve(G, b, shifts)
        assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == "X^T X + shift I is singular at shift=0"


def criterion6_systems(name, scenarios=600):
    """Every ridge CV fold system and training (X^T X, X^T y) that the
    criterion-6 sweep (4 x 3 cells, 50 repeats, raw features) would stack on
    name, built as it builds them: the fold systems summed from
    `_fold_blocks`, in its order; those of its first scenarios only if
    given."""
    from advreg.baselines import FitConfig, _fold_blocks, _folds
    from advreg.data import concat_datasets, split_train_test
    from advreg.evaluate import STREAM_CV_RIDGE, derive_seed
    from advreg.synthetic import load_bundled

    train, test = split_train_test(load_bundled(name), 0.5, 0)
    full = concat_datasets(train, test)
    G, b = [], []
    for i, j, r in itertools.islice(np.ndindex(4, 3, 50), scenarios):
        s = derive_seed(0, i, j, r)
        tr = np.random.default_rng(s).permutation(full.m)[:train.m]
        X, y = full.X[tr], full.y[tr]
        Gf, bf, _ = _fold_blocks(X, y, _folds(len(y), FitConfig(),
                                               derive_seed(s, STREAM_CV_RIDGE)))
        G += [*Gf, X.T @ X]
        b += [*bf, X.T @ y]
    return np.array(G), np.array(b)


def test_criterion6_systems_builds_the_stacks_the_sweep_decomposes(acceptance_sweeps):
    # the first block's 12 scenarios, to the bit
    (G, b), _ = acceptance_sweeps["criterion 6"].spectra[0]
    want_G, want_b = criterion6_systems("wine_like", scenarios=12)
    assert G.tobytes() == want_G.tobytes() and b.tobytes() == want_b.tobytes()


@pytest.mark.parametrize("name", ["wine_like", "housing_like"])
def test_stacks_equal_each_slice_on_the_criterion_6_grams(name, request):
    # on wine_like, the stacks the criterion-6 sweep decomposed, recorded once
    # a session; no criterion-6 sweep runs on housing_like, so there the same
    # grid's systems are built as the sweep would build them
    if name == "wine_like":
        spectra = request.getfixturevalue("acceptance_sweeps")["criterion 6"].spectra
        G, b = (np.concatenate(stacks) for stacks in zip(*(args for args, _ in spectra)))
    else:
        G, b = criterion6_systems(name)
    assert G.shape[0] == 600 * 6
    assert assert_stack_equals_slices(G, b, np.logspace(-4.0, 2.0, 13)) == 3600
    assert assert_stack_equals_slices(G, b, np.zeros(1)) == 3600
