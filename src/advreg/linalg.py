"""Small dense linear-algebra kernel used by every other module.

All matrices here are plain numpy arrays, small (tens to a few hundred
rows), symmetric positive definite where stated. The factorizations are
numpy's LAPACK routines; on top of them this module keeps the library's
own threshold (PIVOT_RTOL) and symmetry check.

`nonsingular` is the library's one rule for when (X^T X + shift I) x = X^T y
has a solution; `shifted_solve` solves it from one eigendecomposition for
least squares (shift 0) and ridge regression.
`sym_eig`, `nonsingular` and `shifted_solve` also take stacks (..., d, d),
as `rank_one_inverse_update` does: one LAPACK call for the whole stack, each
slice equal to the 2-D call bit for bit. A sweep block stacks its Grams so.
"""

import numpy as np

from .exceptions import DimensionMismatch, NoConvergence, NotPositiveDefinite, SingularDesign

# Relative threshold below which a pivot or an eigenvalue counts as zero.
PIVOT_RTOL = 1e-12
# Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-10


def _require_square_symmetric(A, name="A"):
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    ax = (-2, -1)  # slice by slice; a NaN slice compares False, and eigh refuses it
    if A.size and (np.abs(A - np.swapaxes(A, -1, -2)).max(ax)
                   > SYMMETRY_RTOL * np.abs(A).max(ax)).any():
        raise ValueError(f"{name} is not symmetric to within {SYMMETRY_RTOL:g} relative")
    return A


def _cholesky(A):
    """Lower-triangular factor of symmetric positive definite A.

    Raises NotPositiveDefinite when LAPACK rejects A or a pivot
    (squared diagonal entry of the factor) falls at or below
    PIVOT_RTOL times the largest diagonal entry of the input.
    """
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
    max_diag = float(np.max(np.diag(A))) if A.size else 0.0
    threshold = PIVOT_RTOL * max_diag if max_diag > 0 else 0.0
    pivots = np.diag(L) ** 2
    low = np.flatnonzero(~(pivots > threshold))
    if low.size:
        j = int(low[0])
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at column {j} is not above {threshold:.3e}"
        )
    return L


# no module here calls it; perfbench/selftest.py checks its tracing, the tests' lasso oracle calls it
def solve_spd(A, b):
    """Solve A x = b for symmetric positive definite A.

    Parameters
    ----------
    A : (d, d) array, symmetric positive definite.
    b : (d,) array, or (d, k) array of k right-hand sides.

    Returns
    -------
    x : array shaped like b with residual ``norm(A x - b) <= 1e-8 * (1 + norm(b))``
        per right-hand side.

    Raises
    ------
    NotPositiveDefinite
        If a Cholesky pivot is not above ``PIVOT_RTOL * max(diag(A))``.
    DimensionMismatch
        If shapes are incompatible.
    """
    A = _require_square_symmetric(A)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"b has shape {b.shape}, expected {A.shape[0]} rows")
    _cholesky(A)
    return np.linalg.solve(A, b)


def rank_one_inverse_update(A_inv, v):
    """Inverse of (A + v v^T) given the inverse of A.

    Uses the rank-one expansion
    ``(A + v v^T)^-1 = A^-1 - (A^-1 v)(A^-1 v)^T / (1 + v^T A^-1 v)``,
    which keeps the result exactly symmetric when ``A_inv`` is. Stacks
    ``A_inv`` (..., d, d) and ``v`` (..., d) are updated slice by slice,
    each slice bit for bit as the 2-D call on it.
    """
    A_inv = np.asarray(A_inv, dtype=float)
    v = np.asarray(v, dtype=float)
    if A_inv.ndim < 2 or A_inv.shape[-1] != A_inv.shape[-2]:
        raise DimensionMismatch(f"A_inv must be square, got shape {A_inv.shape}")
    if v.shape != A_inv.shape[:-1]:
        raise DimensionMismatch(f"v has shape {v.shape}, expected {A_inv.shape[:-1]}")
    w = (A_inv @ v[..., None])[..., 0]
    denom = 1.0 + (v[..., None, :] @ w[..., None])[..., 0]
    return A_inv - w[..., :, None] * w[..., None, :] / denom[..., None]


def sym_eig(A):
    """Eigen-decomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as orthonormal columns; a stack
    (..., d, d) gives (..., d) and (..., d, d).

    Raises NoConvergence if LAPACK reports that the decomposition did not
    converge.
    """
    A = _require_square_symmetric(A)
    if A.shape[-1] == 0:
        raise DimensionMismatch("cannot decompose an empty matrix")
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition did not converge: {exc}") from exc
    return vals[..., ::-1], vecs[..., ::-1]


def nonsingular(lam, shift=0.0):
    """True where lam_min + shift > PIVOT_RTOL * (lam_max + shift), for the
    descending eigenvalues lam (..., d) of `sym_eig` and a shift or array of
    shifts broadcast against lam's stack shape (...)."""
    return lam[..., -1] + shift > PIVOT_RTOL * (lam[..., 0] + shift)


def _spectrum(G, b):
    """(lam, V, c): `sym_eig(G)` and c = V^T b, slice by slice on stacks."""
    lam, V = sym_eig(G)
    return lam, V, (np.swapaxes(V, -1, -2) @ b[..., None])[..., 0]


def _solve_spectrum(lam, V, c, shifts):
    """`shifted_solve` from its spectrum: x = V diag(1 / (lam + shift)) c,
    one row per shift (..., n, d). Raises SingularDesign, naming the first
    shift that fails `nonsingular`."""
    ok = nonsingular(lam[..., None, :], shifts)
    if not ok.all():
        bad = np.broadcast_to(shifts, ok.shape)[~ok][0]
        raise SingularDesign(f"X^T X + shift I is singular at shift={bad:g}")
    return (c[..., None, :] / (lam[..., None, :] + shifts[:, None])) @ np.swapaxes(V, -1, -2)


def shifted_solve(G, b, shifts):
    """Solutions x of (G + shift I) x = b, one row per shift, from one
    eigendecomposition G = V diag(lam) V^T: x = V diag(1 / (lam + shift)) V^T b.
    A stack G (..., d, d) with b (..., d) gives (..., n, d).

    Raises SingularDesign when some shift fails `nonsingular`.
    """
    return _solve_spectrum(*_spectrum(G, b), shifts)
