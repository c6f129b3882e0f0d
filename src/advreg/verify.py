"""Randomized numerical certificates for the identities the solvers rely on.

Each check draws instances from a small envelope (m <= 6 rows, d <= 4
features, n <= 4 learners, entries uniform in [-1, 1], lam in [0.5, 2],
beta in [0, 1]) and evaluates one inequality or identity per instance with
an independent construction. It draws the instances in turn from one
generator, each followed by the extras its trial needs; stacks them (up to
STACK_TRIALS at a time) into arrays zero-padded to the stack's largest
(m, d, n), with feature and learner masks; and evaluates the inequality on
the whole stack at once. Padding is exact: a zero row of X, y and z adds
zero to every sum, a zero learner makes a rank-one update a no-op (a
leave-one-out chain zeroes learner i instead of deleting it, so the updates
run in the same order), and padded coordinates are masked out of every max
and min. The library calls a check certifies stay per instance:
`attacker_best_response` and `robust_inner_max` (which seeds its own
generator per trial) with `robust_disturbance`. The fixed-point check runs
the stacked solver of sweep blocks (`equilibrium._from_spectra`, which a
test pins to `solve_equilibrium` bit for bit) on one stacked spectrum per
feature count, and reads its `default_radius` balls off the same spectra.
One driver applies the rules every check shares and builds its
CheckReport: `trials` must be at least 1 (ValueError otherwise),
a positive violation is a failure (negative = passed with that margin),
worst_violation is the largest one seen, and at most five failing instances
are kept, serialized for reproduction.

The checks certify, respectively: the incremental rank-one inversion of
lam * I + sum theta theta^T that the leave-one-out checks build on; the
quadratic-form bound theta^T A^-1 theta <= theta^T theta / lam; the
single-learner risk bound that motivates the surrogate cost; positive
definiteness of the weighted game Jacobian (the uniqueness certificate);
the variational-inequality optimality of the computed symmetric
equilibrium; the closed form of the worst-case correlated-disturbance risk;
and empirical boundedness of the gap between realized and surrogate costs
(whose additive constant is non-constructive, so only boundedness is
recorded, never a specific value).
"""

from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from .equilibrium import _from_spectra, _radius
from .exceptions import DimensionMismatch, NotPositiveDefinite
from .game import GameParams, attacker_best_response, sq_norm
from .linalg import (PIVOT_RTOL, _cholesky, _solve_spectrum, _spectrum, rank_one_inverse_update,
                     sym_eig)

ENVELOPE = dict(d_max=4, m_max=6, n_max=4, lam_lo=0.5, lam_hi=2.0)


@dataclass(eq=False)
class CheckReport:
    check_name: str
    trials: int
    failures: int
    worst_violation: float
    sample_of_failures: list = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self):
        return self.failures == 0

    def as_dict(self):
        return asdict(self)


@dataclass(eq=False)
class RosenConfig:
    """Positive weights (one per learner, summing to 1) for the weighted Jacobian."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or self.weights.size < 1:
            raise DimensionMismatch("weights must be a non-empty vector")
        if np.any(self.weights <= 0) or abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")


def _draw_instance(rng, n_min=1, full_rank=False):
    d = int(rng.integers(1, ENVELOPE["d_max"] + 1))
    lo_m = max(2, d + 1) if full_rank else max(2, d)
    m = int(rng.integers(lo_m, ENVELOPE["m_max"] + 1))
    X = rng.uniform(-1.0, 1.0, (m, d))
    # ends almost surely: of 200,000 envelope draws, 204 needed one redraw, none two;
    # eigh is sym_eig's LAPACK call (eigvalsh's driver could flip a redraw)
    while full_rank and np.linalg.eigh(X.T @ X)[0][0] < 1e-3:
        X = rng.uniform(-1.0, 1.0, (m, d))
    n = int(rng.integers(n_min, ENVELOPE["n_max"] + 1))
    return {
        "X": X,
        "y": rng.uniform(-1.0, 1.0, m),
        "z": rng.uniform(-1.0, 1.0, m),
        "lam": float(rng.uniform(ENVELOPE["lam_lo"], ENVELOPE["lam_hi"])),
        "beta": float(rng.uniform(0.0, 1.0)),
        "thetas": rng.uniform(-1.0, 1.0, (n, d)),
    }


def _pad(arrays):
    """Stack arrays of one rank, zero-padded to their largest shape."""
    out = np.zeros((len(arrays), *np.max([a.shape for a in arrays], axis=0)))
    for k, a in enumerate(arrays):
        out[(k, *map(slice, a.shape))] = a
    return out


def _stack(insts):
    """The instances as zero-padded arrays X, y, z, thetas, lam and beta, with
    masks feats (K, D), learners (K, N) and pairs (K, D, D) of real features."""
    S = SimpleNamespace(**{key: _pad([inst[key] for inst in insts])
                           for key in ("X", "y", "z", "thetas")})
    S.lam, S.beta = (np.array([inst[key] for inst in insts]) for key in ("lam", "beta"))
    n, d = np.array([inst["thetas"].shape for inst in insts]).T
    S.feats = np.arange(S.X.shape[2]) < d[:, None]
    S.learners = np.arange(S.thetas.shape[1]) < n[:, None]
    S.pairs = S.feats[:, :, None] & S.feats[:, None, :]
    return S


STACK_TRIALS = 1000  # trials per stack; a longer run stacks them in turn, in bounded memory


def _run(name, trials, seed, evaluate, n_min=1, full_rank=False, extra=None):
    """Draw `trials` instances, each followed by extra(inst, rng), evaluate up to
    STACK_TRIALS at once by evaluate(insts, stack, extras, index of the first)
    -> (violations, detail or a detail per instance), and tally the report."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    failures, worst, samples = 0, -np.inf, []
    for k0 in range(0, trials, STACK_TRIALS):
        insts, extras = [], []
        for _ in range(min(STACK_TRIALS, trials - k0)):
            insts.append(_draw_instance(rng, n_min=n_min, full_rank=full_rank))
            extras.append(extra(insts[-1], rng) if extra else None)
        viol, details = evaluate(insts, _stack(insts), extras, k0)
        failing = np.flatnonzero(viol > 0)
        failures, worst = failures + failing.size, max(worst, float(np.max(viol)))
        for k in failing[:5 - len(samples)]:  # the first five failing instances
            instance = {key: val.tolist() if isinstance(val, np.ndarray) else val
                        for key, val in insts[k].items()}
            detail = details if isinstance(details, str) else details[k]
            samples.append({"instance": instance, "violation": float(viol[k]), "detail": detail})
    return CheckReport(name, trials, int(failures), worst, samples)


def _params(inst):
    return GameParams(n=inst["thetas"].shape[0], beta=inst["beta"], lam=inst["lam"], z=inst["z"])


def _mv(A, v):
    """A @ v over stacks A (..., p, q) and v (..., q)."""
    return (A @ v[..., None])[..., 0]


def _inverse_by_updates(T, lam):
    """(lam I + sum_j theta_j theta_j^T)^-1 by rank-one updates, for stacks
    T (..., n, d) and lam broadcast against T's leading axes."""
    A_inv = np.eye(T.shape[-1]) / lam[..., None, None] + np.zeros(T.shape[:-2] + (1, 1))
    for j in range(T.shape[-2]):
        A_inv = rank_one_inverse_update(A_inv, T[..., j, :])
    return A_inv


def _leave_one_out(T):
    """Stack (N, K, N, D) of T (K, N, D) with learner i zeroed in slice i. A
    zero learner is a no-op rank-one update, so a chain over slice i skips i."""
    return np.where(np.eye(T.shape[1], dtype=bool)[:, None, :, None], 0.0, T)


def check_sherman_morrison(trials=1000, seed=0):
    """Incremental inverse of lam*I + sum theta theta^T matches the direct matrix."""
    tol = 1e-8

    def evaluate(insts, S, extras, k0):
        eye = np.eye(S.X.shape[2])
        A = S.lam[:, None, None] * eye + S.thetas.transpose(0, 2, 1) @ S.thetas
        err = np.max(np.abs(_inverse_by_updates(S.thetas, S.lam) @ A - eye) * S.pairs, axis=(1, 2))
        return err - tol, [f"max |A_inv A - I| = {e:.3e}" for e in err]

    return _run("sherman_morrison", trials, seed, evaluate)


def check_quadratic_bound(trials=1000, seed=0):
    """theta_i^T A_{-i}^-1 theta_i <= theta_i^T theta_i / lam for every learner."""
    tol = 1e-10

    def evaluate(insts, S, extras, k0):
        T = S.thetas.transpose(1, 0, 2)  # (N, K, D): learner i across the stack
        A_inv = _inverse_by_updates(_leave_one_out(S.thetas), S.lam)
        gap = np.sum(T * _mv(A_inv, T), -1) - np.sum(T * T, -1) / S.lam - tol
        return np.max(np.where(S.learners.T, gap, -np.inf), axis=0), "quadratic bound violated"

    return _run("quadratic_bound", trials, seed, evaluate)


def check_first_bound(trials=1000, seed=0):
    """Risk of learner i against the jointly optimal manipulation, bounded
    through the leave-one-out response matrix B_-i A_-i^-1.

    Two relations are asserted for every learner on every instance:

      (a) the rank-one reduction identity
          X* theta_i = B_n A_-i^-1 theta_i / (1 + theta_i^T A_-i^-1 theta_i)
      (b) the completed relaxation
          loss(X* theta_i, y) <= ( sqrt(loss(B_-i A_-i^-1 theta_i, y))
                                   + ||z - y|| (theta_i^T theta_i) / lam )^2

    Expanding the square in (b) gives the leave-one-out risk plus the
    quartic slack (1/lam^2)||z-y||^2 (theta_i^T theta_i)^2 plus a
    cross term.  The additive variant that simply omits the cross term is
    NOT an invariant - the cross term has no controlled sign, and for
    small theta_i the (1 + theta_i^T A_-i^-1 theta_i)^2 denominator is
    too close to 1 to absorb it (about 15% of envelope instances violate
    the additive variant).  Its violations are tallied in the report
    notes as diagnostics; failures count only breaches of (a) or (b)."""
    tol = 1e-9
    additive_hits, additive_worst = 0, 0.0

    def evaluate(insts, S, extras, k0):
        nonlocal additive_hits, additive_worst
        X_star = _pad([attacker_best_response(inst["thetas"], inst["X"], _params(inst))
                       for inst in insts])
        T = S.thetas.transpose(1, 0, 2)  # (N, K, D): learner i across the stack
        others = _leave_one_out(S.thetas)
        A_inv_minus = _inverse_by_updates(others, S.lam)
        lam = S.lam[:, None, None]
        B_full = lam * S.X + S.z[:, :, None] * S.thetas.sum(axis=1)[:, None, :]
        B_minus = lam * S.X + S.z[:, :, None] * others.sum(axis=2)[:, :, None, :]
        shift = np.sqrt(np.sum((S.z - S.y) ** 2, -1))
        w = _mv(A_inv_minus, T)
        attacked = _mv(X_star, T)
        reduced = _mv(B_full, w) / (1.0 + np.sum(T * w, -1))[..., None]
        lhs = np.sum((attacked - S.y) ** 2, axis=-1)
        loo = np.sum((_mv(B_minus, w) - S.y) ** 2, axis=-1)
        tsq = np.sum(T * T, -1)
        rhs = (np.sqrt(loo) + shift * tsq / S.lam) ** 2
        worst = np.maximum(np.max(np.abs(attacked - reduced), axis=-1), lhs - rhs) - tol
        excess = np.where(S.learners.T, lhs - (loo + shift**2 / S.lam**2 * tsq**2), 0.0)
        additive_hits += int(np.count_nonzero(np.any(excess > tol, axis=0)))
        additive_worst = max(additive_worst, float(np.max(np.where(excess > tol, excess, 0.0))))
        return (np.max(np.where(S.learners.T, worst, -np.inf), axis=0),
                "leave-one-out risk bound violated")

    report = _run("first_bound", trials, seed, evaluate)
    report.notes = (
        "asserted: reduction identity and completed (cross-term aware) bound; "
        f"additive variant without the cross term exceeded on {additive_hits}/{trials} "
        f"trials (worst gap {additive_worst:.3e}) and is reported only as a diagnostic"
    )
    return report


def _weighted_jacobian(S, weights):
    """Stack (K, N*D, N*D) of block matrices of weighted second derivatives
    of the surrogate costs; zero on padded coordinates, whose weights are 0."""
    T = S.thetas
    K, N, D = T.shape
    eye = S.pairs * np.eye(D)
    c2 = (2.0 * S.beta * np.sum((S.z - S.y) ** 2, -1) / S.lam**2)[:, None, None, None, None]
    # block (i, j != i): c2 (theta_i^T theta_j I + theta_j theta_i^T)
    J = c2 * (np.einsum("kij,kab->kijab", T @ T.transpose(0, 2, 1), eye)
              + np.einsum("kja,kib->kijab", T, T))
    others = _leave_one_out(T)
    cross = np.einsum("ikja,ikjb->kiab", others, others)
    own = T[:, :, :, None] * T[:, :, None, :]
    XtX = (S.X.transpose(0, 2, 1) @ S.X)[:, None]
    sq = 2.0 * np.sum(T * T, -1)[..., None, None] * eye[:, None]
    J[:, np.arange(N), np.arange(N)] = 2.0 * XtX + c2[:, 0] * (4.0 * own + sq + cross)
    return (weights[:, :, None, None, None] * J).transpose(0, 1, 3, 2, 4).reshape(K, N * D, N * D)


def check_rosen_pd(trials=1000, seed=0, config=None):
    """The symmetrized weighted Jacobian is positive definite on random profiles."""

    def extra(inst, rng):
        if config is not None and inst["thetas"].shape[0] != config.weights.size:
            inst["thetas"] = rng.uniform(-1.0, 1.0, (config.weights.size, inst["X"].shape[1]))

    def evaluate(insts, S, extras, k0):
        K = len(insts)
        n = S.learners.sum(axis=1, keepdims=True)
        J = _weighted_jacobian(S, S.learners * (1.0 / n if config is None else config.weights))
        sym = 0.5 * (J + J.transpose(0, 2, 1))  # exactly symmetric
        real = (S.learners[:, :, None] & S.feats[:, None, :]).reshape(K, -1)
        threshold = PIVOT_RTOL * np.max(np.diagonal(sym, 0, 1, 2), axis=1)
        sym += ~real[:, :, None] * np.eye(real.shape[1])  # the identity on padded coordinates
        try:
            pivots = np.where(real, np.diagonal(np.linalg.cholesky(sym), 0, 1, 2) ** 2, np.inf)
            viol, ok = -np.min(pivots, axis=1), np.all(pivots > threshold[:, None], axis=1)
        except np.linalg.LinAlgError:  # one refusal refuses the whole stack
            viol, ok = np.zeros(K), np.zeros(K, dtype=bool)
        details = [""] * K
        for k in np.flatnonzero(~ok):  # refused: decided one matrix at a time
            sub = sym[k][np.ix_(real[k], real[k])]
            try:
                viol[k] = -float(np.min(np.diag(_cholesky(sub)) ** 2))
            except NotPositiveDefinite:
                # refused by the pivot test, so a failure even where rounding leaves vals[-1] >= 0
                viol[k] = max(-float(sym_eig(sub)[0][-1]), np.finfo(float).tiny)
                details[k] = "weighted Jacobian not positive definite"
        return viol, details

    return _run("rosen_pd", trials, seed, evaluate, n_min=2, full_rank=True, extra=extra)


def check_equilibrium_fixed_point(trials=1000, seed=0, directions=200):
    """Variational-inequality optimality of the computed symmetric equilibrium:
    (eta - theta*)^T F(theta*) >= -1e-8 for sampled feasible eta."""
    tol = 1e-8

    def extra(inst, rng):
        return rng.normal(size=(directions, inst["X"].shape[1])), rng.uniform(0.0, 1.0, directions)

    def evaluate(insts, S, extras, k0):
        games = [(inst["X"], inst["y"], _params(inst)) for inst in insts]
        by_d = {}  # instance indices per feature count, each count one stacked spectrum
        for k, (X, _, _) in enumerate(games):
            by_d.setdefault(X.shape[1], []).append(k)
        sols, R = [None] * len(games), np.empty(len(games))
        for ks in by_d.values():
            group = [games[k] for k in ks]
            lam, V, c = _spectrum(np.array([X.T @ X for X, _, _ in group]),
                                  np.array([X.T @ y for X, y, _ in group]))
            lsq = _solve_spectrum(lam, V, c, np.zeros(1))[:, 0]  # default_radius's fits
            for k, sol, theta_ls in zip(ks, _from_spectra(group, lam, V, c), lsq):
                sols[k], R[k] = sol, _radius(theta_ls)
        dirs = _pad([e[0] for e in extras])
        radii = R[:, None] * np.array([e[1] for e in extras]) ** (1.0 / S.feats.sum(1)[:, None])
        theta, grad = _pad([s.theta_star for s in sols]), _pad([s.gradient for s in sols])
        # (eta - theta*)^T grad with eta = radius * dir / ||dir||, without an eta array
        values = radii * _mv(dirs, grad) / np.sqrt(np.einsum("kja,kja->kj", dirs, dirs))
        values -= np.sum(theta * grad, -1)[:, None]
        return -np.min(values, axis=1) - tol, "variational inequality violated"

    return _run("equilibrium_fixed_point", trials, seed, evaluate, full_rank=True, extra=extra)


def robust_disturbance(theta, X, y, c):
    """The rank-one worst-case disturbance: column i is -sqrt(c) theta_i u,
    with u the unit residual direction (e_1 when the residual is zero)."""
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    r = y - X @ theta
    nrm = float(np.sqrt(r @ r))
    if nrm == 0.0:
        u = np.zeros(X.shape[0])
        u[0] = 1.0
    else:
        u = r / nrm
    return -np.sqrt(c) * np.outer(u, theta)


def robust_inner_max(theta, X, y, c, samples=1000, seed=0):
    """Worst-case squared residual over correlated column disturbances.

    Maximizes ||y - (X + Delta) theta||^2 over Delta with Gram matrix
    G = Delta^T Delta entrywise bounded by |G_ij| <= c |theta_i theta_j|.
    Returns (closed_form, sampled): the analytic maximum
    (||y - X theta|| + sqrt(c) * theta^T theta)^2 and the empirical maximum
    over `samples` random feasible disturbances (sample 0 is always the
    analytic maximizer, so sampled tracks closed_form from below).
    """
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    r = y - X @ theta
    rnorm = float(np.sqrt(r @ r))
    closed = (rnorm + np.sqrt(c) * sq_norm(theta)) ** 2

    delta_star = robust_disturbance(theta, X, y, c)
    best = sq_norm(y - (X + delta_star) @ theta)

    rng = np.random.default_rng(seed)
    m, d = X.shape
    k = max(0, samples - 1)
    if k:
        dirs = rng.normal(size=(k, m))
        dirs /= np.sqrt(np.sum(dirs**2, axis=1))[:, None]
        scales = rng.uniform(0.0, 1.0, (k, d))
        signs = rng.integers(0, 2, (k, d)) * 2.0 - 1.0
        W = signs * scales * np.sqrt(c) * theta  # rows: rank-one weight vectors
        alpha = W @ theta
        vals = sq_norm(r) * np.ones(k) - 2.0 * alpha * (dirs @ r) + alpha**2
        best = max(best, float(np.max(vals)))
    return closed, best


def check_robust_correspondence(trials=1000, seed=0, samples=1000):
    """Closed-form inner maximum: attained by the explicit disturbance,
    never exceeded by feasible samples, and an upper bound for the
    equilibrium objective's robust-regularization form."""
    tol = 1e-8

    def evaluate(insts, S, extras, k0):
        theta = S.thetas[:, 0]
        c = S.beta * (S.learners.sum(axis=1) + 1) * np.sum((S.z - S.y) ** 2, -1) / (2.0 * S.lam**2)
        args = [(inst["thetas"][0], inst["X"], inst["y"], c[k]) for k, inst in enumerate(insts)]
        closed, sampled = np.array([robust_inner_max(*a, samples=samples, seed=seed + 7919 * k)
                                    for k, a in enumerate(args, k0 + 1)]).T
        delta_star = _pad([robust_disturbance(*a) for a in args])
        G = delta_star.transpose(0, 2, 1) @ delta_star
        excess = np.abs(G) - c[:, None, None] * np.abs(theta[:, :, None] * theta[:, None, :])
        feas_gap = np.max(np.where(S.pairs, excess, -np.inf), axis=(1, 2))
        attained = np.sum((S.y - _mv(S.X + delta_star, theta)) ** 2, axis=1)
        fval = np.sum((S.y - _mv(S.X, theta)) ** 2, axis=1) + c * np.sum(theta**2, -1) ** 2
        worst = np.max([sampled - closed, feas_gap, np.abs(attained - closed), fval - closed],
                       axis=0)
        return worst - tol, "robust inner-max correspondence violated"

    return _run("robust_correspondence", trials, seed, evaluate)


# a non-finite cost gap is recorded as the largest finite float: it ranks
# above every finite gap and the report stays valid JSON
NON_FINITE_GAP = float(np.finfo(float).max)


def _theorem2_costs(inst, P):
    """Realized cost (`game.learner_cost` against the best response X' = B A^-1)
    and `game.approx_cost` of every learner on each profile of P (samples, n, d)."""
    X, y, z, lam, beta = inst["X"], inst["y"], inst["z"], inst["lam"], inst["beta"]
    Pt = P.transpose(0, 2, 1)
    A = lam * np.eye(X.shape[1]) + Pt @ P
    B = lam * X + z[:, None] * P.sum(axis=1)[:, None, :]
    attacked = np.sum((B @ np.linalg.solve(A, Pt) - y[:, None]) ** 2, axis=1)
    clean = np.sum((X @ Pt - y[:, None]) ** 2, axis=1)
    quartic = beta / lam**2 * sq_norm(z - y) * np.sum((P @ Pt) ** 2, axis=1)
    return beta * attacked + (1.0 - beta) * clean, clean + quartic


def check_theorem2_bound(trials=1000, seed=0, samples=100):
    """Empirical boundedness of realized-minus-surrogate cost gaps.

    For each instance family (fixed X, y, z, lam, beta, n) the gap
    c_i - [clean risk + quartic interaction term] is evaluated on random
    profiles; a trial fails only on a non-finite gap, and the report's worst
    violation is the largest gap seen. A non-finite gap counts as
    NON_FINITE_GAP, and its sample names the learner's two cost terms. The
    additive slack in the underlying bound is non-constructive, so no
    numeric threshold is asserted.
    """
    largest_gap = -np.inf

    def extra(inst, rng):
        return rng.uniform(-1.0, 1.0, (samples, *inst["thetas"].shape))

    def evaluate(insts, S, extras, k0):
        nonlocal largest_gap
        viol, details = np.full(len(insts), -np.inf), [""] * len(insts)
        for k, (inst, P) in enumerate(zip(insts, extras)):
            realized, surrogate = _theorem2_costs(inst, P)
            gap = realized - surrogate
            bad = np.argwhere(~np.isfinite(gap))  # the first in sample, then learner, order
            if not bad.size:
                largest_gap = max(largest_gap, float(np.max(gap, initial=-np.inf)))
                continue
            (s, i), largest_gap = bad[0], NON_FINITE_GAP
            viol[k], details[k] = NON_FINITE_GAP, (
                f"non-finite cost gap of learner {i}: realized {float(realized[s, i])!r}, "
                f"surrogate {float(surrogate[s, i])!r}")
        return viol, details

    report = _run("theorem2_bound", trials, seed, evaluate, extra=extra)
    report.worst_violation = largest_gap
    report.notes = (
        "records the largest realized-minus-surrogate gap; the bound's "
        "additive constant is non-constructive, so only finiteness is asserted"
    )
    return report


ALL_CHECKS = {
    "sherman_morrison": check_sherman_morrison,
    "quadratic_bound": check_quadratic_bound,
    "first_bound": check_first_bound,
    "rosen_pd": check_rosen_pd,
    "equilibrium_fixed_point": check_equilibrium_fixed_point,
    "robust_correspondence": check_robust_correspondence,
    "theorem2_bound": check_theorem2_bound,
}

# the six inequality/identity certificates; the gap check is reported
# separately because it asserts only finiteness
CORE_CHECKS = tuple(name for name in ALL_CHECKS if name != "theorem2_bound")


def run_checks(names=None, trials=1000, seed=0):
    """Run the named checks (all by default) and return their reports. An
    unknown name raises KeyError before any check runs."""
    names = list(ALL_CHECKS) if names is None else list(names)
    unknown = [name for name in names if name not in ALL_CHECKS]
    if unknown:
        raise KeyError(f"unknown check {unknown[0]!r}; have {sorted(ALL_CHECKS)}")
    return [ALL_CHECKS[name](trials=trials, seed=seed) for name in names]
