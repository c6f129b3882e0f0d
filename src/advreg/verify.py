"""Randomized numerical certificates for the identities the solvers rely on.

Each check draws instances from a small envelope (m <= 6 rows, d <= 4
features, n <= 4 learners, entries uniform in [-1, 1], lam in [0.5, 2],
beta in [0, 1]) and evaluates one inequality or identity per instance with
an independent construction. One driver applies the rules every check
shares and builds its CheckReport: `trials` must be at least 1 (ValueError
otherwise), a positive violation is a failure (negative = passed with that
margin), worst_violation is the largest one seen, and at most five failing
instances are kept, serialized for reproduction.

The checks certify, respectively: the incremental rank-one inversion of
the attacker's system matrix; the quadratic-form bound theta^T A^-1 theta
<= theta^T theta / lam; the single-learner risk bound that motivates the
surrogate cost; positive definiteness of the weighted game Jacobian (the
uniqueness certificate); the variational-inequality optimality of the
computed symmetric equilibrium; the closed form of the worst-case
correlated-disturbance risk; and empirical boundedness of the gap between
realized and surrogate costs (whose additive constant is non-constructive,
so only boundedness is recorded, never a specific value).
"""

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import (
    default_radius,
    equilibrium_gradient,
    solve_equilibrium,
)
from .exceptions import DimensionMismatch
from .game import (
    GameParams,
    attacker_best_response,
    approx_cost,
    learner_cost,
    sq_norm,
)
from .linalg import _cholesky, pd_check, rank_one_inverse_update, sym_eig

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
        return {
            "check_name": self.check_name,
            "trials": self.trials,
            "failures": self.failures,
            "worst_violation": self.worst_violation,
            "sample_of_failures": self.sample_of_failures,
            "notes": self.notes,
        }


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
    if full_rank:
        for _ in range(100):
            vals, _ = sym_eig(X.T @ X)
            if vals[-1] >= 1e-3:
                break
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


def _run(name, trials, seed, trial, n_min=1, full_rank=False):
    """Draw `trials` instances and tally trial(inst, rng, k) -> (violation, detail),
    keeping the first five failing instances."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    failures, worst, samples = 0, -np.inf, []
    for k in range(trials):
        inst = _draw_instance(rng, n_min=n_min, full_rank=full_rank)
        viol, detail = trial(inst, rng, k)
        worst = max(worst, viol)
        if viol > 0:
            failures += 1
            if len(samples) < 5:
                instance = {key: val.tolist() if isinstance(val, np.ndarray) else val
                            for key, val in inst.items()}
                samples.append({"instance": instance, "violation": float(viol), "detail": detail})
    return CheckReport(name, trials, failures, worst, samples)


def _params(inst):
    return GameParams(
        n=inst["thetas"].shape[0],
        beta=inst["beta"],
        lam=inst["lam"],
        z=inst["z"],
    )


def _inverse_by_updates(thetas, lam):
    A_inv = np.eye(thetas.shape[1]) / lam
    for t in thetas:
        A_inv = rank_one_inverse_update(A_inv, t)
    return A_inv


def _leave_one_out(T, lam):
    """Yield (i, the other rows, their inverse (lam I + sum theta theta^T)^-1 by updates)."""
    for i in range(T.shape[0]):
        others = np.delete(T, i, axis=0)
        yield i, others, _inverse_by_updates(others, lam)


def check_sherman_morrison(trials=1000, seed=0):
    """Incremental inverse of lam*I + sum theta theta^T matches the direct matrix."""
    tol = 1e-8

    def trial(inst, rng, k):
        T, lam = inst["thetas"], inst["lam"]
        A = lam * np.eye(T.shape[1]) + T.T @ T
        A_inv = _inverse_by_updates(T, lam)
        err = float(np.max(np.abs(A_inv @ A - np.eye(T.shape[1]))))
        return err - tol, f"max |A_inv A - I| = {err:.3e}"

    return _run("sherman_morrison", trials, seed, trial)


def check_quadratic_bound(trials=1000, seed=0):
    """theta_i^T A_{-i}^-1 theta_i <= theta_i^T theta_i / lam for every learner."""
    tol = 1e-10

    def trial(inst, rng, k):
        T, lam = inst["thetas"], inst["lam"]
        trial_worst = -np.inf
        for i, _, A_inv in _leave_one_out(T, lam):
            lhs = float(T[i] @ (A_inv @ T[i]))
            rhs = sq_norm(T[i]) / lam
            trial_worst = max(trial_worst, lhs - rhs - tol)
        return trial_worst, "quadratic bound violated"

    return _run("quadratic_bound", trials, seed, trial)


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

    def trial(inst, rng, k):
        nonlocal additive_hits, additive_worst
        T, X, y, z, lam = inst["thetas"], inst["X"], inst["y"], inst["z"], inst["lam"]
        X_star = attacker_best_response(T, X, _params(inst))
        B_full = lam * X + np.outer(z, T.sum(axis=0))
        shift = np.linalg.norm(z - y)
        quart = shift**2 / lam**2
        trial_worst = -np.inf
        additive_bad = False
        for i, others, A_inv_minus in _leave_one_out(T, lam):
            B_minus = lam * X + np.outer(z, others.sum(axis=0))
            s = float(T[i] @ A_inv_minus @ T[i])
            reduced = (B_full @ (A_inv_minus @ T[i])) / (1.0 + s)
            ident_gap = float(np.max(np.abs(X_star @ T[i] - reduced)))
            lhs = sq_norm(X_star @ T[i] - y)
            loo = sq_norm((B_minus @ A_inv_minus) @ T[i] - y)
            rhs = (np.sqrt(loo) + shift * sq_norm(T[i]) / lam) ** 2
            trial_worst = max(trial_worst, ident_gap - tol, lhs - rhs - tol)
            additive = loo + quart * sq_norm(T[i]) ** 2
            if lhs - additive > tol:
                additive_bad = True
                additive_worst = max(additive_worst, lhs - additive)
        if additive_bad:
            additive_hits += 1
        return trial_worst, "leave-one-out risk bound violated"

    report = _run("first_bound", trials, seed, trial)
    report.notes = (
        "asserted: reduction identity and completed (cross-term aware) bound; "
        f"additive variant without the cross term exceeded on {additive_hits}/{trials} "
        f"trials (worst gap {additive_worst:.3e}) and is reported only as a diagnostic"
    )
    return report


def _weighted_jacobian(inst, weights):
    """Block matrix of weighted second derivatives of the surrogate costs."""
    T, X, y, z, lam, beta = (
        inst["thetas"], inst["X"], inst["y"], inst["z"], inst["lam"], inst["beta"],
    )
    n, d = T.shape
    XtX = X.T @ X
    c2 = 2.0 * beta * sq_norm(z - y) / lam**2
    J = np.zeros((n * d, n * d))
    eye = np.eye(d)
    for i in range(n):
        cross = sum(np.outer(T[j], T[j]) for j in range(n) if j != i)
        cross = cross if isinstance(cross, np.ndarray) else np.zeros((d, d))
        diag = 2.0 * XtX + c2 * (
            4.0 * np.outer(T[i], T[i]) + 2.0 * sq_norm(T[i]) * eye + cross
        )
        J[i * d : (i + 1) * d, i * d : (i + 1) * d] = weights[i] * diag
        for j in range(n):
            if j == i:
                continue
            block = c2 * (float(T[i] @ T[j]) * eye + np.outer(T[j], T[i]))
            J[i * d : (i + 1) * d, j * d : (j + 1) * d] = weights[i] * block
    return J


def check_rosen_pd(trials=1000, seed=0, config=None):
    """The symmetrized weighted Jacobian is positive definite on random profiles."""

    def trial(inst, rng, k):
        if config is not None:
            weights = config.weights
            n, d = weights.size, inst["thetas"].shape[1]
            if inst["thetas"].shape[0] != n:
                inst["thetas"] = rng.uniform(-1.0, 1.0, (n, d))
        else:
            n = inst["thetas"].shape[0]
            weights = np.full(n, 1.0 / n)
        J = _weighted_jacobian(inst, weights)
        sym = 0.5 * (J + J.T)
        if pd_check(sym):
            pivots = np.diag(_cholesky(sym)) ** 2
            return -float(np.min(pivots)), ""
        vals, _ = sym_eig(sym)
        # refused by pd_check, so a failure even where rounding leaves vals[-1] >= 0
        return max(-float(vals[-1]), np.finfo(float).tiny), "weighted Jacobian not positive definite"

    return _run("rosen_pd", trials, seed, trial, n_min=2, full_rank=True)


def check_equilibrium_fixed_point(trials=1000, seed=0, directions=200):
    """Variational-inequality optimality of the computed symmetric equilibrium:
    (eta - theta*)^T F(theta*) >= -1e-8 for sampled feasible eta."""
    tol = 1e-8

    def trial(inst, rng, k):
        X, y = inst["X"], inst["y"]
        params = _params(inst)
        sol = solve_equilibrium(X, y, params)
        grad = equilibrium_gradient(sol.theta_star, X, y, params)
        R = default_radius(X, y)
        d = X.shape[1]
        dirs = rng.normal(size=(directions, d))
        dirs /= np.sqrt(np.sum(dirs**2, axis=1))[:, None]
        radii = R * rng.uniform(0.0, 1.0, directions) ** (1.0 / d)
        etas = dirs * radii[:, None]
        values = (etas - sol.theta_star) @ grad
        return -float(np.min(values)) - tol, "variational inequality violated"

    return _run("equilibrium_fixed_point", trials, seed, trial, full_rank=True)


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

    def trial(inst, rng, k):
        X, y, z, lam, beta = inst["X"], inst["y"], inst["z"], inst["lam"], inst["beta"]
        n = inst["thetas"].shape[0]
        theta = inst["thetas"][0]
        c = beta * (n + 1) * sq_norm(z - y) / (2.0 * lam**2)
        closed, sampled = robust_inner_max(
            theta, X, y, c, samples=samples, seed=seed + 7919 * (k + 1)
        )
        delta_star = robust_disturbance(theta, X, y, c)
        G = delta_star.T @ delta_star
        feas_gap = float(np.max(np.abs(G) - c * np.abs(np.outer(theta, theta)))) if theta.size else 0.0
        attained = sq_norm(y - (X + delta_star) @ theta)
        fval = sq_norm(y - X @ theta) + c * sq_norm(theta) ** 2
        return max(
            sampled - closed - tol,
            feas_gap - tol,
            abs(attained - closed) - tol,
            fval - closed - tol,
        ), "robust inner-max correspondence violated"

    return _run("robust_correspondence", trials, seed, trial)


def check_theorem2_bound(trials=1000, seed=0, samples=100):
    """Empirical boundedness of realized-minus-surrogate cost gaps.

    For each instance family (fixed X, y, z, lam, beta, n) the gap
    c_i - [clean risk + quartic interaction term] is evaluated on random
    profiles; a trial fails only on a non-finite gap, and the report's worst
    violation is the largest gap seen. The additive slack in the underlying
    bound is non-constructive, so no numeric threshold is asserted.
    """
    largest_gap = -np.inf

    def trial(inst, rng, k):
        nonlocal largest_gap
        X, y = inst["X"], inst["y"]
        n, d = inst["thetas"].shape
        params = _params(inst)
        for _s in range(samples):
            T = rng.uniform(-1.0, 1.0, (n, d))
            X_star = attacker_best_response(T, X, params)
            for i in range(n):
                realized = learner_cost(T[i], X, X_star, y, params)
                surrogate = approx_cost(i, T, X, y, params)
                gap = realized - surrogate
                if not np.isfinite(gap):
                    return np.inf, "non-finite cost gap"
                largest_gap = max(largest_gap, gap)
        return -np.inf, ""

    report = _run("theorem2_bound", trials, seed, trial)
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
CORE_CHECKS = (
    "sherman_morrison",
    "quadratic_bound",
    "first_bound",
    "rosen_pd",
    "equilibrium_fixed_point",
    "robust_correspondence",
)


def run_checks(names=None, trials=1000, seed=0):
    """Run the named checks (all by default) and return their reports."""
    if names is None:
        names = list(ALL_CHECKS)
    reports = []
    for name in names:
        if name not in ALL_CHECKS:
            raise KeyError(f"unknown check {name!r}; have {sorted(ALL_CHECKS)}")
        reports.append(ALL_CHECKS[name](trials=trials, seed=seed))
    return reports
