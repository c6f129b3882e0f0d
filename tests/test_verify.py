"""The randomized certificate suite must be clean at its stated tolerances,
and the one bound whose naive additive form is NOT an invariant must keep
reporting that fact as a diagnostic instead of asserting it.

The frozen counterexample in test_first_bound_additive_form_is_not_an_invariant
documents why: with u = X theta - y nearly parallel to z - y and a small
coefficient vector, the cross term the additive form omits outweighs its
quartic slack.
"""

import numpy as np
import pytest

from advreg.game import GameParams, attacker_best_response, sq_norm
from advreg.verify import (
    ALL_CHECKS,
    CORE_CHECKS,
    CheckReport,
    RosenConfig,
    check_equilibrium_fixed_point,
    check_first_bound,
    check_quadratic_bound,
    check_robust_correspondence,
    check_rosen_pd,
    check_sherman_morrison,
    check_theorem2_bound,
    robust_disturbance,
    robust_inner_max,
    run_checks,
)

TRIALS = 120  # fast unit-test budget; the acceptance suite runs 1000


def test_sherman_morrison_clean():
    r = check_sherman_morrison(trials=TRIALS, seed=0)
    assert r.failures == 0
    assert r.worst_violation <= 0


def test_quadratic_bound_clean():
    r = check_quadratic_bound(trials=TRIALS, seed=0)
    assert r.failures == 0


def test_first_bound_clean_with_diagnostic_notes():
    r = check_first_bound(trials=500, seed=0)
    assert r.failures == 0
    # the additive variant must fail on a visible fraction of instances and
    # be reported as a diagnostic, not silently dropped or asserted
    assert "additive variant" in r.notes
    count = int(r.notes.split("exceeded on ")[1].split("/")[0])
    assert count > 0


def test_first_bound_additive_form_is_not_an_invariant():
    # frozen counterexample: n=1, lam=1, X=[[59/60]], y=[1/4], z=[3/4],
    # theta=[3/10]; every entry inside the sampling envelope
    lam = 1.0
    X = np.array([[0.59 / 0.6]])
    y = np.array([0.25])
    z = np.array([0.75])
    theta = np.array([[0.3]])
    p = GameParams(n=1, beta=1.0, lam=lam, z=z)
    X_star = attacker_best_response(theta, X, p)
    lhs = sq_norm(X_star @ theta[0] - y)

    # with no other learners the leave-one-out response is X itself
    loo = sq_norm(X @ theta[0] - y)
    t = sq_norm(theta[0]) / lam
    additive = loo + sq_norm(z - y) * t**2
    completed = (np.sqrt(loo) + np.linalg.norm(z - y) * t) ** 2

    assert lhs > additive + 1e-4       # the additive bound genuinely fails
    assert lhs <= completed + 1e-12    # the cross-term-aware bound holds


def test_first_bound_holds_with_zero_coefficients():
    # theta_i = 0: both sides collapse to ||y||^2, slack vanishes
    lam = 1.3
    X = np.array([[0.2], [-0.4]])
    y = np.array([0.3, -0.1])
    z = np.array([0.9, 0.2])
    theta = np.zeros((1, 1))
    p = GameParams(n=1, beta=1.0, lam=lam, z=z)
    X_star = attacker_best_response(theta, X, p)
    assert sq_norm(X_star @ theta[0] - y) == pytest.approx(sq_norm(y), rel=1e-12)


def test_rosen_pd_clean():
    r = check_rosen_pd(trials=TRIALS, seed=0)
    assert r.failures == 0
    assert r.worst_violation < 0  # strictly positive definite throughout


def test_rosen_pd_accepts_custom_weights():
    cfg = RosenConfig(weights=[0.2, 0.3, 0.5])
    r = check_rosen_pd(trials=40, seed=1, config=cfg)
    assert r.failures == 0


def test_rosen_config_validation():
    with pytest.raises(ValueError):
        RosenConfig(weights=[0.5, 0.6])  # does not sum to 1
    with pytest.raises(ValueError):
        RosenConfig(weights=[1.5, -0.5])


def test_equilibrium_fixed_point_clean():
    r = check_equilibrium_fixed_point(trials=80, seed=0, directions=60)
    assert r.failures == 0


def test_robust_inner_max_c_zero():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    th = rng.normal(size=2)
    closed, sampled = robust_inner_max(th, X, y, c=0.0, samples=50)
    assert closed == pytest.approx(sq_norm(y - X @ th), rel=1e-12)
    assert sampled == pytest.approx(closed, rel=1e-12)


def test_robust_inner_max_zero_coefficients():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 2))
    y = rng.normal(size=4)
    closed, sampled = robust_inner_max(np.zeros(2), X, y, c=2.0, samples=50)
    assert closed == pytest.approx(sq_norm(y), rel=1e-12)
    assert sampled == pytest.approx(closed, rel=1e-12)


def test_robust_inner_max_scalar_oracle():
    closed, sampled = robust_inner_max(
        np.array([1.0]), np.array([[1.0]]), np.array([2.0]), c=1.0, samples=400
    )
    assert closed == pytest.approx(4.0, abs=1e-12)
    assert sampled <= closed + 1e-12
    assert sampled >= 0.99 * closed  # the analytic maximizer is sample 0


def test_robust_disturbance_feasible_and_tight():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 6))
        X = rng.uniform(-1, 1, (m, d))
        y = rng.uniform(-1, 1, m)
        th = rng.uniform(-1, 1, d)
        c = float(rng.uniform(0, 2))
        D = robust_disturbance(th, X, y, c)
        G = D.T @ D
        bound = c * np.abs(np.outer(th, th))
        assert np.all(np.abs(G) <= bound + 1e-10)  # inside the uncertainty set
        achieved = sq_norm(y - (X + D) @ th)
        closed, _ = robust_inner_max(th, X, y, c, samples=1)
        assert achieved == pytest.approx(closed, rel=1e-10)


def test_robust_correspondence_clean():
    r = check_robust_correspondence(trials=TRIALS, seed=0, samples=120)
    assert r.failures == 0


def test_theorem2_gap_bounded():
    r = check_theorem2_bound(trials=30, seed=0, samples=60)
    assert r.failures == 0
    assert np.isfinite(r.worst_violation)


def test_run_checks_default_covers_everything():
    reports = run_checks(trials=2, seed=0)
    assert [r.check_name for r in reports] == list(ALL_CHECKS)
    assert set(CORE_CHECKS) <= set(ALL_CHECKS)
    assert "theorem2_bound" not in CORE_CHECKS


def test_run_checks_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_checks(["sherman_morrison", "does_not_exist"], trials=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_run_checks_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError):
        run_checks(["sherman_morrison"], trials=trials)


def test_check_report_shape():
    r = check_sherman_morrison(trials=5, seed=3)
    d = r.as_dict()
    assert set(d) == {
        "check_name", "trials", "failures", "worst_violation",
        "sample_of_failures", "notes",
    }
    assert r.failures <= r.trials
    assert isinstance(r.passed, bool)
    assert len(r.sample_of_failures) <= 5
