"""The randomized certificate suite must be clean at its stated tolerances,
and the one bound whose naive additive form is NOT an invariant must keep
reporting that fact as a diagnostic instead of asserting it.

The frozen counterexample in test_first_bound_additive_form_is_not_an_invariant
documents why: with u = X theta - y nearly parallel to z - y and a small
coefficient vector, the cross term the additive form omits outweighs its
quartic slack.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import advreg.verify as verify_mod
from advreg.game import GameParams, approx_cost, attacker_best_response, learner_cost, sq_norm
from advreg.serialize import to_json
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

# reports of every check recorded at 496799d, the last commit that evaluated
# the checks one trial at a time, at the (trials, seed) pairs of this file,
# demo 05 (300, 0), criterion 1 (1000, 0) and the benchmark's certify rounds
# (50 trials at seeds (2 << 32) | r for r < 4, and its warm-up seed 3 << 32)
PINNED = json.loads((Path(__file__).parent / "verify_reports.json").read_text(encoding="utf-8"))


def _case_id(case):
    return "-".join([case["check"], str(case["trials"]), str(case["seed"]), *case["kwargs"]])


@pytest.mark.parametrize("case", PINNED["cases"], ids=_case_id)
def test_reports_match_the_recorded_ones(case):
    kwargs = dict(case["kwargs"])
    if "weights" in kwargs:
        kwargs = {"config": RosenConfig(weights=kwargs["weights"])}
    got = json.loads(to_json(
        ALL_CHECKS[case["check"]](trials=case["trials"], seed=case["seed"], **kwargs).as_dict()))
    want = case["report"]
    assert (got["failures"], got["notes"]) == (want["failures"], want["notes"])
    assert got["sample_of_failures"] == want["sample_of_failures"]
    assert abs(got["worst_violation"] - want["worst_violation"]) <= (
        1e-12 * max(1.0, abs(want["worst_violation"])))


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


def test_rosen_pd_fails_a_jacobian_that_pd_check_refuses(monkeypatch):
    # a zero Jacobian has smallest eigenvalue 0, not below it: the refusal
    # alone must still count as a failure with a positive violation
    exact = verify_mod._weighted_jacobian
    monkeypatch.setattr(verify_mod, "_weighted_jacobian",
                        lambda stack, weights: 0.0 * exact(stack, weights))
    r = check_rosen_pd(trials=3, seed=0)
    assert r.failures == 3 and r.worst_violation > 0


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


def test_theorem2_stacked_gaps_equal_the_game_costs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        inst = verify_mod._draw_instance(rng)
        P = rng.uniform(-1.0, 1.0, (7, *inst["thetas"].shape))
        realized, surrogate = verify_mod._theorem2_costs(inst, P)
        params = verify_mod._params(inst)
        for s, T in enumerate(P):
            X_star = attacker_best_response(T, inst["X"], params)
            for i in range(T.shape[0]):
                want_r = learner_cost(T[i], inst["X"], X_star, inst["y"], params)
                want_s = approx_cost(i, T, inst["X"], inst["y"], params)
                scale = max(abs(want_r), abs(want_s))
                assert abs(realized[s, i] - want_r) <= 1e-12 * scale
                assert abs(surrogate[s, i] - want_s) <= 1e-12 * scale
                assert abs((realized[s, i] - surrogate[s, i]) - (want_r - want_s)) <= 1e-12 * scale


def test_run_checks_default_covers_everything():
    reports = run_checks(trials=2, seed=0)
    assert [r.check_name for r in reports] == list(ALL_CHECKS)
    assert set(CORE_CHECKS) <= set(ALL_CHECKS)
    assert "theorem2_bound" not in CORE_CHECKS


def test_run_checks_rejects_unknown_name(monkeypatch):
    ran = []
    monkeypatch.setitem(ALL_CHECKS, "sherman_morrison", lambda **kw: ran.append(kw))
    with pytest.raises(KeyError):
        run_checks(["sherman_morrison", "does_not_exist"], trials=1)
    assert ran == []  # every name is checked before any check runs


@pytest.mark.parametrize("trials", [0, -3])
def test_run_checks_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError):
        run_checks(["sherman_morrison"], trials=trials)


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
@pytest.mark.parametrize("trials", [0, -3])
def test_every_check_rejects_fewer_than_one_trial(name, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        ALL_CHECKS[name](trials=trials, seed=0)


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_every_check_report_serializes_at_one_trial(name):
    doc = json.loads(to_json(ALL_CHECKS[name](trials=1, seed=0).as_dict()))
    assert (doc["check_name"], doc["trials"], doc["failures"]) == (name, 1, 0)


def test_failing_trials_are_counted_and_the_first_five_kept(monkeypatch):
    # a broken update makes every trial fail; the driver counts each one,
    # keeps the first five instances and reports a positive worst violation
    exact = verify_mod.rank_one_inverse_update
    monkeypatch.setattr(verify_mod, "rank_one_inverse_update",
                        lambda A_inv, v: 2.0 * exact(A_inv, v))
    r = check_sherman_morrison(trials=8, seed=0)
    assert (r.failures, len(r.sample_of_failures)) == (8, 5)
    assert not r.passed and r.worst_violation > 0
    assert max(s["violation"] for s in r.sample_of_failures) <= r.worst_violation
    assert set(r.sample_of_failures[0]["instance"]) == {"X", "y", "z", "lam", "beta", "thetas"}
    json.loads(to_json(r.as_dict()))


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_reports_do_not_depend_on_the_stack_size(name, monkeypatch):
    # a run longer than one stack draws and evaluates its stacks in turn
    whole = ALL_CHECKS[name](trials=40, seed=3).as_dict()
    monkeypatch.setattr(verify_mod, "STACK_TRIALS", 7)
    split = ALL_CHECKS[name](trials=40, seed=3).as_dict()
    assert (split["failures"], split["notes"]) == (whole["failures"], whole["notes"])
    assert split["worst_violation"] == pytest.approx(whole["worst_violation"], rel=1e-12, abs=1e-12)


def test_failing_instances_are_kept_across_stacks(monkeypatch):
    exact = verify_mod.rank_one_inverse_update
    monkeypatch.setattr(verify_mod, "rank_one_inverse_update",
                        lambda A_inv, v: 2.0 * exact(A_inv, v))
    whole = check_sherman_morrison(trials=8, seed=0)
    monkeypatch.setattr(verify_mod, "STACK_TRIALS", 3)
    split = check_sherman_morrison(trials=8, seed=0)
    assert (split.failures, len(split.sample_of_failures)) == (8, 5)
    assert ([f["instance"] for f in split.sample_of_failures]
            == [f["instance"] for f in whole.sample_of_failures])


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
