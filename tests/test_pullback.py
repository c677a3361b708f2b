"""Pullback horizon formula and bounded-solution approximation."""

import numpy as np
import pytest

import levylab as L
from levylab.errors import InputError, ThresholdError


def test_horizon_zero_when_already_converged():
    assert L.pullback_horizon(1.0, 1.0, 0.0, 1e-2) == 0.0


def test_horizon_hand_value():
    # K=1, rate=1, start=1, tol=1e-2: log(5e4)
    assert L.pullback_horizon(1.0, 1.0, 1.0, 1e-2) == pytest.approx(np.log(5e4), rel=1e-12)


def test_horizon_logarithm_law():
    t1 = L.pullback_horizon(1.0, 2.0, 1.0, 1e-2)
    t2 = L.pullback_horizon(1.0, 2.0, 1.0, 5e-3)
    assert t2 - t1 == pytest.approx(2.0 * np.log(2.0) / 2.0, rel=1e-12)


def test_horizon_requires_positive_rate():
    with pytest.raises(ThresholdError):
        L.pullback_horizon(1.0, -0.5, 1.0, 1e-2)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-2])
def test_tolerance_must_be_positive_and_finite(tol):
    # max(0, log(nan)) is 0: a NaN tolerance would run with no burn-in
    m = L.presets.example61_model()
    with pytest.raises(InputError, match="tol"):
        L.pullback_horizon(1.0, 1.0, 1.0, tol)
    with pytest.raises(InputError, match="tol"):
        L.pullback_plan(m, tol)
    with pytest.raises(InputError, match="tol"):
        L.bounded_solution(m, (0.0, 1.0), tol=tol, seed=0)


@pytest.mark.parametrize("start", [np.nan, np.inf])
def test_start_state_must_be_finite(start):
    m = L.presets.example61_model()
    with pytest.raises(InputError, match="start"):
        L.pullback_horizon(1.0, 1.0, start, 1e-2)
    with pytest.raises(InputError, match="start_state"):
        L.pullback_plan(m, 0.02, start_state=[start])
    for run in (lambda: L.bounded_solution(m, (0.0, 1.0), 0.02, 0, start_state=[start]),
                lambda: L.bounded_ensemble(m, (0.0, 1.0), 0.02, 4, 0, [1.0],
                                           start_state=[start], t_pull=1.0)):
        with pytest.raises(InputError, match="start_state"):
            run()


@pytest.mark.parametrize("t_pull", [-1.0, np.nan, np.inf, -np.inf])
def test_t_pull_must_be_finite_and_nonnegative(t_pull):
    # t_pull = -1 used to start after the window and return a path on [1, 2]
    m = L.presets.example61_model()
    for run in (lambda: L.bounded_solution(m, (0.0, 2.0), 0.02, 0, t_pull=t_pull),
                lambda: L.bounded_ensemble(m, (0.0, 2.0), 0.02, 4, 0, [1.0], t_pull=t_pull)):
        with pytest.raises(InputError, match="t_pull"):
            run()


@pytest.mark.parametrize("run, name", [
    (lambda m: L.bounded_solution(m, (1.0, 0.0), 0.02, 0), "window"),
    (lambda m: L.bounded_solution(m, (0.0, np.nan), 0.02, 0), "window"),
    (lambda m: L.bounded_ensemble(m, (1.0, 0.0), 0.02, 4, 0, [0.5]), "window"),
    (lambda m: L.almost_periods([], 0.1, 10.0, 0.1, 5.0), "profile")])
def test_library_calls_name_their_bad_argument(run, name):
    # a reversed window returned an empty path, and no profiles ended in the
    # bare ValueError of max() on an empty sequence
    with pytest.raises(InputError, match=name):
        run(L.presets.example61_model())


@pytest.mark.parametrize("K, rate, name", [(np.nan, 1.0, "K"), (np.inf, 1.0, "K"),
                                           (0.0, 1.0, "K"), (1.0, np.nan, "rate"),
                                           (1.0, np.inf, "rate"), (1.0, -np.inf, "rate")])
def test_horizon_needs_finite_constants(K, rate, name):
    # a NaN K, a NaN rate and an infinite rate returned 0.0 (max(0, nan) is 0,
    # log(.) / inf is 0), an infinite K an infinite horizon, and K = 0 the
    # bare ValueError of log(0)
    with pytest.raises(InputError, match=name):
        L.pullback_horizon(K, rate, 1.0, 1e-2)


def _convolution_oracle(lam, t):
    """integral_{-inf}^t exp(-lam (t-s)) sin(s) ds = (lam sin t - cos t)/(lam^2+1).

    Verified below by differentiation before it is used as the oracle.
    """
    return (lam * np.sin(t) - np.cos(t)) / (lam**2 + 1.0)


def test_oracle_satisfies_the_ode():
    # independent verification: y' = -lam y + sin t, by central differences
    lam, h = 10.0, 1e-6
    t = np.linspace(0.3, 9.7, 37)
    lhs = (_convolution_oracle(lam, t + h) - _convolution_oracle(lam, t - h)) / (2 * h)
    rhs = -lam * _convolution_oracle(lam, t) + np.sin(t)
    assert np.allclose(lhs, rhs, atol=1e-7)


def test_bounded_solution_matches_convolution():
    lam = 10.0
    m = L.presets.forced_linear_model(decay=lam)
    path = L.bounded_solution(m, (0.0, 4 * np.pi), tol=1e-5, seed=1, max_step=1e-3)
    exact = _convolution_oracle(lam, path.times)
    assert np.max(np.abs(path.values[:, 0] - exact)) < 1e-4


def test_zero_coefficients_give_zero_path():
    m = L.presets.linear_decay_model(2.0)
    path = L.bounded_solution(m, (0.0, 3.0), tol=1e-6, seed=0, max_step=0.01)
    assert np.all(path.values == 0.0)


def test_pullback_start_independence():
    # same noise (shared t_pull, seed, step), far-past starts 0 vs r*ones:
    # the mean-square gap over the window is at most tol^2 by the
    # contraction estimate sized for the worse start, plus step slack
    m = L.presets.example61_model(forcing=1.0)
    tol = 0.02
    plan_far = L.pullback_plan(m, tol, start_state=[L.pullback_plan(m, tol).radius])
    obs = np.linspace(0.0, 2.0, 5)
    r0 = L.bounded_ensemble(m, (0.0, 2.0), tol, 200, 8, obs, max_step=0.005,
                            t_pull=plan_far.t_pull)
    r1 = L.bounded_ensemble(m, (0.0, 2.0), tol, 200, 8, obs, max_step=0.005,
                            start_state=[plan_far.radius], t_pull=plan_far.t_pull)
    msq_gap = np.max(np.mean((r0.states - r1.states) ** 2, axis=(1, 2)))
    assert msq_gap < tol**2 * (1.0 + 0.5)   # tol^2 + discretization slack


def test_bounded_solution_requires_stability_margin():
    # Lipschitz constant beyond the stability threshold: no pullback plan
    m = L.presets.example61_model(b=1.0)
    from dataclasses import replace
    bad = replace(m, coefficients=replace(m.coefficients, lipschitz_L=1.5))
    with pytest.raises(ThresholdError):
        L.pullback_plan(bad, 0.01)


def test_forgetting_curve_zero_for_equal_starts():
    m = L.presets.example61_model()
    curve = L.gap_experiment(m, 1.0, 1.0, 2.0, n_paths=32, seed=3, max_step=0.01,
                             n_obs=41)
    assert np.all(curve.gap == 0.0)


def test_forgetting_curve_below_contraction_bound():
    m = L.presets.example61_model(b=1.0)
    curve = L.gap_experiment(m, 1.0, 3.0, 6.0, n_paths=400, seed=5, max_step=0.005,
                             n_obs=41)
    margin = L.stability_margin(1.0, 4.0, 0.25, 1.0)
    bound = 5.0 * curve.gap[0] * np.exp(-margin * curve.times)
    assert np.all(curve.gap <= bound + 3.0 * curve.se)


def test_deterministic_forgetting_exact_rate():
    m = L.presets.linear_decay_model(1.0)
    curve = L.gap_experiment(m, 2.0, 1.0, 4.0, n_paths=8, seed=0, max_step=1e-3,
                             n_obs=41)
    want = curve.gap[0] * np.exp(-2.0 * curve.times)
    assert np.allclose(curve.gap, want, rtol=1e-6)


def test_ensemble_second_moment_stays_in_invariant_ball():
    m = L.presets.example61_model(b=1.0, forcing=1.0)
    plan = L.pullback_plan(m, 0.05)
    obs = np.linspace(0.0, 4.0, 9)
    res = L.bounded_ensemble(m, (0.0, 4.0), 0.05, 400, 7, obs, max_step=0.005)
    msq, se = res.mean_sq_norm()
    assert np.all(msq <= plan.radius**2 + 3.0 * se)


# -- one pullback per cluster of observation times ---------------------------

def test_one_cluster_is_one_run_bit_for_bit():
    # gaps of exactly t_pull do not split: one run from t0 - t_pull to t1
    m = L.presets.example61_model(forcing=1.0)
    t_pull = 0.75
    obs = [0.0, 0.75, 1.5, 1.75]
    res = L.bounded_ensemble(m, (0.0, 2.0), 0.05, 12, 4, obs, max_step=0.01, t_pull=t_pull)
    ref = L.simulate_ensemble(m, (-t_pull, 2.0), 0.0, 12, 0.01, 4, obs)
    assert np.array_equal(res.times, ref.times)
    assert np.array_equal(res.states, ref.states)
    planned = L.bounded_ensemble(m, (0.0, 4.0), 0.05, 12, 4, np.linspace(0.0, 4.0, 9))
    ref = L.simulate_ensemble(m, (-L.pullback_plan(m, 0.05).t_pull, 4.0), 0.0, 12, 0.01, 4,
                              np.linspace(0.0, 4.0, 9))
    assert np.array_equal(planned.states, ref.states)


def test_clusters_farther_apart_than_t_pull_run_on_their_own_paths():
    # the second cluster is pulled back from 5 - t_pull on paths n .. 2n - 1,
    # not integrated through the unobserved gap (1, 5)
    m = L.presets.example61_model(forcing=1.0)
    t_pull, n = 1.5, 12
    first, second = [0.0, 0.5, 1.0], [5.0, 5.25]
    res = L.bounded_ensemble(m, (0.0, 6.0), 0.05, n, 9, second + first, max_step=0.01,
                             t_pull=t_pull)
    a = L.simulate_ensemble(m, (-t_pull, 1.0), 0.0, n, 0.01, 9, first)
    b = L.simulate_ensemble(m, (5.0 - t_pull, 6.0), 0.0, 2 * n, 0.01, 9, second)
    assert np.array_equal(res.times, np.concatenate([a.times, b.times]))
    assert np.array_equal(res.states[:3], a.states)
    assert np.array_equal(res.states[3:], b.states[:, n:])
    assert not np.any(res.states[3:] == b.states[:, :n])   # paths 0 .. n - 1 not reused
