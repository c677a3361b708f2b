"""Contraction-rate estimation and the ultimate second-moment bound."""

import numpy as np
import pytest

import levylab as L
from levylab.ensemble import GapCurve
from levylab.errors import InputError


def _synthetic_curve(rate, noise=0.0, n=41, seed=0):
    t = np.linspace(0.0, 3.0, n)
    g = np.exp(-rate * t)
    if noise:
        rng = np.random.default_rng(seed)
        g = g * np.exp(rng.normal(scale=noise, size=n))
    return GapCurve(times=t, gap=g, se=np.zeros(n))


def test_fit_recovers_exact_exponential():
    rate, r2 = L.fit_decay_rate(_synthetic_curve(3.0))
    assert rate == pytest.approx(3.0, abs=1e-6)
    assert r2 > 0.999999


def test_fit_with_multiplicative_noise():
    # 5% log-noise: the fitted slope stays within 5%
    rate, _ = L.fit_decay_rate(_synthetic_curve(2.0, noise=0.05, seed=4))
    assert rate == pytest.approx(2.0, rel=0.05)


def test_fit_constant_curve_gives_zero_rate():
    t = np.linspace(0, 3, 21)
    curve = GapCurve(times=t, gap=np.full(21, 0.7), se=np.zeros(21))
    rate, _ = L.fit_decay_rate(curve)
    assert abs(rate) < 1e-12


def test_fit_needs_five_points():
    t = np.linspace(0, 1, 4)
    curve = GapCurve(times=t, gap=np.exp(-t), se=np.zeros(4))
    with pytest.raises(InputError):
        L.fit_decay_rate(curve)


def test_gap_experiment_zero_for_equal_starts():
    m = L.presets.example61_model()
    curve = L.gap_experiment(m, 2.0, 2.0, horizon=2.0, n_paths=32, seed=1,
                             max_step=0.01)
    assert np.all(curve.gap == 0.0)


def test_gap_experiment_deterministic_linear_rate():
    m = L.presets.linear_decay_model(1.3)
    curve = L.gap_experiment(m, 2.0, 1.0, horizon=3.0, n_paths=8, seed=0,
                             max_step=1e-3)
    rate, _ = L.fit_decay_rate(curve)
    assert rate == pytest.approx(2 * 1.3, rel=0.01)


def test_example61_gap_below_contraction_bound():
    m = L.presets.example61_model(b=1.0)
    curve = L.gap_experiment(m, 1.0, 3.0, horizon=6.0, n_paths=400, seed=2,
                             max_step=0.005)
    margin = L.stability_margin(1.0, 4.0, 0.25, 1.0)
    bound = 5.0 * curve.gap[0] * np.exp(-margin * curve.times)
    assert np.all(curve.gap <= bound + 3.0 * curve.se)


def test_fitted_rate_dominates_margin_across_jump_sweep():
    # the explicit margin is a lower bound on contraction, never an upper one
    for b in (0.0, 0.5, 1.0):
        m = L.presets.example61_model(b=b)
        curve = L.gap_experiment(m, 1.0, 3.0, horizon=5.0, n_paths=300,
                                 seed=int(10 * b) + 3, max_step=0.005)
        rate, _ = L.fit_decay_rate(curve)
        se = L.fit_rate_stderr(curve)
        margin = L.stability_margin(1.0, 4.0, 0.25, b)
        assert rate >= margin - 2 * se, (b, rate, margin)


def test_enlarging_lipschitz_weakly_decreases_fitted_rate():
    # trend across the sweep, not pointwise: compare L = 0 against L = 1/4
    rates = []
    for lip_scale in (0.0, 1.0):
        m = L.presets.example61_model(b=1.0)
        if lip_scale == 0.0:
            from dataclasses import replace
            c = m.coefficients
            m = replace(m, coefficients=replace(
                c, drift=L.coefficient(), diffusion=L.coefficient(),
                small_jump=L.jump_coefficient(), large_jump=L.jump_coefficient(),
                lipschitz_L=0.0))
        curve = L.gap_experiment(m, 1.0, 3.0, horizon=5.0, n_paths=300, seed=11,
                                 max_step=0.005)
        rates.append(L.fit_decay_rate(curve)[0])
    assert rates[1] <= rates[0] + 0.5


def test_ultimate_bound_zero_model():
    m = L.presets.linear_decay_model(1.0)
    rep = L.ultimate_bound_check(m, horizon=5.0, n_paths=16, y0=0.0, seed=0,
                                 max_step=0.01)
    assert rep.tail_second_moment == 0.0
    assert rep.r_plus_1 == 1.0
    assert rep.passed


def test_ultimate_bound_example61_far_start():
    m = L.presets.example61_model(b=1.0)
    margin = L.stability_margin(1.0, 4.0, 0.25, 1.0)
    horizon = 5.0 / margin + 2.0
    rep = L.ultimate_bound_check(m, horizon=horizon, n_paths=200, y0=10.0,
                                 seed=5, max_step=0.005)
    assert rep.passed
    # global basin: an even larger start still converges below r + 1
    rep2 = L.ultimate_bound_check(m, horizon=horizon + 2.0, n_paths=200,
                                  y0=40.0, seed=6, max_step=0.005)
    assert rep2.passed


@pytest.mark.parametrize("run, name", [
    (lambda m: L.ultimate_bound_check(m, 0.0, 4, 1.0, 0), "horizon"),
    (lambda m: L.ultimate_bound_check(m, np.nan, 4, 1.0, 0), "horizon"),
    (lambda m: L.gap_experiment(m, 1.0, 3.0, -1.0, 4, 0), "horizon"),
    (lambda m: L.gap_experiment(m, 1.0, 3.0, np.inf, 4, 0), "horizon"),
    (lambda m: L.gap_experiment(m, 1.0, 3.0, 1.0, 4, 0, n_obs=2.5), "n_obs"),
    (lambda m: L.gap_experiment(m, 1.0, 3.0, 1.0, 4, 0, n_obs=0), "n_obs"),
    (lambda m: L.gap_experiment(m, 1.0, 3.0, 1.0, 4, 0, n_obs=True), "n_obs")],
    ids=["ultimate-zero", "ultimate-nan", "gap-negative", "gap-inf", "n_obs-float",
         "n_obs-zero", "n_obs-bool"])
def test_bad_horizons_and_observation_counts_are_rejected(run, name):
    # an empty ultimate-bound run passed on its start state, and a bad gap
    # experiment ended in numpy's TypeError, an empty curve or a complaint
    # about observation times
    with pytest.raises(InputError, match=name):
        run(L.presets.example61_model())
