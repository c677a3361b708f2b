"""Quantitative square-mean stability experiments.

The contraction estimate says the same-noise squared gap between two
solutions decays at least at the explicit margin rate with prefactor 5;
``gap_experiment`` measures the empirical curve (the synchronous
coupling of :func:`levylab.ensemble.coupled_gap`, matching the
construction behind the estimate, so it is also the pullback's
forgetting curve), ``fit_decay_rate`` extracts the empirical contraction
rate by log-linear regression, and ``ultimate_bound_check`` verifies the
ultimate second-moment bound ``limsup E|Y(t)|^2 < r + 1`` from an
arbitrary start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import GapCurve, coupled_gap, mean_and_se, simulate_ensemble
from .errors import InputError, ThresholdError
from .model import SdeModel, compute_radius, stability_margin

# a rate fit uses the gap points above SE_FACTOR standard errors
SE_FACTOR = 10.0
# observation times over the tail (last 20%) of the ultimate-bound horizon
N_OBS_TAIL = 11


def _check_horizon(horizon):
    if not 0.0 < horizon < math.inf:
        raise InputError(f"horizon must be positive and finite, got {horizon!r}")


def gap_experiment(model: SdeModel, y0a, y0b, horizon: float, n_paths: int,
                   seed: int, max_step: float = 5e-3, n_obs: int = 51) -> GapCurve:
    """Per-time ensemble mean of |Y_a(t) - Y_b(t)|^2 under same-noise coupling,
    at ``n_obs`` times over [0, horizon]: the two starts are one stacked batch
    of :func:`levylab.ensemble.coupled_gap`, which reads each slab of the
    noise, drawn once, in both blocks."""
    _check_horizon(horizon)
    if isinstance(n_obs, bool) or not isinstance(n_obs, (int, np.integer)) or n_obs < 1:
        raise InputError(f"n_obs must be a positive integer, got {n_obs!r}")
    obs = np.linspace(0.0, horizon, n_obs)
    return coupled_gap(model, model, y0a, y0b, (0.0, horizon), n_paths,
                       max_step, seed, obs)


def _log_linear_fit(curve: GapCurve):
    """Least-squares line through log(gap) vs t over the points where the
    gap exceeds ``SE_FACTOR`` times its standard error: ``(t, log gap,
    residuals, slope)``."""
    mask = (curve.gap > 0) & (curve.gap > SE_FACTOR * curve.se)
    t, g = curve.times[mask], np.log(curve.gap[mask])
    if t.size < 5:
        raise InputError(f"only {t.size} usable points; need at least 5 "
                         "above the noise floor for a rate fit")
    coef = np.polyfit(t, g, 1)
    return t, g, g - np.polyval(coef, t), float(coef[0])


def fit_decay_rate(curve: GapCurve):
    """Least-squares decay rate of the positive part of a gap curve.

    Fits log(gap) vs t over the points where the gap exceeds
    ``SE_FACTOR`` times its standard error (all positive points when the
    curve is deterministic).  Returns ``(rate, r_squared)`` with the rate
    sign-flipped so decay is positive.
    """
    _, g, resid, slope = _log_linear_fit(curve)
    ss_tot = float(np.sum((g - g.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return -slope, r2


def fit_rate_stderr(curve: GapCurve) -> float:
    """Standard error of the fitted decay rate (ordinary LS formula)."""
    t, _, resid, _ = _log_linear_fit(curve)
    s2 = float(np.sum(resid**2)) / max(t.size - 2, 1)
    sxx = float(np.sum((t - t.mean()) ** 2))
    return float(np.sqrt(s2 / sxx))


@dataclass(frozen=True)
class UltimateBoundReport:
    tail_second_moment: float
    se: float
    r_plus_1: float
    passed: bool


def ultimate_bound_check(model: SdeModel, horizon: float, n_paths: int, y0,
                         seed: int, max_step: float = 5e-3) -> UltimateBoundReport:
    """Estimate E|Y(t)|^2 over the final 20% of the horizon from start y0.

    Passes when the estimate plus three standard errors stays below
    ``r + 1``; the margin of one over the invariant-ball radius makes the
    strict ultimate bound testable at finite horizon.
    """
    _check_horizon(horizon)
    c = model.coefficients
    r = compute_radius(model.K, model.omega, c.lipschitz_L, c.A0, model.b)
    margin = stability_margin(model.K, model.omega, c.lipschitz_L, model.b)
    if margin <= 0:
        raise ThresholdError("stability margin must be positive for a meaningful tail")
    obs = np.linspace(0.8 * horizon, horizon, N_OBS_TAIL)
    res = simulate_ensemble(model, (0.0, horizon), y0, n_paths, max_step, seed, obs)
    # time-average first, so the paths stay iid
    est, se = map(float, mean_and_se(np.sum(res.states**2, axis=2).mean(axis=0)))
    return UltimateBoundReport(tail_second_moment=est, se=se, r_plus_1=r + 1.0,
                               passed=bool(est + 3.0 * se < r + 1.0))
