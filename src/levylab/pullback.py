"""Pullback approximation of the unique L2-bounded solution.

The bounded solution is the one defined on the whole line; numerically
it is reached by starting far enough in the past and discarding the
burn-in.  The square-mean contraction estimate

    E|Y(t) - xi(t)|^2 <= 5 K^2 E|Y0 - xi(t0)|^2 exp(-margin (t - t0))

turns a target tolerance into an explicit pullback horizon, using the
conservative margin valid uniformly in the semilinear case.  Burn-in and
window noise are one seed's draw on the whole pullback window, so the
returned restriction is a genuine path segment.  The same-noise gap
between two starts, which the estimate bounds, is measured by
:func:`levylab.stability.gap_experiment`.

Since xi(t) is fixed, to within ``tol``, by the noise on [t - t_pull, t],
an ensemble pulls back once per cluster of observation times (times
less than t_pull apart) and does not integrate through the gaps between
clusters.  Each cluster reads its own paths of the seed, so the paths
of two clusters are independent draws: the marginal law at each time is
that of the bounded solution, and the joint law across clusters is too,
to within O(tol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleResult, _run_ensembles, integrate, observation_times
from .errors import InputError, ThresholdError
from .integrator import SamplePath
from .model import SdeModel, compute_radius, stability_margin
from .noise import window_ends


def pullback_horizon(K: float, rate: float, start_bound: float, tol: float) -> float:
    """Smallest T with 5 K^2 start_bound exp(-rate T) <= tol^2."""
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    if not 0.0 < K < math.inf:
        raise InputError(f"K must be positive and finite, got {K!r}")
    if not math.isfinite(rate):
        raise InputError(f"the contraction rate must be finite, got {rate!r}")
    if not math.isfinite(start_bound):
        raise InputError(f"the start bound must be finite (a finite start_state), "
                         f"got {start_bound!r}")
    if rate <= 0:
        raise ThresholdError("contraction rate must be positive "
                             "(square-mean stability condition failed)")
    if start_bound <= 0:
        return 0.0
    return max(0.0, math.log(5.0 * K**2 * start_bound / tol**2) / rate)


@dataclass(frozen=True)
class PullbackPlan:
    """Resolved burn-in parameters for one bounded-solution run."""

    t_pull: float
    margin: float
    radius: float
    start_bound: float
    tol: float


def pullback_plan(model: SdeModel, tol: float, start_state=None) -> PullbackPlan:
    c = model.coefficients
    margin = stability_margin(model.K, model.omega, c.lipschitz_L, model.b)
    if margin <= 0:
        raise ThresholdError(
            f"stability margin {margin:.6g} is not positive; need the Lipschitz "
            "constant below the square-mean stability threshold")
    radius = compute_radius(model.K, model.omega, c.lipschitz_L, c.A0, model.b)
    start_norm = 0.0 if start_state is None else float(np.linalg.norm(start_state))
    start_bound = (start_norm + radius) ** 2
    return PullbackPlan(t_pull=pullback_horizon(model.K, margin, start_bound, tol),
                        margin=margin, radius=radius, start_bound=start_bound, tol=tol)


def _pullback_start(model: SdeModel, window, tol: float, start_state, t_pull):
    """The window's ends, the horizon, the planned one unless ``t_pull`` is
    given (finite and >= 0), and the start state (the origin by default)."""
    t0, t1 = window_ends(window)
    plan = pullback_plan(model, tol, start_state)
    if t_pull is not None and not 0.0 <= t_pull < math.inf:
        raise InputError(f"t_pull must be finite and >= 0, got {t_pull!r}")
    t_pull = plan.t_pull if t_pull is None else float(t_pull)
    return t0, t1, t_pull, 0.0 if start_state is None else start_state


def bounded_solution(model: SdeModel, window, tol: float, seed: int,
                     max_step: float = 1e-2, start_state=None,
                     t_pull: float | None = None) -> SamplePath:
    """One path of the bounded solution on ``window``, within ``tol`` of it
    in L2 (up to discretization error).

    Integrates from ``t0 - t_pull`` starting at the origin (the center of
    the invariant ball, which minimizes the contraction prefactor) and
    returns the restriction to the window.  Passing an explicit ``t_pull``
    overrides the planned horizon; two calls sharing (seed, t_pull,
    window, step) are driven by the identical noise draw, which is
    how start-independence is tested.
    """
    t0, t1, t_pull, y0 = _pullback_start(model, window, tol, start_state, t_pull)
    return integrate(model, (t0 - t_pull, t1), y0, max_step, seed).restrict(t0, t1)


def bounded_ensemble(model: SdeModel, window, tol: float, n_paths: int,
                     seed: int, obs_times, max_step: float = 1e-2,
                     start_state=None, t_pull: float | None = None) -> EnsembleResult:
    """Ensemble of ``n_paths`` bounded-solution paths observed at ``obs_times``
    on the window.

    The sorted times split into clusters wherever two consecutive ones are
    more than ``t_pull`` apart.  Cluster k is pulled back from ``t_pull``
    before its first time to its last time (the first from ``t0 - t_pull``,
    the last to ``t1``), on the paths ``k n_paths .. (k + 1) n_paths - 1`` of
    ``seed``; the clusters' times and states are concatenated.  So
    ``states[:, p]`` follows one path within a cluster, and is an
    independent draw in each cluster.  With one cluster this is
    :func:`levylab.ensemble.simulate_ensemble` on ``[t0 - t_pull, t1]``.
    """
    t0, t1, t_pull, y0 = _pullback_start(model, window, tol, start_state, t_pull)
    obs = observation_times(obs_times)
    clusters = np.split(obs, np.flatnonzero(np.diff(obs) > t_pull) + 1)
    ends = [times[-1] for times in clusters[:-1]] + [t1]
    starts = [t0] + [times[0] for times in clusters[1:]]
    runs = [_run_ensembles((model,), (start - t_pull, end), (y0,), n_paths, max_step,
                           seed, times, path0=k * n_paths)
            for k, (start, times, end) in enumerate(zip(starts, clusters, ends))]
    return EnsembleResult(times=np.concatenate([t for t, _ in runs]),
                          states=np.concatenate([s for _, (s,) in runs]))
