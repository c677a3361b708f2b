"""Recurrence measurement: path metric, almost periods, law metric.

Three layers:

* the compact-open path metric on functions of time, computed through
  its fixed-point characterization (``bebutov_distance``);
* epsilon-almost-period scanning for registry profiles, with the
  relative-density statistic of the accepted shift set
  (``almost_periods``);
* the bounded-Lipschitz (Dudley) metric between empirical laws, computed
  exactly by peeling back the optimal transport between them, many pairs
  as one batch (``bl_distance``), plus the two headline experiments built
  on it: the distributional almost-period test and the same-noise
  shift-coupling gap with its explicit bound.

Almost-period acceptance uses a finite ``sup_horizon`` proxy for the sup
over all times (the global sup is not computable); reports record the
horizon and grid resolution used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleResult, coupled_gap
from .errors import InputError
from .model import SdeModel, compat_gap_bound, compat_c
from .profiles import TimeProfile
from .pullback import bounded_ensemble, pullback_plan

# largest support per law handed to the BL transport peel; larger clouds
# are thinned
MAX_SUPPORT = 400
# most rows (one per coordinate of a pair of laws) in one batch of the peel
BL_ROWS = 64
# the law tests compare the first MAX_OBSERVED coordinates of the state
MAX_OBSERVED = 3
_SUBGRID = 32   # grid points between the sub-grid points of the scan's first pass

# ---------------------------------------------------------------------------
# path metric
# ---------------------------------------------------------------------------

def bebutov_distance(phi, psi, horizon: float = 50.0, grid_step: float = 0.01,
                     atol: float = 1e-12) -> float:
    """Compact-open metric between two scalar functions of time.

    The metric equals the unique epsilon with
    ``max_{|t| <= 1/eps} |phi(t) - psi(t)| = eps``; we bracket that fixed
    point on ``[1/horizon, sup |phi - psi|]`` and bisect, with the running
    max evaluated on a symmetric grid of the given step.  If the sup over
    the whole horizon is positive but below ``1/horizon`` the fixed point
    is not bracketed and the horizon must be widened; an identically
    vanishing difference returns 0.
    """
    for name, value in (("horizon", horizon), ("grid_step", grid_step)):
        if not 0.0 < value < math.inf:
            raise InputError(f"{name} must be positive and finite, got {value!r}")
    n_half = int(round(horizon / grid_step))
    t = np.arange(-n_half, n_half + 1) * grid_step
    rho = np.abs(np.asarray(phi(t), dtype=float) - np.asarray(psi(t), dtype=float))
    center = n_half
    folded = np.maximum(rho[center:], rho[center::-1])
    running_max = np.maximum.accumulate(folded)        # M(k) at k = i*grid_step
    m_full = float(running_max[-1])                    # NaN if any difference is NaN
    if not math.isfinite(m_full):
        raise InputError(f"phi - psi must be finite on the grid, its sup is {m_full!r}")
    if m_full <= atol:
        return 0.0
    if m_full < 1.0 / horizon:
        raise InputError(
            f"sup difference {m_full:.3g} is below 1/horizon = {1.0/horizon:.3g}; "
            "widen the horizon to bracket the fixed point")

    def max_within(k: float) -> float:
        i = min(int(k / grid_step), n_half)
        return float(running_max[i])

    lo, hi = 1.0 / horizon, m_full
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if max_within(1.0 / mid) - mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# almost periods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceReport:
    """Accepted shifts of an epsilon-almost-period scan.

    ``max_gap`` is the largest spacing between consecutive accepted
    shifts, counting the tail out to the scan window end; the verdict is
    the observed relative-density statement "every subinterval of length
    ``max_gap`` met an accepted shift and ``max_gap`` is shorter than the
    window".
    """

    epsilon: float
    taus: tuple[float, ...]
    distances: tuple[float, ...]
    max_gap: float
    scan_window: float
    sup_horizon: float
    t_step: float
    verdict: bool


def almost_periods(profile, epsilon: float, scan_window: float,
                   tau_step: float, sup_horizon: float,
                   t_step: float | None = None) -> RecurrenceReport:
    """Scan shifts ``tau = 0, tau_step, ..., scan_window`` and accept those
    with ``sup_{|t| <= sup_horizon} |profile(t + tau) - profile(t)| < epsilon``.

    ``profile`` may be a single registry profile or a sequence; for a
    sequence the acceptance distance is the max over components (joint
    almost periods).  The internal time grid divides ``tau_step`` exactly
    so shifts are pure index offsets.
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be positive, got {epsilon!r}")
    for name, value in (("scan_window", scan_window), ("tau_step", tau_step),
                        ("sup_horizon", sup_horizon)):
        if not 0.0 < value < math.inf:
            raise InputError(f"{name} must be positive and finite, got {value!r}")
    profs = list(profile) if isinstance(profile, (list, tuple)) else [profile]
    if not profs:
        raise InputError("profile must hold at least one profile")
    if t_step is None:
        lips = []
        for p in profs:
            try:
                lips.append(p.lipschitz_t(half_width=sup_horizon + scan_window))
            except (TypeError, ValueError):
                lips.append(1.0)
        target = min(tau_step, epsilon / (4.0 * max(max(lips), 1e-9)))
        t_step = tau_step / max(1, min(64, int(np.ceil(tau_step / target))))
    m = int(round(tau_step / t_step))
    t_step = tau_step / m

    n_half = int(round(sup_horizon / t_step))
    n_tau = int(round(scan_window / tau_step))
    t = np.arange(-n_half, n_half + 1 + n_tau * m) * t_step
    vals = np.stack([np.asarray(p(t), dtype=float) for p in profs])
    base = vals[:, : 2 * n_half + 1]
    # reject a shift whose max on about every _SUBGRID-th grid point, a lower bound,
    # reaches epsilon; in passes of shifts whose temporaries are no larger than vals
    coarse, k, n_sub = vals[:, ::m], max(1, _SUBGRID // m), 2 * n_half // m + 1
    windows = np.lib.stride_tricks.sliding_window_view(coarse, n_sub, axis=-1)[..., ::k]
    rows = max(1, t.size // windows.shape[-1])
    lower = np.concatenate([np.max(np.abs(windows[:, a:a + rows] - coarse[:, None, :n_sub:k]),
                                   axis=(0, 2)) for a in range(0, n_tau + 1, rows)])

    taus, dists = [], []
    for j in np.flatnonzero(lower < epsilon).tolist():   # a NaN rejects
        shift = j * m
        d = float(np.max(np.abs(vals[:, shift: shift + 2 * n_half + 1] - base)))
        if d < epsilon:
            taus.append(j * tau_step)
            dists.append(d)
    edges = np.concatenate([[0.0], np.asarray(taus), [scan_window]]) if taus \
        else np.array([0.0, scan_window])
    max_gap = float(np.max(np.diff(edges)))
    return RecurrenceReport(epsilon=float(epsilon), taus=tuple(taus),
                            distances=tuple(dists), max_gap=max_gap,
                            scan_window=float(scan_window),
                            sup_horizon=float(sup_horizon), t_step=float(t_step),
                            verdict=bool(taus) and max_gap < scan_window)


# ---------------------------------------------------------------------------
# bounded-Lipschitz metric on empirical laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalLaw:
    """Uniformly weighted sample cloud of observation vectors."""

    samples: np.ndarray   # (n, d)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.size == 0:
            raise InputError("empirical law needs at least one sample")
        if not np.all(np.isfinite(s)):
            raise InputError("samples must be finite")
        object.__setattr__(self, "samples", s)


def _stratified_subsample(x: np.ndarray) -> np.ndarray:
    """Rank-stratified deterministic thinning of each row (the last axis) to
    ``MAX_SUPPORT`` points: the empirical quantile function sampled at uniform
    mid-levels, so every kept point carries equal mass and the law's shape is
    preserved to O(1/MAX_SUPPORT).  Smaller rows are returned as they are."""
    if x.shape[-1] <= MAX_SUPPORT:
        return x
    levels = (np.arange(MAX_SUPPORT) + 0.5) / MAX_SUPPORT
    return np.moveaxis(np.quantile(x, levels, axis=-1, method="linear"), 0, -1)


def _bl_peel(x_mu: np.ndarray, x_nu: np.ndarray) -> np.ndarray:
    """Exact bounded-Lipschitz distance between the 1-D empirical laws of
    each row of ``x_mu`` (rows, n_mu) and the same row of ``x_nu`` (rows, n_nu).

    With Lipschitz weight s, sup weight 1 - s and L = 2(1 - s)/s, duality
    turns the distance into the max over L of 2 V(L)/(L + 2), where
    V(L) = min over kappa of L (kappa_max - kappa) + C(kappa) and C is the
    convex cost of moving mass kappa of the net excess of mu onto that of
    nu along the line.  The max sits at a slope of C, so we start from the
    full transport and peel mass back along the cheapest residual path
    (slopes fall), evaluating the ratio at each slope; the ratio is
    quasi-concave in L, so the first real drop ends the peel.  Masses are
    integers in units of 1/(n_mu n_nu), so cancellations are exact.

    The rows are peeled together as padded (rows, atoms) arrays, whose
    padding adds exact zeros and never ends a path; a row leaves when its
    peel ends, and its cost is a dot product over its own edges, so its
    result does not depend on the batch.
    """
    n_mu, x = x_mu.shape[1], np.concatenate([x_mu, x_nu], axis=1)
    order = np.argsort(x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    atom = np.zeros(x.shape, dtype=np.intp)          # the atom of each sorted point
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=atom[:, 1:])
    rows = np.arange(x.shape[0])[:, None]
    net = np.zeros(x.shape, dtype=np.int64)
    np.add.at(net, (rows, atom), np.where(order < n_mu, x_nu.shape[1], -n_mu))
    xu = np.repeat(xs[:, -1:], x.shape[1], axis=1)   # the atoms, padded with the last
    xu[rows, atom] = xs
    k, out = np.where(net > 0, net, 0).sum(axis=1), np.zeros(x.shape[0])
    ids = np.flatnonzero(k)                          # a row without net mass is at 0
    edges, k = atom[ids, -1], k[ids]
    width = edges.max(initial=0) + 1
    net, d = net[ids, :width], np.diff(xu[ids, :width], axis=1)
    k_max, best, sgns = k, np.zeros(ids.size), np.array([1, -1])[:, None, None]
    gate = np.array([-np.inf, 0.0])   # added to what a mask drops (0) and keeps (1)
    while ids.size:
        (a, width), r = net.shape, np.arange(ids.size)
        flow = np.add.accumulate(net[:, :-1], axis=1)   # mass crossing each edge rightwards
        sflow, snet = sgns * flow, sgns * net           # mu-atom left of a nu-atom, then right
        prefix = np.zeros((2, a, width))
        np.add.accumulate(np.where(sflow > 0, d, -d), axis=-1, out=prefix[..., 1:])
        # the masks read from gate, not np.where: mu and nu atoms interleave, so
        # a branch on the mask is mispredicted about every other entry
        left = (gate.take(snet > 0) - prefix).reshape(2 * a, width)
        reach = np.maximum.accumulate(left, axis=1)
        total = prefix.reshape(2 * a, width) + reach + gate.take(snet.reshape(2 * a, width) < 0)
        peak, his = np.maximum.reduce(total, axis=1), total.argmax(axis=1)
        pick = r + a * (peak[a:] > peak[:a])            # the row of the cheaper direction
        slope, hi = peak[pick], his[pick]
        lo = (left[pick] == reach[pick, hi][:, None]).argmax(axis=1)   # first best source
        cost = np.abs(flow)
        dots = np.array([d[i, :n] @ cost[i, :n] for i, n in enumerate(edges.tolist())])
        ratio = 2.0 * ((k_max - k) * slope + dots) / (slope + 2.0)
        stop = ratio < best * (1.0 - 1e-9)              # equal slopes may differ by rounding
        best = np.where(ratio > best, ratio, best)
        path = sflow.reshape(2 * a, -1)[pick]           # the move shrinks the positive ones
        cols = np.arange(width - 1)
        on = (cols >= lo[:, None]) & (cols < hi[:, None]) & (path > 0)
        moved = np.minimum(np.minimum(np.abs(net[r, lo]), np.abs(net[r, hi])),
                           np.minimum.reduce(np.where(on, path, k[:, None]), axis=1))
        k = k - moved
        moved[pick >= a] *= -1
        net[r, lo] -= moved
        net[r, hi] += moved
        done = stop | (k == 0)
        if done.any():
            out[ids[done]], keep = best[done], ~done
            ids, edges, k, k_max, best = ids[keep], edges[keep], k[keep], k_max[keep], best[keep]
            width = edges.max(initial=0) + 1
            net, d = net[keep, :width], d[keep, :width - 1]
    return out / (n_mu * x_nu.shape[1])


def _bl_laws(pairs) -> list:
    """:func:`bl_distance` of each ``(a, b)`` pair of finite (n, d) samples, the
    pairs of one shape, with every coordinate of every pair a row of one peel."""
    if any(a.shape[1] != b.shape[1] for a, b in pairs):
        raise InputError("laws must share the observation dimension")
    rows = (_stratified_subsample(np.concatenate([p[j].T for p in pairs])) for j in (0, 1))
    return [max(0.0, *row) for row in _bl_peel(*rows).reshape(len(pairs), -1)]


def bl_distance(mu: EmpiricalLaw, nu: EmpiricalLaw) -> float:
    """Bounded-Lipschitz distance between two empirical laws.

    1-D observations are solved exactly by the transport peel.  For more
    than one coordinate the value is the largest per-coordinate distance,
    the coordinates peeled as one batch: a lower bound of the joint
    distance.  Supports larger than ``MAX_SUPPORT`` per law are thinned,
    one coordinate at a time, to the empirical quantiles at
    ``MAX_SUPPORT`` uniform mid-levels.
    """
    return _bl_laws([(mu.samples, nu.samples)])[0]


def bl_two_sample(a: np.ndarray, b: np.ndarray, n_boot: int = 30, seed: int = 0):
    """Observed BL distance plus a pooled-resampling null scale.

    The empirical BL distance between equal laws is positive at order
    n^(-1/2), so a bare bootstrap standard deviation would understate the
    null scale and make equality tests unfalsifiable.  Instead the error
    bar is the root mean square of the distance between two resamples of
    the pooled cloud, i.e. the typical distance under equality.  The
    observed pair and the resampled pairs are peeled in batches of at most
    ``BL_ROWS`` coordinate rows, so memory does not grow with ``n_boot``.
    If every pooled row is the same point, both are 0.0 and nothing is drawn.
    """
    if isinstance(n_boot, bool) or not isinstance(n_boot, (int, np.integer)) or n_boot < 1:
        raise InputError(f"n_boot must be a positive integer, got {n_boot!r}")
    # checked once: each resample is rows of these
    a, b = EmpiricalLaw(np.atleast_2d(a.T).T).samples, EmpiricalLaw(np.atleast_2d(b.T).T).samples
    pairs, dists = [(a, b)], []
    if a.shape[1] != b.shape[1]:
        raise InputError("laws must share the observation dimension")
    pooled = np.concatenate([a, b], axis=0)
    if np.logical_and.reduce(pooled == pooled[0], axis=None):   # a point mass: every
        return 0.0, 0.0                                         # distance is 0.0
    rng = np.random.default_rng(seed)
    for i in range(n_boot):
        ra = pooled[rng.integers(0, pooled.shape[0], a.shape[0])]
        rb = pooled[rng.integers(0, pooled.shape[0], b.shape[0])]
        pairs.append((ra, rb))
        if len(pairs) == max(1, BL_ROWS // a.shape[1]) or i == n_boot - 1:
            dists, pairs = dists + _bl_laws(pairs), []
    null_sq = 0.0
    for v in dists[1:]:
        null_sq += v ** 2
    return dists[0], math.sqrt(null_sq / n_boot)


# ---------------------------------------------------------------------------
# distributional recurrence experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionalReport:
    """BL distances between the law at t and at t + tau over a time grid."""

    tau: float
    times: np.ndarray
    beta: np.ndarray
    err: np.ndarray          # pooled-null RMS scale per time
    max_beta: float
    passed: bool             # beta <= 3 err at every grid time
    positive: bool           # beta > 3 err somewhere (power indicator)

    def to_csv(self, path):
        from .config import write_csv   # loaded on the first write, not with the package
        write_csv(path, ("t", "beta", "bootstrap_err"), (self.times, self.beta, self.err))


def distributional_almost_period_test(model: SdeModel, tau: float, t_grid,
                                      n_paths: int, seed: int, *,
                                      tol: float = 0.02, max_step: float = 5e-3,
                                      n_boot: int = 30) -> DistributionalReport:
    """Compare the law of the bounded solution at t with the law at t + tau.

    Builds ``n_paths`` independent bounded solutions by pullback, then at
    each grid time computes the BL distance between the empirical laws of
    the first ``MAX_OBSERVED`` coordinates at ``t`` and ``t + tau``, with
    the pooled-resampling null scale as error bar.  When ``tau`` leaves a
    gap longer than the pullback horizon after the grid, the laws at ``t``
    and ``t + tau`` come from two independent pullbacks
    (:func:`levylab.pullback.bounded_ensemble`).
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0 or not np.logical_and.reduce(np.isfinite(t_grid)):
        raise InputError(f"t_grid must hold at least one time, all finite, got {t_grid!r}")
    if not 0.0 <= tau < math.inf:
        raise InputError(f"tau must be finite and >= 0, got {tau!r}")
    obs = np.unique(np.concatenate([t_grid, t_grid + tau]))
    res = bounded_ensemble(model, (t_grid[0], t_grid[-1] + tau), tol, n_paths,
                           seed, obs, max_step)
    return distributional_report(res, tau, t_grid, seed, n_boot)


def distributional_report(res: EnsembleResult, tau: float, t_grid, seed: int,
                          n_boot: int) -> DistributionalReport:
    """The statistic of :func:`distributional_almost_period_test` on a bounded
    ensemble ``res`` that observes the sorted ``t_grid`` and ``t_grid + tau``."""

    def states_at(t):
        i = int(np.argmin(np.abs(res.times - t)))
        return res.states[i][:, :MAX_OBSERVED]

    beta = np.empty(t_grid.size)
    err = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        beta[i], err[i] = bl_two_sample(states_at(t), states_at(t + tau),
                                        n_boot=n_boot, seed=seed + 7919 * (i + 1))
    passed = bool(np.all(beta <= 3.0 * err))
    return DistributionalReport(tau=float(tau), times=t_grid, beta=beta, err=err,
                                max_beta=float(beta.max()), passed=passed,
                                positive=bool(np.any(beta > 3.0 * err)))


def coefficient_shift_bounds(model: SdeModel, tau: float, radius: float) -> dict:
    """Sup-in-time mean-square coefficient differences under a tau-shift.

    For each coefficient, bounds sup_t E |coef(t + tau, xi) - coef(t, xi)|^2
    along any solution staying in the invariant ball: the profile shift
    difference is evaluated at 24001 equally spaced times on [-60, 60], the
    state factor by its exact ball bound, and jump coefficients pick up
    their intensity-times-mark-moment factors.  Each map is bounded in the
    space where it acts (``on_nodes``): its constant one has norm sqrt(dim)
    on coordinates, ``ones_norm`` on nodes.
    """
    if not math.isfinite(tau):
        raise InputError(f"tau must be finite, got {tau!r}")
    t = np.linspace(-60.0, 60.0, 24001)

    def prof_shift_sup(prof: TimeProfile) -> float:
        return float(np.max(np.abs(prof(t + tau) - prof(t))))

    def coef_bound(coef) -> float:
        ones = model.galerkin.ones_norm if coef.on_nodes(model.galerkin) else math.sqrt(model.dim)
        return sum((prof_shift_sup(p) * s.l2_bound(radius, ones) for p, s in coef.terms), 0.0)

    c = model.coefficients
    i1 = coef_bound(c.drift) ** 2
    i2 = (coef_bound(c.diffusion) * model.wiener.operator_norm_qhalf) ** 2
    i3 = model.jump_intensity("small", 2) * coef_bound(c.small_jump) ** 2
    i4 = model.jump_intensity("large", 2) * coef_bound(c.large_jump) ** 2
    return {"i1": i1, "i2": i2, "i3": i3, "i4": i4}


@dataclass(frozen=True)
class ShiftCouplingResult:
    """Same-noise gap between tau-shifted and unshifted bounded solutions."""

    tau: float
    times: np.ndarray
    gap: np.ndarray
    se: np.ndarray
    measured_sup_gap: float
    se_at_sup: float
    theoretical_bound: float
    sup_i: dict
    compat_c: float

    @property
    def passed(self) -> bool:
        return self.measured_sup_gap <= self.theoretical_bound + 3.0 * self.se_at_sup


def shift_coupling_gap(model: SdeModel, tau: float, window, n_paths: int,
                       seed: int, *, tol: float = 0.02, max_step: float = 5e-3,
                       n_obs: int = 41) -> ShiftCouplingResult:
    """Integrate, against the same noise, the bounded solutions of the
    tau-shifted and unshifted coefficient quadruples, and compare the
    measured sup mean-square gap with its explicit bound.

    The two models differ only in their profiles, so they run as one
    stacked batch of :func:`levylab.ensemble.coupled_gap`: each slab of the
    noise is drawn once and read by both blocks.  A ``tau`` that is not
    finite is rejected (by :func:`coefficient_shift_bounds`) before the run.
    """
    t0, t1 = float(window[0]), float(window[1])
    plan = pullback_plan(model, tol)   # the shifted model has the same plan
    sup_i = coefficient_shift_bounds(model, tau, plan.radius)
    curve = coupled_gap(model, model.shifted(tau), 0.0, 0.0, (t0 - plan.t_pull, t1),
                        n_paths, max_step, seed, np.linspace(t0, t1, n_obs))
    i_sup = int(np.argmax(curve.gap))
    bound = compat_gap_bound(model.K, model.omega, model.coefficients.lipschitz_L,
                             model.b, sup_i["i1"], sup_i["i2"], sup_i["i3"], sup_i["i4"])
    return ShiftCouplingResult(
        tau=float(tau), times=curve.times, gap=curve.gap, se=curve.se,
        measured_sup_gap=float(curve.gap[i_sup]), se_at_sup=float(curve.se[i_sup]),
        theoretical_bound=float(bound), sup_i=sup_i,
        compat_c=compat_c(model.K, model.omega, model.coefficients.lipschitz_L, model.b))
