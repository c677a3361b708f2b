"""Cadlag path simulation on a jump-adapted grid, and the one
exponential-Euler step kernel that both path drivers run.

:func:`step_kernel` tabulates once per grid the semigroup factors of every
step and the drift, diffusion and small-jump profile columns at every step
start, collects the distinct state maps of those coefficients, and returns
the step (Hochbruck & Ostermann, Acta Numerica 2010)

    Y(t+dt) = e^(-Lam dt) Y + Lam^-1 (1 - e^(-Lam dt)) D(t, Y)
              + e^(-Lam dt) g(t, Y) dW

for one state (dim,) or a batch (n_paths, dim), which evaluates each map
and ``to_phys`` once.  ``Lam`` is the diagonal decay matrix and ``D``
collects the drift coefficient, the Wiener drift vector routed through the
diffusion, and the small-jump compensator.  :func:`integrate` runs it for
one path on the uniform ``max_step`` grid refined by every jump time of
its seed's noise draw (Bruti-Liberati & Platen, J. Comput. Appl.
Math. 2007).  Weak order one; the deterministic drift part is
O(step)-accurate with constant ``sup|f'|/(2 lambda_min)`` thanks to the
integrating factor.

:func:`jump_kernel` is the one jump rule of both drivers: a jump at ``s``
inside a step ``[u, v]`` acts on the kernel's own step from ``u`` to ``s``
with the Wiener increment ``(s-u)/(v-u) dW``, and is added to the step's
end with the decay ``exp(-Lam (v-s))``.  At ``s = v`` that pre-jump state
is the stepped left limit of :func:`integrate`, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalBlowupError
from .galerkin import GalerkinSpec
from .model import (CoefficientSet, SdeModel, SemigroupSpec, StateMap, StateMaps,
                    coefficient, jump_coefficient, linear_map, sine_map,
                    cosine_map)
from .noise import (JUMP_LARGE, JUMP_SMALL,   # jump flags of a SamplePath node; 0 is none
                    JumpMeasureSpec, WienerSpec, jump_table, wiener_block)
from .profiles import harmonic_profile, reciprocal_profile, trig_reciprocal_profile

CSV_BLOCK = 1024   # rows that SamplePath.to_csv formats and writes at a time


def step_kernel(model: SdeModel, grid: np.ndarray):
    """Tabulate the steps of ``grid`` once and return ``step(i, y, dw) ->
    (y_new, drift, gdiag)`` over step ``i`` for ``y`` and ``dw`` of shape
    (dim,) or (n_paths, dim); ``drift`` is ``D`` and ``gdiag`` the diffusion
    at the step start."""
    neg_ldt = -np.outer(np.diff(grid), model.semigroup.rates)
    decay, phi1 = np.exp(neg_ldt), -np.expm1(neg_ldt) / model.semigroup.rates
    c, gal, a = model.coefficients, model.galerkin, model.wiener.drift
    coefs = f, g, s = c.drift, c.diffusion, c.small_jump
    maps, (f_cols, g_cols, s_cols) = StateMaps(coefs, gal), [
        tuple(coef.profile_table(grid[:-1]).T) for coef in coefs]
    f_slots, g_slots, s_slots = maps.slots
    rate, sampler = model.jumps.small_rate, model.jumps.small_sampler
    mean = s.mark_factor(np.asarray(sampler.mean(), float), gal) if rate else None

    def step(i: int, y: np.ndarray, dw: np.ndarray):
        vals = maps(y)
        gdiag = g.evaluate(g_cols, i, vals, g_slots, gal)
        drift = (f.evaluate(f_cols, i, vals, f_slots, gal) + gdiag * a
                 + (-rate * s.evaluate(s_cols, i, vals, s_slots, gal, mean) if rate else 0.0))
        d = decay[i]
        return d * y + phi1[i] * drift + d * (gdiag * dw), drift, gdiag

    return step


def jump_kernel(model: SdeModel, grid, events, dw):
    """Tabulate the jump table ``events`` (see :func:`levylab.noise.jump_table`)
    of the paths with the Wiener increments ``dw`` (n_steps, n_paths, dim)
    once and return ``add_jumps(i, y, y_new, drift, gdiag)``: ``y_new``, the
    end states of step ``i`` from the (n_paths, dim) states ``y``, plus the
    jumps inside the step, in place.  A later jump of a path in the step
    flows on from its previous post-jump state over ``s_k - s_(k-1)``.

    Per event, in (step, path, time) order: its profile row, that ``lead``
    with ``exp(-Lam lead)``, ``phi1(lead)``, the Wiener increment ``lead /
    (v-u) dW`` and ``exp(-Lam (v-s))``; then the events are regrouped into
    (step, round, kind) slices, round r holding each path's (r+1)-th jump."""
    times, paths, kinds, marks = events
    interval = np.clip(np.searchsorted(grid, times, side="left") - 1, 0, grid.size - 2)
    order = np.lexsort((times, paths, interval))
    times, paths, kinds, marks, interval = (a[order] for a in
                                            (times, paths, kinds, marks, interval))
    pos = np.arange(times.size)
    first = np.ones(times.size, dtype=bool)
    first[1:] = (paths[1:] != paths[:-1]) | (interval[1:] != interval[:-1])
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    lead = times - np.where(first, grid[interval], np.roll(times, 1))
    wiener = (lead / (grid[interval + 1] - grid[interval]))[:, None] * dw[interval, paths]
    lam, c = model.semigroup.rates, model.coefficients
    neg_ldt = -np.outer(lead, lam)   # the expressions of step_kernel
    dec_in, phi1 = np.exp(neg_ldt), -np.expm1(neg_ldt) / lam
    dec_out = np.exp(-np.outer(grid[interval + 1] - times, lam))
    # a round starts from the post-jump states of the previous one, kept in
    # ``post`` at the slot ``back`` of each path's previous event
    regroup = np.lexsort((paths, kinds, rank, interval))
    back = np.argsort(regroup)[regroup - 1]
    paths, kinds, marks, interval, rank, wiener, dec_in, phi1, dec_out = (
        a[regroup] for a in (paths, kinds, marks, interval, rank, wiener, dec_in, phi1,
                             dec_out))
    kernels = {kind: coef.event_kernel(   # rows and scalar marks broadcast over coordinates
        coef.profile_table(times)[regroup][:, None],
        marks[:, :1] if coef.mark_mode == "scalar" else marks, model.galerkin)
        for kind, coef in ((JUMP_SMALL, c.small_jump), (JUMP_LARGE, c.large_jump))}
    starts = np.flatnonzero(np.r_[times.size > 0, np.any(np.diff([interval, rank, kinds]), 0)])
    schedule = {}   # step -> its slices; most steps hold no jump
    for a, b, i, kind, r in zip(*(x.tolist() for x in (
            starts, np.append(starts[1:], times.size), interval[starts], kinds[starts],
            rank[starts]))):
        schedule.setdefault(i, []).append((slice(a, b), kernels[kind], r > 0))
    post = np.empty((times.size, model.dim))

    def add_jumps(i, y, y_new, drift, gdiag):
        for sl, jump, later in schedule.get(i, ()):
            p, d = paths[sl], dec_in[sl]
            pre = (d * (post[back[sl]] if later else y[p]) + phi1[sl] * drift[p]
                   + d * (gdiag[p] * wiener[sl]))
            raw = jump(sl, pre)
            y_new[p] += dec_out[sl] * raw
            post[sl] = pre + raw
        return y_new

    return add_jumps


@dataclass
class SamplePath:
    """Trajectory on a grid containing every jump time.

    ``values`` holds the cadlag states (post-jump at jump indices),
    ``left_limits`` the pre-jump states, equal to ``values`` elsewhere;
    ``jump_flags`` is 0 / 1 / 2 for none / small / large.
    """

    times: np.ndarray
    values: np.ndarray
    left_limits: np.ndarray
    jump_flags: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def restrict(self, t0: float, t1: float) -> "SamplePath":
        keep = (self.times >= t0 - 1e-12) & (self.times <= t1 + 1e-12)
        return SamplePath(self.times[keep], self.values[keep],
                          self.left_limits[keep], self.jump_flags[keep])

    def to_csv(self, path, n_components: int | None = None):
        m = self.dim if n_components is None else min(n_components, self.dim)
        cols = ",".join(f"y{k}" for k in range(m))
        with open(path, "w") as fh:
            fh.write(f"time,jump_flag,{cols}\n")
            for lo in range(0, self.times.size, CSV_BLOCK):
                rows = zip(*(a[lo:lo + CSV_BLOCK].tolist() for a in
                             (self.times, self.jump_flags, self.values[:, :m])))
                fh.write("".join(f"{t!r},{flag},{','.join(map(repr, row))}\n"
                                 for t, flag, row in rows))


def refined_grid(t0: float, t1: float, max_step: float, nodes) -> np.ndarray:
    """Uniform grid on [t0, t1], steps at most ``max_step``, refined by ``nodes``."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 <= t1):
        raise InputError(f"window must be finite and nonempty, got {(t0, t1)!r}")
    if not 0.0 < max_step < math.inf:
        raise InputError(f"max_step must be positive and finite, got {max_step!r}")
    n = max(1, int(np.ceil((t1 - t0) / max_step - 1e-12)))
    return np.unique(np.concatenate([np.linspace(t0, t1, n + 1), nodes]))


def check_finite(y: np.ndarray, t: float):
    """Raise :class:`NumericalBlowupError` naming the first non-finite entry
    of a state (its component) or of a batch (its path and component)."""
    if not np.logical_and.reduce(np.isfinite(y), axis=None):
        at = zip(("path", "component")[-y.ndim:], np.argwhere(~np.isfinite(y))[0])
        raise NumericalBlowupError(t, ", ".join(f"{n} {k}" for n, k in at)
                                   + f" non-finite at t = {t:g}")


def initial_states(y0, n_paths: int, dim: int) -> np.ndarray:
    """``y0`` as a scalar, a state vector or an (n_paths, dim) array,
    broadcast to (n_paths, dim); every entry must be finite."""
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim > 2 or y0.shape != (n_paths, dim)[2 - y0.ndim:]:
        raise InputError("y0 must broadcast to (n_paths, dim)")
    if not np.logical_and.reduce(np.isfinite(y0), axis=None):
        raise InputError("y0 must be finite")
    return np.broadcast_to(y0, (n_paths, dim))


def integrate(model: SdeModel, window, y0, max_step: float, seed) -> SamplePath:
    """Simulate one cadlag mild-solution path of the model on ``window``.

    The noise is the one path ``seed`` of :mod:`levylab.noise`: its jump
    table on the window, then its Wiener increments on the grid refined by
    the jump times, so identical arguments reproduce the path bit for bit.
    ``y0`` is a scalar or a state vector.  A non-finite state raises
    :class:`NumericalBlowupError` naming its component.
    """
    y = initial_states(y0, 1, model.dim)[0]
    events = jump_table(model.jumps, window, seed)
    grid = refined_grid(float(window[0]), float(window[1]), max_step, events[0])
    dW = wiener_block(model.wiener, grid, seed)
    step, add_jumps = step_kernel(model, grid), jump_kernel(model, grid, events, dW)

    n = grid.size
    values = np.empty((n, model.dim))
    left = np.empty_like(values)
    flags = np.zeros(n, dtype=np.int8)
    flags[np.searchsorted(grid, events[0])] = events[2]
    values[0] = left[0] = y

    for i, jumped in enumerate(flags[1:].tolist()):
        y_new, drift, gdiag = step(i, y, dW[i, 0])
        left[i + 1] = y_new
        check_finite(y_new, grid[i + 1])
        if jumped:   # the jump acts on the left limit: lead v - u, decay out 1
            add_jumps(i, y[None], y_new[None], drift[None], gdiag[None])
            check_finite(y_new, grid[i + 1])
        values[i + 1] = y = y_new

    return SamplePath(times=grid, values=values, left_limits=left, jump_flags=flags)


# ---------------------------------------------------------------------------
# spectral heat model
# ---------------------------------------------------------------------------

def heat_lipschitz(q_op_norm: float, small_rate: float, large_rate: float,
                   p: float) -> float:
    """Lipschitz constant of the spectral heat model:
    max(2/5, ||Q^(1/2)||, (1/3) small_rate^(1/p), (1/3) large_rate^(1/p))."""
    return max(0.4, q_op_norm,
               (small_rate ** (1.0 / p)) / 3.0,
               (large_rate ** (1.0 / p)) / 3.0)


def build_heat_model(galerkin: GalerkinSpec, q_decay: float = 2.0,
                     jump_spec: JumpMeasureSpec | None = None, *,
                     q_base: float = 0.09, drift_scale: float = 0.2,
                     diffusion_map: StateMap | None = None,
                     moment_p: float = 2.5) -> SdeModel:
    """Spectral truncation of the forced stochastic heat equation.

    Semigroup rates are the Dirichlet Laplacian spectrum ``(n pi)^2``
    (so K = 1, omega = pi^2).  The drift is the pointwise nonlinearity
    ``drift_scale (cos t + sin(sqrt(2) t)) sin(u)``; the diffusion is the
    diagonal multiplicative field with profile
    ``sin(1/(2 + cos t + cos(sqrt 2) t))``; both jump coefficients are
    ``cos(u) / (3 (sin(sqrt 2) t + 2))`` times a finite-rank mark, applied
    pointwise at the collocation nodes.  Mode variances decay as
    ``q_base * n^(-q_decay)``.
    """
    if jump_spec is None:
        jump_spec = JumpMeasureSpec(moment_p=moment_p)
    n = galerkin.n_modes
    mode_vars = tuple(q_base * k ** (-q_decay) for k in range(1, n + 1))
    semigroup = SemigroupSpec(eigenvalues=galerkin.eigenvalues, K=1.0, omega=np.pi**2)

    # cos t + sin(sqrt 2 t) written as phased sines
    drift_profile = harmonic_profile(
        amps=(drift_scale, drift_scale), freqs=(1.0, np.sqrt(2.0)),
        phases=(np.pi / 2.0, 0.0), recurrence_class="quasi_periodic")
    drift = coefficient((drift_profile, sine_map(1.0)), pointwise=True)

    diff_profile = trig_reciprocal_profile(
        outer="sin", amp=1.0, offset=2.0,
        inner_amps=(1.0, 1.0), inner_freqs=(1.0, np.sqrt(2.0)),
        inner_phases=(np.pi / 2.0, np.pi / 2.0), recurrence_class="levitan")
    diffusion = coefficient(
        (diff_profile, diffusion_map if diffusion_map is not None else linear_map(1.0)))

    jump_profile = reciprocal_profile(
        amp=1.0 / 3.0, offset=2.0, inner_amps=(1.0,), inner_freqs=(np.sqrt(2.0),),
        recurrence_class="periodic")
    jump = jump_coefficient((jump_profile, cosine_map(1.0)),
                            mark_mode="pointwise_product", pointwise=True)

    lip = heat_lipschitz(float(np.sqrt(max(mode_vars))) if mode_vars else 0.0,
                         jump_spec.small_rate, jump_spec.large_rate, moment_p)
    coeffs = CoefficientSet(drift=drift, diffusion=diffusion,
                            small_jump=jump, large_jump=jump,
                            A0=0.0, lipschitz_L=lip, moment_p=moment_p)
    model = SdeModel(semigroup=semigroup, coefficients=coeffs,
                     wiener=WienerSpec(mode_variances=mode_vars),
                     jumps=jump_spec, galerkin=galerkin)
    a0 = _heat_zero_bound(model, jump_profile.sup_bound())
    return replace(model, coefficients=replace(coeffs, A0=a0))


def _heat_zero_bound(model: SdeModel, prof_sup: float) -> float:
    """Growth constant: the jump coefficient does not vanish at zero.

    Reads the model's own jump intensities, with the same conservative
    mark factors as the hypothesis checker (node sup norms for the
    p-powers), so the growth check passes with nonnegative slack by
    construction.
    """
    gal, p = model.galerkin, model.coefficients.moment_p
    ones_proj = float(np.linalg.norm(gal.to_modes(np.ones(gal.collocation_points))))
    vals = [0.0]
    for which in ("small", "large"):
        rate = getattr(model.jumps, f"{which}_rate")
        vals.append(prof_sup * math.sqrt(rate * model.jumps.mark_moment(which, 2)))
        vals.append(prof_sup * ones_proj * model.jump_intensity(which, p) ** (1 / p))
    return max(vals)
