"""Vectorized path ensembles with per-path seeded noise.

Paths are advanced together on a shared grid (uniform ``max_step`` nodes
plus any requested observation times); each path owns an independent
noise stream keyed by ``(master_seed, path_index)``, so a path's states
do not depend on the other paths or on chunking (bit for bit without a
Galerkin transform, to rounding with one), and two ensembles launched
with the same master seed are driven by the *same* noise realization
path-for-path (the coupling used by every gap experiment).

Each step is the kernel of :func:`levylab.integrator.step_kernel` on the
(n_paths, dim) batch, with its tables built once per ensemble.  Jumps are
not grid-refined here (that is what :func:`levylab.integrator.integrate`
does for single paths).  A jump at time ``s`` inside a step ``[u, v]`` is
evaluated at the state flowed from ``u`` to ``s`` without the intra-step
noise and added with its exact semigroup decay ``exp(-Lam (v-s))``; a
later jump of the same path in the same step flows on from the undecayed
post-jump state.  This keeps weak order one and is placement-exact for
state-independent jump coefficients.  Each chunk tabulates the jump
profiles and both decay factors at its event times once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .integrator import (JUMP_LARGE, JUMP_SMALL, check_finite, refined_grid,
                         step_kernel)
from .model import SdeModel
from .noise import sample_jumps, sample_wiener_increments

CHUNK = 1024   # paths per chunk; bounds the (n_steps, CHUNK, dim) Wiener block


def _path_seed(master: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master), spawn_key=(int(index),))


@dataclass
class EnsembleResult:
    """States of all paths at the requested observation times."""

    times: np.ndarray            # (n_obs,)
    states: np.ndarray           # (n_obs, n_paths, dim)
    seed: int
    max_step: float

    def mean_sq_norm(self):
        """(E |Y(t)|^2 estimate, standard error) per observation time."""
        return mean_and_se(np.sum(self.states**2, axis=2))


def mean_and_se(samples: np.ndarray):
    """Mean over the last (path) axis and its Monte Carlo standard error,
    which is 0 for a single path."""
    n = samples.shape[-1]
    se = samples.std(axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(samples.shape[:-1])
    return samples.mean(axis=-1), se


def _jump_kernel(model: SdeModel, grid, window, seeds):
    """Tabulate the jump events of a chunk once and return ``add_jumps(i, y,
    y_new, drift)``: ``y_new`` plus the jumps inside step ``i``, in place.

    Per event, sorted by (step, path, time): its profile row, ``lead`` (the
    time since the path's previous jump in the step, or since the step
    start ``u``), ``exp(-Lam lead)`` and ``exp(-Lam (v-s))``."""
    times, paths, kinds, marks = [], [], [], []
    for local_idx, seed in enumerate(seeds):
        st, sm, lt, lm = sample_jumps(model.jumps, window, seed)
        for t_arr, m_arr, kind in ((st, sm, JUMP_SMALL), (lt, lm, JUMP_LARGE)):
            times.append(t_arr)
            paths.append(np.full(t_arr.size, local_idx))
            kinds.append(np.full(t_arr.size, kind, dtype=np.int8))
            marks.append(np.atleast_2d(m_arr.T).T if m_arr.ndim == 1 else m_arr)
    times, paths, kinds = (np.concatenate(a) for a in (times, paths, kinds))
    mark_dim = max(m.shape[1] for m in marks)
    marks = np.concatenate([m if m.shape[1] == mark_dim else
                            np.pad(m, ((0, 0), (0, mark_dim - m.shape[1]))) for m in marks])
    interval = np.clip(np.searchsorted(grid, times, side="left") - 1, 0, grid.size - 2)
    order = np.lexsort((times, paths, interval))
    times, paths, kinds, marks, interval = (times[order], paths[order], kinds[order],
                                            marks[order], interval[order])
    offsets = np.searchsorted(interval, np.arange(grid.size))
    pos = np.arange(times.size)
    first = np.ones(times.size, dtype=bool)
    first[1:] = (paths[1:] != paths[:-1]) | (interval[1:] != interval[:-1])
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    lead = times - np.where(first, grid[interval], np.roll(times, 1))
    lam, c = model.semigroup.rates, model.coefficients
    dec_in = np.exp(-np.outer(lead, lam))
    dec_out = np.exp(-np.outer(grid[interval + 1] - times, lam))
    coefs = [(kind, coef, coef.profile_table(times),
              marks[:, 0] if coef.mark_mode == "scalar" else marks)
             for kind, coef in ((JUMP_SMALL, c.small_jump), (JUMP_LARGE, c.large_jump))]

    def _apply_jumps(sel, pre):
        """Raw increments of the events ``sel`` at their pre-jump states,
        and the same increments decayed from the jump times to the step end."""
        raw = np.zeros_like(pre)
        for kind, coef, prof, mk in coefs:
            mask = kinds[sel] == kind
            if np.any(mask):
                rows = sel[mask]
                raw[mask] = coef.apply_mark(prof[rows], pre[mask], mk[rows], model.galerkin)
        return raw, dec_out[sel] * raw

    def add_jumps(i, y, y_new, drift):
        lo, hi = offsets[i], offsets[i + 1]
        step_rank = rank[lo:hi]
        # round r holds the (r+1)-th jump of each path in this step; it
        # starts from the previous round's undecayed post-jump state
        for r in range(step_rank.max(initial=-1) + 1):
            sel = lo + np.flatnonzero(step_rank == r)
            p = paths[sel]
            start = y[p] if r == 0 else post[np.searchsorted(post_paths, p)]
            pre = dec_in[sel] * start + lead[sel][:, None] * drift[p]
            raw, dec = _apply_jumps(sel, pre)
            y_new[p] += dec
            post, post_paths = pre + raw, p
        return y_new

    return add_jumps


def _run_chunk(model: SdeModel, step, grid, obs_idx, y0_chunk, seeds, window):
    y = y0_chunk.copy()
    out = np.empty((len(obs_idx), y.shape[0], y.shape[1]))
    out[obs_idx == 0] = y
    obs_lookup = {int(g): k for k, g in enumerate(obs_idx)}

    dw = np.stack([sample_wiener_increments(model.wiener, grid, s) for s in seeds], axis=1)
    add_jumps = _jump_kernel(model, grid, window, seeds)

    for i in range(grid.size - 1):
        y = add_jumps(i, y, *step(i, y, dw[i]))
        check_finite(y, grid[i + 1])
        k = obs_lookup.get(i + 1)
        if k is not None:
            out[k] = y
    return out


def simulate_ensemble(model: SdeModel, window, y0, n_paths: int, max_step: float,
                      seed: int, obs_times) -> EnsembleResult:
    """Simulate ``n_paths`` independent paths and record the states at
    ``obs_times`` (snapped into the shared grid).

    ``y0`` may be a scalar, a state vector, or an (n_paths, dim) array.
    Determinism: the result is a pure function of the arguments.
    """
    t0, t1 = float(window[0]), float(window[1])
    obs = np.unique(np.asarray(obs_times, dtype=float))
    if obs.size and (obs.min() < t0 - 1e-9 or obs.max() > t1 + 1e-9):
        raise InputError("observation times must lie inside the window")
    grid = refined_grid(t0, t1, max_step, obs)
    obs_idx = np.searchsorted(grid, obs)
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim == 0:
        y0 = np.full((n_paths, model.dim), float(y0))
    elif y0.ndim == 1:
        y0 = np.tile(y0, (n_paths, 1))
    if y0.shape != (n_paths, model.dim):
        raise InputError("y0 must broadcast to (n_paths, dim)")

    step = step_kernel(model, grid)
    parts = [_run_chunk(model, step, grid, obs_idx, y0[lo:lo + CHUNK],
                        [_path_seed(seed, p) for p in range(lo, min(lo + CHUNK, n_paths))],
                        (t0, t1))
             for lo in range(0, n_paths, CHUNK)]
    states = np.concatenate(parts, axis=1)
    return EnsembleResult(times=grid[obs_idx], states=states,
                          seed=int(seed), max_step=float(max_step))


@dataclass
class GapCurve:
    """Mean-square gap between two coupled runs, with standard errors."""

    times: np.ndarray
    gap: np.ndarray
    se: np.ndarray

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,gap,se\n")
            for t, g, s in zip(self.times, self.gap, self.se):
                fh.write(f"{float(t)!r},{float(g)!r},{float(s)!r}\n")


def coupled_gap(model_a: SdeModel, model_b: SdeModel, y0a, y0b, window,
                n_paths: int, max_step: float, seed: int, obs_times) -> GapCurve:
    """Mean-square gap between two runs driven by the same noise.

    Per-time ensemble mean of |Y_a - Y_b|^2 with its Monte Carlo standard
    error; the coupling is synchronous (identical Wiener increments and
    jump events path-for-path via the shared master seed).
    """
    res_a = simulate_ensemble(model_a, window, y0a, n_paths, max_step, seed, obs_times)
    res_b = simulate_ensemble(model_b, window, y0b, n_paths, max_step, seed, obs_times)
    gap, se = mean_and_se(np.sum((res_a.states - res_b.states) ** 2, axis=2))
    return GapCurve(times=res_a.times, gap=gap, se=se)
