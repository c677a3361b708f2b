"""Vectorized path ensembles with per-path seeded noise.

Paths are advanced together on a shared grid (uniform ``max_step`` nodes
plus any requested observation times); each path owns an independent
noise stream keyed by ``(master_seed, path_index)``, so a path's states
do not depend on the other paths or on chunking (bit for bit without a
Galerkin transform, to rounding with one), and two ensembles launched
with the same master seed are driven by the *same* noise realization
path-for-path (the coupling used by every gap experiment).

Paths run in chunks of ``CHUNK``.  A chunk's noise is drawn once: each
path's Wiener increments are written in place into one (n_steps, chunk,
dim) block, and the jump events of all its paths go into one table.
:func:`coupled_gap` steps both of its models on that one draw.

Each step is the kernel of :func:`levylab.integrator.step_kernel` on the
(n_paths, dim) batch, with its tables built once per ensemble, and each
chunk's jumps go through :func:`levylab.integrator.jump_kernel`, the jump
rule that :func:`levylab.integrator.integrate` runs too: a jump inside a
step acts on the kernel's own step to the jump time.  So a one-path
ensemble on the grid of ``integrate`` reproduces its path bit for bit.
The jump kernel sorts a chunk's events once into (step, round, kind)
slices, so a step makes one coefficient call per slice, and none when it
holds no jump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .integrator import (check_finite, jump_events, jump_kernel, refined_grid,
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


def _draw_chunk(model: SdeModel, grid, window, seeds):
    """The noise of one chunk: its Wiener block (n_steps, chunk, dim),
    filled path by path, and the :func:`~levylab.integrator.jump_events`
    of all its paths."""
    dw = np.empty((grid.size - 1, len(seeds), model.dim))
    jumps = []
    for local_idx, seed in enumerate(seeds):
        dw[:, local_idx] = sample_wiener_increments(model.wiener, grid, seed)
        jumps.append(sample_jumps(model.jumps, window, seed))
    return dw, jump_events(jumps)


def _run_chunk(model: SdeModel, step, grid, obs_idx, y0_chunk, noise):
    dw, events = noise
    y = y0_chunk.copy()
    out = np.empty((len(obs_idx), y.shape[0], y.shape[1]))
    out[obs_idx == 0] = y
    obs_lookup = {int(g): k for k, g in enumerate(obs_idx)}
    add_jumps = jump_kernel(model, grid, events, dw)

    for i in range(grid.size - 1):
        y = add_jumps(i, y, *step(i, y, dw[i]))
        check_finite(y, grid[i + 1])
        k = obs_lookup.get(i + 1)
        if k is not None:
            out[k] = y
    return out


def _initial_states(y0, n_paths: int, dim: int) -> np.ndarray:
    """``y0`` as a scalar, a state vector or an (n_paths, dim) array,
    broadcast to (n_paths, dim)."""
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim > 2 or y0.shape != (n_paths, dim)[2 - y0.ndim:]:
        raise InputError("y0 must broadcast to (n_paths, dim)")
    return np.broadcast_to(y0, (n_paths, dim))


def _run_ensembles(models, window, y0s, n_paths: int, max_step: float, seed: int,
                   obs_times):
    """Observation times (snapped into the shared grid) and the states of
    each of ``models``, all driven by one noise: each chunk's noise is
    drawn once, from the noise law of ``models[0]``."""
    t0, t1 = float(window[0]), float(window[1])
    obs = np.unique(np.asarray(obs_times, dtype=float))
    if obs.size and (obs.min() < t0 - 1e-9 or obs.max() > t1 + 1e-9):
        raise InputError("observation times must lie inside the window")
    grid = refined_grid(t0, t1, max_step, obs)
    obs_idx = np.searchsorted(grid, obs)
    y0s = [_initial_states(y0, n_paths, m.dim) for m, y0 in zip(models, y0s)]
    steps = [step_kernel(m, grid) for m in models]
    parts = [[] for _ in models]
    for lo in range(0, n_paths, CHUNK):
        noise = _draw_chunk(models[0], grid, (t0, t1),
                            [_path_seed(seed, p) for p in range(lo, min(lo + CHUNK, n_paths))])
        for part, m, step, y0 in zip(parts, models, steps, y0s):
            part.append(_run_chunk(m, step, grid, obs_idx, y0[lo:lo + CHUNK], noise))
    return grid[obs_idx], [np.concatenate(part, axis=1) for part in parts]


def simulate_ensemble(model: SdeModel, window, y0, n_paths: int, max_step: float,
                      seed: int, obs_times) -> EnsembleResult:
    """Simulate ``n_paths`` independent paths and record the states at
    ``obs_times`` (snapped into the shared grid).

    ``y0`` may be a scalar, a state vector, or an (n_paths, dim) array.
    Determinism: the result is a pure function of the arguments.
    """
    times, (states,) = _run_ensembles((model,), window, (y0,), n_paths, max_step,
                                      seed, obs_times)
    return EnsembleResult(times=times, states=states,
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
    error; the coupling is synchronous: both models step on one draw of
    each chunk's noise (identical Wiener increments and jump events
    path-for-path), so they must share one noise law.
    """
    if (model_a.wiener, model_a.jumps) != (model_b.wiener, model_b.jumps):
        raise InputError("a same-noise coupling needs models with one noise law")
    times, (states_a, states_b) = _run_ensembles((model_a, model_b), window, (y0a, y0b),
                                                 n_paths, max_step, seed, obs_times)
    gap, se = mean_and_se(np.sum((states_a - states_b) ** 2, axis=2))
    return GapCurve(times=times, gap=gap, se=se)
