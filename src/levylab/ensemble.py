"""Vectorized path ensembles with per-path seeded noise, and the one path of integrate.

Paths are advanced together on a shared grid (uniform ``max_step`` nodes
plus any requested observation times); each path owns independent noise
streams, numpy's ``SeedSequence(master_seed, spawn_key=(path_index,
*key))``, so a path's states do not depend on the other paths or on
chunking (bit for bit without a Galerkin transform, to rounding with
one), and two ensembles launched with the same master seed are driven by
the *same* noise realization path-for-path (the coupling used by every
gap experiment).

Paths run in chunks of ``CHUNK``.  A chunk's noise is drawn once: the
jump events of all its paths form one table (:func:`levylab.noise.jump_table`),
and its Wiener increments come in slabs of about
:data:`levylab.noise.SLAB_BYTES` (:func:`levylab.noise.wiener_slabs`), so
its memory does not grow with the window.

The k models of a run (two in :func:`coupled_gap`) step as one batch of
k blocks of the chunk's paths, (k, n_paths, dim) or (n_paths, dim) for
one model, through :func:`levylab.integrator.step_kernel`, built once per
run: its profile columns hold one value per model, broadcast over its
block, and each slab, drawn once, is read by all blocks without a copy.
Each chunk's jumps go through :func:`levylab.integrator.jump_kernel`,
which applies each event to its path in every block: a jump inside a
step acts on the kernel's own step to the jump time.  So each block is
its model's separate run bit for bit.  Only a step that holds a jump
calls the jump kernel, and the states are checked once per slab
(:func:`levylab.integrator.run_checked`).

:func:`integrate` runs the same chunk loop, :func:`_run_chunk`, on the one
path ``seed`` on the grid refined by its jump times, observed at every node,
with a (dim,) state, which steps faster than a one-row batch, or a 0-d one
for one component (:func:`path_state`), which steps faster still.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .integrator import (SamplePath, check_finite, initial_states, jump_kernel,
                         refined_grid, run_checked, step_kernel)
from .model import SdeModel
from .noise import jump_table, wiener_slabs

CHUNK = 1024   # paths per chunk; the slab size of noise.SLAB_BYTES bounds its Wiener memory


@dataclass
class EnsembleResult:
    """States of all paths at the requested observation times."""

    times: np.ndarray            # (n_obs,)
    states: np.ndarray           # (n_obs, n_paths, dim)

    def mean_sq_norm(self):
        """(E |Y(t)|^2 estimate, standard error) per observation time."""
        return mean_and_se(np.sum(self.states**2, axis=2))


def mean_and_se(samples: np.ndarray):
    """Mean over the last (path) axis and its Monte Carlo standard error,
    which is 0 for a single path."""
    n = samples.shape[-1]
    se = samples.std(axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(samples.shape[:-1])
    return samples.mean(axis=-1), se


def _draw_chunk(model: SdeModel, grid, window, seed, paths):
    """The jump table and the Wiener slabs of the paths ``paths`` of one chunk."""
    return jump_table(model.jumps, window, seed, paths), wiener_slabs(model.wiener, grid,
                                                                       seed, paths)


def _run_chunk(models, step, grid, obs_idx, y, events, out):
    """``advance(lo, dw)``: steps the states ``y`` of ``models``, 0-d, (dim,) or a batch,
    through the Wiener slab ``dw`` from step ``lo``, writing them to ``out`` at observation
    steps."""
    read_slab, add_jumps, jump_steps = jump_kernel(models, grid, events)
    out[obs_idx == 0] = y
    observed = (np.bincount(obs_idx, minlength=grid.size) > 0).tolist()   # obs_idx ascends

    def advance(lo, dw):
        nonlocal y
        read_slab(lo, dw)
        # rows[j]: step lo + j
        rows = dw[0, :, 0] if y.ndim == 0 else dw[0] if y.ndim == 1 else dw.swapaxes(0, 1)
        first = int(np.searchsorted(obs_idx, lo + 1))   # the row in out of the next observation

        def run(y, check):
            k = first
            for i in range(lo, lo + dw.shape[1]):
                y_new, drift, gdiag = step(i, y, rows[i - lo])
                y = add_jumps(i, y, y_new, drift, gdiag) if i in jump_steps else y_new
                if check:
                    check_finite(y, grid[i + 1])
                if observed[i + 1]:
                    out[k] = y
                    k += 1
            return y

        y = run_checked(run, y, grid[lo + dw.shape[1]])

    return advance


def path_state(model: SdeModel, y0):
    """The state :func:`integrate` steps from ``y0``: a (dim,) vector, or a 0-d scalar
    for one component without Galerkin spec (``to_phys`` takes arrays), whose numpy
    scalar arithmetic gives the bits of the array's at a fraction of the call cost."""
    y = initial_states(y0, 1, model.dim)[0]
    return y[0] if model.dim == 1 and model.galerkin is None else y


def integrate(model: SdeModel, window, y0, max_step: float, seed) -> SamplePath:
    """Simulate one cadlag mild-solution path of the model on ``window``.

    The noise is the one path ``seed`` of :mod:`levylab.noise`: its jump
    table on the window, then its Wiener slabs on the grid refined by the
    jump times, so identical arguments reproduce the path bit for bit.
    ``y0`` is a scalar or a state vector.  A non-finite state raises
    :class:`NumericalBlowupError` naming its component.
    """
    y = path_state(model, y0)
    events = jump_table(model.jumps, window, seed)
    grid = refined_grid(float(window[0]), float(window[1]), max_step, events[0])
    values = np.empty((grid.size, model.dim))
    advance = _run_chunk((model,), step_kernel((model,), grid), grid, np.arange(grid.size), y,
                         events, values)
    for slab in wiener_slabs(model.wiener, grid, seed):
        advance(*slab)
    flags = np.zeros(grid.size, dtype=np.int8)
    flags[np.searchsorted(grid, events[0])] = events[2]
    return SamplePath(times=grid, values=values, jump_flags=flags)


def observation_times(obs_times) -> np.ndarray:
    """The distinct observation times, sorted; each must be finite."""
    obs = np.unique(np.asarray(obs_times, dtype=float))
    if not np.logical_and.reduce(np.isfinite(obs)):
        raise InputError("obs_times must be finite")
    return obs


def _run_ensembles(models, window, y0s, n_paths: int, max_step: float, seed: int,
                   obs_times, path0: int = 0):
    """Observation times (snapped into the shared grid) and the states of each
    of ``models``, stacked into one batch stepped through each slab of one noise,
    that of ``models[0]`` on its paths ``path0 .. path0 + n_paths - 1``."""
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise InputError("n_paths must be a positive integer")
    t0, t1 = float(window[0]), float(window[1])
    obs = observation_times(obs_times)
    if obs.size and (obs.min() < t0 - 1e-9 or obs.max() > t1 + 1e-9):
        raise InputError("observation times must lie inside the window")
    grid = refined_grid(t0, t1, max_step, obs)
    obs_idx = np.searchsorted(grid, obs)
    step = step_kernel(models, grid)
    y0 = np.stack([initial_states(y0, n_paths, m.dim) for m, y0 in zip(models, y0s)])
    y0 = y0[0] if len(models) == 1 else y0   # one model keeps its (n_paths, dim) states
    out = np.empty((obs.size, len(models), n_paths, models[0].dim))
    for lo in range(0, n_paths, CHUNK):
        chunk = slice(lo, min(lo + CHUNK, n_paths))
        events, slabs = _draw_chunk(models[0], grid, (t0, t1), seed,
                                    range(path0, path0 + n_paths)[chunk])
        advance = _run_chunk(models, step, grid, obs_idx, y0[..., chunk, :], events,
                             out[:, :, chunk])
        for slab in slabs:
            advance(*slab)
    return grid[obs_idx], list(np.moveaxis(out, 1, 0))


def simulate_ensemble(model: SdeModel, window, y0, n_paths: int, max_step: float,
                      seed: int, obs_times) -> EnsembleResult:
    """Simulate ``n_paths`` independent paths and record the states at
    ``obs_times`` (snapped into the shared grid).

    ``y0`` may be a scalar, a state vector, or an (n_paths, dim) array.
    Determinism: the result is a pure function of the arguments.
    """
    times, (states,) = _run_ensembles((model,), window, (y0,), n_paths, max_step,
                                      seed, obs_times)
    return EnsembleResult(times=times, states=states)


@dataclass
class GapCurve:
    """Mean-square gap between two coupled runs, with standard errors."""

    times: np.ndarray
    gap: np.ndarray
    se: np.ndarray

    def to_csv(self, path):
        from .config import write_csv   # loaded on the first write, not with the package
        write_csv(path, ("t", "gap", "se"), (self.times, self.gap, self.se))


def coupled_gap(model_a: SdeModel, model_b: SdeModel, y0a, y0b, window,
                n_paths: int, max_step: float, seed: int, obs_times) -> GapCurve:
    """Mean-square gap between two runs driven by the same noise.

    Per-time ensemble mean of |Y_a - Y_b|^2 with its Monte Carlo standard
    error; the coupling is synchronous: the two models step as one stacked
    batch whose blocks read each slab of noise, drawn once (identical Wiener
    increments and jump events path-for-path), so they may differ only in
    their coefficient profiles.
    """
    times, (states_a, states_b) = _run_ensembles((model_a, model_b), window, (y0a, y0b),
                                                 n_paths, max_step, seed, obs_times)
    gap, se = mean_and_se(np.sum((states_a - states_b) ** 2, axis=2))
    return GapCurve(times=times, gap=gap, se=se)
