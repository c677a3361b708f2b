"""The one exponential-Euler step kernel and the one jump rule of the path
drivers, and the cadlag path that :func:`levylab.ensemble.integrate` returns.

:func:`step_kernel` tabulates once per grid the semigroup factors of every
step and, per state slot, the profile columns of the terms on it, and
returns the step (Hochbruck & Ostermann, Acta Numerica 2010)

    Y(t+dt) = e^(-Lam dt) Y + Lam^-1 (1 - e^(-Lam dt)) D(t, Y)
              + e^(-Lam dt) g(t, Y) dW

for one state (dim,), the 0-d state of one component (numpy's scalar path,
bit for bit the array's), a batch (n_paths, dim) or the k stacked batches
(k, n_paths, dim) of models that differ only in their profiles; it
evaluates each map and ``to_phys`` once.  ``Lam`` is the diagonal decay
matrix and ``D`` collects the drift coefficient, the Wiener drift vector
routed through the diffusion, and the small-jump compensator.  Weak order
one; the deterministic drift part is O(step)-accurate with constant
``sup|f'|/(2 lambda_min)`` thanks to the integrating factor.  The one
driver loop, :func:`levylab.ensemble._run_chunk`, runs it and checks the
states once per Wiener slab (:func:`run_checked`).

:func:`jump_kernel` is the one jump rule: a jump at ``s`` inside a step
``[u, v]`` acts on the kernel's own step from ``u`` to ``s`` with the Wiener
increment ``(s-u)/(v-u) dW``, and is added to the step's end with the decay
``exp(-Lam (v-s))``.  On a grid refined by every jump time (Bruti-Liberati
& Platen, J. Comput. Appl. Math. 2007), ``s = v``: the jump acts on the
stepped left limit.  A model without Galerkin spec takes its jumps one event
at a time, on floats; a Galerkin model, in slices that batch its transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalBlowupError
from .model import _ZERO, SdeModel, StateMaps
from .noise import JUMP_SMALL, window_ends   # a jump flag of a node; 0 is none


def _structure(model: SdeModel) -> SdeModel:
    """``model`` without its coefficient profiles: all that stacked models share."""
    c = model.coefficients
    return replace(model, coefficients=replace(c, **{
        name: replace(getattr(c, name), terms=tuple(m for _, m in getattr(c, name).terms))
        for name in ("drift", "diffusion", "small_jump", "large_jump")}))


def _semigroup(rates: np.ndarray, dt) -> tuple:
    """``exp(-Lam dt)`` and ``phi1(dt) = Lam^-1 (1 - exp(-Lam dt))``, a row per ``dt``."""
    neg_ldt = -np.outer(dt, rates)
    return np.exp(neg_ldt), -np.expm1(neg_ldt) / rates


def _profile_columns(models, name: str, times) -> tuple:
    """Per-term columns of ``name`` at ``times``: scalars, or (k, 1, 1) blocks for k models."""
    table = np.stack([getattr(m.coefficients, name).profile_table(times) for m in models], -1)
    return tuple(np.moveaxis(table[..., None, None] if len(models) > 1 else table[..., 0], 1, 0))


def _program(coef, cols, slots, tables: dict, gal, zero) -> list:
    """The rows of ``coef`` for :meth:`Coefficient.combine`: (slot, r), column r of
    ``tables[slot]``, or (None, values) for ``ones`` terms on coordinates, read 0-d
    (numpy's scalar path), whose leading run folds into a base after the first
    product; with no product, a ``zero`` column, if given, makes one."""
    cols = [col * m.scale if slot is None else col
            for col, slot, (_, m) in zip(cols, slots, coef.terms)]
    lead = next((k for k, slot in enumerate(slots) if slot is not None), len(slots))
    rows, space = [], int(coef.on_nodes(gal))
    for col, slot in list(zip(cols[lead:], slots[lead:])) or [(zero, space)] * (zero is not None):
        tables.setdefault(slot, []).append(col)
        rows.append((slot, col if slot is None else len(tables[slot]) - 1))
    if lead:   # sum adds left to right, as combine
        rows.insert(1, (None, sum(cols[1:lead], cols[0] + 0.0)))
    return rows


def step_kernel(models, grid: np.ndarray):
    """Tabulate the steps of ``grid`` once and return ``step(i, y, dw) ->
    (y_new, drift, gdiag)`` over step ``i`` of k ``models`` that differ only in
    their coefficient profiles, for ``y`` (k, n_paths, dim) and ``dw`` (n_paths,
    dim), read by every block; one model takes (dim,) or (n_paths, dim) arrays, or
    a 0-d state and a scalar ``dw`` if it has one component.
    ``drift`` is ``D`` at the step start and ``gdiag`` the diffusion (tabulated if
    no term reads the state).  A step multiplies each slot's value by its table row once:
    its one column on an array state (a scalar or (k, 1, 1) block), else its (cols, *y) row,
    as on a 0-d state (numpy's array overflow warning); +0.0 goes to first rows without base."""
    model = models[0]
    if any(_structure(m) != _structure(model) for m in models[1:]):
        raise InputError("stacked models need one noise law and one structure: "
                         "they may differ only in their coefficient profiles")
    decay, phi1 = _semigroup(model.semigroup.rates, np.diff(grid))
    c, gal, a = model.coefficients, model.galerkin, model.wiener.drift
    f, g, s = c.drift, c.diffusion, c.small_jump
    rate, sampler = model.jumps.small_rate, model.jumps.small_sampler
    mean = s.mark_factor(sampler.mean(), gal) if rate else None
    # skip the terms that are identically zero (no Wiener drift, a zero mark mean):
    # their signed zeros leave f, which holds no -0.0 (evaluate adds +0.0), as it is
    a = a if np.any(a) else None
    rate = rate if mean is None or np.any(mean) else 0.0
    maps, tables = StateMaps((f, g, s)[:3 if rate else 2], gal, tabulated=True), {}
    zero = np.zeros((grid.size - 1, len(models), 1, 1)[:4 if len(models) > 1 else 1])
    named = zip(("drift", "diffusion", "small_jump"), (f, g, s), maps.slots)
    programs = [_program(coef, _profile_columns(models, name, grid[:-1]), slots, tables, gal,
                         zero if name == "drift" or not slots else None)   # state-shaped
                for name, coef, slots in named]
    tabs = {slot: np.stack(cols, 1) for slot, cols in tables.items() if slot is not None}
    gather, sizes = [row for rows in programs for row in rows], [len(r) for r in programs]
    f_at, g_at, s_at = (slice(sum(sizes[:k]), sum(sizes[:k + 1])) for k in range(3))
    zeroed = {rows[0][0] for rows, sl in zip(programs, maps.slots) if sl[:1] != (None,)}
    one = {slot for slot, tab in tabs.items() if tab.shape[1] == 1}   # array states scale by it
    factors = dict.fromkeys((1, 2, 3), (decay, phi1, a, mean))
    if model.dim == 1:   # a 0-d state reads scalars: numpy's scalar path, its array bits
        factors[0] = tuple(x if np.ndim(x) == 0 else x[..., 0] for x in factors[1])
    layouts = {nd: (factors[nd], [(slot, tab[:, 0] if nd and slot in one   # row i * value
                                   else tab.reshape(tab.shape + (1,) * (nd + 2 - tab.ndim)),
                                   slot in zeroed) for slot, tab in tabs.items()],
                    [(slot, ... if nd and slot in one else x) for slot, x in gather])
               for nd in factors}

    def step(i: int, y: np.ndarray, dw: np.ndarray):
        (decay, phi1, a, mean), products, gather = layouts[y.ndim]
        vals, at, prods = maps(y), (i, ...) if y.ndim else i, {}   # ones columns: 0-d, scalars
        for slot, tab, zero in products:   # a loop: no comprehension to call per step
            prods[slot] = prod = tab[i] * vals[slot]
            if zero:   # a first row without base: a zeros accumulator's +0.0
                prod += _ZERO
        rows = [x[at] if slot is None else prods[slot][x] for slot, x in gather]
        del vals   # spent: the sums may reuse its memory (node arrays on Galerkin models)
        gdiag = g.combine(rows[g_at], gal)
        drift = f.combine(rows[f_at], gal)
        if a is not None:
            drift += gdiag * a
        if rate:
            drift += -rate * s.combine(rows[s_at], gal, mean)
        d = decay[i]
        return d * y + phi1[i] * drift + d * (gdiag * dw), drift, gdiag

    return step


def _event_jump(coef, times, marks):
    """``jump(e, y)``: J of ``coef`` at event ``e`` of ``times``, ``marks`` and the float ``y``
    (one coordinate, no Galerkin spec) by its state maps, :func:`_program` rows and
    ``combine``, or tabulated once by its ``event_kernel`` if no term reads the state."""
    maps, tables, table = StateMaps((coef,), tabulated=True), {}, coef.profile_table(times)
    slots, marks = maps.slots[0], marks[:, 0]
    if all(s is None for s in slots):
        jumps = memoryview(coef.event_kernel(table, marks)(slice(None), np.zeros(times.size)))
        return lambda e, y: jumps[e]
    cols = [(s, memoryview(x if s is None else tables[s][x]))
            for s, x in _program(coef, tuple(table.T), slots, tables, None, None)]
    marks = memoryview(marks) if coef.mark_mode == "scalar" else None

    def jump(e, y):
        vals, rows = maps(y), []
        for s, x in cols:   # a loop: no comprehension to call per event
            rows.append(x[e] if s is None else x[e] * vals[s])
        if slots[0] is not None:   # a first row without base, as in step_kernel
            rows[0] += 0.0
        return coef.combine(rows, None, marks if marks is None else marks[e])

    return jump


def jump_kernel(models, grid, events):
    """Tabulate the jump table ``events`` (see :func:`levylab.noise.jump_table`)
    of the paths once for the k ``models`` of :func:`step_kernel` and return
    ``read_slab(lo, dw)``, ``add_jumps(i, y, y_new, drift, gdiag)`` and the steps it acts on.
    ``read_slab`` takes the Wiener terms of the events in the steps of a slab
    ``dw`` (n_paths, rows, dim) from step ``lo`` (see
    :func:`levylab.noise.wiener_slabs`); ``add_jumps`` adds to ``y_new``, the
    end states of step ``i`` of that slab from the states ``y``, the jumps
    inside the step, in place, each event on its path in every block (a 0-d
    state, a scalar, is returned, not updated).  A later jump of a path in the
    step flows on from its previous post-jump state over ``s_k - s_(k-1)``.

    Per event, in (step, path, time) order: its profile row, that ``lead``
    with ``exp(-Lam lead)``, ``phi1(lead)``, ``lead / (v-u)`` and ``exp(-Lam
    (v-s))``; a slab's events are one range, whose Wiener terms ``lead / (v-u) dW``
    one expression fills.  Without a Galerkin spec ``add_jumps`` walks a step's
    events in that order, one block and coordinate at a time, on floats
    (:func:`_event_jump`); with one, it takes (step, round, kind) slices, round r
    holding each path's (r+1)-th jump, each the batch of ``to_phys`` and
    ``to_modes``, whose rounding depends on the batch size."""
    times, paths, kinds, marks = events
    interval = np.clip(np.searchsorted(grid, times, side="left") - 1, 0, grid.size - 2)
    order = np.lexsort((times, paths, interval))
    times, paths, kinds, marks, interval = (a[order] for a in
                                            (times, paths, kinds, marks, interval))
    first = np.ones(times.size, dtype=bool)
    first[1:] = (paths[1:] != paths[:-1]) | (interval[1:] != interval[:-1])
    lead = times - np.where(first, grid[interval], np.roll(times, 1))
    frac = lead / (grid[interval + 1] - grid[interval])
    model, names = models[0], ("small_jump", "large_jump")   # kinds JUMP_SMALL, JUMP_LARGE
    lam, wiener = model.semigroup.rates, np.empty((times.size, model.wiener.dim))
    rest = grid[interval + 1] - times   # from each event to its step's end
    (dec_in, phi1), (dec_out, _) = _semigroup(lam, lead), _semigroup(lam, rest)
    if model.galerkin is None:
        jumps = [(None, *(_event_jump(getattr(m.coefficients, name), times, marks)
                          for name in names)) for m in models]   # each block's, by kind
        d_in, ph, d_out, w = (memoryview(a.reshape(-1)) for a in (dec_in, phi1, dec_out, wiener))
        path, kind, new_path, dim = *map(memoryview, (paths, kinds, first)), lam.size
        reads = any(m.kind != "ones" for name in names   # else no jump reads x
                    for _, m in getattr(model.coefficients, name).terms)
        starts = np.flatnonzero(np.r_[times.size > 0, np.diff(interval) != 0]).tolist()
        spans = dict(zip(interval[starts].tolist(), zip(starts, starts[1:] + [times.size])))

        def add_jumps(i, y, y_new, drift, gdiag):
            (a, b), n = spans[i], y.shape[-2] if y.ndim > 1 else 1
            new, at_block = y_new.reshape(-1), gdiag.size != y.size   # a tabulated diffusion
            for block, jump in enumerate(jumps):
                for c in range(dim):
                    for e in range(a, b):
                        k, l = (block * n + path[e]) * dim + c, e * dim + c
                        if new_path[e]:
                            x, acc = y.item(k), new.item(k)
                        if reads:   # x: the pre-jump state
                            d = d_in[l]
                            x = (d * x + ph[l] * drift.item(k)
                                 + d * (gdiag.item(block if at_block else k) * w[l]))
                        raw = jump[kind[e]](e, x)
                        acc += d_out[l] * raw
                        new[k], x = acc, x + raw
            return y_new if y_new.ndim else new[0]
    else:   # a round starts from the post-jump states of the previous one, at ``back``
        pos = np.arange(times.size)
        rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
        regroup = np.lexsort((paths, kinds, rank, interval))
        back = np.argsort(regroup)[regroup - 1]
        times, paths, kinds, marks, interval, rank, frac, dec_in, phi1, dec_out = (
            a[regroup] for a in (times, paths, kinds, marks, interval, rank, frac, dec_in,
                                 phi1, dec_out))
        blocks = (slice(None),) * (len(models) > 1)   # the block axis, if any
        per_block = np.stack if blocks else (lambda rows: rows[0])   # rows of each model
        kernels = {kind: coef.event_kernel(   # rows and scalar marks broadcast over coordinates
            per_block([getattr(m.coefficients, name).profile_table(times)[:, None]
                       for m in models]),
            per_block([marks[:, :1] if coef.mark_mode == "scalar" else marks]), model.galerkin)
            for kind, name in enumerate(names, JUMP_SMALL)
            for coef in [getattr(model.coefficients, name)]}
        starts = np.flatnonzero(np.r_[times.size > 0, np.any(np.diff([interval, rank, kinds]), 0)])
        spans = {}   # step -> its slices; most steps hold no jump
        for a, b, i, kind, r in zip(*(x.tolist() for x in (
                starts, np.append(starts[1:], times.size), interval[starts], kinds[starts],
                rank[starts]))):
            sl = slice(a, b)   # j: the slice's rows in every block (sl itself for one model)
            spans.setdefault(i, []).append((sl, blocks + (sl,) if blocks else sl,
                                            kernels[kind], r > 0))
        post = per_block([np.empty((times.size, model.dim))] * len(models))

        def add_jumps(i, y, y_new, drift, gdiag):
            new = y_new
            if y.ndim < 2:   # one path's (dim,) state: a one-row batch
                y, new, drift, gdiag = (np.reshape(x, (1, -1)) for x in (y, y_new, drift, gdiag))
            gdiag = gdiag if gdiag.shape == y.shape else np.broadcast_to(gdiag, y.shape)
            for sl, j, jump, later in spans[i]:
                p, d = blocks + (paths[sl],), dec_in[sl]
                pre = (d * (post[blocks + (back[sl],)] if later else y[p]) + phi1[sl] * drift[p]
                       + d * (gdiag[p] * wiener[sl]))
                raw = jump(j, pre)
                new[p] += dec_out[sl] * raw
                post[j] = pre + raw
            return y_new

    def read_slab(lo, dw):
        a, b = np.searchsorted(interval, (lo, lo + dw.shape[1])).tolist()
        wiener[a:b] = frac[a:b, None] * dw[paths[a:b], interval[a:b] - lo]

    return read_slab, add_jumps, frozenset(spans)


@dataclass
class SamplePath:
    """Trajectory on a grid containing every jump time.

    ``values`` holds the cadlag states, post-jump at jump indices;
    ``jump_flags`` is 0 / 1 / 2 for none / small / large.
    """

    times: np.ndarray
    values: np.ndarray
    jump_flags: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def restrict(self, t0: float, t1: float) -> "SamplePath":
        keep = (self.times >= t0 - 1e-12) & (self.times <= t1 + 1e-12)
        return SamplePath(self.times[keep], self.values[keep], self.jump_flags[keep])

    def to_csv(self, path):
        from .config import write_csv   # loaded on the first write, not with the package
        write_csv(path, ("time", "jump_flag", *(f"y{k}" for k in range(self.dim))),
                  (self.times, self.jump_flags, *self.values.T))


def refined_grid(t0: float, t1: float, max_step: float, nodes) -> np.ndarray:
    """Uniform grid on [t0, t1], steps at most ``max_step``, refined by ``nodes``."""
    t0, t1 = window_ends((t0, t1))
    if not 0.0 < max_step < math.inf:
        raise InputError(f"max_step must be positive and finite, got {max_step!r}")
    n = max(1, int(np.ceil((t1 - t0) / max_step - 1e-12)))
    return np.unique(np.concatenate([np.linspace(t0, t1, n + 1), nodes]))


def check_finite(y: np.ndarray, t: float):
    """Raise :class:`NumericalBlowupError` naming the first non-finite entry
    of a state (its component) or of a batch (its [model,] path and component)."""
    if not np.logical_and.reduce(np.isfinite(y), axis=None):
        y = np.atleast_1d(y)   # a 0-d state names its component 0
        at = zip(("model", "path", "component")[-y.ndim:], np.argwhere(~np.isfinite(y))[0])
        raise NumericalBlowupError(t, ", ".join(f"{n} {k}" for n, k in at)
                                   + f" non-finite at t = {t:g}")


def run_checked(run, y: np.ndarray, t: float) -> np.ndarray:
    """``run(y, check)``, a slab of steps from ``y`` to ``t``, run without checks or
    overflow and invalid warnings, then again with a check after every step if its
    end is not finite: exact, as ``y`` steps to ``exp(-Lam dt) y + ...``, jumps add."""
    with np.errstate(over="ignore", invalid="ignore"):
        end = run(y, False)
    if not np.logical_and.reduce(np.isfinite(end), axis=None):
        run(y, True)   # raises where the first non-finite state is
    check_finite(end, t)
    return end


def initial_states(y0, n_paths: int, dim: int) -> np.ndarray:
    """``y0`` as a scalar, a state vector or an (n_paths, dim) array,
    broadcast to (n_paths, dim); every entry must be finite."""
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim > 2 or y0.shape != (n_paths, dim)[2 - y0.ndim:]:
        raise InputError("y0 must broadcast to (n_paths, dim)")
    if not np.logical_and.reduce(np.isfinite(y0), axis=None):
        raise InputError("y0 must be finite")
    return np.broadcast_to(y0, (n_paths, dim))
