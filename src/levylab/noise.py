"""Two-sided Levy noise in decomposed form.

A noise source is specified by a trace-class Wiener part (mode-wise
variances ``q_n`` plus a constant drift vector) and a finite-activity
jump measure split at ``|x| = 1``: small marks on ``[delta, 1)`` arrive
at rate ``small_rate`` and are integrated compensated, large marks on
``[1, inf)`` arrive at the finite rate ``large_rate`` and are integrated
raw.  Infinite-activity measures are handled only by truncation at
``delta`` together with the compensator drift.

Mark laws come from a closed registry (uniform shell, point mass,
truncated exponential tail, finite-rank vector atoms) so that the first
and second moments entering the hypothesis checks are exact.

Everything is reproducible: one seed's draw is its jump table
(:func:`jump_table`) on a window and its Wiener increments
(:func:`wiener_slabs`) on a grid, a pure function of ``(specs, window or
grid, seed)``.  The single-path integrator draws the one path ``seed``,
and path p of an ensemble draws from numpy's streams
``SeedSequence(master, spawn_key=(p, *key))``, one per Wiener part and
per side of 0, kind and purpose of its jumps.  A chunk of paths derives
the seeds of all its streams at once, with numpy's own hash, and sorts
and merges its jumps once; its Wiener increments come in slabs of a
fixed size, which do not grow with the grid.  Negative times are covered
by the mirror construction ``L(t) = -L2(-t)`` for ``t <= 0``: jumps in
the negative part of a window come from streams of their own, reflected,
with mark sign flipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.laguerre import laggauss

from .errors import InputError

_MARK_KINDS = ("uniform_shell", "point_mass", "exp_tail", "finite_rank")
_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class MarkSampler:
    """Mark distribution with analytic moments and quadrature nodes.

    ``uniform_shell``: |x| uniform on [lo, hi); independent fair sign if
    ``signed``.  ``point_mass``: the constant mark ``atoms[0]``.
    ``exp_tail``: |x| = cut + Exponential(scale).  ``finite_rank``:
    discrete law on the rows of ``atoms`` with weights ``probs``.
    """

    kind: str
    lo: float = 0.0
    hi: float = 1.0
    scale: float = 1.0
    cut: float = 1.0
    signed: bool = False
    atoms: tuple = ()       # numbers (scalar marks) or tuples (vector marks, d = 1 too)
    probs: tuple = ()

    def __post_init__(self):
        if self.kind not in _MARK_KINDS:
            raise InputError(f"unknown mark sampler kind {self.kind!r}")
        if self.kind == "uniform_shell" and not (0 <= self.lo < self.hi < math.inf):
            raise InputError("uniform_shell needs 0 <= lo < hi < inf")
        if self.kind == "exp_tail" and not (0 < self.scale < math.inf
                                            and 0 <= self.cut < math.inf):
            raise InputError(f"exp_tail needs a positive finite scale and a finite cut >= 0, "
                             f"got scale {self.scale!r}, cut {self.cut!r}")
        if self.kind in ("point_mass", "finite_rank") and not all(
                np.isfinite(a).all() for a in self.atoms):
            raise InputError(f"{self.kind} atoms must be finite")
        shapes = [np.shape(a) for a in self.atoms]
        if len(set(shapes)) > 1 or any(len(s) > 1 for s in shapes):
            raise InputError(f"{self.kind} atoms must be numbers or vectors of one shape, "
                             f"got shapes {shapes}")
        if self.kind == "finite_rank":
            if len(self.atoms) == 0 or len(self.atoms) != len(self.probs):
                raise InputError("finite_rank needs matching atoms and probs")
            if not all(p >= 0 for p in self.probs):   # false for NaN
                raise InputError(f"finite_rank probs must be nonnegative, got {self.probs!r}")
            if abs(sum(self.probs) - 1.0) > 1e-12:
                raise InputError("finite_rank probs must sum to 1")

    @property
    def dim(self) -> int:
        if self.kind in ("point_mass", "finite_rank"):
            return len(self.atoms[0]) if np.ndim(self.atoms[0]) else 1
        return 1

    @property
    def _scalar_atoms(self) -> bool:
        """True when the atoms are numbers, whose marks come as (n,) arrays."""
        return self.kind in ("point_mass", "finite_rank") and np.ndim(self.atoms[0]) == 0

    def _atom_array(self) -> np.ndarray:
        """The atoms as rows, (n_atoms, d), with d = 1 for scalar atoms."""
        return np.asarray(self.atoms, dtype=float).reshape(len(self.atoms), -1)

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The cdf of ``probs`` as ``Generator.choice`` builds it; __post_init__
        makes the checks on ``probs`` that ``choice`` would."""
        cdf = np.cumsum(self.probs)
        cdf /= cdf[-1]
        return cdf

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` marks; shape (n,) for scalar laws, (n, d) for vector
        laws, d = 1 included: :meth:`marks` of :meth:`variates`.

        Signs are read from raw words: the generator's 64-bit state advances
        as under ``rng.choice([-1.0, 1.0], size=n)``, but the spare 32-bit
        half that numpy would buffer after an odd ``n`` is dropped, so a
        signed draw is the last one of its stream (each mark stream is
        discarded after its draw)."""
        return self.marks(*self.variates(rng, n))

    def variates(self, rng: np.random.Generator, n: int) -> tuple:
        """The raw draws of ``n`` marks: ``n`` uniforms (standard exponentials
        for ``exp_tail``; none, an empty array of ``n``, for ``point_mass``),
        then, if ``signed``, ``n`` 32-bit sign words."""
        if self.kind == "point_mass":
            return (np.empty(n),)   # nothing drawn; its length is the count
        # the draws of rng.uniform(lo, hi, n), rng.exponential(scale, n) and
        # rng.choice(n_atoms, n, p=probs), before their transforms
        x = rng.standard_exponential(n) if self.kind == "exp_tail" else rng.random(n)
        if not self.signed or self.kind == "finite_rank":
            return (x,)
        # rng.choice([-1.0, 1.0], size=n) reads integers(0, 2): the top bit of
        # each 32-bit half word, low half first
        words = rng.bit_generator.random_raw(-(-n // 2)).astype("<u8", copy=False)
        return x, words.view("<u4")[:n]

    def marks(self, x: np.ndarray, words: np.ndarray | None = None) -> np.ndarray:
        """The marks of the :meth:`variates` ``x`` and ``words`` (of one stream,
        or of several streams concatenated)."""
        if self.kind == "uniform_shell":
            x = self.lo + (self.hi - self.lo) * x
        elif self.kind == "exp_tail":
            x = self.cut + self.scale * x
        else:
            a = self._atom_array()
            a = (np.tile(a[0], (x.size, 1)) if self.kind == "point_mass"
                 else a[self._cdf.searchsorted(x, side="right")])
            return a[:, 0] if self._scalar_atoms else a
        return x if words is None else x * _SIGNS[words >> 31]

    # -- moments (exact; exp_tail uses Gauss-Laguerre, exact to quad order) --

    def abs_moment(self, k: float) -> float:
        """E |x|^k with |.| the Euclidean norm of the mark."""
        if self.kind == "uniform_shell":
            lo, hi = self.lo, self.hi
            return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))
        if self.kind == "exp_tail":
            u, w = laggauss(96)
            return float(np.sum(w * (self.cut + self.scale * u) ** k))
        norms = np.linalg.norm(self._atom_array(), axis=1)
        if self.kind == "point_mass":
            return float(norms[0] ** k)
        return float(np.sum(np.asarray(self.probs) * norms ** k))

    def mean(self):
        """E[x]; zero for signed scalar laws, a (d,) vector for vector laws."""
        if self.kind in ("uniform_shell", "exp_tail"):
            return 0.0 if self.signed else self.abs_moment(1)
        a = self._atom_array()
        if self.kind == "point_mass":
            m = a[0]
        else:
            m = np.asarray(self.probs) @ a
        return float(m[0]) if self._scalar_atoms else m

    def support_range(self) -> tuple[float, float]:
        """(min, max) of |x| over the support."""
        if self.kind == "uniform_shell":
            return self.lo, self.hi
        if self.kind == "exp_tail":
            return self.cut, np.inf
        norms = np.linalg.norm(self._atom_array(), axis=1)
        return float(norms.min()), float(norms.max())

    def quadrature(self):
        """Nodes and probability weights approximating the mark law.

        Exact for the discrete kinds; 64-node Gauss rules for the continuous
        ones (exact for polynomial integrands up to the rule order).
        """
        if self.kind == "uniform_shell":
            z, w = leggauss(64)
            nodes = 0.5 * (self.hi - self.lo) * z + 0.5 * (self.hi + self.lo)
            weights = w / 2.0
        elif self.kind == "exp_tail":
            u, w = laggauss(64)
            nodes, weights = self.cut + self.scale * u, w
        else:
            a = self._atom_array()
            nodes = a[:, 0] if self._scalar_atoms else a
            if self.kind == "point_mass":
                return nodes[:1], np.array([1.0])
            return nodes, np.asarray(self.probs, dtype=float)
        if self.signed:
            nodes = np.concatenate([nodes, -nodes])
            weights = np.concatenate([weights, weights]) / 2.0
        return nodes, weights


def uniform_shell_marks(lo, hi, signed=False) -> MarkSampler:
    return MarkSampler(kind="uniform_shell", lo=float(lo), hi=float(hi), signed=signed)


def _atom(value):
    """A number stays a scalar atom; a sequence is a vector atom (a tuple)."""
    a = np.asarray(value, dtype=float)
    return float(a) if a.ndim == 0 else tuple(a)


def point_mass_marks(value) -> MarkSampler:
    return MarkSampler(kind="point_mass", atoms=(_atom(value),), probs=(1.0,))


def exp_tail_marks(scale, cut=1.0, signed=False) -> MarkSampler:
    return MarkSampler(kind="exp_tail", scale=float(scale), cut=float(cut), signed=signed)


def finite_rank_marks(atoms, probs) -> MarkSampler:
    return MarkSampler(kind="finite_rank", atoms=tuple(_atom(a) for a in atoms),
                       probs=tuple(float(p) for p in probs))


@dataclass(frozen=True)
class WienerSpec:
    """Trace-class Wiener part: covariance eigenvalues per mode + drift."""

    mode_variances: tuple[float, ...]
    drift_a: tuple[float, ...] | None = None

    def __post_init__(self):
        if not all(0 <= q < math.inf for q in self.mode_variances):   # false for NaN
            raise InputError("mode variances must be finite and nonnegative")
        if self.drift_a is not None and len(self.drift_a) != len(self.mode_variances):
            raise InputError("drift dimension must match mode count")
        if self.drift_a is not None and not all(map(math.isfinite, self.drift_a)):
            raise InputError("drift_a must be finite")

    @property
    def dim(self) -> int:
        return len(self.mode_variances)

    @property
    def q(self) -> np.ndarray:
        return np.asarray(self.mode_variances, dtype=float)

    @property
    def drift(self) -> np.ndarray:
        if self.drift_a is None:
            return np.zeros(self.dim)
        return np.asarray(self.drift_a, dtype=float)

    @property
    def operator_norm_qhalf(self) -> float:
        """Operator norm of the covariance square root, sqrt(max q_n)."""
        return float(np.sqrt(max(self.mode_variances))) if self.mode_variances else 0.0


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Finite-activity jump measure split at |x| = 1.

    ``small_rate`` is the mass of the intensity measure on the truncated
    shell [delta, 1); ``large_rate`` its (finite) mass on [1, inf).
    Mark moments are exact registry values, never Monte Carlo estimates;
    the hypothesis checker reads them through ``SdeModel.jump_intensity``,
    at the model's one moment order ``CoefficientSet.moment_p``.
    """

    small_rate: float = 0.0
    small_sampler: MarkSampler | None = None
    truncation_delta: float = 0.1
    large_rate: float = 0.0
    large_sampler: MarkSampler | None = None

    def __post_init__(self):
        for which in ("small", "large"):
            rate = getattr(self, f"{which}_rate")
            if not 0.0 <= rate < math.inf:   # false for NaN
                raise InputError(f"{which}_rate must be finite and nonnegative, got {rate!r}")
        if not 0.0 < self.truncation_delta < 1.0:
            raise InputError("truncation_delta must lie in (0, 1)")
        for which in ("small", "large"):
            if getattr(self, f"{which}_rate") > 0 and getattr(self, f"{which}_sampler") is None:
                raise InputError(f"a positive {which}_rate needs a {which}_sampler")
        if self.small_rate > 0:
            lo, hi = self.small_sampler.support_range()
            if lo < self.truncation_delta - 1e-12 or hi > 1.0 + 1e-12:
                raise InputError("small marks must satisfy delta <= |x| < 1")
        if self.large_rate > 0:
            lo, _ = self.large_sampler.support_range()
            if lo < 1.0 - 1e-12:
                raise InputError("large marks must satisfy |x| >= 1")

    def mark_moment(self, which: str, k: float) -> float:
        """E |x|^k of the ``which`` ("small" or "large") marks; 0 at rate 0."""
        rate, sampler = getattr(self, f"{which}_rate"), getattr(self, f"{which}_sampler")
        return sampler.abs_moment(k) if rate > 0 else 0.0


JUMP_SMALL, JUMP_LARGE = 1, 2   # the kinds of a jump table's events
SLAB_BYTES = 2 << 20   # bytes of Wiener increments that one slab of wiener_slabs holds


def _chain(init: int, mult: int, k: int, n: int) -> np.ndarray:
    """``init * mult**i`` mod 2**32 for the steps i = k .. k+n of a hash chain of
    numpy's SeedSequence (O'Neill's seed_seq); step i hashes with i and i+1."""
    return np.array([init * pow(mult, i, 1 << 32) % (1 << 32) for i in range(k, k + n + 1)],
                    np.uint32)


def _stream_words(seed, paths, suffixes) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=(*spawn_key, path, *suffix))
    .generate_state(4, np.uint64)`` of ``seed`` (an int >= 0 or a SeedSequence
    of one) for every path and suffix, path-major, as one (n, 4) array; the
    one path ``paths = None`` keys ``(*spawn_key, *suffix)``."""
    entropy, spawn_key = ((seed.entropy, tuple(seed.spawn_key))
                          if isinstance(seed, np.random.SeedSequence) else (seed, ()))
    if isinstance(entropy, bool) or not isinstance(entropy, (int, np.integer)) or entropy < 0:
        raise InputError(f"seed must be an integer >= 0 or a SeedSequence of one, got {seed!r}")
    keys = [r + s for r in ([()] if paths is None else [(p,) for p in paths]) for s in suffixes]
    # numpy's pool holds the shared words (entropy padded to 4, spawn key), 4 steps each
    n_words = lambda n: -(-max(int(n).bit_length(), 1) // 32)
    pool = np.random.SeedSequence(int(entropy), spawn_key=spawn_key).pool
    k = 4 * (max(n_words(entropy), 4) + sum(map(n_words, spawn_key)))
    columns = np.array(keys, np.uint32).reshape(len(keys), -1 if keys else 1).T[:, :, None]
    mixing = _chain(0x43B0D7E5, 0x931E8875, k, 4 * len(columns))
    for i, w in enumerate(columns):   # each key word enters all four pool words
        w = (w ^ mixing[4 * i:4 * i + 4]) * mixing[4 * i + 1:4 * i + 5]
        pool = 0xCA01F9DD * pool - 0x4973F715 * (w ^ w >> 16)   # one row per stream
        pool ^= pool >> 16
    generate = _chain(0x8B51F9DD, 0x58F38DED, 0, 8)   # the steps of generate_state
    state = (np.tile(pool, 2) ^ generate[:-1]) * generate[1:]
    state = (state ^ state >> 16).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


class _Words(ISeedSequence):
    """One stream's four seed words, for numpy's own PCG64 seeding."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_Words(words)))


def wiener_slabs(spec: WienerSpec, grid, seed, paths=None):
    """Mode-wise Gaussian increments over the intervals of ``grid`` of the paths
    ``paths`` of ``seed`` (``None``: the one path ``seed``), each from its own
    stream, as an iterator of slabs ``(lo, dw)`` of about :data:`SLAB_BYTES`:
    the steps from ``lo`` as a (n_paths, rows, dim) view of one buffer, which
    the next slab overwrites.  Each path's generator runs on across slabs, so
    they are one bulk draw bit for bit.  Increment n over an interval of
    length dt is N(0, q_n dt), independent across intervals, modes and paths;
    the law is the same on both sides of t = 0, so one stream serves any
    window."""
    grid = np.asarray(grid, dtype=float)
    dt = np.diff(grid)
    if not (np.logical_and.reduce(np.isfinite(grid)) and np.all(dt >= 0)):
        raise InputError("time grid must be finite and nondecreasing")
    rngs = [_generator(w) for w in _stream_words(seed, paths, [(0,)])]
    rows = max(1, SLAB_BYTES // max(1, 8 * len(rngs) * spec.dim))
    buf = np.empty((len(rngs), min(rows, dt.size), spec.dim))

    def slab(lo):
        dw = buf[:, :min(rows, dt.size - lo)]
        for rng, out in zip(rngs, dw):
            rng.standard_normal(out=out)
        dw *= np.sqrt(np.outer(dt[lo:lo + dw.shape[1]], spec.q))
        return lo, dw

    return map(slab, range(0, dt.size, rows))


def window_ends(window) -> tuple[float, float]:
    """The ends of ``window`` as floats, which must be finite with t0 <= t1."""
    t0, t1 = float(window[0]), float(window[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 <= t1):
        raise InputError(f"window must be finite and nonempty, got {window!r}")
    return t0, t1


def jump_table(spec: JumpMeasureSpec, window, seed, paths=None):
    """The jump events ``(times, paths, kinds, marks)`` inside the open
    ``window`` of the paths ``paths`` of ``seed`` (``None``: the one path
    ``seed``, all in path 0) in (path, kind, time) order, ``paths`` as
    positions in ``paths``, ``kinds`` :data:`JUMP_SMALL` or :data:`JUMP_LARGE`
    and marks as rows padded with zeros to the wider sampler.  Per path, side
    of 0 and kind, one stream draws a Poisson count with mean rate * span and
    as many i.i.d. uniform times, a second one any i.i.d. marks; the sort, the
    mirror of the negative side, the cut and the merge run once."""
    t0, t1 = window_ends(window)
    kinds = ((spec.small_rate, spec.small_sampler), (spec.large_rate, spec.large_sampler))
    groups = [(side, a, b - a, j) for side, (a, b) in enumerate(
        ((max(t0, 0.0), max(t1, 0.0)), (max(-t1, 0.0), max(-t0, 0.0)))) if b > a
        for j, (rate, _) in enumerate(kinds) if rate > 0]
    words = _stream_words(seed, paths, [(1 + g[0], g[3], s) for g in groups for s in (0, 1)])
    rows = [(r, *g) for r in range(1 if paths is None else len(paths)) for g in groups]
    draws, marks = [], ([], [])
    for (_, _, _, span, j), w, mark_w in zip(rows, words[::2], words[1::2]):
        rng = _generator(w)
        # the draw of rng.uniform(0, span, n), n Poisson
        draws.append(span * rng.random(rng.poisson(kinds[j][0] * span)))
        if draws[-1].size:
            marks[j].append(kinds[j][1].variates(_generator(mark_w), draws[-1].size))
    counts = [d.size for d in draws]
    columns = np.array([(r, 1 - 2 * side, a, 1 + j) for r, side, a, _, j in rows]).reshape(-1, 4)
    path, sign, start, kind = np.repeat(columns, counts, axis=0).T   # sign -1: the mirror
    u = np.concatenate([np.zeros(0), *draws])
    times = sign * (start + u[np.lexsort((u, np.repeat(np.arange(len(draws)), counts)))])
    dims = [s.dim if s is not None else 1 for _, s in kinds]
    table = np.zeros((times.size, max(dims)))
    for j, m in enumerate(marks):   # each kind's transforms run once, on all its draws
        if m:
            m = kinds[j][1].marks(*map(np.concatenate, zip(*m))).reshape(-1, dims[j])
            sel = kind == 1 + j
            table[sel, :dims[j]] = sign[sel, None] * m
    # ties keep the per-path merge order: positive side, then negative mirrored
    pos = np.arange(times.size)
    idx = np.flatnonzero((times > t0) & (times < t1))
    idx = idx[np.lexsort((np.where(sign < 0, 2 * pos.size - pos, pos)[idx], times[idx], kind[idx],
                          path[idx]))]
    return times[idx], path[idx].astype(np.intp), kind[idx].astype(np.int8), table[idx]
