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

Everything is reproducible: a :class:`NoiseRealization` is a pure
function of ``(specs, window, seed)``.  Negative times are covered by
the mirror construction ``L(t) = -L2(-t)`` for ``t <= 0``: jump times in
the negative part of a window are drawn from an independent stream and
reflected, with mark sign flipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
    atoms: tuple = ()       # tuples (vectors) for point_mass / finite_rank
    probs: tuple = ()

    def __post_init__(self):
        if self.kind not in _MARK_KINDS:
            raise InputError(f"unknown mark sampler kind {self.kind!r}")
        if self.kind == "uniform_shell" and not (0 <= self.lo < self.hi):
            raise InputError("uniform_shell needs 0 <= lo < hi")
        if self.kind == "finite_rank":
            if len(self.atoms) == 0 or len(self.atoms) != len(self.probs):
                raise InputError("finite_rank needs matching atoms and probs")
            if abs(sum(self.probs) - 1.0) > 1e-12:
                raise InputError("finite_rank probs must sum to 1")

    @property
    def dim(self) -> int:
        if self.kind in ("point_mass", "finite_rank"):
            return len(self.atoms[0]) if np.ndim(self.atoms[0]) else 1
        return 1

    def _atom_array(self) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.atoms, dtype=float))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` marks; shape (n,) for scalar laws, (n, d) otherwise."""
        if self.kind == "uniform_shell":
            x = rng.uniform(self.lo, self.hi, size=n)
        elif self.kind == "exp_tail":
            x = self.cut + rng.exponential(self.scale, size=n)
        elif self.kind == "point_mass":
            a = self._atom_array()[0]
            out = np.tile(a, (n, 1))
            return out[:, 0] if a.size == 1 else out
        else:  # finite_rank
            idx = rng.choice(len(self.probs), size=n, p=np.asarray(self.probs))
            a = self._atom_array()[idx]
            return a[:, 0] if a.shape[1] == 1 else a
        if self.signed:   # the draw of rng.choice([-1.0, 1.0], size=n)
            x = x * _SIGNS[rng.integers(0, 2, size=n)]
        return x

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
        """E[x]; zero for signed scalar laws, a vector for vector laws."""
        if self.kind in ("uniform_shell", "exp_tail"):
            return 0.0 if self.signed else self.abs_moment(1)
        a = self._atom_array()
        if self.kind == "point_mass":
            m = a[0]
        else:
            m = np.asarray(self.probs) @ a
        return float(m[0]) if m.size == 1 else m

    def support_range(self) -> tuple[float, float]:
        """(min, max) of |x| over the support."""
        if self.kind == "uniform_shell":
            return self.lo, self.hi
        if self.kind == "exp_tail":
            return self.cut, np.inf
        norms = np.linalg.norm(self._atom_array(), axis=1)
        return float(norms.min()), float(norms.max())

    def quadrature(self, n_nodes: int = 64):
        """Nodes and probability weights approximating the mark law.

        Exact for the discrete kinds; Gauss rules for the continuous ones
        (exact for polynomial integrands up to the rule order).
        """
        if self.kind == "uniform_shell":
            z, w = leggauss(n_nodes)
            nodes = 0.5 * (self.hi - self.lo) * z + 0.5 * (self.hi + self.lo)
            weights = w / 2.0
        elif self.kind == "exp_tail":
            u, w = laggauss(min(n_nodes, 96))
            nodes, weights = self.cut + self.scale * u, w
        else:
            a = self._atom_array()
            nodes = a[:, 0] if a.shape[1] == 1 else a
            if self.kind == "point_mass":
                return nodes[:1], np.array([1.0])
            return nodes, np.asarray(self.probs, dtype=float)
        if self.signed:
            nodes = np.concatenate([nodes, -nodes])
            weights = np.concatenate([weights, weights]) / 2.0
        return nodes, weights


def uniform_shell_marks(lo, hi, signed=False) -> MarkSampler:
    return MarkSampler(kind="uniform_shell", lo=float(lo), hi=float(hi), signed=signed)


def point_mass_marks(value) -> MarkSampler:
    atom = tuple(np.atleast_1d(np.asarray(value, dtype=float)))
    return MarkSampler(kind="point_mass", atoms=(atom,), probs=(1.0,))


def exp_tail_marks(scale, cut=1.0, signed=False) -> MarkSampler:
    return MarkSampler(kind="exp_tail", scale=float(scale), cut=float(cut), signed=signed)


def finite_rank_marks(atoms, probs) -> MarkSampler:
    atoms = tuple(tuple(np.atleast_1d(np.asarray(a, dtype=float))) for a in atoms)
    return MarkSampler(kind="finite_rank", atoms=atoms, probs=tuple(float(p) for p in probs))


@dataclass(frozen=True)
class WienerSpec:
    """Trace-class Wiener part: covariance eigenvalues per mode + drift."""

    mode_variances: tuple[float, ...]
    drift_a: tuple[float, ...] | None = None

    def __post_init__(self):
        if any(q < 0 for q in self.mode_variances):
            raise InputError("mode variances must be nonnegative")
        if self.drift_a is not None and len(self.drift_a) != len(self.mode_variances):
            raise InputError("drift dimension must match mode count")

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
    the hypothesis checker reads them through ``SdeModel.jump_intensity``.
    """

    small_rate: float = 0.0
    small_sampler: MarkSampler | None = None
    truncation_delta: float = 0.1
    large_rate: float = 0.0
    large_sampler: MarkSampler | None = None
    moment_p: float = 2.5

    def __post_init__(self):
        if self.small_rate < 0 or self.large_rate < 0:
            raise InputError("jump rates must be nonnegative")
        if not np.isfinite(self.large_rate):
            raise InputError("large-jump rate must be finite")
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


NO_JUMPS = JumpMeasureSpec()


def _child_rng(seed, *key: int) -> np.random.Generator:
    """Deterministic child stream of ``seed`` (int or SeedSequence)."""
    if isinstance(seed, np.random.SeedSequence):
        base = np.random.SeedSequence(entropy=seed.entropy,
                                      spawn_key=tuple(seed.spawn_key) + tuple(key))
    else:
        base = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return np.random.default_rng(base)


def sample_wiener_increments(spec: WienerSpec, grid, seed: int) -> np.ndarray:
    """Mode-wise Gaussian increments over the intervals of ``grid``.

    Returns shape (len(grid)-1, n_modes); increment n over an interval of
    length dt is N(0, q_n * dt), independent across intervals and modes.
    The law is the same on both sides of t = 0 (stationary independent
    increments), so one stream serves any window.
    """
    grid = np.asarray(grid, dtype=float)
    dt = np.diff(grid)
    if np.any(dt < 0):
        raise InputError("time grid must be nondecreasing")
    rng = _child_rng(seed, 0)
    z = rng.standard_normal((dt.size, spec.dim))
    return z * np.sqrt(np.outer(dt, spec.q))


def _sample_one_sided(rate, sampler, span, seed, key):
    """Times and marks of one side and kind; the mark stream is built only
    when the side holds a jump."""
    rng_t = _child_rng(seed, *key, 0)
    n = rng_t.poisson(rate * span)
    times = np.sort(rng_t.uniform(0.0, span, size=n))
    if not n:
        return times, np.zeros((0,) if sampler.dim == 1 else (0, sampler.dim))
    return times, sampler.sample(_child_rng(seed, *key, 1), n)


def sample_jumps(spec: JumpMeasureSpec, window, seed: int):
    """Marked Poisson point sets on ``window = (t0, t1)``.

    Counts are Poisson with mean rate * |window|, times i.i.d. uniform,
    marks i.i.d. from the samplers and independent of times.  The
    negative part of the window is produced by the mirror stream
    (reflected times, flipped marks).

    Returns ``(small_times, small_marks, large_times, large_marks)``.
    """
    t0, t1 = float(window[0]), float(window[1])
    if t1 < t0:
        raise InputError("window must be nonempty")
    parts = {"small": [], "large": []}
    for side, (a, b) in enumerate(((max(t0, 0.0), max(t1, 0.0)),
                                   (max(-t1, 0.0), max(-t0, 0.0)))):
        if b <= a:
            continue
        for j, (rate, sampler) in enumerate(((spec.small_rate, spec.small_sampler),
                                             (spec.large_rate, spec.large_sampler))):
            which = "small" if j == 0 else "large"
            if rate <= 0:
                continue
            times, marks = _sample_one_sided(rate, sampler, b - a, seed, (1 + side, j))
            times = a + times
            if side == 1:
                times, marks = -times[::-1], -(marks[::-1] if marks.size else marks)
            keep = (times > t0) & (times < t1)
            parts[which].append((times[keep], marks[keep]))
    out = []
    for which, sampler in (("small", spec.small_sampler), ("large", spec.large_sampler)):
        dim = sampler.dim if sampler is not None else 1
        empty_m = np.zeros((0,) if dim == 1 else (0, dim))
        if parts[which]:
            times = np.concatenate([t for t, _ in parts[which]])
            marks = np.concatenate([m for _, m in parts[which]])
            order = np.argsort(times, kind="stable")
            out.extend([times[order], marks[order]])
        else:
            out.extend([np.zeros(0), empty_m])
    return tuple(out)


@dataclass(frozen=True)
class NoiseRealization:
    """Frozen realization of the noise on a window.

    Jump times and marks are materialized; Wiener increments are drawn
    on demand for a given grid (the jump-adapted grid is only known at
    integration time) from a stream keyed by ``seed``, so the same
    realization and grid always reproduce bit-identical increments.
    """

    window: tuple[float, float]
    small_times: np.ndarray
    small_marks: np.ndarray
    large_times: np.ndarray
    large_marks: np.ndarray
    seed: int
    wiener_spec: WienerSpec
    jump_spec: JumpMeasureSpec

    def wiener_increments(self, grid) -> np.ndarray:
        return sample_wiener_increments(self.wiener_spec, grid, self.seed)

    def to_csv(self, path):
        """Debug dump: time, kind, mark components."""
        rows = []
        for times, marks, kind in ((self.small_times, self.small_marks, "small"),
                                   (self.large_times, self.large_marks, "large")):
            marks2d = np.atleast_2d(marks.T).T if marks.size else marks.reshape(0, 1)
            for t, m in zip(times, marks2d):
                rows.append((t, kind, np.atleast_1d(m)))
        rows.sort(key=lambda r: r[0])
        with open(path, "w") as fh:
            fh.write("time,kind,mark\n")
            for t, kind, m in rows:
                fh.write(f"{float(t)!r},{kind},"
                         + ";".join(repr(float(v)) for v in m) + "\n")


def sample_noise(wiener_spec: WienerSpec, jump_spec: JumpMeasureSpec,
                 window, seed: int) -> NoiseRealization:
    """Materialize a :class:`NoiseRealization` on ``window`` from ``seed``."""
    st, sm, lt, lm = sample_jumps(jump_spec, window, seed)
    return NoiseRealization(window=(float(window[0]), float(window[1])),
                            small_times=st, small_marks=sm,
                            large_times=lt, large_marks=lm,
                            seed=seed, wiener_spec=wiener_spec, jump_spec=jump_spec)
