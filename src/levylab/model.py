"""Model declaration and every explicit constant of the theory.

A model couples a diagonal exponentially-stable semigroup (rates
``lambda_n``, envelope ``K * exp(-omega t)``) with a coefficient
quadruple (drift ``f``, diffusion ``g``, compensated small-jump
coefficient ``F``, raw large-jump coefficient ``G``).  Coefficients are
sums of products (time profile) x (state map) from closed registries,
so the growth constant ``A0`` and the Lipschitz constant ``L`` entering
the contraction thresholds are analytically exact; arbitrary user
callables are deliberately not accepted.

The second half of the module evaluates the explicit constants of the
contraction machinery: the moment constants ``c_p`` and ``d_p`` (the
latter minimized over its free auxiliary ``alpha``), the p-th moment
contraction factor ``theta_p`` and its limit as ``p -> 2+``, the
invariant-ball radius ``r``, the shifted-coefficient mean-square gap
bound and its constant ``c``, and the square-mean contraction margin.
``check_conditions`` turns all smallness hypotheses into signed slacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, InputError, ThresholdError
from .galerkin import GalerkinSpec
from .noise import JumpMeasureSpec, MarkSampler, WienerSpec
from .profiles import TimeProfile

STATE_KINDS = ("linear", "sine", "cosine", "clipped", "ones")
MARK_MODES = ("ignore", "scalar", "pointwise_product")


# ---------------------------------------------------------------------------
# state maps and coefficients
# ---------------------------------------------------------------------------

# each kind's map; a scale of 1 is skipped (1.0 * x is x, bit for bit)
_MAP_KINDS = {
    "linear": lambda m, y: m.scale * y,
    "sine": lambda m, y: _scaled(m.scale, np.sin(y)),
    "cosine": lambda m, y: _scaled(m.scale, np.cos(y)),
    "clipped": lambda m, y: _scaled(m.scale, np.clip(y, -m.bound, m.bound)),
    "ones": lambda m, y: np.full_like(y, m.scale),
}
_ZERO = np.zeros(())   # +0.0, which numpy adds faster as a 0-d array


def _scaled(scale: float, x: np.ndarray) -> np.ndarray:
    return x if scale == 1.0 else scale * x


@dataclass(frozen=True)
class StateMap:
    """Coordinatewise globally Lipschitz state map from the closed registry.

    linear: scale*y    sine: scale*sin(y)    cosine: scale*cos(y)
    clipped: scale*clip(y, -bound, bound)    ones: scale (constant)
    """

    kind: str
    scale: float = 1.0
    bound: float = 1.0

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise InputError(f"unknown state map kind {self.kind!r}")

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return _MAP_KINDS[self.kind](self, np.asarray(y, dtype=float))

    @property
    def lip(self) -> float:
        return 0.0 if self.kind == "ones" else abs(self.scale)

    def l2_bound(self, radius: float, dim: int, ones_norm: float | None = None) -> float:
        """sup of ||S(y)|| over the centered L2 ball of the given radius.

        ``ones_norm`` is the norm of the constant-one state (sqrt(dim) in
        plain coordinates, <= 1 in the collocation quadrature norm).
        """
        if ones_norm is None:
            ones_norm = math.sqrt(dim)
        a = abs(self.scale)
        if self.kind == "linear":
            return a * radius
        if self.kind == "sine":
            return a * min(radius, ones_norm)
        if self.kind == "clipped":
            return a * min(radius, self.bound * ones_norm)
        return a * ones_norm  # cosine, ones


def linear_map(scale=1.0) -> StateMap:
    return StateMap(kind="linear", scale=float(scale))


def sine_map(scale=1.0) -> StateMap:
    return StateMap(kind="sine", scale=float(scale))


def cosine_map(scale=1.0) -> StateMap:
    return StateMap(kind="cosine", scale=float(scale))


def clipped_map(scale=1.0, bound=1.0) -> StateMap:
    return StateMap(kind="clipped", scale=float(scale), bound=float(bound))


def ones_map(scale=1.0) -> StateMap:
    return StateMap(kind="ones", scale=float(scale))


class StateMaps:
    """The distinct state maps of ``coefs`` (jumps marked if ``marked``).
    Called on y, it returns ``[y, u, S_0, ...]``, u = to_phys(y) or None and
    each map once (``linear_map(1.0)`` is y or u itself, bit for bit);
    ``slots[c][k]`` indexes the value of term k of coefficient c."""

    def __init__(self, coefs, galerkin: GalerkinSpec | None = None, marked: bool = True):
        spaces, index = [c.on_nodes(galerkin, marked) for c in coefs], {}
        self.slots = [tuple(index.setdefault((s, m), len(index) + 2) for _, m in c.terms)
                      for c, s in zip(coefs, spaces)]
        self._maps = [(int(s), None if (m.kind, m.scale) == ("linear", 1.0)
                       else _MAP_KINDS[m.kind], m) for s, m in index]
        self._galerkin = galerkin if any(spaces) else None

    def __call__(self, y: np.ndarray) -> list:
        vals = [y, None if self._galerkin is None else self._galerkin.to_phys(y)]
        vals += [fn(m, vals[s]) if fn else vals[s] for s, fn, m in self._maps]
        return vals


def _columns(table: np.ndarray, y: np.ndarray) -> tuple:
    """One column per term of a profile ``table`` (one row, or one row per
    leading state of ``y``), shaped to broadcast against ``y``."""
    if table.ndim > 1:
        table = table.reshape(table.shape[:-1] + (1,) * (y.ndim - table.ndim + 1)
                              + table.shape[-1:])
    return tuple(np.moveaxis(table, -1, 0))


@dataclass(frozen=True)
class Coefficient:
    """Sum of (profile in t) x (state map) products.

    With ``pointwise=True`` and a Galerkin spec present, state maps act on
    node values (collocate, apply, project back); otherwise they act on
    coordinates directly.  Every evaluation runs :meth:`evaluate`.
    """

    terms: tuple[tuple[TimeProfile, StateMap], ...]
    pointwise: bool = False
    mark_mode = "ignore"     # a plain coefficient takes no mark

    def profile_table(self, times) -> np.ndarray:
        """Profile values at ``times``: shape ``times.shape + (n_terms,)``.

        Profiles depend on t only, so a driver tabulates them once per
        grid; the transposed table holds one column per term.
        """
        t = np.asarray(times, dtype=float)
        table = np.empty(t.shape + (len(self.terms),))
        for k, (prof, _) in enumerate(self.terms):
            table[..., k] = prof(t)
        return table

    def on_nodes(self, galerkin: GalerkinSpec | None, marked: bool = False) -> bool:
        """Whether the maps act on node values (pointwise, or a marked pointwise_product)."""
        return galerkin is not None and (
            self.pointwise or marked and self.mark_mode == "pointwise_product")

    def evaluate(self, cols, i, vals: list, slots, galerkin: GalerkinSpec | None = None,
                 factor=None) -> np.ndarray:
        """Sum of ``cols[k][i] * vals[slots[k]]`` over the terms in order, its
        first product added to +0.0 as by a zeros accumulator; ``factor`` is a
        :meth:`~JumpCoefficient.mark_factor`, or None for the state part."""
        if slots:   # in place: out of place would allocate a node-sized array per term
            acc = cols[0][i] * vals[slots[0]]
            acc += _ZERO
            for k in range(1, len(slots)):
                acc += cols[k][i] * vals[slots[k]]
        else:
            acc = np.zeros(vals[self.on_nodes(galerkin, factor is not None)].shape)
        if galerkin is not None:
            if factor is not None and self.mark_mode == "pointwise_product":
                return galerkin.to_modes(acc * factor)
            if self.pointwise:
                acc = galerkin.to_modes(acc)
        return acc if factor is None else acc * factor

    def value(self, t, y: np.ndarray, galerkin: GalerkinSpec | None = None) -> np.ndarray:
        """The coefficient at state ``y`` and one time ``t``, or one time per
        leading state."""
        y, maps = np.asarray(y, dtype=float), StateMaps((self,), galerkin, marked=False)
        return self.evaluate(_columns(self.profile_table(t), y), ..., maps(y), maps.slots[0],
                             galerkin)

    def lip_bound(self) -> float:
        return sum(p.sup_bound() * s.lip for p, s in self.terms)

    def shifted(self, tau: float) -> "Coefficient":
        return replace(self, terms=tuple((p.shifted(tau), s) for p, s in self.terms))


@dataclass(frozen=True)
class JumpCoefficient(Coefficient):
    """Jump coefficient; ``mark_mode`` sets how the mark enters.

    ignore: J(t,y,x) = base(t,y) (mark drawn but not used)
    scalar: J(t,y,x) = base(t,y) * x for scalar marks x
    pointwise_product: J(t,y,z) = base evaluated at the nodes times the
        collocated mark, projected back (vector marks, Galerkin models)
    """

    mark_mode: str = "ignore"

    def __post_init__(self):
        if self.mark_mode not in MARK_MODES:
            raise InputError(f"unknown mark mode {self.mark_mode!r}")

    def mark_factor(self, mark, galerkin: GalerkinSpec | None = None):
        """The factor of the state part: None, the mark or its node values."""
        if self.mark_mode != "pointwise_product":
            return None if self.mark_mode == "ignore" else mark
        if galerkin is None:
            raise InputError("pointwise_product marks need a Galerkin spec")
        return galerkin.to_phys(mark)

    def event_kernel(self, table, marks, galerkin: GalerkinSpec | None = None):
        """``jump(j, y)``: J at ``y`` for the events ``j`` (index or slice) of a
        profile ``table`` with one row per event and of their ``marks``."""
        maps, cols = StateMaps((self,), galerkin), tuple(np.moveaxis(table, -1, 0))
        return lambda j, y: self.evaluate(cols, j, maps(y), maps.slots[0], galerkin,
                                          self.mark_factor(marks[j], galerkin))

    def value(self, t, y, mark, galerkin: GalerkinSpec | None = None) -> np.ndarray:
        """J(t, y, mark) at one time ``t``, or one time (and mark) per leading state."""
        y, mark = np.asarray(y, dtype=float), np.asarray(mark, dtype=float)
        if self.mark_mode == "scalar" and mark.ndim:   # one mark per leading state
            mark = mark.reshape(mark.shape + (1,) * (y.ndim - mark.ndim))
        maps = StateMaps((self,), galerkin)
        return self.evaluate(_columns(self.profile_table(t), y), ..., maps(y), maps.slots[0],
                             galerkin, self.mark_factor(mark, galerkin))

    def sq_moment(self, t, y, rate: float, sampler: MarkSampler | None,
                  galerkin: GalerkinSpec | None = None) -> np.ndarray:
        """Exact intensity integrals of ||J(t,y,x)||^2 at the state ``y``,
        one per time of ``t``.

        The profiles are tabulated and the state maps evaluated once; every
        time runs :meth:`evaluate`.  The mark factors out in closed form
        except for vector marks, which use the exact finite-rank quadrature.
        """
        t = np.atleast_1d(t)
        if rate == 0.0:
            return np.zeros(t.shape)
        maps = StateMaps((self,), galerkin)
        cols, vals = tuple(self.profile_table(t).T), maps(np.asarray(y, dtype=float))

        def sq(i, factor=None):
            v = self.evaluate(cols, i, vals, maps.slots[0], galerkin, factor)
            return float(np.sum(np.square(v)))

        if self.mark_mode != "pointwise_product":
            factor = 1.0 if self.mark_mode == "ignore" else sampler.abs_moment(2)
            return np.array([rate * factor * sq(i) for i in range(t.size)])
        nodes, weights = sampler.quadrature()
        acc = np.zeros(t.shape)   # each time sums its nodes in quadrature order
        for xn, w in zip(self.mark_factor(np.asarray(nodes, dtype=float), galerkin), weights):
            acc += w * np.array([sq(i, xn) for i in range(t.size)])
        return rate * acc

    def mark_abs_factor(self, sampler: MarkSampler | None, k: float,
                        galerkin: GalerkinSpec | None = None) -> float:
        """E |mark factor|^k multiplying the state part (k = 2 in the
        mean-square norms, k = p in the p-th moment ones)."""
        if self.mark_mode == "ignore" or sampler is None:
            return 1.0
        if self.mark_mode == "scalar":
            return sampler.abs_moment(k)
        # pointwise product: the state part is contracted against the mark in
        # sup norm at the nodes
        atoms = np.atleast_2d(np.asarray(sampler.atoms, dtype=float))
        sups = np.max(np.abs(galerkin.to_phys(atoms)), axis=-1)
        probs = np.asarray(sampler.probs, dtype=float)
        return float(np.sum(probs * sups**k))


def coefficient(*terms, pointwise=False) -> Coefficient:
    return Coefficient(terms=tuple(terms), pointwise=pointwise)


def jump_coefficient(*terms, mark_mode="ignore", pointwise=False) -> JumpCoefficient:
    return JumpCoefficient(terms=tuple(terms), mark_mode=mark_mode, pointwise=pointwise)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemigroupSpec:
    """Diagonal semigroup exp(-lambda_n t) with envelope K exp(-omega t)."""

    eigenvalues: tuple[float, ...]
    K: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        if any(l <= 0 for l in self.eigenvalues):
            raise InputError("decay rates must be positive")
        if self.K < 1.0:
            raise InputError("K must be >= 1")
        if not 0.0 < self.omega <= min(self.eigenvalues) + 1e-12:
            raise InputError("need 0 < omega <= min decay rate for the envelope")

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def rates(self) -> np.ndarray:
        return np.asarray(self.eigenvalues, dtype=float)


@dataclass(frozen=True)
class CoefficientSet:
    drift: Coefficient
    diffusion: Coefficient
    small_jump: JumpCoefficient
    large_jump: JumpCoefficient
    A0: float
    lipschitz_L: float
    moment_p: float = 2.5

    def __post_init__(self):
        if self.A0 < 0 or self.lipschitz_L < 0:
            raise InputError("A0 and lipschitz_L must be nonnegative")
        if self.moment_p <= 2:
            raise InputError("moment_p must exceed 2")


@dataclass(frozen=True)
class SdeModel:
    """Semigroup + coefficient quadruple + noise specification."""

    semigroup: SemigroupSpec
    coefficients: CoefficientSet
    wiener: WienerSpec
    jumps: JumpMeasureSpec
    galerkin: GalerkinSpec | None = None

    def __post_init__(self):
        if self.wiener.dim != self.semigroup.dim:
            raise InputError("noise and semigroup dimensions disagree")
        if self.galerkin is not None and self.galerkin.n_modes != self.semigroup.dim:
            raise InputError("Galerkin mode count must match the semigroup")
        for which in ("small", "large"):
            coef, rate, sampler = self._jump(which)
            if rate == 0.0 or coef.mark_mode == "ignore":
                continue
            if coef.mark_mode == "pointwise_product" and self.galerkin is None:
                raise InputError(f"{which}_jump: mark_mode 'pointwise_product' "
                                 "needs a Galerkin spec")
            want = 1 if coef.mark_mode == "scalar" else self.dim
            if sampler.dim != want:
                raise InputError(f"{which}_jump: mark_mode {coef.mark_mode!r} needs "
                                 f"{which} marks of dimension {want}, got {sampler.dim}")

    # -- shorthand ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.semigroup.dim

    @property
    def K(self) -> float:
        return self.semigroup.K

    @property
    def omega(self) -> float:
        return self.semigroup.omega

    @property
    def b(self) -> float:
        return self.jumps.large_rate

    @property
    def ones_norm(self) -> float:
        if self.galerkin is not None:
            return math.sqrt(self.galerkin.weight * self.galerkin.collocation_points)
        return math.sqrt(self.dim)

    def shifted(self, tau: float) -> "SdeModel":
        """Model with every coefficient profile translated by ``tau``."""
        c = self.coefficients
        return replace(self, coefficients=replace(
            c,
            drift=c.drift.shifted(tau),
            diffusion=c.diffusion.shifted(tau),
            small_jump=c.small_jump.shifted(tau),
            large_jump=c.large_jump.shifted(tau),
        ))

    # -- exact effective constants ----------------------------------------

    def _jump(self, which: str):
        """(coefficient, rate, mark sampler) of the small or large jumps."""
        return (getattr(self.coefficients, f"{which}_jump"),
                getattr(self.jumps, f"{which}_rate"), getattr(self.jumps, f"{which}_sampler"))

    def jump_intensity(self, which: str, k: float) -> float:
        """rate * E |mark factor|^k of the ``which`` jumps: the intensity
        scaling the state part of that coefficient in the k-th moment norms."""
        coef, rate, sampler = self._jump(which)
        return rate * coef.mark_abs_factor(sampler, k, self.galerkin)

    def effective_lipschitz(self, k: float = 2.0) -> dict[str, float]:
        """Per-coefficient Lipschitz constants in the theorem's k-th moment
        norms (k = 2 for the square-mean ones, k = p for the p-th moment ones)."""
        c = self.coefficients
        # the correctly rounded sqrt at k = 2, where pow(x, 0.5) may differ by an ulp
        root = math.sqrt if k == 2 else (lambda x: x ** (1.0 / k))
        return {
            "drift": c.drift.lip_bound(),
            "diffusion": c.diffusion.lip_bound() * self.wiener.operator_norm_qhalf,
            "small_jump": c.small_jump.lip_bound() * root(self.jump_intensity("small", k)),
            "large_jump": c.large_jump.lip_bound() * root(self.jump_intensity("large", k)),
        }

    def zero_bounds(self, t_grid) -> tuple[dict[str, float], dict[str, float]]:
        """Maxima over the time grid of the at-zero norms entering the growth
        condition (drift norm, weighted diffusion norm, jump intensity
        integrals at zero), and of the jump state-part norms at every
        ``len(t_grid) // 41``-th time, which enter its p-th moment form.

        Each coefficient is tabulated on the grid and its state maps are
        evaluated at zero once; every row runs :meth:`Coefficient.evaluate`,
        one row at a time as a single state would.
        """
        t_grid, gal, zero = np.atleast_1d(t_grid), self.galerkin, np.zeros(self.dim)

        def norms(coef, times, scale=1.0):
            maps = StateMaps((coef,), gal, marked=False)
            cols, vals = tuple(coef.profile_table(times).T), maps(zero)
            return [float(np.linalg.norm(scale * coef.evaluate(cols, i, vals, maps.slots[0], gal)))
                    for i in range(times.size)]

        c, states = self.coefficients, {}
        bounds = {"drift": max([0.0, *norms(c.drift, t_grid)]),
                  "diffusion": max([0.0, *norms(c.diffusion, t_grid, np.sqrt(self.wiener.q))])}
        for which in ("small", "large"):
            coef, rate, sampler = self._jump(which)
            sq = coef.sq_moment(t_grid, zero, rate, sampler, gal)
            bounds[f"{which}_jump"] = max([0.0, *map(math.sqrt, sq)])
            states[which] = max(norms(coef, t_grid[:: max(1, t_grid.size // 41)]), default=0.0)
        return bounds, states


# ---------------------------------------------------------------------------
# explicit constants
# ---------------------------------------------------------------------------

def compute_cp(p: float) -> float:
    """Moment constant of the Burkholder bound for the Wiener integral:
    [p(p-1)/2 * (p/(p-1))^(p-2)]^(p/2).  Equals 1 at p = 2."""
    if p <= 0:
        raise InputError("p must be positive")
    return (p * (p - 1) / 2.0 * (p / (p - 1)) ** (p - 2)) ** (p / 2.0)


def _kunita_parts(p: float, alpha: np.ndarray):
    ratio = (p / (p - 1)) ** p
    denom = 1.0 - (p - 1) * (p - 2) * 2.0 ** (p - 4) * ratio * alpha ** (2.0 - p)
    d1 = 2.0 ** (p - 3) * ratio * alpha ** (2.0 - p / 2.0) / denom
    d2 = p * (p - 1) * 2.0 ** (p - 4) * ratio / denom
    return d1, d2, denom


def compute_dp(p: float, n_grid: int = 4001, denom_floor: float = 1e-6):
    """Moment constant of the compensated Poisson maximal bound.

    The bound holds for every auxiliary ``alpha >= 1`` keeping its shared
    denominator positive; the theory fixes no choice, so we minimize
    max(D1, D2) over a log grid on [1, 1e6] restricted to denominators
    >= ``denom_floor``.  Returns ``(d_p, alpha_min)``; the choice recovers
    d_2 = 2 at alpha = 1.
    """
    if p < 2:
        raise InputError("p must be >= 2")
    alpha = np.geomspace(1.0, 1e6, n_grid)
    d1, d2, denom = _kunita_parts(p, alpha)
    ok = denom >= denom_floor
    if not np.any(ok):
        raise InfeasibleError(f"no admissible alpha on the grid for p = {p}")
    worst = np.where(ok, np.maximum(d1, d2), np.inf)
    i = int(np.argmin(worst))
    return float(worst[i]), float(alpha[i])


def compute_theta(p: float, K: float, omega: float, L: float, b: float) -> float:
    """p-th moment contraction factor of the solution operator.

    theta_p = 4^(p-1) K^p L^p { [ (1+(2b)^(p-1)) (2(p-1)/(omega p))^(p-1)
              + (c_p + (1+2^(p-1)) d_p) ((p-2)/(omega p))^(p/2-1) ] * 2/(omega p)
              + (1+2^(p-1)) d_p / (omega p) }

    Continuous down to p = 2, where it evaluates to
    (4 K^2 L^2 / omega^2) (1 + 10 omega + 2b).
    """
    if p < 2:
        raise InputError("p must be >= 2")
    if omega <= 0:
        raise InputError("omega must be positive")
    if min(K, L, b) < 0:
        raise InputError("parameters must be nonnegative")
    cp = compute_cp(p)
    dp, _ = compute_dp(p)
    two_term = (1.0 + (2.0 * b) ** (p - 1)) * (2.0 * (p - 1) / (omega * p)) ** (p - 1)
    mid_term = (cp + (1.0 + 2.0 ** (p - 1)) * dp) * ((p - 2.0) / (omega * p)) ** (p / 2.0 - 1.0)
    brace = (two_term + mid_term) * 2.0 / (omega * p) + (1.0 + 2.0 ** (p - 1)) * dp / (omega * p)
    return 4.0 ** (p - 1) * K ** p * L ** p * brace


def theta_two(K: float, omega: float, L: float, b: float) -> float:
    """Second-moment contraction factor 4 K^2 L^2 (1+2 omega+2b)/omega^2."""
    return 4.0 * K**2 * L**2 / omega**2 * (1.0 + 2.0 * omega + 2.0 * b)


def theta_limit_from_above(K: float, omega: float, L: float, b: float) -> float:
    """Limit of theta_p as p decreases to 2:
    (4 K^2 L^2/omega^2)(1 + 10 omega + 2b) = theta_2 + 32 K^2 L^2/omega."""
    return 4.0 * K**2 * L**2 / omega**2 * (1.0 + 10.0 * omega + 2.0 * b)


def lip_threshold_existence(K: float, omega: float, b: float) -> float:
    return omega / (2.0 * K * math.sqrt(1.0 + 2.0 * omega + 2.0 * b))


def lip_threshold_uniform(K: float, omega: float, b: float) -> float:
    """Threshold under which uniformly convergent coefficient shifts carry
    over to the solution: min of two radicals."""
    return min(omega / (2.0 * K * math.sqrt(2.0 + 4.0 * omega + 4.0 * b)),
               omega / (2.0 * K * math.sqrt(1.0 + 10.0 * omega + 2.0 * b)))


def lip_threshold_compact(K: float, omega: float, b: float) -> float:
    """Threshold for compatibility under compact-open coefficient shifts."""
    return omega / (2.0 * K * math.sqrt(2.0 + 8.0 * omega + 4.0 * b))


def lip_threshold_stability(K: float, omega: float, b: float) -> float:
    """Threshold equivalent to a positive square-mean contraction margin."""
    return omega / (K * math.sqrt(5.0 * (1.0 + 4.0 * omega + 2.0 * b)))


def boundary_b_compact(K: float, omega: float, L: float) -> float:
    """Largest b keeping L below :func:`lip_threshold_compact`."""
    return ((omega / (2.0 * K * L)) ** 2 - 2.0 - 8.0 * omega) / 4.0


def boundary_b_stability(K: float, omega: float, L: float) -> float:
    """Largest b keeping L below :func:`lip_threshold_stability`."""
    return ((omega / (K * L)) ** 2 / 5.0 - 1.0 - 4.0 * omega) / 2.0


def compute_radius(K: float, omega: float, L: float, A0: float, b: float) -> float:
    """Radius of the invariant second-moment ball,
    r = 2 K A0 sqrt(1+2 omega+2b) / (omega - 2 K L sqrt(1+2 omega+2b))."""
    root = math.sqrt(1.0 + 2.0 * omega + 2.0 * b)
    denom = omega - 2.0 * K * L * root
    if denom <= 0.0:
        raise ThresholdError(
            "existence condition violated: need L < omega/(2K sqrt(1+2 omega+2b)) "
            f"= {lip_threshold_existence(K, omega, b):.6g}, got L = {L:.6g}")
    return 2.0 * K * A0 * root / denom


def stability_margin(K: float, omega: float, L: float, b: float) -> float:
    """Square-mean contraction rate omega - 5(1/omega + 4 + 2b/omega) K^2 L^2.

    May be negative; positive exactly when L is below the stability
    threshold.
    """
    if omega <= 0:
        raise InputError("omega must be positive")
    return omega - 5.0 * (1.0 / omega + 4.0 + 2.0 * b / omega) * K**2 * L**2


def compat_gap_bound(K: float, omega: float, L: float, b: float,
                     sup_i1: float, sup_i2: float, sup_i3: float, sup_i4: float) -> float:
    """Mean-square gap bound between bounded solutions of two coefficient
    quadruples driven by the same noise.

    The ``sup_i`` arguments are the sups over time of the mean-square
    coefficient differences evaluated along the reference bounded solution
    (drift, weighted diffusion, small-jump intensity integral, large-jump
    intensity integral).  Returns

        [ 8K^2/w^2 I1 + 4K^2/w I2 + 4K^2/w I3 + (8K^2/w + 16K^2 b/w^2) I4 ] / c

    with c = 1 - (8 K^2 L^2 / w^2)(1 + 2w + 2b), which is positive under
    the uniform-shift threshold.
    """
    c = compat_c(K, omega, L, b)
    if c <= 0.0:
        raise ThresholdError(
            f"gap constant c = {c:.6g} is not positive; the uniform-shift "
            "Lipschitz threshold is violated")
    w = omega
    num = (8.0 * K**2 / w**2 * sup_i1 + 4.0 * K**2 / w * sup_i2
           + 4.0 * K**2 / w * sup_i3 + (8.0 * K**2 / w + 16.0 * K**2 * b / w**2) * sup_i4)
    return num / c


def compat_c(K: float, omega: float, L: float, b: float) -> float:
    return 1.0 - 8.0 * K**2 * L**2 / omega**2 * (1.0 + 2.0 * omega + 2.0 * b)


def compat_alpha(K: float, omega: float, L: float, b: float) -> float:
    """Decay exponent of the comparison argument behind the gap bound:
    omega - [8K^2 L^2/omega + 32 K^2 L^2 + 16 K^2 L^2 b / omega]."""
    return omega - (8.0 * K**2 * L**2 / omega + 32.0 * K**2 * L**2
                    + 16.0 * K**2 * L**2 * b / omega)


@dataclass(frozen=True)
class TheoremConstants:
    """Every explicit constant and threshold, evaluated for one model."""

    c_p: float
    d_p: float
    alpha_kunita: float
    theta_2: float
    theta_p: float
    theta_limit_2plus: float
    radius_r: float
    compat_c: float
    compat_alpha: float
    stability_margin: float

    _FORMULAS = {
        "c_p": "[p(p-1)/2 * (p/(p-1))^(p-2)]^(p/2)",
        "d_p": "min over alpha>=1 of max(D1(p,alpha), D2(p,alpha))",
        "alpha_kunita": "argmin of the d_p objective",
        "theta_2": "4 K^2 L^2 (1+2w+2b) / w^2",
        "theta_p": "4^(p-1) K^p L^p { [(1+(2b)^(p-1))(2(p-1)/(wp))^(p-1)"
                   " + (c_p+(1+2^(p-1))d_p)((p-2)/(wp))^(p/2-1)] 2/(wp)"
                   " + (1+2^(p-1)) d_p/(wp) }",
        "theta_limit_2plus": "4 K^2 L^2 (1+10w+2b) / w^2",
        "radius_r": "2 K A0 sqrt(1+2w+2b) / (w - 2 K L sqrt(1+2w+2b))",
        "compat_c": "1 - 8 K^2 L^2 (1+2w+2b) / w^2",
        "compat_alpha": "w - [8K^2L^2/w + 32K^2L^2 + 16K^2L^2 b/w]",
        "stability_margin": "w - 5 (1/w + 4 + 2b/w) K^2 L^2",
    }

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self._FORMULAS}

    def formulas(self) -> dict:
        return dict(self._FORMULAS)


def theorem_constants(model: SdeModel) -> TheoremConstants:
    K, w, b = model.K, model.omega, model.b
    c = model.coefficients
    L, A0, p = c.lipschitz_L, c.A0, c.moment_p
    dp, alpha = compute_dp(p)
    try:
        r = compute_radius(K, w, L, A0, b)
    except ThresholdError:
        r = math.nan
    return TheoremConstants(
        c_p=compute_cp(p), d_p=dp, alpha_kunita=alpha,
        theta_2=theta_two(K, w, L, b),
        theta_p=compute_theta(p, K, w, L, b),
        theta_limit_2plus=theta_limit_from_above(K, w, L, b),
        radius_r=r,
        compat_c=compat_c(K, w, L, b),
        compat_alpha=compat_alpha(K, w, L, b),
        stability_margin=stability_margin(K, w, L, b),
    )


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

class Condition(NamedTuple):
    passed: bool
    slack: float


# every hypothesis the checker reports, with the statement written into
# the ``definitions`` block of the summaries
CONDITION_DEFS = {
    "e1": "growth: coefficient norms at the origin bounded by A0",
    "e1p": "growth in the p-th moment norms",
    "e2": "Lipschitz: effective constants bounded by L",
    "e2p": "Lipschitz in the p-th moment norms",
    "e3": "continuity in t uniformly on bounded state sets",
    "thm_existence": "L < w/(2K sqrt(1+2w+2b))",
    "cond_L": "L < min(w/(2K sqrt(2+4w+4b)), w/(2K sqrt(1+10w+2b)))",
    "cond_L11": "L < w/(2K sqrt(2+8w+4b))",
    "cond_lmin": "L < w/(K sqrt(5(1+4w+2b)))",
    "theta2_lt_1": "theta_2 < 1",
    "thetap_lt_1": "theta_p < 1",
}
CONDITION_NAMES = tuple(CONDITION_DEFS)


@dataclass(frozen=True)
class ConditionReport:
    """Signed slack for every hypothesis; each flag equals slack > 0."""

    e1: Condition
    e1p: Condition
    e2: Condition
    e2p: Condition
    e3: Condition
    thm_existence: Condition
    cond_L: Condition
    cond_L11: Condition
    cond_lmin: Condition
    theta2_lt_1: Condition
    thetap_lt_1: Condition

    @property
    def all_passed(self) -> bool:
        return all(getattr(self, n).passed for n in CONDITION_NAMES)

    def to_dict(self) -> dict:
        out = {}
        for n in CONDITION_NAMES:
            cond = getattr(self, n)
            out[n] = bool(cond.passed)
            out[f"{n}_slack"] = float(cond.slack)
        return out


# slack granted to registry constants, which may sit exactly on the
# declared A0 or L
REGISTRY_TOL = 1e-12


def check_conditions(model: SdeModel, t_span: float = 40.0,
                     n_t_grid: int = 401) -> ConditionReport:
    """Evaluate every hypothesis with its numeric slack.

    The report is a deterministic function of the model.  Growth bounds
    are checked on ``n_t_grid`` times in [-t_span, t_span] with exact
    registry moments; Lipschitz bounds are the exact registry constants
    of :meth:`SdeModel.effective_lipschitz`; the continuity hypothesis is
    asserted analytically for registry profiles.  Threshold slacks are
    reported as (threshold - L) so a zero-Lipschitz model shows slack
    equal to the threshold itself.
    """
    K, w, b = model.K, model.omega, model.b
    c = model.coefficients
    L, A0, p = c.lipschitz_L, c.A0, c.moment_p

    if not (math.isfinite(t_span) and t_span > 0 and isinstance(n_t_grid, (int, np.integer))
            and not isinstance(n_t_grid, bool) and n_t_grid >= 1):
        raise InputError(f"need a finite t_span > 0 and an integer n_t_grid >= 1, "
                         f"got {t_span!r}, {n_t_grid!r}")
    zb, states = model.zero_bounds(np.linspace(-t_span, t_span, n_t_grid))
    e1_slack = A0 - max(zb.values()) + REGISTRY_TOL
    # p-th moment growth at zero: jump state parts times their p-th intensities
    jump_p = [model.jump_intensity(which, p) ** (1 / p) * states[which]
              for which in ("small", "large")]
    e1p_slack = A0 - max(zb["drift"], zb["diffusion"], *jump_p) + REGISTRY_TOL

    e2_slack = L - max(model.effective_lipschitz().values()) + REGISTRY_TOL
    e2p_slack = L - max(model.effective_lipschitz(p).values()) + REGISTRY_TOL

    report = ConditionReport(
        e1=Condition(e1_slack > 0, e1_slack),
        e1p=Condition(e1p_slack > 0, e1p_slack),
        e2=Condition(e2_slack > 0, e2_slack),
        e2p=Condition(e2p_slack > 0, e2p_slack),
        e3=Condition(True, math.inf),
        thm_existence=Condition(*_pos(lip_threshold_existence(K, w, b) - L)),
        cond_L=Condition(*_pos(lip_threshold_uniform(K, w, b) - L)),
        cond_L11=Condition(*_pos(lip_threshold_compact(K, w, b) - L)),
        cond_lmin=Condition(*_pos(lip_threshold_stability(K, w, b) - L)),
        theta2_lt_1=Condition(*_pos(1.0 - theta_two(K, w, L, b))),
        thetap_lt_1=Condition(*_pos(1.0 - compute_theta(p, K, w, L, b))),
    )
    return report


def _pos(slack: float):
    return slack > 0, slack
