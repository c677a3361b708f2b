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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import InputError, ThresholdError
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
    "sine": lambda m, y: _scaled(m.scale, _floated(np.sin, y)),
    "cosine": lambda m, y: _scaled(m.scale, _floated(np.cos, y)),
    "clipped": lambda m, y: _scaled(m.scale, _floated(np.clip, y, -m.bound, m.bound)),
    "ones": lambda m, y: np.full_like(y, m.scale),
}
_ZERO = np.zeros(())   # +0.0, which numpy adds faster as a 0-d array


def _scaled(scale: float, x: np.ndarray) -> np.ndarray:
    return x if scale == 1.0 else scale * x


def _floated(fn, y, *args):   # a float for a float: a jump walked on floats stays one
    return float(fn(y, *args)) if type(y) is float else fn(y, *args)


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

    def l2_bound(self, radius: float, ones_norm: float) -> float:
        """sup of ||S(y)|| over the centered L2 ball of the given radius.

        ``ones_norm`` is the norm of the constant one in the space the map acts
        in: sqrt(dim) on coordinates, ``GalerkinSpec.ones_norm`` (< 1) on nodes.
        """
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
    """The distinct state maps of ``coefs``, each on its :meth:`Coefficient.on_nodes`
    space.  Called on y, it returns ``[y, u, S_0, ...]``, u = to_phys(y) or None and
    each map once; ``slots[c][k]`` indexes the value of term k of coefficient
    c, y or u itself for ``linear_map(1.0)``.  With ``tabulated``, a ``ones``
    term on coordinates gets the slot None and no map: the caller holds its
    values (see :func:`levylab.integrator.step_kernel`)."""

    def __init__(self, coefs, galerkin: GalerkinSpec | None = None, tabulated: bool = False):
        spaces, index = [c.on_nodes(galerkin) for c in coefs], {}
        self.slots = [tuple(None if tabulated and not s and m.kind == "ones"
                            else int(s) if (m.kind, m.scale) == ("linear", 1.0)
                            else index.setdefault((s, m), len(index) + 2) for _, m in c.terms)
                      for c, s in zip(coefs, spaces)]
        self._maps = [(int(s), _MAP_KINDS[m.kind], m) for s, m in index]
        self._galerkin = galerkin if any(spaces) else None

    def __call__(self, y: np.ndarray) -> list:
        vals = [y, None if self._galerkin is None else self._galerkin.to_phys(y)]
        for s, fn, m in self._maps:   # a loop: no comprehension to call on a jump's float
            vals.append(fn(m, vals[s]))
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

    Where :meth:`on_nodes` holds, the state maps act on node values
    (collocate, apply, project back); otherwise they act on coordinates
    directly.  Every evaluation sums its terms in :meth:`combine`.
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

    def on_nodes(self, galerkin: GalerkinSpec | None) -> bool:
        """Whether the maps act on node values: on a Galerkin model, exactly when
        ``pointwise`` is set or the mark mode is ``pointwise_product``; every route
        reads this rule."""
        return galerkin is not None and (self.pointwise or self.mark_mode == "pointwise_product")

    def evaluate(self, cols, i, vals: list, slots, galerkin: GalerkinSpec | None = None,
                 factor=None) -> np.ndarray:
        """The products ``cols[k][i] * vals[slots[k]]`` of the terms, the first
        added to +0.0 as by a zeros accumulator, summed by :meth:`combine`."""
        rows = ([col[i] * vals[s] for col, s in zip(cols, slots)]
                or [np.zeros(vals[self.on_nodes(galerkin)].shape)])
        rows[0] += _ZERO
        return self.combine(rows, galerkin, factor)

    def combine(self, rows: list, galerkin: GalerkinSpec | None = None,
                factor=None) -> np.ndarray:
        """The sum of ``rows``, the terms in order, into the first, which holds its
        +0.0; to modes if :meth:`on_nodes`, then times a
        :meth:`~JumpCoefficient.mark_factor` (a pointwise_product's at the nodes)."""
        acc = rows[0]
        for row in rows[1:]:   # in place: out of place would allocate an array per term
            acc += row
        if galerkin is not None and self.on_nodes(galerkin):   # no call per plain step
            if factor is not None and self.mark_mode == "pointwise_product":
                return galerkin.to_modes(acc * factor)
            acc = galerkin.to_modes(acc)
        return acc if factor is None else acc * factor

    def value(self, t, y: np.ndarray, galerkin: GalerkinSpec | None = None) -> np.ndarray:
        """The coefficient at state ``y`` and one time ``t``, or one time per
        leading state."""
        y, maps = np.asarray(y, dtype=float), StateMaps((self,), galerkin)
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
    pointwise_product: J(t,y,z) = base evaluated at the nodes, whatever
        ``pointwise``, times the collocated mark, projected back (vector
        marks, Galerkin models)
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
        elif mark.ndim > 1:   # one vector mark per leading state
            mark = mark.reshape(y.shape[:-1] + mark.shape[-1:])
        maps = StateMaps((self,), galerkin)
        return self.evaluate(_columns(self.profile_table(t), y), ..., maps(y), maps.slots[0],
                             galerkin, self.mark_factor(mark, galerkin))

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
        for name in ("A0", "lipschitz_L"):
            if not 0.0 <= getattr(self, name) < math.inf:   # false for NaN
                raise InputError(f"{name} must be finite and nonnegative, "
                                 f"got {getattr(self, name)!r}")
        if not 2.0 < self.moment_p < math.inf:
            raise InputError(f"moment_p must be finite and exceed 2, got {self.moment_p!r}")


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
        # the step's drift is f + g a, with the Wiener drift vector a
        a_max = float(np.max(np.abs(self.wiener.drift), initial=0.0))
        return {
            "drift": c.drift.lip_bound() + c.diffusion.lip_bound() * a_max,
            "diffusion": c.diffusion.lip_bound() * self.wiener.operator_norm_qhalf,
            "small_jump": c.small_jump.lip_bound() * root(self.jump_intensity("small", k)),
            "large_jump": c.large_jump.lip_bound() * root(self.jump_intensity("large", k)),
        }

    def zero_bounds(self, t_grid) -> tuple[dict[str, float], dict[str, float]]:
        """Maxima over the time grid of the at-zero norms entering the growth
        condition (norm of the drift ``f + g a`` with the Wiener drift vector
        ``a``, weighted diffusion norm, exact jump intensity integrals at zero),
        and of the jump state-part norms at every ``len(t_grid) // 41``-th time,
        which enter its p-th moment form.

        Per coefficient: one profile table, one evaluation of the state maps at
        zero, and the term products and their in-order sum (the first row plus
        +0.0) for all times at once, elementwise, so each row keeps its bits.
        Transforms, mark factors, norms and sums of squares run one row at a
        time, as in a batch they round by its size or sum in another order.
        """
        t_grid, gal, zero = np.atleast_1d(t_grid), self.galerkin, np.zeros(self.dim)

        def sums(coef):   # one row per time of ``t_grid``
            maps, table = StateMaps((coef,), gal), coef.profile_table(t_grid)
            vals = maps(zero)
            rows = ([table[:, k, None] * vals[s] for k, s in enumerate(maps.slots[0])]
                    or [np.zeros(table.shape[:1] + vals[coef.on_nodes(gal)].shape)])
            rows[0] += _ZERO
            return coef.combine(rows)

        def at_zero(coef, rows, factor=None):
            return [coef.combine([row], gal, factor) for row in rows]

        def norm(v):   # np.linalg.norm's sqrt(v . v), without its dispatch
            return math.sqrt(v.dot(v))

        def sq(coef, rows, factor=None):   # np.sum's reduce, ditto
            return np.array([np.add.reduce(v * v) for v in at_zero(coef, rows, factor)])

        c, states, a, qh = self.coefficients, {}, self.wiener.drift, np.sqrt(self.wiener.q)
        fs, gs = (at_zero(coef, sums(coef)) for coef in (c.drift, c.diffusion))
        bounds = {"drift": max([0.0, *(norm(f + g * a) for f, g in zip(fs, gs))]),
                  "diffusion": max([0.0, *(norm(qh * g) for g in gs)])}
        for which in ("small", "large"):
            coef, rate, sampler = self._jump(which)
            rows = sums(coef)
            states[which] = max(map(norm, at_zero(coef, rows[:: max(1, t_grid.size // 41)])),
                                default=0.0)
            if not rate:
                sqs = ()
            elif coef.mark_mode != "pointwise_product":
                sqs = self.jump_intensity(which, 2) * sq(coef, rows)
            else:   # each time sums its nodes in quadrature order
                nodes, weights = sampler.quadrature()
                sqs = rate * sum((w * sq(coef, rows, xn) for xn, w in zip(
                    coef.mark_factor(nodes, gal), weights)), np.zeros(t_grid.shape))
            bounds[f"{which}_jump"] = max([0.0, *map(math.sqrt, sqs)])
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


def compute_dp(p: float, n_grid: int = 4001):
    """Moment constant of the compensated Poisson maximal bound.

    The bound holds for every auxiliary ``alpha >= 1`` keeping its shared
    denominator positive; the theory fixes no choice, so we minimize
    max(D1, D2) over a log grid on [1, 1e6] restricted to denominators
    >= 1e-6.  Returns ``(d_p, alpha_min)``; the choice recovers
    d_2 = 2 at alpha = 1.
    """
    if p < 2:
        raise InputError("p must be >= 2")
    alpha = np.geomspace(1.0, 1e6, n_grid)
    d1, d2, denom = _kunita_parts(p, alpha)
    ok = denom >= 1e-6
    if not np.any(ok):
        raise InputError(f"no admissible alpha on the grid for p = {p}")
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


def _defined(text: str):
    """A field that carries its entry of the summaries' ``definitions`` block."""
    return field(metadata={"definition": text})


def _definitions(cls) -> dict:
    return {f.name: f.metadata["definition"] for f in fields(cls)}


@dataclass(frozen=True)
class TheoremConstants:
    """Every explicit constant and threshold, evaluated for one model; each
    field carries its formula."""

    c_p: float = _defined("[p(p-1)/2 * (p/(p-1))^(p-2)]^(p/2)")
    d_p: float = _defined("min over alpha>=1 of max(D1(p,alpha), D2(p,alpha))")
    alpha_kunita: float = _defined("argmin of the d_p objective")
    theta_2: float = _defined("4 K^2 L^2 (1+2w+2b) / w^2")
    theta_p: float = _defined("4^(p-1) K^p L^p { [(1+(2b)^(p-1))(2(p-1)/(wp))^(p-1)"
                              " + (c_p+(1+2^(p-1))d_p)((p-2)/(wp))^(p/2-1)] 2/(wp)"
                              " + (1+2^(p-1)) d_p/(wp) }")
    theta_limit_2plus: float = _defined("4 K^2 L^2 (1+10w+2b) / w^2")
    radius_r: float = _defined("2 K A0 sqrt(1+2w+2b) / (w - 2 K L sqrt(1+2w+2b))")
    compat_c: float = _defined("1 - 8 K^2 L^2 (1+2w+2b) / w^2")
    compat_alpha: float = _defined("w - [8K^2L^2/w + 32K^2L^2 + 16K^2L^2 b/w]")
    stability_margin: float = _defined("w - 5 (1/w + 4 + 2b/w) K^2 L^2")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def formulas(cls) -> dict:
        return _definitions(cls)


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

@dataclass(frozen=True)
class ConditionReport:
    """Signed slack of every hypothesis, which holds when its slack is > 0.

    Each field carries the hypothesis' statement, which the summaries write
    into their ``definitions`` block; ``to_dict`` writes each flag beside
    its slack.
    """

    e1: float = _defined("growth: coefficient norms at the origin bounded by A0")
    e1p: float = _defined("growth in the p-th moment norms")
    e2: float = _defined("Lipschitz: effective constants bounded by L")
    e2p: float = _defined("Lipschitz in the p-th moment norms")
    e3: float = _defined("continuity in t uniformly on bounded state sets")
    thm_existence: float = _defined("L < w/(2K sqrt(1+2w+2b))")
    cond_L: float = _defined("L < min(w/(2K sqrt(2+4w+4b)), w/(2K sqrt(1+10w+2b)))")
    cond_L11: float = _defined("L < w/(2K sqrt(2+8w+4b))")
    cond_lmin: float = _defined("L < w/(K sqrt(5(1+4w+2b)))")
    theta2_lt_1: float = _defined("theta_2 < 1")
    thetap_lt_1: float = _defined("theta_p < 1")

    @property
    def all_passed(self) -> bool:
        return all(getattr(self, n) > 0 for n in CONDITION_NAMES)

    def to_dict(self) -> dict:
        out = {}
        for n in CONDITION_NAMES:
            slack = getattr(self, n)
            out[n] = bool(slack > 0)
            out[f"{n}_slack"] = float(slack)
        return out


# every hypothesis the checker reports, with its statement
CONDITION_DEFS = _definitions(ConditionReport)
CONDITION_NAMES = tuple(CONDITION_DEFS)


# slack granted to registry constants, which may sit exactly on the
# declared A0 or L
REGISTRY_TOL = 1e-12
# the growth conditions' grid: GROWTH_TIMES equally spaced times on [-GROWTH_SPAN, GROWTH_SPAN]
GROWTH_SPAN, GROWTH_TIMES = 40.0, 401


def check_conditions(model: SdeModel) -> ConditionReport:
    """The signed slack of every hypothesis of :class:`ConditionReport`; a
    hypothesis holds when its slack is > 0.

    The report is a deterministic function of the model.  Growth bounds
    are maxima over the ``GROWTH_TIMES`` times on [-GROWTH_SPAN, GROWTH_SPAN]
    (jump state parts: 45 of them) with exact registry moments, which can
    only under-state the sup over the line; Lipschitz bounds are the exact
    registry constants of :meth:`SdeModel.effective_lipschitz`; the
    continuity hypothesis is asserted analytically for registry profiles.
    Threshold slacks are reported as (threshold - L) so a zero-Lipschitz
    model shows slack equal to the threshold itself.
    """
    K, w, b = model.K, model.omega, model.b
    c = model.coefficients
    L, A0, p = c.lipschitz_L, c.A0, c.moment_p
    zb, states = model.zero_bounds(np.linspace(-GROWTH_SPAN, GROWTH_SPAN, GROWTH_TIMES))
    # p-th moment growth at zero: jump state parts times their p-th intensities
    jump_p = [model.jump_intensity(which, p) ** (1 / p) * states[which]
              for which in ("small", "large")]
    return ConditionReport(
        e1=A0 - max(zb.values()) + REGISTRY_TOL,
        e1p=A0 - max(zb["drift"], zb["diffusion"], *jump_p) + REGISTRY_TOL,
        e2=L - max(model.effective_lipschitz().values()) + REGISTRY_TOL,
        e2p=L - max(model.effective_lipschitz(p).values()) + REGISTRY_TOL,
        e3=math.inf,
        thm_existence=lip_threshold_existence(K, w, b) - L,
        cond_L=lip_threshold_uniform(K, w, b) - L,
        cond_L11=lip_threshold_compact(K, w, b) - L,
        cond_lmin=lip_threshold_stability(K, w, b) - L,
        theta2_lt_1=1.0 - theta_two(K, w, L, b),
        thetap_lt_1=1.0 - compute_theta(p, K, w, L, b),
    )
