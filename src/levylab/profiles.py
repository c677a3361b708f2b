"""Registry of recurrent time profiles.

Every time-dependent coefficient in this package is a product of a
scalar *time profile* and a state map.  Profiles are restricted to a
closed registry so that sup bounds and Lipschitz constants are known
in closed form (or computable on a window for the singular composites),
which is what makes the hypothesis checks in :mod:`levylab.model` exact
rather than heuristic.

Registry kinds
--------------
``constant``
    ``value``.
``harmonic``
    ``sum_i amps[i] * sin(freqs[i] * t + phases[i])``.  Covers periodic
    profiles (one frequency, or commensurate frequencies) and
    quasi-periodic ones (rationally independent frequencies such as
    ``1, sqrt(3)``).
``reciprocal``
    ``amp / (offset + inner harmonic)``.  Requires the denominator to be
    bounded away from zero.
``trig_reciprocal``
    ``amp * sin_or_cos(1 / (offset + inner harmonic))``.  The classical
    recurrent-but-not-almost-periodic composites live here, e.g.
    ``cos(1/(2 + sin t + sin(sqrt(2) t)))`` whose denominator becomes
    arbitrarily small: the profile stays bounded by ``|amp|`` but has no
    finite global Lipschitz constant in ``t``.
``clipped_ramp``
    ``scale * clip(t, -bound, bound)``.  Not recurrent; kept in the
    registry as a bounded stand-in for the identity when a scan needs a
    non-recurrent control case.

Each profile carries its recurrence class (``"constant"``, ``"periodic"``,
``"quasi_periodic"``, ``"levitan"``, ``"almost_automorphic"``, ``"none"``)
as metadata; the class is asserted by the constructor, not inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError

_KINDS = ("constant", "harmonic", "reciprocal", "trig_reciprocal", "clipped_ramp")
OUTERS = ("sin", "cos")


@dataclass(frozen=True)
class TimeProfile:
    """Bounded scalar function of time from the closed registry.

    Evaluation is vectorized over numpy arrays.  ``t_shift`` evaluates the
    profile at ``t + t_shift``; :meth:`shifted` is how coefficient shifts
    are realized throughout the package.
    """

    kind: str
    value: float = 0.0                      # constant kind
    amps: tuple[float, ...] = ()            # harmonic terms (also the inner
    freqs: tuple[float, ...] = ()           # harmonic of the reciprocal kinds)
    phases: tuple[float, ...] = ()
    amp: float = 1.0                        # outer amplitude of composites / ramp scale
    offset: float = 0.0                     # denominator constant of composites
    outer: str = "cos"                      # trig_reciprocal outer function
    bound: float = 1.0                      # clipped_ramp clip level
    t_shift: float = 0.0
    recurrence_class: str = "constant"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown profile kind {self.kind!r}")
        if not (len(self.amps) == len(self.freqs) == len(self.phases)):
            raise InputError("amps, freqs, phases must have equal length")
        if self.kind in ("reciprocal", "trig_reciprocal"):
            if self.outer not in OUTERS:
                raise InputError(f"outer must be one of {OUTERS}")
            margin = self.offset - sum(abs(a) for a in self.amps)
            if self.kind == "reciprocal" and margin <= 0.0:
                raise InputError(
                    "reciprocal profile needs denominator offset > sum |amps| "
                    f"(margin {margin:g})"
                )
            if self.kind == "trig_reciprocal" and margin < 0.0:
                raise InputError("trig_reciprocal denominator may touch zero "
                                 "but not cross it (offset >= sum |amps|)")

    # -- evaluation -----------------------------------------------------

    def _inner(self, t: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(t)
        for a, nu, ph in zip(self.amps, self.freqs, self.phases):
            acc += a * np.sin(nu * t + ph)
        return acc

    def __call__(self, t):
        t = np.asarray(t, dtype=float) + self.t_shift
        if self.kind == "constant":
            return np.full_like(t, self.value)
        if self.kind == "harmonic":
            return self._inner(t)
        if self.kind == "clipped_ramp":
            return self.amp * np.clip(t, -self.bound, self.bound)
        denom = self.offset + self._inner(t)
        if self.kind == "reciprocal":
            return self.amp / denom
        # trig_reciprocal: denominator may underflow to 0 at isolated float
        # values; the composed value is still bounded, so guard the division.
        with np.errstate(divide="ignore"):
            arg = np.where(denom != 0.0, 1.0 / np.where(denom == 0.0, 1.0, denom), np.inf)
        out = np.sin(arg) if self.outer == "sin" else np.cos(arg)
        return self.amp * np.where(np.isfinite(arg), out, 0.0)

    # -- exact bounds ---------------------------------------------------

    def sup_bound(self) -> float:
        """Upper bound on ``sup_t |profile(t)|``, exact for the registry."""
        if self.kind == "constant":
            return abs(self.value)
        if self.kind == "harmonic":
            return sum(abs(a) for a in self.amps)
        if self.kind == "clipped_ramp":
            return abs(self.amp) * self.bound
        if self.kind == "reciprocal":
            return abs(self.amp) / (self.offset - sum(abs(a) for a in self.amps))
        return abs(self.amp)  # |sin|, |cos| <= 1

    def lipschitz_t(self, half_width: float | None = None) -> float:
        """Lipschitz-in-``t`` constant.

        Exact and global for ``constant``/``harmonic``/``clipped_ramp``.
        For the composite kinds the constant is an estimate of ``sup |d/dt|``
        on a grid of step 1e-3 over ``[-half_width, half_width]``; the
        Levitan-type composites have no finite global constant, so
        ``half_width`` is required for them.
        """
        if self.kind == "constant":
            return 0.0
        if self.kind == "harmonic":
            return sum(abs(a * nu) for a, nu in zip(self.amps, self.freqs))
        if self.kind == "clipped_ramp":
            return abs(self.amp)
        inner_lip = sum(abs(a * nu) for a, nu in zip(self.amps, self.freqs))
        margin = self.offset - sum(abs(a) for a in self.amps)
        if margin > 0.0:
            # |d/dt amp*outer(1/u)| <= amp * |u'| / u^2 globally
            return abs(self.amp) * inner_lip / margin**2
        if half_width is None:
            raise InputError("profile has no global Lipschitz constant; "
                             "pass half_width for a window estimate")
        t = np.arange(-half_width, half_width + 1e-3, 1e-3) + self.t_shift
        u = self.offset + self._inner(t)
        du = np.zeros_like(t)
        for a, nu, ph in zip(self.amps, self.freqs, self.phases):
            du += a * nu * np.cos(nu * t + ph)
        u = np.where(u == 0.0, np.finfo(float).tiny, u)
        return float(abs(self.amp) * np.max(np.abs(du) / u**2))

    def shifted(self, tau: float) -> "TimeProfile":
        """Profile evaluated at ``t + tau`` (time translation)."""
        return replace(self, t_shift=self.t_shift + tau)


# -- constructors ---------------------------------------------------------

def constant_profile(value: float) -> TimeProfile:
    return TimeProfile(kind="constant", value=float(value), recurrence_class="constant")


def periodic_profile(amp: float, freq: float, phase: float = 0.0) -> TimeProfile:
    """``amp * sin(freq*t + phase)``; period ``2*pi/freq``."""
    return TimeProfile(kind="harmonic", amps=(float(amp),), freqs=(float(freq),),
                       phases=(float(phase),), recurrence_class="periodic")


def harmonic_profile(amps, freqs, phases=None, recurrence_class="quasi_periodic") -> TimeProfile:
    """Sum of sinusoids.  Rational independence of the frequencies is the
    caller's assertion, recorded in ``recurrence_class``."""
    amps = tuple(float(a) for a in amps)
    freqs = tuple(float(f) for f in freqs)
    if phases is None:
        phases = (0.0,) * len(amps)
    phases = tuple(float(p) for p in phases)
    return TimeProfile(kind="harmonic", amps=amps, freqs=freqs, phases=phases,
                       recurrence_class=recurrence_class)


def reciprocal_profile(amp, offset, inner_amps, inner_freqs, inner_phases=None,
                       recurrence_class="levitan") -> TimeProfile:
    inner_amps = tuple(float(a) for a in inner_amps)
    inner_freqs = tuple(float(f) for f in inner_freqs)
    if inner_phases is None:
        inner_phases = (0.0,) * len(inner_amps)
    return TimeProfile(kind="reciprocal", amp=float(amp), offset=float(offset),
                       amps=inner_amps, freqs=inner_freqs,
                       phases=tuple(float(p) for p in inner_phases),
                       recurrence_class=recurrence_class)


def trig_reciprocal_profile(outer, amp, offset, inner_amps, inner_freqs,
                            inner_phases=None, recurrence_class="levitan") -> TimeProfile:
    inner_amps = tuple(float(a) for a in inner_amps)
    inner_freqs = tuple(float(f) for f in inner_freqs)
    if inner_phases is None:
        inner_phases = (0.0,) * len(inner_amps)
    return TimeProfile(kind="trig_reciprocal", outer=outer, amp=float(amp),
                       offset=float(offset), amps=inner_amps, freqs=inner_freqs,
                       phases=tuple(float(p) for p in inner_phases),
                       recurrence_class=recurrence_class)


def clipped_ramp_profile(bound: float, scale: float = 1.0) -> TimeProfile:
    return TimeProfile(kind="clipped_ramp", amp=float(scale), bound=float(bound),
                       recurrence_class="none")
