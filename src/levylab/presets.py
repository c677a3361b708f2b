"""Ready-made models: the two worked examples plus test benches.

``example61_model`` is the scalar jump-diffusion with the four recurrent
multiplicative coefficients (quasi-periodic drift factor, Levitan-type
diffusion factor, stationary small-jump factor, almost-automorphic-type
large-jump factor), decay rate 4, declared Lipschitz constant 1/4.  Its
coefficients all vanish at the origin, so the bounded solution is the
zero path; the optional ``forcing`` adds a quasi-periodic additive drift
(keeping the declared Lipschitz constant) to make pullback and coupling
experiments non-degenerate.

``example62_model`` is the spectral heat model built by
:func:`build_heat_model` with finite-rank jump marks.

The remaining builders are small benches used by oracle tests and the
distributional experiments.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .galerkin import GalerkinSpec
from .model import (CoefficientSet, SdeModel, SemigroupSpec, coefficient, cosine_map,
                    jump_coefficient, linear_map, ones_map, sine_map)
from .noise import (JumpMeasureSpec, WienerSpec, finite_rank_marks,
                    uniform_shell_marks)
from .profiles import (constant_profile, harmonic_profile, periodic_profile,
                       reciprocal_profile, trig_reciprocal_profile)


def example61_profiles() -> dict:
    """The four time profiles of the scalar example, keyed by coefficient."""
    return {
        # (1/8)(sin t + cos(sqrt(3) t)): quasi-periodic, frequencies 1, sqrt 3
        "drift": harmonic_profile(amps=(0.125, 0.125), freqs=(1.0, np.sqrt(3.0)),
                                  phases=(0.0, np.pi / 2.0),
                                  recurrence_class="quasi_periodic"),
        # (1/5) cos(1/(2 + sin t + sin(sqrt 2) t)): Levitan-type composite
        "diffusion": trig_reciprocal_profile(
            outer="cos", amp=0.2, offset=2.0, inner_amps=(1.0, 1.0),
            inner_freqs=(1.0, np.sqrt(2.0)), recurrence_class="levitan"),
        # 1/5: stationary
        "small_jump": constant_profile(0.2),
        # (1/4) sin(1/(3 + cos t + cos(pi t))): almost-automorphic-type
        "large_jump": trig_reciprocal_profile(
            outer="sin", amp=0.25, offset=3.0, inner_amps=(1.0, 1.0),
            inner_freqs=(1.0, np.pi), inner_phases=(np.pi / 2.0, np.pi / 2.0),
            recurrence_class="almost_automorphic"),
    }


def example61_model(b: float = 1.0, small_rate: float = 1.0, A0: float = 1.0,
                    forcing: float = 0.0) -> SdeModel:
    """Scalar two-sided jump diffusion with recurrent coefficients.

    Small marks are uniform on +-[1/10, 1) (truncation delta 1/10) at
    ``small_rate``; large marks are uniform on +-[1, 2) at rate ``b``; the
    moment order is p = 2.05.

    Valid threshold regime: ``small_rate < 25/16`` and ``b <= 1`` keep the
    declared Lipschitz constant 1/4; the compatibility and stability
    thresholds then read ``b < 15/2`` and ``b < 171/10``.
    """
    profs = example61_profiles()
    drift_terms = [(profs["drift"], linear_map(1.0))]
    if forcing != 0.0:
        drift_terms.append((harmonic_profile(
            amps=(forcing / 2.0, forcing / 2.0), freqs=(1.0, np.sqrt(3.0)),
            phases=(0.0, np.pi / 2.0), recurrence_class="quasi_periodic"),
            ones_map(1.0)))
    coeffs = CoefficientSet(
        drift=coefficient(*drift_terms),
        diffusion=coefficient((profs["diffusion"], linear_map(1.0))),
        small_jump=jump_coefficient((profs["small_jump"], linear_map(1.0)),
                                    mark_mode="ignore"),
        large_jump=jump_coefficient((profs["large_jump"], linear_map(1.0)),
                                    mark_mode="ignore"),
        A0=max(A0, abs(forcing)), lipschitz_L=0.25, moment_p=2.05)
    jumps = JumpMeasureSpec(
        small_rate=small_rate,
        small_sampler=uniform_shell_marks(0.1, 1.0, signed=True),
        truncation_delta=0.1,
        large_rate=b,
        large_sampler=uniform_shell_marks(1.0, 2.0, signed=True))
    return SdeModel(semigroup=SemigroupSpec(eigenvalues=(4.0,), K=1.0, omega=4.0),
                    coefficients=coeffs, wiener=WienerSpec(mode_variances=(1.0,)),
                    jumps=jumps)


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
        jump_spec = JumpMeasureSpec()
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
    diffusion = coefficient((diff_profile, linear_map(1.0)))

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


def example62_model(n_modes: int = 8, b: float = 0.5, small_rate: float = 1.0,
                    q_base: float = 0.09, q_decay: float = 2.0,
                    moment_p: float = 2.05, drift_scale: float = 0.2) -> SdeModel:
    """Spectral heat model with finite-rank jump marks.

    The transforms use 2 ``n_modes`` collocation nodes.  Small marks are
    sub-unit multiples of the first two modes; the large mark is the first
    mode at unit norm.  The declared Lipschitz constant is the max formula
    max(2/5, ||Q^(1/2)||, small_rate^(1/p)/3, b^(1/p)/3).
    """
    gal = GalerkinSpec(n_modes=n_modes)

    def mode_vec(k: int, scale: float) -> np.ndarray:
        v = np.zeros(n_modes)
        v[k] = scale
        return v

    small = finite_rank_marks([mode_vec(0, 0.5), mode_vec(min(1, n_modes - 1), 0.4)],
                              [0.5, 0.5])
    large = finite_rank_marks([mode_vec(0, 1.0)], [1.0])
    jumps = JumpMeasureSpec(small_rate=small_rate, small_sampler=small,
                            truncation_delta=0.1, large_rate=b,
                            large_sampler=large)
    return build_heat_model(gal, q_decay, jumps, q_base=q_base,
                            drift_scale=drift_scale, moment_p=moment_p)


def linear_decay_model(decay: float = 1.0) -> SdeModel:
    """Scalar pure exponential decay; every coefficient is zero."""
    coeffs = CoefficientSet(drift=coefficient(), diffusion=coefficient(),
                            small_jump=jump_coefficient(), large_jump=jump_coefficient(),
                            A0=0.0, lipschitz_L=0.0)
    return SdeModel(semigroup=SemigroupSpec(eigenvalues=(decay,), K=1.0, omega=decay),
                    coefficients=coeffs, wiener=WienerSpec(mode_variances=(0.0,)),
                    jumps=JumpMeasureSpec())


def forced_linear_model(decay: float = 10.0) -> SdeModel:
    """Deterministic scalar dY = (-decay Y + sin t) dt; no noise.

    Its bounded solution is the explicit convolution
    (decay sin t - cos t) / (decay^2 + 1).
    """
    coeffs = CoefficientSet(
        drift=coefficient((periodic_profile(1.0, 1.0), ones_map(1.0))),
        diffusion=coefficient(), small_jump=jump_coefficient(),
        large_jump=jump_coefficient(), A0=1.0, lipschitz_L=0.0)
    return SdeModel(semigroup=SemigroupSpec(eigenvalues=(decay,), K=1.0, omega=decay),
                    coefficients=coeffs, wiener=WienerSpec(mode_variances=(0.0,)),
                    jumps=JumpMeasureSpec())


def ou_jump_model(decay: float = 1.0, sigma: float = 1.0, jump_rate: float = 1.0) -> SdeModel:
    """Scalar dY = -decay Y dt + sigma dW + dJ with compound-Poisson J.

    Large jumps arrive at ``jump_rate`` with marks uniform on [1, 2) added
    directly to the state.
    """
    jumps = JumpMeasureSpec(large_rate=jump_rate,
                            large_sampler=uniform_shell_marks(1.0, 2.0))
    p = CoefficientSet.moment_p   # the default order, which coeffs takes
    a0 = max(sigma, float(np.sqrt(jump_rate * jumps.mark_moment("large", 2))),
             (jump_rate * jumps.mark_moment("large", p)) ** (1.0 / p))
    coeffs = CoefficientSet(
        drift=coefficient(),
        diffusion=coefficient((constant_profile(sigma), ones_map(1.0))),
        small_jump=jump_coefficient(),
        large_jump=jump_coefficient((constant_profile(1.0), ones_map(1.0)),
                                    mark_mode="scalar"),
        A0=a0, lipschitz_L=0.0)
    return SdeModel(semigroup=SemigroupSpec(eigenvalues=(decay,), K=1.0, omega=decay),
                    coefficients=coeffs, wiener=WienerSpec(mode_variances=(1.0,)),
                    jumps=jumps)


def periodic_model() -> SdeModel:
    """Scalar model whose four coefficients are all 2-pi-periodic in time.

    dY = (sin t - 0.1 Y) dt + 0.3 dW + 0.2 dJ_small(compensated)
         + 0.2 cos t dJ_large

    Small jumps arrive at rate 1/2 with marks uniform on +-[1/10, 1), large
    ones at rate 1/2 with marks uniform on +-[1, 2); the moment order is
    p = 2.05.

    Asymmetric forcing makes the solution law genuinely time-dependent:
    the law at t equals the law at t + 2 pi but differs at t + pi.
    """
    jumps = JumpMeasureSpec(
        small_rate=0.5,
        small_sampler=uniform_shell_marks(0.1, 1.0, signed=True),
        truncation_delta=0.1, large_rate=0.5,
        large_sampler=uniform_shell_marks(1.0, 2.0, signed=True))
    coeffs = CoefficientSet(
        drift=coefficient((periodic_profile(1.0, 1.0), ones_map(1.0)),
                          (constant_profile(-0.1), linear_map(1.0))),
        diffusion=coefficient((constant_profile(0.3), ones_map(1.0))),
        small_jump=jump_coefficient((constant_profile(0.2), ones_map(1.0)),
                                    mark_mode="scalar"),
        large_jump=jump_coefficient((periodic_profile(0.2, 1.0, np.pi / 2.0),
                                     ones_map(1.0)), mark_mode="scalar"),
        A0=1.0, lipschitz_L=0.1, moment_p=2.05)
    return SdeModel(semigroup=SemigroupSpec(eigenvalues=(1.0,), K=1.0, omega=1.0),
                    coefficients=coeffs, wiener=WienerSpec(mode_variances=(1.0,)),
                    jumps=jumps)


def stationary_model() -> SdeModel:
    """Time-constant coefficients: the bounded solution is stationary.

    Large jumps only, at rate 1/2 with marks uniform on +-[1, 2).
    """
    jumps = JumpMeasureSpec(large_rate=0.5,
                            large_sampler=uniform_shell_marks(1.0, 2.0, signed=True))
    coeffs = CoefficientSet(
        drift=coefficient((constant_profile(0.5), ones_map(1.0))),
        diffusion=coefficient((constant_profile(0.3), ones_map(1.0))),
        small_jump=jump_coefficient(),
        large_jump=jump_coefficient((constant_profile(0.2), ones_map(1.0)),
                                    mark_mode="scalar"),
        A0=1.0, lipschitz_L=0.0)
    return SdeModel(semigroup=SemigroupSpec(eigenvalues=(1.0,), K=1.0, omega=1.0),
                    coefficients=coeffs, wiener=WienerSpec(mode_variances=(1.0,)),
                    jumps=jumps)
