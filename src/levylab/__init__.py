"""Numerical laboratory for semilinear SDEs driven by two-sided Levy noise.

The package simulates jump diffusions whose linear part is an
exponentially stable diagonal semigroup, approximates their unique
L2-bounded solution by pullback, evaluates every explicit constant and
smallness threshold of the underlying contraction theory, and measures
recurrence of the bounded solution both pathwise (compact-open metric,
epsilon-almost periods) and in distribution (bounded-Lipschitz metric
on empirical laws).
"""

from .errors import ConfigError, InputError, NumericalBlowupError, ThresholdError
from .galerkin import GalerkinSpec
from .profiles import (TimeProfile, clipped_ramp_profile, constant_profile,
                       harmonic_profile, periodic_profile, reciprocal_profile,
                       trig_reciprocal_profile)
from .noise import (JumpMeasureSpec, MarkSampler, WienerSpec, exp_tail_marks,
                    finite_rank_marks, point_mass_marks, uniform_shell_marks)
from .model import (Coefficient, CoefficientSet, ConditionReport,
                    JumpCoefficient, SdeModel, SemigroupSpec, StateMap,
                    TheoremConstants, check_conditions, clipped_map, coefficient,
                    compat_alpha, compat_c, compat_gap_bound, compute_cp, compute_dp,
                    compute_radius, compute_theta, cosine_map, jump_coefficient,
                    linear_map, lip_threshold_compact, lip_threshold_existence,
                    lip_threshold_stability, lip_threshold_uniform, ones_map,
                    sine_map, stability_margin, theorem_constants,
                    theta_limit_from_above, theta_two)
from .integrator import SamplePath
from .ensemble import EnsembleResult, GapCurve, coupled_gap, integrate, simulate_ensemble
from .pullback import (PullbackPlan, bounded_ensemble, bounded_solution,
                       pullback_horizon, pullback_plan)
from .recurrence import (DistributionalReport, EmpiricalLaw, RecurrenceReport,
                         ShiftCouplingResult, almost_periods, bebutov_distance,
                         bl_distance, bl_two_sample, coefficient_shift_bounds,
                         distributional_almost_period_test, shift_coupling_gap)
from .stability import (UltimateBoundReport, fit_decay_rate, fit_rate_stderr,
                        gap_experiment, ultimate_bound_check)
from . import presets
from .presets import build_heat_model, heat_lipschitz

__version__ = "0.1.0"
