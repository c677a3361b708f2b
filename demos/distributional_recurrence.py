"""Recurrence of the bounded solution in distribution.

The law of the bounded solution inherits the recurrence of the
coefficients.  With all four coefficients 2-pi-periodic the law at t
equals the law at t + 2 pi; the bounded-Lipschitz distance between the
two empirical laws stays at its sampling-noise floor.  At the half
period the asymmetric forcing separates the laws by an order of
magnitude, which is the power check that the metric actually sees
distributional change.  Error bars are pooled-resampling null scales:
the empirical distance between equal laws is positive at order
n^(-1/2), so the null scale, not a naive bootstrap spread, is the right
yardstick.
"""

import os

import numpy as np

import levylab as L

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

model = L.presets.periodic_model()
rep = L.check_conditions(model)
print(f"hypotheses hold: {rep.all_passed} "
      f"(margin {L.theorem_constants(model).stability_margin:.3f})")

t_grid = np.linspace(0.0, 2 * np.pi, 5)
for tau, label in ((2 * np.pi, "full period"), (np.pi, "half period")):
    res = L.distributional_almost_period_test(model, tau, t_grid, n_paths=600,
                                              seed=11, n_boot=15, max_step=0.01)
    res.to_csv(os.path.join(OUT, f"beta_tau_{tau:.2f}.csv"))
    print(f"\ntau = {tau:.4f} ({label}):")
    print("  t        beta       null scale   beta <= 3 err")
    for t, b, e in zip(res.times, res.beta, res.err):
        print(f"  {t:6.3f}   {b:.4f}     {e:.4f}       {b <= 3 * e}")
    print(f"  verdict: laws match at every grid time: {res.passed}; "
          f"statistically separated somewhere: {res.positive}")

print(f"\ncurves written to {OUT}/beta_tau_*.csv")
