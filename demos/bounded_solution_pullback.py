"""Approximate the unique L2-bounded solution by pullback.

Starting far enough in the past and discarding the burn-in converges to
the bounded solution at an explicit exponential rate; the pullback
horizon is solved from the contraction estimate.  For a deterministic
forced linear model the bounded solution is an explicit one-sided
convolution, so the whole pipeline can be checked against a formula;
for the scalar jump-diffusion example the ensemble second moment is
checked against the invariant-ball radius.
"""

import numpy as np

import levylab as L

# 1. Deterministic benchmark: dY = (-10 Y + sin t) dt.
#    Bounded solution: integral_{-inf}^t e^{-10(t-s)} sin s ds
#                      = (10 sin t - cos t)/101.
lam = 10.0
model = L.presets.forced_linear_model(decay=lam)
plan = L.pullback_plan(model, tol=1e-5)
print(f"forced linear model: margin = {plan.margin}, pullback horizon = "
      f"{plan.t_pull:.2f} for tol {plan.tol:g}")

path = L.bounded_solution(model, (0.0, 4 * np.pi), tol=1e-5, seed=0, max_step=1e-3)
exact = (lam * np.sin(path.times) - np.cos(path.times)) / (lam**2 + 1)
print(f"  sup |numeric - convolution formula| = "
      f"{np.max(np.abs(path.values[:, 0] - exact)):.2e}")

# 2. Scalar jump diffusion with quasi-periodic forcing: the bounded solution
#    lives in the ball of radius r in mean square.
model61 = L.presets.example61_model(b=1.0, forcing=1.0)
plan61 = L.pullback_plan(model61, tol=0.05)
print(f"\nscalar example: r = {plan61.radius:.4f}, margin = {plan61.margin:.4f}, "
      f"t_pull = {plan61.t_pull:.2f}")

obs = np.linspace(0.0, 6.0, 13)
res = L.bounded_ensemble(model61, (0.0, 6.0), 0.05, n_paths=400, seed=7,
                         obs_times=obs, max_step=0.005)
msq, se = res.mean_sq_norm()
print("  t        E|xi(t)|^2    3 SE       r^2")
for t, m, s in zip(res.times[::3], msq[::3], se[::3]):
    print(f"  {t:6.2f}   {m:.4f}       {3*s:.4f}    {plan61.radius**2:.4f}")
print(f"  within the ball at every grid time: "
      f"{bool(np.all(msq <= plan61.radius**2 + 3 * se))}")

# 3. Same-noise forgetting: two starts, one realization.
curve = L.gap_experiment(model61, y0a=1.0, y0b=3.0, horizon=6.0, n_paths=400,
                         seed=5, max_step=0.005, n_obs=41)
bound = 5.0 * curve.gap[0] * np.exp(-plan61.margin * curve.times)
print(f"\nforgetting check: gap(0) = {curve.gap[0]:.3f}; curve under "
      f"5 gap(0) exp(-margin t) + 3 SE everywhere: "
      f"{bool(np.all(curve.gap <= bound + 3 * curve.se))}")
