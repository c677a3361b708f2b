"""The stochastic heat equation as a finite spectral system.

Dirichlet Laplacian modes on (0, 1) give decay rates (n pi)^2, so the
semigroup envelope is exp(-pi^2 t) with K = 1.  The pointwise
nonlinearities (sin of the solution in the drift, cos of the solution in
the jump coefficient) are evaluated by collocation: transform to the
nodes, apply, project back; the uniform interior grid makes the discrete
sine basis exactly orthonormal.  Jumps carry finite-rank function-valued
marks.
"""

import numpy as np

import levylab as L

model = L.presets.example62_model(n_modes=8, b=0.5, small_rate=1.0)
gal = model.galerkin

print(f"modes: {gal.n_modes}, collocation nodes: {gal.collocation_points}")
print(f"decay rates: {[f'{v:.2f}' for v in model.semigroup.eigenvalues]}")
print(f"envelope: K = {model.K}, omega = {model.omega:.6f} (= pi^2)")
print(f"basis orthonormality defect: "
      f"{np.max(np.abs(gal.gram() - np.eye(gal.n_modes))):.2e}")

p = model.coefficients.moment_p
gate = L.heat_lipschitz(np.sqrt(0.09), 1.0, 0.5, p)
print(f"\nLipschitz gate max(2/5, ||Q^(1/2)||, rate^(1/p)/3 terms) = {gate:.4f}")
rep = L.check_conditions(model)
print(f"all hypotheses hold: {rep.all_passed} "
      f"(compat slack {rep.cond_L11:.4f}, "
      f"stability slack {rep.cond_lmin:.4f})")

# zero-noise control: a single mode decays exactly at rate pi^2
m1 = L.presets.example62_model(n_modes=1, b=0.0, small_rate=0.0, q_base=0.0,
                               drift_scale=0.0)
path = L.integrate(m1, (0.0, 1.0), [1.0], 1e-4, seed=0)
print(f"\nsingle-mode decay after t = 1: {path.values[-1, 0]:.6e} "
      f"(exact {np.exp(-np.pi**2):.6e})")

# full model: bounded solution second moment along the window
plan = L.pullback_plan(model, tol=0.05)
obs = np.linspace(0.0, 1.5, 7)
res = L.bounded_ensemble(model, (0.0, 1.5), 0.05, n_paths=300, seed=6,
                         obs_times=obs, max_step=0.002)
msq, se = res.mean_sq_norm()
print(f"\nbounded solution: r = {plan.radius:.4f}, t_pull = {plan.t_pull:.2f}")
print("  t       E||u(t)||^2    r^2")
for t, m in zip(res.times, msq):
    print(f"  {t:5.2f}   {m:.5f}        {plan.radius**2:.4f}")

# energy per mode at the final time
energy = np.mean(res.states[-1] ** 2, axis=0)
print("\nmean-square energy per mode at t = 1.5 (decays with n):")
print("  " + "  ".join(f"{e:.1e}" for e in energy))
