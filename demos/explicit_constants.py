"""Every explicit constant of the contraction theory, evaluated and probed.

The scalar worked example has decay rate 4, envelope K = 1, Lipschitz
constant 1/4, small-jump measure mass 1 on the truncated shell, and a
large-jump rate b we sweep below.  The script prints the full constant
table, then walks the jump rate b across the two thresholds that govern
compatibility (b < 15/2) and square-mean stability (b < 171/10).
"""

import numpy as np

import levylab as L

model = L.presets.example61_model(b=1.0)
tc = L.theorem_constants(model)

print("Constant table for the scalar example (b = 1):")
for key, val in tc.to_dict().items():
    print(f"  {key:18s} = {val:.10g}    [{tc.formulas()[key]}]")

print("\nMoment constants as p decreases to 2 (c_p -> 1, d_p -> 2):")
for p in (2.5, 2.2, 2.05, 2.005, 2.0):
    dp, alpha = L.compute_dp(p)
    print(f"  p = {p:<6} c_p = {L.compute_cp(p):.6f}  d_p = {dp:.6f} "
          f"(alpha = {alpha:.3f})  theta_p = {L.compute_theta(p, 1, 4, 0.25, 1):.6f}")

print("\nJump-rate sweep against the two thresholds:")
print("  b       cond_L11 (b < 7.5)   cond_lmin (b < 17.1)   margin")
for b in (0.0, 1.0, 5.0, 7.4, 7.6, 17.0, 17.2):
    rep = L.check_conditions(L.presets.example61_model(b=b, A0=1.0))
    margin = L.stability_margin(1.0, 4.0, 0.25, b)
    print(f"  {b:<7} {str(rep.cond_L11 > 0):<20} "
          f"{str(rep.cond_lmin > 0):<22} {margin:+.4f}")

print("\nInvariant-ball radius as the Lipschitz constant approaches its "
      "existence threshold:")
thr = L.lip_threshold_existence(1.0, 4.0, 1.0)
for eps in (1e-1, 1e-2, 1e-4, 1e-8):
    print(f"  L = threshold - {eps:<8.0e} r = {L.compute_radius(1, 4, thr - eps, 1, 1):.4g}")
