"""Simulate cadlag paths of the scalar jump diffusion and dump them as CSV.

One seed's noise draw (Wiener stream + marked Poisson point sets, all
reproducible from that seed) drives the exponential-Euler integrator on a
grid refined by every jump time.  The same draw integrated from two
different starts shows the pathwise forgetting that underlies every
coupling experiment in the package.
"""

import os

import numpy as np

import levylab as L

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

model = L.presets.example61_model(b=1.0, forcing=1.0)
path_a = L.integrate(model, (0.0, 10.0), [3.0], max_step=0.005, seed=2024)
path_b = L.integrate(model, (0.0, 10.0), [-2.0], max_step=0.005, seed=2024)
print(f"noise of seed 2024 on [0, 10]: {np.sum(path_a.jump_flags == 1)} small jumps, "
      f"{np.sum(path_a.jump_flags == 2)} large jumps")
path_a.to_csv(os.path.join(OUT, "path_from_3.csv"))
path_b.to_csv(os.path.join(OUT, "path_from_minus2.csv"))
print(f"  -> {OUT}/path_from_3.csv, {OUT}/path_from_minus2.csv  (time, jump_flag, y0)")

gap = np.abs(path_a.values[:, 0] - path_b.values[:, 0])
print("\nsame-noise pathwise forgetting (|Y_a - Y_b| along the run):")
for frac in (0.0, 0.1, 0.25, 0.5, 1.0):
    i = min(int(frac * (path_a.times.size - 1)), path_a.times.size - 1)
    print(f"  t = {path_a.times[i]:6.2f}   gap = {gap[i]:.3e}")

n_jumps = int(np.sum(path_a.jump_flags > 0))
print(f"\njump bookkeeping: {n_jumps} jumps applied, each at its own grid node, "
      "to the state stepped to the jump time")
