"""Monte Carlo validation of the closed-form ensemble dynamics.

Individual trajectories integrate the semiclassical equations driven by
sampled field realizations; their average must reproduce the closed forms
in the weak-coupling regime. Two checks: an exact one at zero field, and a
statistical one at the weak-coupling reference point.

Writes mc_report.json next to this script.
"""

import math
from pathlib import Path

import numpy as np

from dipolefield.dynamics import InitialCondition
from dipolefield.model import SystemParams
from dipolefield.stochastic import ensemble_average

# exact limit: no field, pure spontaneous decay
p0 = SystemParams(omega=5.0, kappa=1.0, beta_s=0.5, i0=0.0, beta=1.0)
rep0 = ensemble_average(InitialCondition(0.0, 1.0), p0, 2, dt=1e-3, horizon=5.0,
                        master_seed=1)
print("zero-field limit (integrator accuracy, no statistics):")
print(f"  max |w residual| = {np.max(np.abs(rep0.residual_w)):.2e}")
print(f"  max |m residual| = {np.max(np.abs(rep0.residual_m)):.2e}")
print()

# weak coupling: statistics against the closed form
p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.2, i0=0.1 / math.pi, beta=1.0)
ic = InitialCondition(m0=0.0, w0=1.0)
rep = ensemble_average(ic, p, 4000, dt=0.05, horizon=8.0, master_seed=7)
closed_w = rep.mean_w - rep.residual_w
print("weak coupling, 4000 trajectories (m0 = 0, w0 = 1):")
print(f"{'t':>6} {'mc mean w':>11} {'closed form':>12} {'3*SE':>9}")
for k in range(0, rep.t.size, 32):
    print(f"{rep.t[k]:6.2f} {rep.mean_w[k]:11.5f} {closed_w[k]:12.5f} "
          f"{3 * rep.se_w[k]:9.5f}")
print(f"max |w residual| = {np.max(np.abs(rep.residual_w)):.4f}, "
      f"max 3*SE = {np.max(3 * rep.se_w):.4f}")

out = Path(__file__).with_name("mc_report.json")
rep.write_json(out)
print(f"wrote {out}")
