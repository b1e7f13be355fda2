"""Closed-form ensemble evolution of dipole, inversion, and purity.

The ensemble dipole oscillates undamped at the transition frequency; the
inversion relaxes through a damped cosine toward -2A/omega. Starting from
the excited state the qubit first loses purity, then repurifies toward its
noise-dressed steady state.

Writes evolution.csv (header t,m,w,purity) next to this script.
"""

from pathlib import Path

import numpy as np

from dipolefield.dynamics import InitialCondition, mean_inversion, write_timeseries
from dipolefield.model import SystemParams, derive_params

p = SystemParams(omega=2.0, kappa=1.0, beta_s=1.0, i0=2 / np.pi, beta=1.0)
d = derive_params(p)
ic = InitialCondition(m0=0.0, w0=1.0)

times = np.linspace(0.0, 8.0, 161)
w = np.asarray(mean_inversion(ic, p, times))
purity = 0.5 * (1.0 + w * w)

print("excited-state relaxation (m0 = 0, w0 = 1):")
print(f"{'t':>6} {'w':>10} {'purity':>10}")
for k in range(0, len(times), 20):
    print(f"{times[k]:6.2f} {w[k]:10.5f} {purity[k]:10.5f}")
print(f"steady state -2A/omega = {-2 * d.a_const / p.omega:.5f}")
print(f"minimum purity along the path: {purity.min():.5f} "
      f"at t = {times[np.argmin(purity)]:.2f}")

out = Path(__file__).with_name("evolution.csv")
write_timeseries(out, ic, p, times)
print(f"wrote {out}")
