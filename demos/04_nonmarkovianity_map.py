"""The non-Markovianity measure across parameter space.

Three views: the measure as a function of the two dimensionless rates at a
fixed horizon (two branch surfaces, the measure is their maximum); its
growth with the horizon for a sharp and for a broad spectrum; and the map
of which branch dominates. Coherence-dominated growth is near-linear,
inversion-dominated growth saturates.

Writes surfaces.csv (sweep rows) next to this script.
"""

import math
from pathlib import Path

import numpy as np

from dipolefield.blp import (
    BranchKind,
    analytic_n_omega,
    backflow_integral,
    dominant_regime,
    n_measure,
    sweep_grid,
    write_sweep_csv,
)
from dipolefield.model import DimensionlessConfig

# growth with the horizon
print("growth of the measure with the horizon T (theta-maximized):")
print(f"{'T':>5} {'sharp (om=4, lam=0.1)':>24} {'broad (om=0.1, lam=4)':>24}")
for t_max in (1.0, 2.0, 3.0, 4.0, 5.0):
    sharp = n_measure(DimensionlessConfig(0.1, 4.0, t_max), theta_grid_size=9)
    broad = n_measure(DimensionlessConfig(4.0, 0.1, t_max), theta_grid_size=9)
    print(f"{t_max:5.1f} {sharp.n_value:24.5f} {broad.n_value:24.5f}")
print("the sharp-spectrum column tracks omega*T/pi; the broad one saturates")
print()

# closed forms for both branches: each is a sum over the rises of its distance
print("coherence branch, D = |cos(omega_hat tau)|: completed half-periods + partial rise")
for om, t_max in ((1.0, math.pi), (8.0, 5.0)):
    intervals = backflow_integral(BranchKind.OMEGA, DimensionlessConfig(0.1, om, t_max)).intervals
    rises = sum(abs(math.cos(om * b)) - abs(math.cos(om * a)) for a, b in intervals)
    print(f"  omega_hat={om}, T={t_max:.4f}: {len(intervals)} rise(s) of |cos| add up to "
          f"{rises:.6f}, closed form {analytic_n_omega(om, t_max):.6f}")
print("inversion branch, D = exp(-tau)|cos(lambda_hat tau)|: a geometric sum of rises that")
print("saturates at sin(phi) exp(-(phi + pi/2)/lambda_hat) / (1 - exp(-pi/lambda_hat)),")
print("phi = atan2(lambda_hat, 1)")
for lam in (1.0, 4.0):
    phi = math.atan2(lam, 1.0)
    saturation = math.sin(phi) * math.exp(-(phi + math.pi / 2) / lam) / -math.expm1(-math.pi / lam)
    for t_max in (5.0, 20.0):
        res = backflow_integral(BranchKind.LAMBDA, DimensionlessConfig(lam, 0.1, t_max))
        rises = sum(math.exp(-b) * abs(math.cos(lam * b)) - math.exp(-a) * abs(math.cos(lam * a))
                    for a, b in res.intervals)
        print(f"  lambda_hat={lam}, T={t_max:.4f}: {len(res.intervals)} rise(s) add up to "
              f"{rises:.6f}, closed form {res.n_value:.6f}, saturation {saturation:.6f}")
print()

# regime map
print("dominant branch over the rate plane (T = 5): L = inversion, o = coherence")
lams = np.linspace(0.5, 5.0, 10)
oms = np.linspace(0.5, 5.0, 10)
print("        " + " ".join(f"{om:4.1f}" for om in oms) + "   <- omega_hat")
for lam in lams[::-1]:
    cells = [
        "   L" if dominant_regime(lam, om, 5.0) is BranchKind.LAMBDA else "   o"
        for om in oms
    ]
    print(f"{lam:5.1f}   " + " ".join(c.strip().rjust(4) for c in cells))
print("lambda_hat increases upward; the inversion branch wins at broad spectra")
print()

rows = sweep_grid(np.linspace(0, 5, 11), np.linspace(0, 5, 11), [1.0, 3.0, 5.0])
out = Path(__file__).with_name("surfaces.csv")
write_sweep_csv(rows, out)
print(f"wrote {out} ({len(rows)} rows: both branch surfaces and their max)")
