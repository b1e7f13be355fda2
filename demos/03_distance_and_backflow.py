"""Trace distance of antipodal pairs and the backflow of distinguishability.

Two initial pairs matter: the coherence pair (theta = pi/2) whose distance
|cos(omega t)| revives undamped every half period, and the inversion pair
(theta = 0) whose distance e^{-gamma t}|cos(lambda t)| revives with damped
amplitude. Every rising stretch of either distance is information flowing
back; the measure adds those rises up.
"""

import math

import numpy as np

from dipolefield.blp import BranchKind, backflow_integral, sigma_rate
from dipolefield.dynamics import StatePair, trace_distance
from dipolefield.model import DimensionlessConfig, SystemParams, derive_params

p = SystemParams(omega=4.0, kappa=1.0, beta_s=1.0, i0=2 / math.pi, beta=1.0)
d = derive_params(p)
print(f"rates: gamma = {d.gamma}, lambda = {d.lambda_value}, omega = {p.omega}")

ts = np.linspace(0.0, 4.0, 9)
for theta, label in ((0.0, "inversion pair"), (math.pi / 4, "mixed"), (math.pi / 2, "coherence pair")):
    dist = np.asarray(trace_distance(StatePair(theta), p, ts))
    row = " ".join(f"{v:.4f}" for v in dist)
    print(f"D(t) {label:15s}: {row}")

# dimensionless engine: the same system in units of gamma
cfg = DimensionlessConfig(lambda_hat=d.lambda_value / d.gamma,
                          omega_hat=p.omega / d.gamma, t_max=8.0)
print()
print("rate of change of the distance (negative = information loss):")
for tau in (0.2, 0.8, 1.8, 2.4):
    s0 = sigma_rate(0.0, cfg, tau)
    s1 = sigma_rate(math.pi / 2, cfg, tau)
    print(f"  tau = {tau:4.1f}: inversion pair {s0:+.4f}, coherence pair {s1:+.4f}")

print()
for branch in (BranchKind.OMEGA, BranchKind.LAMBDA):
    res = backflow_integral(branch, cfg)
    ivs = ", ".join(f"[{a:.3f}, {b:.3f}]" for a, b in res.intervals[:4])
    more = " ..." if len(res.intervals) > 4 else ""
    print(f"{branch.value:6s} branch: backflow = {res.n_value:.6f} over "
          f"{len(res.intervals)} intervals {ivs}{more}")
