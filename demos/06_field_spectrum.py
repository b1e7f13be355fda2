"""Sampling the fluctuating field and recovering its Lorentzian spectrum.

The field is the real part of a complex AR(1) that rotates at the carrier
and decays at the linewidth, one normal a sample, so its autocorrelation is
a damped cosine and its spectrum a Lorentzian lobe at the transition
frequency. Realizations are
plain arrays: ``sample_fields`` returns one column per seed on the time
grid k*dt. An averaged periodogram over many realizations recovers the
peak position and width.

Writes spectrum.csv (header omega,power) next to this script.
"""

import math
from pathlib import Path

import numpy as np

from dipolefield.model import SystemParams
from dipolefield.stochastic import (
    derive_seeds,
    field_variance,
    fit_spectrum,
    max_field_dt,
    sample_fields,
    sample_periodogram,
)

p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
dt = max_field_dt(p)
n_steps = int(round(120.0 / p.beta / dt))

one = sample_fields(p, dt, n_steps, derive_seeds(3, [0]))[:, 0]
print(f"one realization: {one.size} samples at dt = {dt:.4f}")
print(f"  sample mean     = {np.mean(one):+.4f} (target 0)")
print(f"  sample variance = {np.var(one):.4f} "
      f"(target pi*beta*i0 = {field_variance(p):.4f})")

lag = int(round(1.0 / (p.beta * dt)))
acf = float(np.mean(one[:-lag] * one[lag:]))
expected = field_variance(p) * math.exp(-1.0) * math.cos(p.omega * lag * dt)
print(f"  autocovariance at lag 1/beta = {acf:+.4f} (target {expected:+.4f})")
print()

seeds = derive_seeds(3, range(150))
omega, power, _ = sample_periodogram(p, dt, n_steps, seeds)
fit = fit_spectrum(omega, power)
print(f"averaged periodogram over {len(seeds)} realizations:")
print(f"  fitted peak at {fit.peak_omega:.4f} (transition frequency {p.omega})")
print(f"  fitted HWHM    {fit.hwhm:.4f} (spectral half-width {p.beta})")
print(f"  peak height    {fit.peak_height:.4f} -> implied i0 = "
      f"{fit.peak_height / math.pi:.4f} (input {p.i0})")

out = Path(__file__).with_name("spectrum.csv")
with open(out, "w") as fh:
    fh.write("omega,power\n")
    for w, pw in zip(omega, power):
        fh.write(f"{w:.12g},{pw:.12g}\n")
print(f"wrote {out}")
