"""From physical inputs to the closed-form constants.

The model has five physical inputs: the level splitting omega, the
effective dipole coupling kappa, the spontaneous-emission rate beta_s, and
the height i0 and half-width beta of the Lorentzian field spectrum.
Everything the ensemble dynamics needs reduces to four derived constants:
the steady-state offset A, the damping rate gamma, the squared transient
frequency lambda^2, and the combined sine coefficient.
"""

from dipolefield.model import SystemParams, derive_params, nondimensionalize

import math


def show(label, p):
    d = derive_params(p)
    print(f"--- {label} ---")
    print(f"  inputs: omega={p.omega}, kappa={p.kappa}, beta_s={p.beta_s}, "
          f"i0={p.i0:.6g}, beta={p.beta}")
    print(f"  coupling weight pi*i0*kappa^2 = {p.coupling_weight:.6g}")
    print(f"  gamma = {d.gamma:.6g}   lambda^2 = {d.lambda_sq:.6g} "
          f"({'oscillatory' if d.oscillatory else 'overdamped'})")
    print(f"  A = {d.a_const:.6g}   B = "
          f"{'undefined' if d.b_const is None else format(d.b_const, '.6g')}   "
          f"c_sine = {d.c_sine:.6g}")
    print(f"  long-time inversion -> -2A/omega = {-2 * d.a_const / p.omega:.6g}")
    print()


# a balanced reference point: emission and noise broadening comparable
show("balanced", SystemParams(omega=2.0, kappa=1.0, beta_s=1.0, i0=2 / math.pi, beta=1.0))

# no field at all: pure spontaneous decay, overdamped transient
show("zero field", SystemParams(omega=3.0, kappa=1.0, beta_s=0.5, i0=0.0, beta=2.0))

# strong noise, no emission: the inversion relaxes to the maximally mixed value
show("no emission", SystemParams(omega=5.0, kappa=1.0, beta_s=0.0, i0=2.0, beta=1.0))

# the dimensionless coordinates used by the backflow engine
p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.2, i0=0.1 / math.pi, beta=1.0)
cfg = nondimensionalize(p, t_max=8.0)
print("dimensionless coordinates of the weak-coupling reference:")
print(f"  lambda_hat = {cfg.lambda_hat:.6g}, omega_hat = {cfg.omega_hat:.6g}, "
      f"gamma*T = {cfg.t_max:.6g} (oscillatory={cfg.oscillatory})")
