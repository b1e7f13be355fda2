"""Ensemble dynamics and information backflow of a two-level system
dipole-coupled to a classical fluctuating field with a Lorentzian spectrum.

The library has four layers:

* ``model``      -- physical parameters, derived constants, unit handling;
* ``dynamics``   -- closed-form ensemble evolution and trace distances;
* ``blp``        -- the backflow (non-Markovianity) measure and its engine;
* ``stochastic`` -- the Monte Carlo trajectory oracle validating the forms.

Each name is imported from the module that defines it, e.g.
``from dipolefield.blp import n_measure``; the package itself loads no layer.
"""

__version__ = "0.1.0"
