"""Ensemble dynamics and information backflow of a two-level system
dipole-coupled to a classical fluctuating field with a Lorentzian spectrum.

The library has four layers:

* ``model``      -- physical parameters, derived constants, unit handling;
* ``dynamics``   -- closed-form ensemble evolution and trace distances;
* ``blp``        -- the backflow (non-Markovianity) measure and its engine;
* ``stochastic`` -- the Monte Carlo trajectory oracle validating the forms.

The package namespace re-exports the entry points used in the demos;
everything else is imported from its module. The ``stochastic`` ones load
that module (and ``numpy.random`` and ``numpy.fft`` with it) on first use,
so the commands that never run it do not import it.
"""

from .model import DimensionlessConfig, SystemParams, derive_params, nondimensionalize
from .dynamics import (
    InitialCondition,
    StatePair,
    mean_inversion,
    trace_distance,
    write_timeseries,
)
from .blp import (
    BranchKind,
    analytic_n_omega,
    backflow_integral,
    dominant_regime,
    n_measure,
    sigma_rate,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionlessConfig",
    "SystemParams",
    "derive_params",
    "nondimensionalize",
    "InitialCondition",
    "StatePair",
    "mean_inversion",
    "trace_distance",
    "write_timeseries",
    "BranchKind",
    "analytic_n_omega",
    "backflow_integral",
    "dominant_regime",
    "n_measure",
    "sigma_rate",
    "ensemble_average",
    "fit_spectrum",
    "sample_fields",
    "sample_periodogram",
    "__version__",
]

#: names re-exported from ``stochastic``, which is imported when one is first read
_STOCHASTIC = ("ensemble_average", "fit_spectrum", "sample_fields", "sample_periodogram")


def __getattr__(name: str):
    if name in _STOCHASTIC:
        from . import stochastic

        return getattr(stochastic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
