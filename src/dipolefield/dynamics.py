"""Closed-form ensemble evolution of the dipole-coupled two-level system.

The ensemble dipole oscillates undamped at the transition frequency; the
ensemble inversion relaxes through a damped (co)sine transient toward a
noise-dependent steady state. Trace distances between evolved antipodal
pure pairs come in two formula variants (see ``FormulaSource`` below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Union

import numpy as np

from .model import SystemParams, derive_params

__all__ = [
    "FormulaSource",
    "MODES",
    "InitialCondition",
    "StatePair",
    "mean_dipole",
    "mean_inversion",
    "trace_distance",
    "write_timeseries",
]

#: Formula variant selector.
#:
#: "derived"    -- self-consistent closed forms: the inversion is the exact
#:                 second-order-closure solution and the trace distance is
#:                 the damped-cosine difference with envelope exp(-gamma*t)
#:                 inside the square (i.e. exp(-2*gamma*t) on the squared
#:                 term).
#: "as-printed" -- the alternative fixed expressions, kept verbatim for
#:                 cross-checking: the inversion drops the initial-value
#:                 sine term and the squared distance carries a single
#:                 exp(-gamma*t) envelope.
FormulaSource = Literal["derived", "as-printed"]
MODES: tuple[str, ...] = ("derived", "as-printed")


def _envelope_decay(mode: str) -> float:
    """The distance envelope's rate in gamma: as-printed's single e^{-gamma t} halves it."""
    return 1.0 if mode == "derived" else 0.5


ArrayLike = Union[float, np.ndarray]

#: tolerance on Bloch-ball membership; larger violations are hard errors
BALL_ATOL = 1e-9

#: cap on the samples of one time grid, checked before it is allocated: the times of
#: an ``evolve`` or ``distance`` series, and the n_realizations * (n_steps + 1) field
#: samples of a ``stochastic`` run, which holds one array of that many doubles, the
#: field (about 0.17 GB at the cap)
MAX_FIELD_SAMPLES = 2**24

#: cap on the quarter periods of one frequency up to a time: a closed form's largest
#: phase, and ``blp``'s rise and breakpoint grids (8 bytes a quarter period), checked
#: before they are computed or built
MAX_QUARTER_PERIODS = 2**20


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _check_quarters(freq: float, t_max: float) -> None:
    quarters = 2.0 * freq * t_max / math.pi
    if not quarters <= MAX_QUARTER_PERIODS:
        raise ValueError(f"frequency {freq:.6g} up to T = {t_max:.6g} spans {quarters:.3g} quarter "
                         f"periods, over the cap of {MAX_QUARTER_PERIODS}")


def _times(t: ArrayLike, freq: float) -> np.ndarray:
    """``t`` as a float array, refused with ValueError if a time is NaN, infinite or
    negative, or if ``freq`` spans more than ``MAX_QUARTER_PERIODS`` quarter periods up to
    the latest time. Callers pass the carrier omega, or lambda where larger, so that the
    closed forms share one time domain and ``blp``'s cap on horizons."""
    t = np.asarray(t, dtype=float)
    bad = ~((t >= 0.0) & (t < math.inf))  # NaN fails both
    if bad.any():
        raise ValueError(f"time {t[bad].flat[0]} must be finite and nonnegative")
    _check_quarters(freq, float(np.max(t, initial=0.0)))
    return t


def _check_theta(theta: float) -> float:
    if not (0.0 <= theta <= math.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    return theta


@dataclass(frozen=True)
class InitialCondition:
    """Initial Bloch data: dipole m0, inversion w0, and the dipole rate.

    ``mdot0`` only matters to the stochastic integrator; the ensemble
    closed forms assume a stationary initial dipole (mdot0 = 0). Raises
    ValueError for a non-finite value or a point outside the Bloch ball.
    """

    m0: float
    w0: float
    mdot0: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m0, self.w0, self.mdot0))):
            raise ValueError(f"initial condition (m0={self.m0}, w0={self.w0}, "
                             f"mdot0={self.mdot0}) must be finite")
        r2 = self.m0 * self.m0 + self.w0 * self.w0
        if r2 > 1.0 + BALL_ATOL:
            raise ValueError(
                f"initial condition (m0={self.m0}, w0={self.w0}) outside the "
                f"Bloch ball by {r2 - 1.0:.3e}"
            )


@dataclass(frozen=True)
class StatePair:
    """Antipodal pure pair parameterized by the mixing angle theta.

    The initial Bloch vectors are (sin(theta), +/-...): member one is
    (m, w) = (sin theta, cos theta) and member two its antipode, so the
    squared initial differences are (dw)^2 = 4 cos^2(theta) and
    (dm)^2 = 4 sin^2(theta) and the initial trace distance is 1.
    """

    theta: float

    def __post_init__(self):
        _check_theta(self.theta)


# ---------------------------------------------------------------------------
# damped envelopes with hyperbolic continuation
# ---------------------------------------------------------------------------

def _damped(gamma: float, lambda_sq: float, t: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
    """exp(-gamma t) * (cos(lambda t), sin(lambda t)/lambda), continued through lambda -> 0.

    For lambda_sq <= 0 the pair turns into (cosh, sinh/nu) of nu = sqrt(-lambda_sq),
    evaluated through the two decaying exponentials exp(-(gamma -/+ nu) t)
    (gamma >= nu always holds for parameters coming from ``derive_params``),
    which cannot overflow. Their half-difference over nu, the sinh part, is
    taken as exp(-(gamma - nu) t) (1 - exp(-2 nu t)) / (2 nu) through
    ``expm1``, which does not cancel as nu -> 0 near critical damping. The
    as-printed distance passes gamma / 2, which can be below nu: its envelope
    then grows, and can overflow.
    """
    if lambda_sq > 0:
        lam, decay = math.sqrt(lambda_sq), np.exp(-gamma * t)
        es = decay * np.sin(lam * t) / lam if lambda_sq > 1e-300 else t * decay
        return decay * np.cos(lam * t), es
    nu = math.sqrt(-lambda_sq)
    slow, fast = np.exp(-(gamma - nu) * t), np.exp(-(gamma + nu) * t)
    es = slow * -np.expm1(-2.0 * nu * t) / (2.0 * nu) if lambda_sq < -1e-300 else t * slow
    return 0.5 * (slow + fast), es


def _finite(out: np.ndarray, what: str) -> ArrayLike:
    """``out``, a float if 0-d, or ValueError where a constant or an envelope overflowed it."""
    if not np.isfinite(out).all():
        raise ValueError(f"the {what} overflows: a derived constant or its envelope is too large")
    return out if out.ndim else float(out)


def _mix(u: ArrayLike, coherence: ArrayLike, inversion: ArrayLike) -> ArrayLike:
    """sqrt(u x^2 + (1 - u) y^2), u = cos^2(theta): the pair distance from its inversion part
    x and coherence part y, taken in ``blp.BranchKind`` order (y first). The one distance form."""
    return np.sqrt(u * np.square(inversion) + (1.0 - u) * np.square(coherence))


# ---------------------------------------------------------------------------
# ensemble observables
# ---------------------------------------------------------------------------

def mean_dipole(ic: InitialCondition, p: SystemParams, t: ArrayLike) -> ArrayLike:
    """Ensemble dipole m0*cos(omega t).

    Depends only on the initial dipole and the level splitting; the noise
    and the emission rate never enter. The initial dipole rate is taken as
    zero, matching the ensemble closed form. Refuses what ``_times`` refuses.
    """
    t = _times(t, p.omega)
    out = ic.m0 * np.cos(p.omega * t)
    return out if out.ndim else float(out)


def mean_inversion(
    ic: InitialCondition, p: SystemParams, t: ArrayLike, mode: FormulaSource = "derived"
) -> ArrayLike:
    """Ensemble inversion (dimensionless, in [-1, 1] for valid inputs).

    In "derived" mode this is the exact solution of the second-order
    closure: with W0 = omega*w0/2,

        W(t) = a*(-1 + Ec(t)) + W0*Ec(t) + (c_sine + (beta-beta_s)/2 * W0)*Es(t)

    where Ec, Es are the damped cosine and sine envelopes and the constants
    come from ``derive_params(p)``, which raises ValueError where a square
    of kappa or of beta - beta_s overflows. The "as-printed" variant omits
    the W0-proportional sine contribution; the two coincide when
    beta == beta_s or w0 == 0. Both continue smoothly through the
    overdamped regime. Refuses what ``_times`` refuses, and an inversion
    that overflows.
    """
    _check_mode(mode)
    d = derive_params(p)
    t = _times(t, max(p.omega, d.lambda_value))
    w_big0 = 0.5 * p.omega * ic.w0
    sine_coeff = d.c_sine
    if mode == "derived":
        sine_coeff = d.c_sine + 0.5 * (p.beta - p.beta_s) * w_big0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ec, es = _damped(d.gamma, d.lambda_sq, t)
        w_big = d.a_const * (ec - 1.0) + w_big0 * ec + sine_coeff * es
        out = 2.0 * w_big / p.omega
    return _finite(out, "inversion")


def trace_distance(
    pair: StatePair, p: SystemParams, t: ArrayLike, mode: FormulaSource = "derived"
) -> ArrayLike:
    """Trace distance between the evolved members of an antipodal pure pair.

    derived:    sqrt(cos^2(theta) e^{-2 gamma t} cos^2(lambda t)
                     + sin^2(theta) cos^2(omega t))
    as-printed: sqrt(cos^2(theta) e^{-gamma t} cos^2(lambda t)
                     + sin^2(theta) cos^2(omega t))

    Both are the one distance form ``_mix`` of cos(omega t) and ``_damped``'s cosine,
    start at 1, and continue hyperbolically for lambda_sq <= 0.
    The steady-state offset and c_sine cancel in the pair's difference, but
    the derived ``mean_inversion`` difference also keeps the initial-value
    sine term (beta - beta_s)/2 * e^{-gamma t} sin(lambda t)/lambda times
    the initial inversion difference. So the derived variant is the distance
    of the derived ``mean_dipole``/``mean_inversion`` pair only when
    beta = beta_s (see the README's "Known model limits"). Refuses what ``_times`` refuses,
    and a distance that overflows, as the growing as-printed envelope can.
    """
    _check_mode(mode)
    d = derive_params(p)
    t = _times(t, max(p.omega, d.lambda_value))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        out = _mix(math.cos(pair.theta) ** 2, np.cos(p.omega * t),
                   _damped(_envelope_decay(mode) * d.gamma, d.lambda_sq, t)[0])
    return _finite(out, "trace distance")


def write_timeseries(
    path: str | Path, ic: InitialCondition, p: SystemParams, times: np.ndarray,
    mode: FormulaSource = "derived",
) -> None:
    """Emit the closed-form evolution as CSV with header ``t,m,w,purity``.

    Values are written as raw model output without ball validation, so the
    file is usable even in the coherence-plus-relaxation regime where the
    model's purity transiently exceeds 1.
    """
    m = mean_dipole(ic, p, times)
    w = mean_inversion(ic, p, times, mode=mode)
    pur = 0.5 * (1.0 + m * m + w * w)  # Tr[rho^2] of rho = (I + w sigma_3 + m sigma_1)/2
    _write_csv(path, "t,m,w,purity", (times, m, w, pur), "\r\n")


def _write_csv(path: str | Path, header: str, columns, end: str) -> None:
    """``header``, then one ``%.12g`` row per row of ``columns``; each line ends in ``end``,
    untranslated (``newline=""``), so the bytes do not depend on the platform."""
    with open(path, "w", newline="") as fh:
        fh.write(header + end)
        fh.writelines(",".join(f"{v:.12g}" for v in row) + end for row in zip(*columns))
