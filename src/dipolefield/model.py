"""Physical parameters, derived constants, and nondimensionalization.

Natural units with hbar = 1 throughout: frequencies and decay rates carry
dimension 1/time, the inversion observable carries the units of the level
splitting, and the dipole observable is normalized to its maximum value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CONFIG_KEYS",
    "ConfigError",
    "SystemParams",
    "DerivedParams",
    "DimensionlessConfig",
    "derive_params",
    "nondimensionalize",
    "read_params",
]

#: keys accepted in a flat key=value parameter file
CONFIG_KEYS = ("omega", "kappa", "beta_s", "i0", "beta")


class ConfigError(ValueError):
    """Malformed or incomplete parameter configuration."""


@dataclass(frozen=True)
class SystemParams:
    """Physical inputs of the model.

    Parameters
    ----------
    omega : float
        Angular transition frequency of the two-level system, rad/time.
    kappa : float
        Effective dipole coupling (twice the projected dipole moment);
        kappa * field has dimension rad/time. Enters only as kappa**2,
        so the sign is irrelevant.
    beta_s : float
        Spontaneous-emission (Einstein) rate, 1/time.
    i0 : float
        Height of the Lorentzian field spectrum at resonance.
    beta : float
        Half-width of the Lorentzian field spectrum, 1/time.
    """

    omega: float
    kappa: float
    beta_s: float
    i0: float
    beta: float

    def __post_init__(self):
        if not (self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.beta_s < 0:
            raise ValueError(f"beta_s must be nonnegative, got {self.beta_s}")
        if self.i0 < 0:
            raise ValueError(f"i0 must be nonnegative, got {self.i0}")
        for name in ("omega", "kappa", "beta_s", "i0", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def coupling_weight(self) -> float:
        """pi * i0 * kappa**2, the combination entering all derived constants."""
        return math.pi * self.i0 * self.kappa**2


@dataclass(frozen=True)
class DerivedParams:
    """Constants of the closed-form ensemble inversion.

    ``a_const`` is the magnitude of the steady-state inversion offset,
    ``gamma`` the damping rate of the transient, and ``lambda_sq`` the
    squared oscillation frequency (negative in the overdamped regime).
    ``c_sine`` is the cancellation-free coefficient of the sine transient;
    it stays finite for every valid parameter set, including the limit in
    which ``b_const`` is undefined (0/0) and stored as None.
    """

    a_const: float
    b_const: float | None
    gamma: float
    lambda_sq: float
    c_sine: float

    @property
    def oscillatory(self) -> bool:
        """Whether the inversion oscillates: lambda_sq > 0."""
        return self.lambda_sq > 0

    @property
    def lambda_value(self) -> float:
        """Oscillation frequency sqrt(lambda_sq); 0 in the overdamped regime."""
        return math.sqrt(self.lambda_sq) if self.lambda_sq > 0 else 0.0


@dataclass(frozen=True)
class DimensionlessConfig:
    """Rates in units of the damping rate, times in units of its inverse.

    Both rates are magnitudes (sqrt(lambda_sq)/gamma and omega/gamma), so
    negative values are rejected like non-finite ones.
    """

    lambda_hat: float
    omega_hat: float
    t_max: float

    def __post_init__(self):
        names = ("lambda_hat", "omega_hat", "t_max")
        for name in names:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in names:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def oscillatory(self) -> bool:
        """Whether the inversion oscillates: lambda_hat > 0."""
        return self.lambda_hat > 0


def derive_params(p: SystemParams) -> DerivedParams:
    """Compute the closed-form constants from the physical inputs.

    The denominators involve ``2*beta_s + pi*i0*kappa**2``; when that sum
    vanishes the offset constant is exactly 0 and the ratio constant is
    undefined (returned as None). The combined sine coefficient is computed
    in a single fraction so it never suffers the 0/0 of its factors. Raises
    ValueError when a square of kappa or of beta - beta_s overflows. Other
    constants may overflow to inf or NaN: callers that print or evaluate
    them refuse that, and ``mc-verify``, which reads gamma alone, refuses
    the overflowing field variance instead.
    """
    try:
        weight, spread_sq = p.coupling_weight, (p.beta - p.beta_s) ** 2
    except OverflowError:
        raise ValueError(f"kappa={p.kappa:g}, beta={p.beta:g}, beta_s={p.beta_s:g}: "
                         "a squared parameter overflows the derived constants") from None
    den = 2.0 * p.beta_s + weight
    if p.beta_s == 0.0:
        a_const = 0.0
        c_sine = 0.0
    else:
        a_const = p.omega * p.beta_s / den
        c_sine = p.beta_s * p.omega * (p.beta - weight - p.beta_s) / (2.0 * den)
    b_const = None if den == 0.0 else p.omega * (p.beta - weight) / den
    gamma = 0.5 * p.beta + 0.5 * p.beta_s  # halves, so that a sum past DBL_MAX does not overflow
    lambda_sq = 0.5 * p.kappa**2 * math.pi * p.beta * p.i0 - 0.25 * spread_sq
    return DerivedParams(
        a_const=a_const,
        b_const=b_const,
        gamma=gamma,
        lambda_sq=lambda_sq,
        c_sine=c_sine,
    )


def nondimensionalize(p: SystemParams, t_max: float) -> DimensionlessConfig:
    """Express (lambda, omega, horizon) in units of the damping rate.

    In the overdamped regime the oscillation frequency is reported as 0 (not
    ``oscillatory``); the damped envelope is then monotone and carries no
    backflow, so the dimensionless engine may treat it as frequency zero.
    Raises ValueError when the damping rate underflows to 0.
    """
    d = derive_params(p)
    if d.gamma == 0.0:
        raise ValueError(f"beta={p.beta:g}, beta_s={p.beta_s:g}: the damping rate "
                         "(beta + beta_s)/2 underflows to 0")
    return DimensionlessConfig(
        lambda_hat=d.lambda_value / d.gamma,
        omega_hat=p.omega / d.gamma,
        t_max=d.gamma * t_max,
    )


def read_params(path: str | Path) -> SystemParams:
    """Read SystemParams from a flat key=value file.

    Blank lines and lines starting with '#' are ignored. Unknown keys,
    duplicates, non-numeric values, and missing keys raise ConfigError
    with the offending line number where applicable.
    """
    path = Path(path)
    values: dict[str, float] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid number for {key!r}") from exc
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing key(s): {', '.join(missing)}")
    try:
        return SystemParams(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
