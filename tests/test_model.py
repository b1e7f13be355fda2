import math

import numpy as np
import pytest

from dipolefield.model import (
    ConfigError,
    DerivedParams,
    DimensionlessConfig,
    SystemParams,
    derive_params,
    nondimensionalize,
    read_params,
)

from oracles import params_for_rates


def params_with_weight(omega, beta, beta_s, weight, kappa=1.0):
    """SystemParams with a prescribed pi*i0*kappa^2."""
    return SystemParams(omega=omega, kappa=kappa, beta_s=beta_s,
                        i0=weight / (math.pi * kappa**2), beta=beta)


def test_derive_basic_substitution():
    # beta=1, beta_s=1, pi*i0*kappa^2=2, omega=2
    d = derive_params(params_with_weight(2.0, 1.0, 1.0, 2.0))
    assert d.gamma == pytest.approx(1.0, abs=1e-15)
    assert d.lambda_sq == pytest.approx(1.0, abs=1e-15)
    assert d.a_const == pytest.approx(0.5, abs=1e-15)
    assert d.b_const == pytest.approx(-0.5, abs=1e-15)
    assert d.c_sine == pytest.approx(-0.5, abs=1e-15)
    assert d.oscillatory


def test_derive_zero_field_degeneration():
    d = derive_params(SystemParams(omega=3.0, kappa=1.7, beta_s=0.0, i0=0.0, beta=2.0))
    assert d.gamma == pytest.approx(1.0)
    assert d.lambda_sq == pytest.approx(-1.0)
    assert d.a_const == 0.0
    assert d.c_sine == 0.0
    assert not d.oscillatory
    assert d.b_const is None  # 0/0 denominator
    assert d.lambda_value == 0.0


def test_derive_weak_coupling_roots():
    # gamma and lambda^2 must match direct root-solving of the resolvent
    # quadratic z^2 + (beta+beta_s) z + beta*beta_s + kappa^2 pi beta i0 / 2.
    p = params_with_weight(5.0, 1.0, 0.2, 0.1)
    d = derive_params(p)
    assert d.gamma == pytest.approx(0.6, abs=1e-15)
    assert d.lambda_sq == pytest.approx(-0.11, abs=1e-15)
    coeffs = [1.0, p.beta + p.beta_s, p.beta * p.beta_s + 0.5 * p.coupling_weight * p.beta]
    roots = sorted(np.roots(coeffs).real)
    nu = math.sqrt(-d.lambda_sq)
    assert roots[0] == pytest.approx(-d.gamma - nu, rel=1e-12)
    assert roots[1] == pytest.approx(-d.gamma + nu, rel=1e-12)


def test_pole_identity_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = SystemParams(
            omega=rng.uniform(0.1, 10),
            kappa=rng.uniform(0.1, 3),
            beta_s=rng.uniform(0, 3),
            i0=rng.uniform(0, 5),
            beta=rng.uniform(0.05, 4),
        )
        d = derive_params(p)
        if d.lambda_sq > 0:
            z = complex(-d.gamma, math.sqrt(d.lambda_sq))
        else:
            z = complex(-d.gamma + math.sqrt(-d.lambda_sq), 0.0)
        residual = (z + p.beta_s) * (z + p.beta) + 0.5 * p.coupling_weight * p.beta
        scale = max(1.0, abs(z) ** 2)
        assert abs(residual) <= 1e-12 * scale


def test_steady_state_identity():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = SystemParams(
            omega=rng.uniform(0.1, 10),
            kappa=rng.uniform(0.1, 3),
            beta_s=rng.uniform(1e-3, 3),
            i0=rng.uniform(0, 5),
            beta=rng.uniform(0.05, 4),
        )
        d = derive_params(p)
        residue = -p.omega * p.beta_s / (2 * p.beta_s + p.coupling_weight)
        assert -d.a_const == residue


def test_scale_covariance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = SystemParams(
            omega=rng.uniform(0.1, 10),
            kappa=rng.uniform(0.1, 3),
            beta_s=rng.uniform(0, 3),
            i0=rng.uniform(0, 5),
            beta=rng.uniform(0.05, 4),
        )
        c = rng.uniform(0.1, 10)
        scaled = SystemParams(omega=p.omega, kappa=p.kappa, beta_s=c * p.beta_s,
                              i0=c * p.i0, beta=c * p.beta)
        d, ds = derive_params(p), derive_params(scaled)
        assert ds.gamma == pytest.approx(c * d.gamma, rel=1e-14)
        assert ds.lambda_sq == pytest.approx(c * c * d.lambda_sq, rel=1e-12, abs=1e-14)
        assert ds.a_const == pytest.approx(d.a_const, rel=1e-13, abs=1e-15)
        assert ds.c_sine == pytest.approx(c * d.c_sine, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega=0.0, kappa=1, beta_s=0, i0=0, beta=1),
        dict(omega=-1.0, kappa=1, beta_s=0, i0=0, beta=1),
        dict(omega=1.0, kappa=1, beta_s=0, i0=0, beta=0.0),
        dict(omega=1.0, kappa=1, beta_s=-0.1, i0=0, beta=1),
        dict(omega=1.0, kappa=1, beta_s=0, i0=-0.5, beta=1),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


@pytest.mark.parametrize("name", ["kappa", "beta_s", "i0"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SystemParams(**{"omega": 1.0, "kappa": 1.0, "beta_s": 0.0, "i0": 0.0, "beta": 1.0,
                        name: value})


@pytest.mark.parametrize(
    "gamma,lam,omega,t_max,expected",
    [
        (2.0, 4.0, 6.0, 1.0, (2.0, 3.0, 2.0)),
        (1.0, 1.0, 1.0, 5.0, (1.0, 1.0, 5.0)),
        (0.5, 1.0, 8.0, 2.0, (2.0, 16.0, 1.0)),
    ],
)
def test_nondimensionalize(gamma, lam, omega, t_max, expected):
    cfg = nondimensionalize(params_for_rates(gamma, lam, omega), t_max)
    assert cfg.lambda_hat == pytest.approx(expected[0], rel=1e-12)
    assert cfg.omega_hat == pytest.approx(expected[1], rel=1e-12)
    assert cfg.t_max == pytest.approx(expected[2], rel=1e-12)
    assert cfg.oscillatory


def test_nondimensionalize_overdamped():
    p = SystemParams(omega=3.0, kappa=1.0, beta_s=0.0, i0=0.0, beta=2.0)
    cfg = nondimensionalize(p, 4.0)
    assert cfg.lambda_hat == 0.0
    assert not cfg.oscillatory
    assert cfg.omega_hat == pytest.approx(3.0)
    assert cfg.t_max == pytest.approx(4.0)


def test_oscillatory_follows_lambda_hat_and_cannot_be_set():
    # a flag stored beside lambda_hat could contradict it
    with pytest.raises(TypeError):
        DimensionlessConfig(3.0, 1.0, 5.0, oscillatory=False)
    assert DimensionlessConfig(3.0, 1.0, 5.0).oscillatory
    assert not DimensionlessConfig(0.0, 1.0, 5.0).oscillatory


def test_derived_oscillatory_follows_lambda_sq_and_cannot_be_set():
    # a flag stored beside lambda_sq could contradict it
    fields = dict(a_const=0.0, b_const=None, gamma=1.0, c_sine=0.0)
    assert not DerivedParams(**fields, lambda_sq=-1.0).oscillatory
    assert not DerivedParams(**fields, lambda_sq=0.0).oscillatory
    assert DerivedParams(**fields, lambda_sq=2.0).oscillatory
    with pytest.raises(TypeError):
        DerivedParams(**fields, lambda_sq=-1.0, oscillatory=True)


def test_read_params_roundtrip(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(
        "# reference configuration\n"
        "omega = 2.0\n"
        "kappa = 1.0\n"
        "beta_s = 1.0\n"
        "\n"
        "i0 = 0.6366197723675814\n"
        "beta = 1.0\n"
    )
    p = read_params(cfg)
    assert p.omega == 2.0
    assert p.i0 == pytest.approx(2 / math.pi)


def test_read_params_missing_key(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("kappa=1\nbeta_s=0\ni0=0\nbeta=1\n")
    with pytest.raises(ConfigError, match="omega"):
        read_params(cfg)


def test_read_params_bad_lines(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("omega=1\nkappa one\n")
    with pytest.raises(ConfigError, match=":2"):
        read_params(cfg)
    cfg.write_text("omega=1\nomega=2\nkappa=1\nbeta_s=0\ni0=0\nbeta=1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        read_params(cfg)
    cfg.write_text("omega=1\nwidth=2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        read_params(cfg)
    cfg.write_text("omega=1\nkappa=x\n")
    with pytest.raises(ConfigError, match="invalid number"):
        read_params(cfg)


def test_read_params_validation(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("omega=1\nkappa=1\nbeta_s=0\ni0=-1\nbeta=1\n")
    with pytest.raises(ConfigError, match="i0"):
        read_params(cfg)
