"""The public surface of the package, and the demos run as scripts."""

import ast
import dataclasses
import importlib
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dipolefield
from dipolefield import blp, dynamics, model, stochastic
from dipolefield.dynamics import MODES, InitialCondition, StatePair
from dipolefield.model import DimensionlessConfig, SystemParams
from test_cli import _NUMBER

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

#: entry points that no longer exist; nothing may export them again
DELETED = ("estimate_spectrum", "simulate_trajectory", "TrajectoryState", "n_measure_physical",
           "FieldRealization", "sample_field", "SpectrumEstimate", "branch_integrand_omega",
           "branch_integrand_lambda", "evolved_state", "purity", "BlochState", "derive_seed",
           "write_field_csv")


@pytest.mark.parametrize("name", ["dipolefield"] + [
    f"dipolefield.{m.name}" for m in pkgutil.iter_modules(dipolefield.__path__)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported)
        namespace = {}
        exec(f"from {name} import *", namespace)  # AttributeError on a name that does not resolve
        assert set(exported) <= set(namespace)
    for gone in DELETED:
        assert not hasattr(module, gone) and gone not in (exported or ())


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy, so the files a demo writes next to itself land in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(Path(dipolefield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert result.returncode == 0, result.stderr


_CFG = DimensionlessConfig(1.0, 1.0, 5.0)
_P = SystemParams(omega=2.0, kappa=1.0, beta_s=0.1, i0=0.3, beta=1.0)

#: every public entry point that takes a formula mode, called with that mode
MODE_CALLS = {
    "backflow_integral": lambda mode, _: blp.backflow_integral(
        blp.BranchKind.LAMBDA, _CFG, mode=mode),
    "n_measure": lambda mode, _: blp.n_measure(_CFG, mode=mode),
    "literal_pointwise_max": lambda mode, _: blp.literal_pointwise_max(_CFG, mode=mode),
    "dominant_regime": lambda mode, _: blp.dominant_regime(1.0, 1.0, 5.0, mode=mode),
    "sweep_grid": lambda mode, _: blp.sweep_grid([1.0], [1.0], [5.0], mode=mode),
    "mean_inversion": lambda mode, _: dynamics.mean_inversion(
        InitialCondition(0.0, 1.0), _P, 1.0, mode=mode),
    "trace_distance": lambda mode, _: dynamics.trace_distance(
        StatePair(0.3), _P, 1.0, mode=mode),
    "write_timeseries": lambda mode, where: dynamics.write_timeseries(
        where / "series.csv", InitialCondition(0.0, 1.0), _P,
        [0.0, 1.0], mode=mode),
}


@pytest.mark.parametrize("name", sorted(MODE_CALLS))
def test_every_mode_entry_point_rejects_an_unknown_mode(name, tmp_path):
    for mode in MODES:
        MODE_CALLS[name](mode, tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"mode must be one of {MODES}, got 'bogus'")):
        MODE_CALLS[name]("bogus", tmp_path)


def test_every_source_parses_at_the_oldest_supported_python():
    # a newer interpreter accepts newer syntax, so parse with the grammar of the floor
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    files = sorted(f for d in ("src", "tests", "demos") for f in (ROOT / d).rglob("*.py"))
    assert len(files) > 15
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


#: finite inputs from zero and the smallest subnormal up to near DBL_MAX
_EXTREMES = (0.0, 5e-324, 1e-300, 1e-150, 1e-8, 0.5, 1.0, 5.0, 1e8, 1e150, 1e300, 1.7e308)
_ANGLES = (0.0, 5e-324, 1e-8, math.pi / 8, math.pi / 4, math.pi / 2 - 1e-8, math.pi / 2)


def _public_calls(x, theta, mode, where):
    """One call of every public callable of ``model``, ``dynamics`` and ``blp``, and of the
    cheap ones of ``stochastic`` (both samplers on short records), on the six floats ``x``:
    each thunk returns its result, or for a writer the path it wrote."""
    a, b, c, d, e, f = x
    params = lambda: SystemParams(a, b, c, d, e)  # omega, kappa, beta_s, i0, beta
    cfg = lambda: DimensionlessConfig(a, b, c)  # lambda_hat, omega_hat, t_max
    ic, times = InitialCondition(math.sin(theta), math.cos(theta)), np.array([0.0, f])

    def written(write):
        write(where)
        return where

    def config_file():
        where.write_text("".join(f"{k} = {v!r}\n" for k, v in zip(model.CONFIG_KEYS, x)))
        return model.read_params(where)

    grid = lambda: blp.sweep_grid([0.0, a], [b], [0.0, c], mode=mode)
    return {
        "SystemParams": params,
        "DimensionlessConfig": cfg,
        "InitialCondition": lambda: InitialCondition(d, e, f),
        "StatePair": lambda: StatePair(theta),
        "derive_params": lambda: model.derive_params(params()),
        "nondimensionalize": lambda: model.nondimensionalize(params(), f),
        "read_params": config_file,
        "mean_dipole": lambda: dynamics.mean_dipole(ic, params(), times),
        "mean_inversion": lambda: dynamics.mean_inversion(ic, params(), times, mode=mode),
        "trace_distance": lambda: dynamics.trace_distance(StatePair(theta), params(), times,
                                                          mode=mode),
        "write_timeseries": lambda: written(
            lambda path: dynamics.write_timeseries(path, ic, params(), times, mode=mode)),
        "sigma_rate": lambda: blp.sigma_rate(theta, cfg(), d),
        "backflow_integral": lambda: blp.backflow_integral(theta, cfg(), mode=mode),
        "analytic_n_omega": lambda: blp.analytic_n_omega(b, c),
        "n_measure": lambda: blp.n_measure(cfg(), mode=mode, theta_grid_size=5),
        "literal_pointwise_max": lambda: blp.literal_pointwise_max(cfg(), mode=mode),
        "dominant_regime": lambda: blp.dominant_regime(a, b, c, mode=mode),
        "sweep_grid": grid,
        "write_sweep_csv": lambda: written(lambda path: blp.write_sweep_csv(grid(), path)),
        "write_sweep_json": lambda: written(lambda path: blp.write_sweep_json(grid(), path)),
        "derive_seeds": lambda: stochastic.derive_seeds(int(a), [int(b) % 2**64]),
        "field_variance": lambda: stochastic.field_variance(params()),
        "max_field_dt": lambda: stochastic.max_field_dt(params()),
        "sample_fields": lambda: stochastic.sample_fields(
            params(), stochastic.max_field_dt(params()), 4, [1, 2]),
        "sample_periodogram": lambda: stochastic.sample_periodogram(
            params(), stochastic.max_field_dt(params()), 16, [1, 2]),
        "fit_spectrum": lambda: stochastic.fit_spectrum(
            a * np.linspace(0.0, 1.0, 16), np.concatenate((np.zeros(5), [d, e, f], np.zeros(8)))),
    }


#: public names that take no numbers (errors, enums, type aliases) or hold what they are
#: given (result records)
_NOT_CALLED = {"ConfigError", "KinkWarning", "BranchKind", "FormulaSource", "DerivedParams",
               "BackflowResult", "SweepPoint", "SweepGrid"}
#: callables documented to return inf or NaN, which their callers refuse
_UNBOUNDED = {"derive_params", "field_variance"}


def _numbers(value):
    """Every float a result holds, or that a file it names holds as text."""
    if isinstance(value, Path):
        yield from map(float, _NUMBER.findall(value.read_text()))
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, float):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)


def test_the_domain_property_calls_every_public_callable(tmp_path):
    calls = set(_public_calls((1.0,) * 6, 0.0, "derived", tmp_path / "out"))
    public = {name for m in (model, dynamics, blp) for name in m.__all__
              if callable(getattr(m, name))}
    assert calls.isdisjoint(_NOT_CALLED) and calls | _NOT_CALLED >= public
    assert calls - public == {"derive_seeds", "field_variance", "max_field_dt", "sample_fields",
                              "sample_periodogram", "fit_spectrum"}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.tuples(*[st.sampled_from(_EXTREMES)] * 6), theta=st.sampled_from(_ANGLES),
       mode=st.sampled_from(MODES))
# each of these once failed: warnings from the scan's exponent -2 c tau and the midpoints of
# its gaps at T = 1.7e308, an overflowing square in the derived kink limit, a phase 2 f tau
# of inf times 0 in both modes, an infinite field step, and a spectrum fit that overflowed
@example(x=(0.0, 5e-324, 1.7e308, 1.0, 1.0, 1.0), theta=math.pi / 8, mode="derived")
@example(x=(0.0, 1e300, 1e6, 1e6, 1.0, 1.0), theta=0.0, mode="derived")
@example(x=(0.0, 1.7e308, 0.0, 0.0, 1.0, 1.0), theta=0.0, mode="derived")
@example(x=(1.7e308, 1e300, 1e300, 0.0, 1e150, 5.0), theta=math.pi / 2, mode="as-printed")
@example(x=(5e-324, 1.0, 0.0, 0.5, 5e-324, 0.0), theta=0.0, mode="derived")
@example(x=(0.5, 1.0, 0.5, 1e150, 1e300, 1e-150), theta=math.pi / 4, mode="derived")
def test_every_public_callable_returns_finite_numbers_or_raises_value_error(
        tmp_path_factory, x, theta, mode):
    # the domain contract below the CLI: finite inputs give finite results or one
    # ValueError (a spectrum fit may also refuse with its own error), never a warning
    # other than the documented KinkWarning
    where = tmp_path_factory.mktemp("calls") / "out"
    for name, call in _public_calls(x, theta, mode, where).items():
        where.unlink(missing_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", blp.KinkWarning)
            try:
                result = call()
            except (ValueError, stochastic.SpectrumFitError):
                continue
        assert name in _UNBOUNDED or all(map(math.isfinite, _numbers(result))), (
            name, x, theta, mode, result)
