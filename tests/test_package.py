"""The public surface of the package, and the demos run as scripts."""

import ast
import importlib
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dipolefield
from dipolefield import blp, dynamics
from dipolefield.dynamics import MODES, InitialCondition, StatePair
from dipolefield.model import DimensionlessConfig, SystemParams

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

#: entry points that no longer exist; nothing may export them again
DELETED = ("estimate_spectrum", "simulate_trajectory", "TrajectoryState", "n_measure_physical",
           "FieldRealization", "sample_field", "SpectrumEstimate", "branch_integrand_omega",
           "branch_integrand_lambda", "evolved_state", "purity", "BlochState", "derive_seed")


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
    "sigma_rate": lambda mode, _: blp.sigma_rate(0.3, _CFG, 1.0, mode=mode),
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
