"""The public surface of the package, and the demos run as scripts."""

import importlib
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dipolefield

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))

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
