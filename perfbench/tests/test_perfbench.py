"""Tests of the benchmark itself: generator, checkers, tracer, emitted names.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checkers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dipolefield import blp, cli, model, stochastic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plan_is_deterministic_per_seed(name):
    a, b = workloads.build_plan(name, 7, 20), workloads.build_plan(name, 7, 20)
    assert a == b
    assert a["inputs_sha256"] == workloads.inputs_digest(b)
    assert workloads.build_plan(name, 8, 20)["inputs_sha256"] != a["inputs_sha256"]


def test_scan_plan_mix_is_exact_per_block():
    cmds = workloads.build_plan("backflow-scan", 0, 20)["commands"]
    classes = {(c["check"]["mode"], c["check"]["tmax"]) for c in cmds[:10]}
    assert len(classes) == 8
    for start in range(0, 40, 10):
        assert [(c["check"]["mode"], c["check"]["tmax"]) for c in cmds[start:start + 10]] == [
            (c["check"]["mode"], c["check"]["tmax"]) for c in cmds[:10]]
    literal = {(c["check"]["mode"], c["check"]["tmax"]) for c in cmds[:40] if c["check"]["literal"]}
    assert literal == classes and sum(c["check"]["literal"] for c in cmds[:40]) == 10


def test_generated_configs_parse_to_the_planned_parameters(tmp_path):
    for name in ("backflow-scan", "mc-ensemble", "field-spectrum"):
        for cmd in workloads.build_plan(name, 3, 20)["commands"][:5]:
            path = tmp_path / "p.cfg"
            path.write_text(cmd["config"])
            params = model.read_params(path)
            want = cmd["check"].get("params") or workloads.CRITERION_10
            assert {k: getattr(params, k) for k in want} == want


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def test_references_match_closed_forms():
    # N_omega counts completed half-periods plus the partial last rise
    assert checkers.ref_n_omega(1.0, 0.0) == 0.0
    assert checkers.ref_n_omega(1.0, 2.5 * math.pi) == pytest.approx(2.0)
    assert checkers.ref_n_omega(1.0, 2.75 * math.pi) == pytest.approx(2.0 + math.cos(math.pi / 4))
    # N_lambda: one full rise from the first zero to the envelope peak
    lam, c = 2.0, 1.0
    z = math.pi / (2 * lam)
    b = z + math.atan2(lam, c) / lam
    assert checkers.ref_n_lambda(lam, b + 1e-9, c) == pytest.approx(
        math.exp(-c * b) * abs(math.cos(lam * b)), abs=1e-9)
    assert checkers.ref_n_lambda(0.0, 10.0, c) == 0.0


def _sweep(tmp_path, fmt):
    spec = {"kind": "sweep", "mode": "as-printed", "format": fmt,
            "lambda": (0.0, 4.0, 5), "omega": (0.0, 4.0, 4), "t": (1.0, 6.0, 3)}
    out = tmp_path / f"s.{fmt}"
    rc, stdout = _cli(["sweep", "--mode", "as-printed", "--lambda", "0:4:5", "--omega", "0:4:4",
                       "--tmax", "1:6:3", "--format", fmt, "--out", str(out)])
    return spec, rc, stdout, out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_checker_accepts_then_rejects(tmp_path, fmt):
    spec, rc, stdout, out = _sweep(tmp_path, fmt)
    v = checkers.check(spec, rc, stdout, out)
    assert (v.attempted, v.failed, v.wrong) == (60, 0, [])
    text = out.read_text()
    if fmt == "csv":
        lines = text.splitlines()
        fields = lines[-1].split(",")
        fields[4] = repr(float(fields[4]) + 1e-5)
        lines[-1] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
    else:
        rows = json.loads(text)
        rows[-1]["n_lambda_branch"] += 1e-5
        out.write_text(json.dumps(rows))
    v = checkers.check(spec, 0, stdout, out)
    assert v.failed == 1 and len(v.wrong) == 1
    v = checkers.check(spec, 3, "", None)
    assert (v.failed, v.wrong) == (60, [])
    assert checkers.check(spec, None, "", None).wrong


def test_sweep_checker_counts_quadrature_failure_cells(tmp_path):
    spec, rc, stdout, out = _sweep(tmp_path, "json")
    rows = json.loads(out.read_text())
    rows[3].update(n_omega_branch=None, winning_branch="quadrature_failure")
    out.write_text(json.dumps(rows).replace("null", "NaN"))
    v = checkers.check(spec, 0, stdout, out)
    assert (v.failed, v.wrong) == (1, [])


def _nonmark(tmp_path, mode="derived", tmax=5.0):
    params = {"omega": 2.0, "kappa": 1.0, "beta_s": 0.3, "i0": 0.8, "beta": 1.1}
    cfg, out = tmp_path / "n.cfg", tmp_path / "n.json"
    cfg.write_text(workloads.config_text(params))
    rc, stdout = _cli(["nonmark", "--config", str(cfg), "--mode", mode, "--tmax", repr(tmax),
                       "--literal-eq-nt", "--out", str(out)])
    spec = {"kind": "nonmark", "mode": mode, "tmax": tmax, "literal": True, "params": params}
    return spec, rc, stdout, out


@pytest.mark.parametrize("key", ["n_omega_branch", "n_lambda_branch", "T"])
def test_nonmark_checker_accepts_then_rejects(tmp_path, key):
    spec, rc, stdout, out = _nonmark(tmp_path)
    assert checkers.check(spec, rc, stdout, out).wrong == []
    res = json.loads(out.read_text())
    res[key] += 1e-5
    out.write_text(json.dumps(res))
    v = checkers.check(spec, 0, stdout, out)
    assert v.failed == 1 and v.wrong
    v = checkers.check(spec, 3, "", None)
    assert (v.failed, v.wrong) == (1, [])


def test_nonmark_checker_rejects_a_value_below_the_branches(tmp_path):
    spec, rc, stdout, out = _nonmark(tmp_path)
    res = json.loads(out.read_text())
    res["n_value"] = max(res["n_omega_branch"], res["n_lambda_branch"]) - 1e-3
    out.write_text(json.dumps(res))
    assert checkers.check(spec, 0, stdout, out).wrong


def test_mc_checker_accepts_then_rejects(tmp_path):
    cfg, out = tmp_path / "m.cfg", tmp_path / "m.json"
    cfg.write_text(workloads.config_text(workloads.CRITERION_09))
    rc, stdout = _cli(["mc-verify", "--config", str(cfg), "--n", "400", "--seed", "99",
                       "--out", str(out)])
    spec = {"kind": "mc", "n": 400, "seed": 99, "m0": 0.0, "w0": 1.0, "dt": 0.05, "steps": 167,
            "params": workloads.CRITERION_09}
    assert rc == 0
    assert checkers.check(spec, rc, stdout, out).wrong == []
    rep = json.loads(out.read_text())
    rep["mean_w"][0] += 1e-6
    out.write_text(json.dumps(rep))
    assert checkers.check(spec, 0, stdout, out).failed == 1
    rep["mean_w"][0] -= 1e-6
    rep["seeds"] = rep["seeds"][:-1]
    out.write_text(json.dumps(rep))
    assert checkers.check(spec, 0, stdout, out).wrong
    v = checkers.check(spec, 4, stdout, out)
    assert (v.failed, v.wrong) == (1, [])


def test_spectrum_checker_bands():
    spec = {"kind": "spectrum", "omega": 10.0, "beta": 1.0}
    good = "peak_omega = 10.05 (target 10)\nhwhm = 1.04 (target 1)\npeak_height = 3.1\n"
    assert checkers.check(spec, 0, good, None).wrong == []
    for bad in (good.replace("10.05", "10.3"), good.replace("1.04", "1.11"), "no fit: zero\n"):
        v = checkers.check(spec, 0, bad, None)
        assert v.failed == 1 and v.wrong
    assert checkers.check(spec, 3, good, None).failed == 1


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_leaves_outputs_unchanged_and_restores_the_program(tmp_path):
    originals = (cli.main, blp.n_measure, blp.quad, blp.brentq, stochastic.derive_seed)
    spec, rc, _, out = _nonmark(tmp_path, mode="as-printed", tmax=5.0)
    plain = out.read_bytes()
    tracer = tracing.Tracer()
    tracer.install(cli, model, blp, stochastic)
    try:
        assert _cli(["nonmark", "--config", str(tmp_path / "n.cfg"), "--mode", "as-printed",
                     "--tmax", "5.0", "--literal-eq-nt", "--out", str(out)])[0] == rc == 0
    finally:
        tracer.uninstall()
    assert out.read_bytes() == plain
    assert (cli.main, blp.n_measure, blp.quad, blp.brentq, stochastic.derive_seed) == originals
    m = tracer.layer_metrics()
    assert m["blp.n_measure_calls"] == 1 and m["model.calls"] == 2
    assert m["blp.quad_calls"] > 0 and m["blp.quad_evals"] >= 21 * m["blp.quad_calls"]
    assert m["blp.root_evals_per_call"] > 1
    assert 0 < m["blp.self_s"] < m["blp.n_measure_s"] + m["blp.literal_max_s"] <= m["cli.cmd_s"]
    spans = tracer.spans()
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
    assert all(s["start"] <= s["end"] for s in spans)


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |     400000 |     dipolefield.blp\n"
            "import time:       200 |     900000 | dipolefield\n"
            "import time:        50 |      30000 | dipolefield.cli\n")
    assert tracing.parse_importtime(text) == {
        "cli.import_s": 0.93, "blp.import_s": 0.4, "stochastic.import_s": 0.0}


# ---------------------------------------------------------------------------
# emitted names and the contract of run.py
# ---------------------------------------------------------------------------

def test_declared_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS
    assert SPEC["paths"] == [BENCH.name]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "backflow-scan", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=170,
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
