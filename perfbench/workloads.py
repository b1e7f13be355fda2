"""Seeded generator of the benchmark's command plans.

A plan is a list of CLI commands (argv plus the text of any config file
they read) built from the workload name and ``--seed`` alone. The program
under test sees only these files and argv. Every command carries its
amount of work (cells, scans, trajectory steps or field samples), the
data its output checker needs, and the spec is hashed so that two runs can
be shown to have issued identical inputs.

Argv entries ``{cfg}`` and ``{out}`` are placeholders: the worker replaces
them with the command's config file and a fresh output path per execution.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("backflow-sweep", "backflow-scan", "mc-ensemble", "field-spectrum")

#: unit of work counted by each workload's throughput metric
WORK_UNIT = {
    "backflow-sweep": "cells_per_s",
    "backflow-scan": "scans_per_s",
    "mc-ensemble": "traj_steps_per_s",
    "field-spectrum": "field_samples_per_s",
}

#: commands run (each once untraced and once traced) by a traced run
TRACE_COMMANDS = {
    "backflow-sweep": 2,
    "backflow-scan": 40,
    "mc-ensemble": 4,
    "field-spectrum": 1,
}

#: the plan is cut to whole blocks: sweeps come in (derived, as-printed)
#: pairs and scans in blocks of 10 covering every (mode, tmax) pair, so
#: each run has the same command mix
BLOCK = {
    "backflow-sweep": 2,
    "backflow-scan": 10,
    "mc-ensemble": 1,
    "field-spectrum": 1,
}

#: typical seconds per command on a 2-vCPU Xeon VM, used only to size a
#: plan to ``--seconds``: the same seconds give the same plan on any host
NOMINAL_S = {
    "backflow-sweep": 1.0,
    "backflow-scan": 0.13,
    "mc-ensemble": 0.85,
    "field-spectrum": 5.0,
}

SWEEP_GRID = (40, 40, 4)
#: physical horizons per mode, cycled; 10 twice, so the median command
#: latency falls inside the tmax=10 commands rather than between two groups
SCAN_TMAX = (2.0, 5.0, 10.0, 10.0, 20.0)
MC_N = 10_000
MC_STEPS = 167
SPECTRUM_N = 200

#: criterion 09's parameters (tests/test_acceptance.py)
CRITERION_09 = {"omega": 5.0, "kappa": 1.0, "beta_s": 0.2, "i0": 0.1 / math.pi, "beta": 1.0}
#: criterion 10's parameters
CRITERION_10 = {"omega": 10.0, "kappa": 1.0, "beta_s": 0.0, "i0": 1.0, "beta": 1.0}


def config_text(params: dict) -> str:
    """Flat key=value file with exactly round-tripping floats."""
    return "".join(f"{k} = {float(params[k])!r}\n" for k in ("omega", "kappa", "beta_s", "i0", "beta"))


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _sweep_plan(rng: np.random.Generator) -> list[dict]:
    nl, no, nt = SWEEP_GRID
    out = []
    for i in range(64):
        # the cost of a sweep grows with the upper ends of its axes; a small
        # seeded jitter keeps it steady from seed to seed
        mode, fmt = (("derived", "csv"), ("as-printed", "json"))[i % 2]
        lam = (0.0, float(rng.uniform(4.9, 5.1)), nl)
        om = (0.0, float(rng.uniform(4.9, 5.1)), no)
        ts = (float(rng.uniform(0.9, 1.1)), float(rng.uniform(4.9, 5.1)), nt)
        rng_arg = [f"{lo!r}:{hi!r}:{n}" for lo, hi, n in (lam, om, ts)]
        out.append({
            "argv": ["sweep", "--mode", mode, "--lambda", rng_arg[0], "--omega", rng_arg[1],
                     "--tmax", rng_arg[2], "--format", fmt, "--out", "{out}." + fmt],
            "config": None,
            "work": nl * no * nt,
            "check": {"kind": "sweep", "mode": mode, "format": fmt,
                      "lambda": lam, "omega": om, "t": ts},
        })
    return out


#: irrational steps of the Kronecker sequences behind the scan parameters
_KRONECKER = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0]) % 1.0


def _scan_params(u: list[float]) -> dict:
    """Oscillatory parameters from five uniforms, physical lambda and omega drawn directly.

    The cost of a theta scan grows with (lambda + omega) * tmax, so the two
    frequencies come from narrow ranges. gamma = (beta + beta_s)/2 spans
    0.45 to 1.3, which puts T = gamma * tmax on both sides of the
    as-printed quadrature failures at tmax = 20.
    """
    beta = 0.8 + 1.2 * u[0]
    beta_s = 0.1 + 0.5 * u[1]
    omega = 1.5 + u[2]
    lam = 0.8 + 0.4 * u[3]
    kappa = 0.8 + 0.4 * u[4]
    # lambda^2 = pi i0 kappa^2 beta / 2 - (beta - beta_s)^2 / 4
    i0 = (lam * lam + 0.25 * (beta - beta_s) ** 2) / (0.5 * math.pi * beta * kappa * kappa)
    return {"omega": omega, "kappa": kappa, "beta_s": beta_s, "i0": i0, "beta": beta}


def _scan_plan(rng: np.random.Generator) -> list[dict]:
    # Each (mode, tmax) class walks its own seeded Kronecker sequence, so any
    # stretch of consecutive commands covers the parameter box evenly and
    # every run meets about the same share of slow and failing inputs.
    offsets = rng.random((BLOCK["backflow-scan"], _KRONECKER.size))
    out = []
    for i in range(600):
        # blocks of 10 cover every (mode, tmax) pair; --literal-eq-nt lands on
        # every 4th command and rotates through the pairs every 40 commands
        mode = ("derived", "as-printed")[i % 2]
        tmax = SCAN_TMAX[(i // 2) % len(SCAN_TMAX)]
        literal = i % 4 == (i // 10) % 4
        j, k = divmod(i, BLOCK["backflow-scan"])
        params = _scan_params(((offsets[k] + (j + 1) * _KRONECKER) % 1.0).tolist())
        argv = ["nonmark", "--config", "{cfg}", "--mode", mode, "--tmax", repr(tmax),
                "--out", "{out}.json"]
        if literal:
            argv.append("--literal-eq-nt")
        out.append({
            "argv": argv,
            "config": config_text(params),
            "work": 1,
            "check": {"kind": "nonmark", "mode": mode, "tmax": tmax, "literal": literal,
                      "params": params},
        })
    return out


def _mc_plan(rng: np.random.Generator) -> list[dict]:
    dt = 0.05  # max_field_dt for beta = 1, omega <= 2 pi
    out = [{
        # criterion 09's parameters and master seed with the CLI's default
        # initial condition; its default horizon 5/gamma gives 167 steps
        "argv": ["mc-verify", "--config", "{cfg}", "--n", str(MC_N), "--seed", "99",
                 "--out", "{out}.json"],
        "config": config_text(CRITERION_09),
        "work": MC_N * MC_STEPS,
        "check": {"kind": "mc", "n": MC_N, "seed": 99, "m0": 0.0, "w0": 1.0, "dt": dt,
                  "steps": MC_STEPS, "params": CRITERION_09},
    }]
    for _ in range(63):
        # inside the weak-coupling guard, with pi i0 kappa^2 small enough
        # that the second-order dipole damping stays inside the CLI's band
        weight = rng.uniform(0.01, 0.04)
        kappa = rng.uniform(0.5, 1.5)
        params = {"omega": rng.uniform(5.0, 6.2), "kappa": kappa,
                  "beta_s": rng.uniform(0.1, 0.4), "i0": weight / (math.pi * kappa * kappa),
                  "beta": 1.0}
        m0, w0 = float(rng.uniform(0.3, 0.6)), float(rng.uniform(0.3, 0.8))
        seed = int(rng.integers(0, 2**31))
        out.append({
            "argv": ["mc-verify", "--config", "{cfg}", "--n", str(MC_N), "--seed", str(seed),
                     "--m0", repr(m0), "--w0", repr(w0), "--horizon", repr(MC_STEPS * dt),
                     "--out", "{out}.json"],
            "config": config_text(params),
            "work": MC_N * MC_STEPS,
            "check": {"kind": "mc", "n": MC_N, "seed": seed, "m0": m0, "w0": w0, "dt": dt,
                      "steps": MC_STEPS, "params": params},
        })
    return out


def _spectrum_plan(rng: np.random.Generator) -> list[dict]:
    p = CRITERION_10
    dt = min(0.05 / p["beta"], 0.05 * 2.0 * math.pi / p["omega"])
    n_steps = max(2, int(round(200.0 / p["beta"] / dt)))
    return [{
        "argv": ["spectrum", "--config", "{cfg}", "--n", str(SPECTRUM_N), "--seed", str(seed)],
        "config": config_text(p),
        "work": SPECTRUM_N * (n_steps + 1),
        "check": {"kind": "spectrum", "omega": p["omega"], "beta": p["beta"]},
    } for seed in (int(s) for s in rng.integers(0, 2**31, size=12))]


_BUILDERS = {
    "backflow-sweep": _sweep_plan,
    "backflow-scan": _scan_plan,
    "mc-ensemble": _mc_plan,
    "field-spectrum": _spectrum_plan,
}


def plan_size(workload: str, seconds: float) -> int:
    """Commands in a plan: the whole blocks that take about ``seconds`` to run."""
    block = BLOCK[workload]
    return block * max(1, int(seconds / (NOMINAL_S[workload] * block)))


def build_plan(workload: str, seed: int, seconds: float) -> dict:
    """The command plan of one workload run: same (workload, seed, seconds), same plan."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    commands = _BUILDERS[workload](_rng(seed, workload))
    commands = commands[: min(len(commands), plan_size(workload, seconds))]
    for i, cmd in enumerate(commands):
        cmd["id"] = i
    plan = {"workload": workload, "seed": seed, "commands": commands,
            "trace_commands": min(len(commands), TRACE_COMMANDS[workload])}
    plan["inputs_sha256"] = inputs_digest(plan)
    return plan


def inputs_digest(plan: dict) -> str:
    """SHA-256 over every argv and config text of the plan, in order."""
    h = hashlib.sha256()
    for cmd in plan["commands"]:
        h.update(json.dumps([cmd["argv"], cmd["config"]]).encode())
    return h.hexdigest()
