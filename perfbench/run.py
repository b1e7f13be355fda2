"""dipolefield benchmark: seeded CLI workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload backflow-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``. One workload process is started per run, between
set-up probes: a closed loop with one client, BLAS/OpenMP threads pinned
to 1. ``--seconds`` sizes a fixed plan, so the same seed and seconds give
the same operations. Times are stated at the reference host speed (see
``REF_S``). The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). A full record with provenance,
per-command results and, when traced, every span is written to
``.perfbench_out/`` in the checkout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checkers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

#: end-to-end metric names and units, in the order they are reported
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "work_per_s": "1/s",
}
#: set-up probes started before the workload process
SETUP_PROBES = 3
#: The shared host's speed drifts by a third within minutes. Each timing is
#: therefore divided by the time of a fixed reference task that does not
#: involve the program, measured just before and just after it, and
#: multiplied by that task's time at the reference host speed. Commands
#: are scaled by the kernel ``worker.reference`` (REF_S), timed in the
#: gaps between commands; process starts by a process start that imports
#: numpy and a fixed set of standard modules (BASELINE, REF_START_S).
REF_S = 0.008
REF_START_S = 0.4
BASELINE = [sys.executable, "-c",
            "import numpy, argparse, asyncio, csv, decimal, email.mime.multipart, http.server, "
            "json, logging, tarfile, unittest, xml.dom.minidom; print('ready', flush=True)"]
IMPORTTIME_PROBES = 3
#: every run must end well inside 180 s, set-up and checking included
DEADLINE_S = 170.0

PINNED_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn_ready(argv: list[str], deadline: float, stderr_path: Path):
    """Start a worker; return (process, seconds until it printed ``ready``)."""
    env = {**os.environ, **PINNED_THREADS}
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - start
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker never became ready: {stderr_path.read_text()[-2000:]}")
    return proc, setup


def _finish(proc, deadline: float, stderr_path: Path) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {stderr_path.read_text()[-2000:]}")


def _start(argv: list[str], deadline: float, workdir: Path) -> tuple[float, str]:
    """Start a process that exits once ready: (seconds until ready, its stderr)."""
    err = workdir / "probe.err"
    err.write_text("")
    proc, setup = _spawn_ready(argv, deadline, err)
    _finish(proc, deadline, err)
    return setup, err.read_text()


def _probe(deadline: float, workdir: Path, importtime: bool = False) -> tuple[float, str]:
    flags = ["-X", "importtime"] if importtime else []
    return _start([sys.executable, *flags, str(WORKER), "--src", str(SRC), "--probe"],
                  deadline, workdir)


def _setups(n: int, deadline: float, workdir: Path) -> list[tuple[float, float]]:
    """n set-up probes, each between two baseline starts: (raw s, scaled s) per probe."""
    base = [_start(BASELINE, deadline, workdir)[0]]
    out = []
    for _ in range(n):
        raw = _probe(deadline, workdir)[0]
        base.append(_start(BASELINE, deadline, workdir)[0])
        out.append((raw, raw * 2.0 * REF_START_S / (base[-2] + base[-1])))
    return out


def provenance(plan: dict, args) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": plan["workload"], "seed": plan["seed"], "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": plan["inputs_sha256"],
        "commands_in_plan": len(plan["commands"]), "git_sha": git_sha,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"), "nproc": os.cpu_count(), "cpu_model": cpu,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: set-up probes, the workload process, checks, metrics."""
    deadline = time.monotonic() + DEADLINE_S
    plan = workloads.build_plan(name, seed, seconds)
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            probes = [_probe(deadline, workdir, importtime=True)
                      for _ in range(IMPORTTIME_PROBES)]
        else:
            setups = _setups(SETUP_PROBES, deadline, workdir)
        (workdir / "plan.json").write_text(json.dumps(plan))
        err = workdir / "worker.err"
        proc, _ = _spawn_ready(
            [sys.executable, str(WORKER), "--src", str(SRC), "--plan", str(workdir / "plan.json"),
             "--workdir", str(workdir), "--trace", str(trace),
             "--result", str(workdir / "result.json")], deadline, err)
        _finish(proc, deadline, err)
        result = json.loads((workdir / "result.json").read_text())
        commands = plan["commands"]
        verdicts = []
        for ex in result["executions"]:
            spec = commands[ex["command"]]["check"]
            v = checkers.check(spec, ex["rc"], ex["stdout"],
                               Path(ex["out"]) if ex["out"] else None)
            if ex["error"]:
                v.wrong.append(f"crashed: {ex['error'].strip().splitlines()[-1]}")
            verdicts.append(v)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    executions = result["executions"]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    wrong = [w for v in verdicts for w in v.wrong]
    walls = [ex["wall_s"] for ex in executions]
    out = {"name": name, "correct": not wrong, "attempted": attempted, "failed": failed,
           "wrong": wrong, "plan": plan}
    if trace == 0:
        # each command against the mean of the reference kernel runs just
        # before and just after it
        gaps = [statistics.fmean(g) for g in result["reference_s"]]
        scaled = [ex["wall_s"] * 2.0 * REF_S / (gaps[i] + gaps[i + 1])
                  for i, ex in enumerate(executions)]
        refs = [t for g in result["reference_s"] for t in g]
        work = sum(commands[ex["command"]]["work"] for ex in executions)
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "work_per_s": work / sum(scaled),
        }
        unit = workloads.WORK_UNIT[name]
        p50, p90 = np.percentile(scaled, [50, 90])
        lines = [
            f"{unit} = work_per_s = {metrics['work_per_s']:.6g} 1/s at reference speed "
            f"({work} units over {len(walls)} commands; wall clock {work / sum(walls):.6g} 1/s "
            f"with the reference kernel at {statistics.mean(refs) / REF_S:.3f} x REF_S)",
            f"cmd_p50_s = {p50:.6g} s, cmd_p90_s = {p90:.6g} s at reference speed "
            f"(n={len(walls)} commands; printed, not gated)",
            f"setup_s = {metrics['setup_s']:.6g} s at reference speed (median of "
            f"n={len(setups)} process starts; wall clock "
            f"{statistics.median(s for s, _ in setups):.6g} s)",
            f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (workload process high-water mark)",
            f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted} operations), "
            f"ok_frac = {metrics['ok_frac']:.6g}",
        ]
        units = END_TO_END
    else:
        metrics = dict(result["layers"])
        imports = [tracing.parse_importtime(text) for _, text in probes]
        for key in imports[0]:
            metrics[key] = statistics.median(d[key] for d in imports)
        plain = sum(ex["wall_s"] for ex in executions if not ex["traced"])
        traced = sum(ex["wall_s"] for ex in executions if ex["traced"])
        metrics["trace.overhead_s"] = traced - plain
        metrics["trace.overhead_frac"] = (traced - plain) / plain
        metrics = {k: metrics[k] for k in tracing.LAYER_METRICS}
        lines = [f"{k} = {v:.6g} {tracing.LAYER_METRICS[k]}" for k, v in metrics.items()]
        lines.append(f"traced {len(executions) // 2} commands, each also run untraced "
                     f"({plain:.3f} s plain, {traced:.3f} s traced, "
                     f"{len(result['spans'])} spans)")
        units = tracing.LAYER_METRICS
    out["metrics"] = {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}
    out["lines"] = [f"{name}: {line}" for line in lines]
    out["record"] = {
        "executions": [
            {"command": ex["command"], "execution": ex["execution"], "rc": ex["rc"],
             "wall_s": ex["wall_s"], "traced": ex.get("traced", False), "failed": v.failed,
             "wrong": v.wrong, "stderr": ex["stderr"][-300:] if ex["rc"] else ""}
            for ex, v in zip(executions, verdicts)
        ],
        "spans": result.get("spans", []),
        "reference_s": result.get("reference_s", []),
    }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dipolefield" / "cli.py").is_file():
        print(f"perfbench: no dipolefield sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        prov = provenance(run["plan"], args)
        record_dir = ROOT / ".perfbench_out"
        record_dir.mkdir(exist_ok=True)
        record = {"provenance": prov, "correct": run["correct"], "attempted": run["attempted"],
                  "failed": run["failed"], "wrong": run["wrong"], "metrics": run["metrics"],
                  **run["record"]}
        (record_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record))
        print("provenance " + json.dumps(prov, sort_keys=True))
        for line in run["lines"]:
            print(line)
        for problem in run["wrong"][:10]:
            print(f"{name}: WRONG {problem}")
        runs.append(run)

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": m for r in runs for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
