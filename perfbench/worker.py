"""Workload process: imports ``dipolefield.cli`` and runs a command plan through
``cli.main(argv)``, one command after another (closed loop, one client).

    python3 worker.py --src SRC --probe
    python3 worker.py --src SRC --plan PLAN --workdir DIR --trace 0|1 --result OUT

It prints ``ready`` once the CLI is imported; the parent times set-up up to
that line. With ``--trace 0`` it runs the plan once, timing each command,
and between commands times the reference kernel that measures how fast
the host runs at that moment. With ``--trace 1`` it runs the plan's first
``trace_commands`` commands twice each, once plain and once with the layer wrappers
installed, alternating which goes first, so the traced run and its
untraced twin cover identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import dipolefield.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "dipolefield").resolve():
        raise ImportError(f"dipolefield.cli came from {cli.__file__}, not from {src}")
    return cli


def _run(cli, cmd: dict, workdir: Path, execution: int) -> dict:
    cfg = workdir / f"c{cmd['id']}.cfg"
    out = workdir / f"e{execution}"
    argv = [str(cfg) if a == "{cfg}" else a.replace("{out}", str(out)) for a in cmd["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a result to report, not a reason to stop
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    outs = [a for a in argv if a.startswith(str(out))]
    return {"command": cmd["id"], "execution": execution, "rc": rc, "wall_s": wall,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[-2000:],
            "error": error, "out": outs[0] if outs else None}


def reference() -> float:
    """Seconds taken by a fixed reference kernel: scalar Python math and small numpy ops.

    The kernel never changes and does not touch the program, so its time
    tracks only the speed the shared host gives this process right now.
    """
    import math

    import numpy as np

    start = time.perf_counter()
    x = 0.0
    for i in range(8000):
        x += math.exp(-1e-4 * i) * abs(math.cos(1e-3 * i))
    a = np.linspace(0.0, 1.0, 10_000)
    for _ in range(40):
        a = np.sin(a) * 0.5 + a * 0.5
    return time.perf_counter() - start


#: share of each command's wall time spent on reference runs after it
REF_SHARE = 0.05
#: reference time before the first command, which also warms the kernel
WARMUP_REF_S = 0.1


def _references(budget_s: float) -> list[float]:
    """Reference kernel times, run once and then until ``budget_s`` is spent."""
    times = [reference()]
    while sum(times) < budget_s:
        times.append(reference())
    return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--plan", type=Path)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args()

    cli = _import_cli(args.src)
    print("ready", flush=True)
    if args.probe:
        return 0

    plan = json.loads(args.plan.read_text())
    commands = plan["commands"]
    for cmd in commands:
        if cmd["config"] is not None:
            (args.workdir / f"c{cmd['id']}.cfg").write_text(cmd["config"])
    executions = []
    result = {"executions": executions}
    if args.trace == 0:
        # gap i holds the reference runs just before command i; a gap after a
        # long command runs the kernel for REF_SHARE of that command's time,
        # so the host speed over a long command is sampled about as often
        # as over many short ones
        gaps = [_references(WARMUP_REF_S)]
        for cmd in commands:
            executions.append(_run(cli, cmd, args.workdir, len(executions)))
            gaps.append(_references(REF_SHARE * executions[-1]["wall_s"]))
        result["reference_s"] = gaps
    else:
        from dipolefield import blp, model, stochastic
        from tracing import Tracer

        tracer = Tracer()
        for i, cmd in enumerate(commands[: plan["trace_commands"]]):
            # traced first on even commands, so the first ensemble's memory
            # rise lands in a traced span and warm caches favour neither side
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                if traced:
                    tracer.cmd = cmd["id"]
                    tracer.install(cli, model, blp, stochastic)
                try:
                    ex = _run(cli, cmd, args.workdir, len(executions))
                finally:
                    tracer.uninstall()
                ex["traced"] = traced
                executions.append(ex)
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
