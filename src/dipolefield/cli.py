"""Batch command-line front end.

Subcommands: derive, evolve, distance, nonmark, sweep, mc-verify, spectrum.
Exit codes: 0 success, 2 usage/config error, 3 numerical divergence (a
divergent trajectory or spectrum fit), 4 acceptance-band violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import blp, dynamics
from .model import ConfigError, SystemParams, derive_params, nondimensionalize, read_params

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_ACCEPTANCE = 4

#: weak-coupling guard for mc-verify: closure accuracy and counter-rotating
#: lobe are both under control when these hold
GUARD_MAX_WEIGHT_RATIO = 0.25   # pi*i0*kappa^2 <= 0.25 * beta
GUARD_MIN_OMEGA_RATIO = 5.0     # omega >= 5 * beta


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc
    if n < 1 or not (lo <= hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"bad range {text!r}: need finite MIN<=MAX, N>=1")
    return lo, hi, n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every ``parse_args`` call returns a new namespace, so nothing carries over.
    """
    ap = argparse.ArgumentParser(
        prog="dipolefield",
        description="Ensemble dynamics and information backflow of a dipole-coupled "
        "two-level system in a fluctuating classical field.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="key=value parameter file")
    mode = argparse.ArgumentParser(add_help=False)  # only the commands that read args.mode
    mode.add_argument("--mode", choices=dynamics.MODES, default="derived")
    initial = argparse.ArgumentParser(add_help=False)  # evolve and mc-verify
    initial.add_argument("--m0", type=float, default=0.0)
    initial.add_argument("--w0", type=float, default=1.0)
    series = argparse.ArgumentParser(add_help=False)  # evolve and distance
    series.add_argument("--tmax", type=float, required=True)
    series.add_argument("--steps", type=int, default=200)
    series.add_argument("--out", required=True)

    sub.add_parser("derive", parents=[config], help="print the derived closed-form constants")
    sub.add_parser("evolve", parents=[config, mode, initial, series],
                   help="emit the closed-form evolution as CSV")
    p = sub.add_parser("distance", parents=[config, mode, series],
                       help="trace distance of an antipodal pair vs time")
    p.add_argument("--theta", type=float, default=0.0, help="pair mixing angle in [0, pi/2]")

    p = sub.add_parser("nonmark", parents=[config, mode],
                       help="backflow measure maximized over pair angles")
    p.add_argument("--tmax", type=float, required=True, help="physical horizon")
    p.add_argument("--theta-grid", type=int, default=65)
    p.add_argument("--literal-eq-nt", action="store_true",
                   help="also report the pointwise-max single-integral variant")
    p.add_argument("--out", help="write the result as JSON")

    p = sub.add_parser("sweep", parents=[mode], help="branch integrals over a dimensionless grid")
    p.add_argument("--lambda", dest="lam", type=_parse_range, required=True,
                   metavar="MIN:MAX:N")
    p.add_argument("--omega", type=_parse_range, required=True, metavar="MIN:MAX:N")
    p.add_argument("--tmax", type=_parse_range, required=True, metavar="MIN:MAX:N")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("mc-verify", parents=[config, initial],
                       help="Monte Carlo check of the closed forms")
    p.add_argument("--n", type=int, default=10000, help="number of trajectories")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, help="integration step (default: finest allowed)")
    p.add_argument("--horizon", type=float, help="default: 5 / gamma")
    p.add_argument("--out", default="mc_report.json")
    p.add_argument("--force", action="store_true",
                   help="run outside the weak-coupling guard")

    p = sub.add_parser("spectrum", parents=[config],
                       help="periodogram and Lorentzian fit of the field")
    p.add_argument("--n", type=int, default=200, help="number of realizations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, help="record length (default: 200/beta)")
    p.add_argument("--out", help="write the averaged spectrum as CSV omega,power")
    p.add_argument("--dump-field", help="write realization 0 as CSV t,E")
    return ap


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_derive(args, p: SystemParams) -> int:
    d = derive_params(p)
    constants = {k: v for k, v in vars(d).items() if v is not None}
    if not all(map(math.isfinite, constants.values())):
        raise ValueError("a derived constant overflows: " + ", ".join(
            f"{k} = {v:g}" for k, v in constants.items()))
    print(f"gamma = {d.gamma:.12g}")
    print(f"lambda_sq = {d.lambda_sq:.12g}")
    if d.oscillatory:
        print(f"lambda = {d.lambda_value:.12g}")
    print(f"oscillatory = {'true' if d.oscillatory else 'false'}")
    print(f"A = {d.a_const:.12g}")
    print(f"B = {'undefined' if d.b_const is None else format(d.b_const, '.12g')}")
    print(f"c_sine = {d.c_sine:.12g}")
    return EXIT_OK


def _time_grid(args) -> np.ndarray:
    """The ``--steps`` + 1 uniform times of [0, ``--tmax``], checked before they are built."""
    if not (math.isfinite(args.tmax) and args.tmax >= 0):
        raise ValueError(f"--tmax {args.tmax}: must be finite and nonnegative")
    if not 0 <= args.steps < dynamics.MAX_FIELD_SAMPLES:
        raise ValueError(f"--steps {args.steps}: must be nonnegative, with at most "
                         f"{dynamics.MAX_FIELD_SAMPLES} times in all")
    return np.linspace(0.0, args.tmax, args.steps + 1)


def _cmd_evolve(args, p: SystemParams) -> int:
    ic = dynamics.InitialCondition(m0=args.m0, w0=args.w0)
    times = _time_grid(args)
    dynamics.write_timeseries(args.out, ic, p, times, mode=args.mode)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_distance(args, p: SystemParams) -> int:
    pair = dynamics.StatePair(theta=args.theta)
    times = _time_grid(args)
    dist = dynamics.trace_distance(pair, p, times, mode=args.mode)
    dynamics._write_csv(args.out, "t,distance", (times, dist), "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_nonmark(args, p: SystemParams) -> int:
    cfg = nondimensionalize(p, args.tmax)
    result = blp.n_measure(cfg, mode=args.mode, theta_grid_size=args.theta_grid)
    payload = {
        "lambda_hat": cfg.lambda_hat,
        "omega_hat": cfg.omega_hat,
        "T": cfg.t_max,
        "mode": args.mode,
        "n_value": result.n_value,
        "theta_star": result.theta_star,
        "winning_branch": result.winning_branch.value,
        "n_omega_branch": result.n_omega_branch,
        "n_lambda_branch": result.n_lambda_branch,
        "intervals": [list(iv) for iv in result.intervals],
    }
    if args.literal_eq_nt:
        payload["literal_pointwise_max"] = blp.literal_pointwise_max(cfg, mode=args.mode)
    for key, value in payload.items():
        if key not in ("mode", "intervals"):
            print(f"{key} = {value if isinstance(value, str) else format(value, '.12g')}")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", newline="")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args, _p) -> int:
    blp._check_sweep(args.lam[2], args.omega[2], args.tmax[2])
    grid = blp.sweep_grid(np.linspace(*args.lam), np.linspace(*args.omega),
                          np.linspace(*args.tmax), mode=args.mode)
    if args.format == "csv":
        blp.write_sweep_csv(grid, args.out)
    else:
        blp.write_sweep_json(grid, args.out)
    print(f"wrote {args.out} ({len(grid)} rows)")
    return EXIT_OK


def _weak_coupling(p: SystemParams) -> bool:
    return (
        p.coupling_weight <= GUARD_MAX_WEIGHT_RATIO * p.beta
        and p.omega >= GUARD_MIN_OMEGA_RATIO * p.beta
    )


def _cmd_mc_verify(args, p: SystemParams) -> int:
    from . import stochastic  # only mc-verify and spectrum load it, with numpy.random
    d = derive_params(p)
    if not _weak_coupling(p) and not args.force:
        print(
            "refusing to run outside the weak-coupling regime "
            f"(need pi*i0*kappa^2 <= {GUARD_MAX_WEIGHT_RATIO}*beta and "
            f"omega >= {GUARD_MIN_OMEGA_RATIO}*beta); use --force to override",
            file=sys.stderr,
        )
        return EXIT_USAGE
    dt = args.dt if args.dt is not None else stochastic.max_field_dt(p)
    if args.horizon is None and d.gamma == 0.0:
        raise ValueError("the damping rate (beta + beta_s)/2 underflows to 0: give --horizon")
    horizon = args.horizon if args.horizon is not None else 5.0 / d.gamma
    ic = dynamics.InitialCondition(m0=args.m0, w0=args.w0)
    try:
        report = stochastic.ensemble_average(ic, p, args.n, dt, horizon, args.seed)
    except stochastic.TrajectoryDivergenceError as exc:
        print(f"divergent trajectory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    report.write_json(args.out)

    def band(se: np.ndarray, closed: np.ndarray) -> np.ndarray:
        span = float(np.max(closed) - np.min(closed))
        return np.maximum(3.0 * se, np.maximum(0.05 * span, 1e-9))

    closed_w = report.mean_w - report.residual_w
    closed_m = report.mean_m - report.residual_m
    ok_w = np.all(np.abs(report.residual_w) <= band(report.se_w, closed_w))
    ok_m = np.all(np.abs(report.residual_m) <= band(report.se_m, closed_m))
    print(f"wrote {args.out}")
    print(f"max |residual w| = {np.max(np.abs(report.residual_w)):.6g}")
    print(f"max |residual m| = {np.max(np.abs(report.residual_m)):.6g}")
    if ok_w and ok_m:
        print("acceptance bands: PASS")
        return EXIT_OK
    print("acceptance bands: FAIL", file=sys.stderr)
    return EXIT_ACCEPTANCE


def _cmd_spectrum(args, p: SystemParams) -> int:
    from . import stochastic  # only mc-verify and spectrum load it, with numpy.random
    if args.n < 2:
        raise ValueError(f"--n {args.n}: need at least 2 realizations")
    if args.duration is not None and not (math.isfinite(args.duration) and args.duration > 0):
        raise ValueError(f"--duration {args.duration}: must be finite and positive")
    duration = args.duration if args.duration is not None else 200.0 / p.beta
    if duration <= 2.0 * math.pi / p.beta:
        raise ValueError(f"--duration {duration:.6g}: the record must be longer than "
                         f"2*pi/beta = {2.0 * math.pi / p.beta:.6g} to resolve the linewidth")
    dt = stochastic.max_field_dt(p)
    # a ratio beyond the cap (even an overflowing one) is clamped, then rejected
    n_steps = int(round(min(duration / dt, stochastic.MAX_FIELD_SAMPLES)))
    stochastic._check_size(args.n, n_steps)
    seeds = stochastic.derive_seeds(args.seed, range(args.n))
    omega, power, first = stochastic.sample_periodogram(p, dt, n_steps, seeds)
    if args.dump_field:
        dynamics._write_csv(args.dump_field, "t,E", (dt * np.arange(first.size), first), "\r\n")
        print(f"wrote {args.dump_field}")
    try:
        fit = stochastic.fit_spectrum(omega, power)
    except stochastic.SpectrumFitError as exc:
        print(f"spectrum fit failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.out:
        dynamics._write_csv(args.out, "omega,power", (omega, power), "\n")
        print(f"wrote {args.out}")
    if fit is None:
        print("no fit: zero spectrum; no peak to fit")
    else:
        print(f"peak_omega = {fit.peak_omega:.6g} (target {p.omega:.6g})")
        print(f"hwhm = {fit.hwhm:.6g} (target {p.beta:.6g})")
        print(f"peak_height = {fit.peak_height:.6g} "
              f"(implied i0 = {fit.peak_height / math.pi:.6g})")
    return EXIT_OK


_COMMANDS = {
    "derive": _cmd_derive,
    "evolve": _cmd_evolve,
    "distance": _cmd_distance,
    "nonmark": _cmd_nonmark,
    "sweep": _cmd_sweep,
    "mc-verify": _cmd_mc_verify,
    "spectrum": _cmd_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        p = read_params(args.config) if hasattr(args, "config") else None
        return _COMMANDS[args.command](args, p)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
