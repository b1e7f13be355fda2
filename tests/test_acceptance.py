"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import contextlib
import dataclasses
import io
import json
import math
import time

import numpy as np
import pytest

from dipolefield.blp import (
    BranchKind,
    analytic_n_omega,
    backflow_integral,
    dominant_regime,
    n_measure,
    sigma_rate,
)
from dipolefield.dynamics import (
    InitialCondition,
    StatePair,
    mean_dipole,
    mean_inversion,
    trace_distance,
)
from dipolefield.model import DimensionlessConfig, SystemParams, derive_params, nondimensionalize
from dipolefield.cli import main
from dipolefield.stochastic import derive_seeds, ensemble_average, fit_spectrum, sample_periodogram

from oracles import omega_branch_quadrature, params_for_rates


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def cfg_of(lam, om, t=10.0):
    return DimensionlessConfig(lambda_hat=lam, omega_hat=om, t_max=t)


def test_criterion_01_closed_form_vs_quadrature():
    start = time.time()
    worst = 0.0
    for om in np.linspace(0.1, 5.0, 50):
        for t_max in np.linspace(0.1, 5.0, 50):
            quad_val = omega_branch_quadrature(om, t_max)
            worst = max(worst, abs(quad_val - analytic_n_omega(om, t_max)))
    elapsed = time.time() - start
    report(
        1,
        worst < 1e-6 and elapsed <= 30.0,
        f"50x50 grid, worst |analytic - quadrature| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_spot_values():
    v_pi = backflow_integral(BranchKind.OMEGA, cfg_of(0.1, 1.0, math.pi)).n_value
    v_09 = backflow_integral(BranchKind.OMEGA, cfg_of(0.1, 1.0, 0.9 * math.pi)).n_value
    v_85 = backflow_integral(BranchKind.OMEGA, cfg_of(0.1, 8.0, 5.0)).n_value
    ok = (
        abs(v_pi - 1.0) < 1e-6
        and abs(v_09 - 0.9510565162951535) < 1e-6
        and abs(v_85 - 12.667) < 1e-3
    )
    # adjudication of the bracket: completed half-periods, floor(x/pi),
    # reproduces quadrature; the naive integer part floor(x) does not
    literal_integer_part = math.floor(math.pi) + 0.5 * (1.0 + 1.0)
    ok = ok and abs(analytic_n_omega(1.0, math.pi) - v_pi) < 1e-6
    ok = ok and abs(literal_integer_part - v_pi) > 1.0
    report(
        2,
        ok,
        f"N(pi)={v_pi:.9f}, N(0.9pi)={v_09:.9f}, N(40)={v_85:.6f}; "
        f"integer-part reading gives {literal_integer_part} (rejected)",
    )


def test_criterion_03_markovian_onset():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(0.05, 6.0)
        om = rng.uniform(0.05, 6.0)
        t_max = 0.999 * min(math.pi / (2 * om), math.pi / (2 * lam))
        res = n_measure(cfg_of(lam, om, t_max))
        worst = max(worst, res.n_value)
    report(3, worst == 0.0, f"100 random (lambda, omega): max N before first zero = {worst}")


def test_criterion_04_monotonicity():
    lams = np.linspace(0.0, 5.0, 11)
    oms = np.linspace(0.0, 5.0, 11)
    ts = [1.0, 3.0, 5.0]
    n = np.empty((len(lams), len(oms), len(ts)))
    for i, lam in enumerate(lams):
        for j, om in enumerate(oms):
            for k, t_max in enumerate(ts):
                cfg = cfg_of(lam, om, t_max)
                n[i, j, k] = max(
                    backflow_integral(BranchKind.OMEGA, cfg).n_value,
                    backflow_integral(BranchKind.LAMBDA, cfg).n_value,
                )
    tol = 1e-9
    ok_t = np.all(np.diff(n, axis=2) >= -tol)
    ok_om = np.all(np.diff(n, axis=1) >= -tol)
    ok_lam = np.all(np.diff(n, axis=0) >= -tol)
    report(
        4,
        bool(ok_t and ok_om and ok_lam),
        f"N nondecreasing in T ({ok_t}), omega ({ok_om}), lambda ({ok_lam}) "
        "on the 11x11x3 grid",
    )


def test_criterion_05_figure_2_qualitative():
    ts = np.linspace(0.2, 5.0, 25)
    ok = True
    notes = []
    for mode in ("as-printed", "derived"):
        # sharp-spectrum panel: coherence-dominated, near-linear, ordered
        curves_om = {}
        for om in (1.0, 2.0, 4.0, 8.0):
            curves_om[om] = np.array(
                [
                    max(
                        backflow_integral(BranchKind.OMEGA, cfg_of(0.1, om, t), mode).n_value,
                        backflow_integral(BranchKind.LAMBDA, cfg_of(0.1, om, t), mode).n_value,
                    )
                    for t in ts
                ]
            )
        for lo, hi in ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0)):
            ok &= bool(np.all(curves_om[hi] >= curves_om[lo] - 1e-9))
        for om, vals in curves_om.items():
            ok &= bool(np.max(np.abs(vals - om * ts / math.pi)) <= 1.0 + 1e-9)

        # broad-spectrum panel: inversion-dominated, ordered, sublinear
        curves_lam = {}
        for lam in (1.0, 2.0, 4.0, 8.0):
            curves_lam[lam] = np.array(
                [
                    max(
                        backflow_integral(BranchKind.OMEGA, cfg_of(lam, 0.1, t), mode).n_value,
                        backflow_integral(BranchKind.LAMBDA, cfg_of(lam, 0.1, t), mode).n_value,
                    )
                    for t in ts
                ]
            )
        for lo, hi in ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0)):
            ok &= bool(np.all(curves_lam[hi] >= curves_lam[lo] - 1e-9))
        for lam, vals in curves_lam.items():
            first = vals[12] / ts[12]
            second = (vals[-1] - vals[12]) / (ts[-1] - ts[12])
            ok &= second <= first + 1e-9
        panel_max_lam = max(v[-1] for v in curves_lam.values())
        panel_max_om = max(v[-1] for v in curves_om.values())
        ok &= panel_max_lam < panel_max_om
        notes.append(
            f"{mode}: max lambda-panel {panel_max_lam:.3f} < max omega-panel "
            f"{panel_max_om:.3f}"
        )

        # the inversion-dominated region exists and sits at large lam, small om
        ok &= dominant_regime(5.0, 0.1, 5.0, mode) is BranchKind.LAMBDA
        ok &= dominant_regime(0.1, 5.0, 5.0, mode) is BranchKind.OMEGA
        wins = [
            (lam, om)
            for lam in np.linspace(0.5, 5.0, 6)
            for om in np.linspace(0.5, 5.0, 6)
            if dominant_regime(lam, om, 5.0, mode) is BranchKind.LAMBDA
        ]
        ok &= len(wins) > 0 and all(lam > om for lam, om in wins)
        notes.append(f"{mode}: {len(wins)} lambda-dominant cells, all with lambda > omega")
    report(5, bool(ok), "; ".join(notes))


def test_criterion_06_no_threshold():
    values = {}
    ok = True
    for lam in (0.05, 0.1, 0.5, 1.0, 2.0):
        v = backflow_integral(BranchKind.LAMBDA, cfg_of(lam, 1.0, math.pi / lam)).n_value
        values[lam] = v
        ok &= v > 0.0
    report(
        6,
        ok,
        "lambda-branch backflow by T = pi/lambda: "
        + ", ".join(f"{k}: {v:.3e}" for k, v in values.items()),
    )


def test_criterion_07_endpoint_maximum_audit():
    rng = np.random.default_rng(107)
    counterexamples = []
    worst_excess = -math.inf
    for _ in range(200):
        lam = rng.uniform(0.05, 4.0)
        om = rng.uniform(0.05, 4.0)
        t_max = rng.uniform(0.3, 5.0)
        res = n_measure(cfg_of(lam, om, t_max), theta_grid_size=65)
        endpoint_max = max(res.n_omega_branch, res.n_lambda_branch)
        excess = res.n_value - endpoint_max
        worst_excess = max(worst_excess, excess)
        if excess > 1e-6:
            counterexamples.append((lam, om, t_max, res.theta_star, excess))
    for c in counterexamples:
        print(f"  counterexample (lambda, omega, T, theta*, excess): {c}")
    report(
        7,
        not counterexamples,
        f"200 random triples, 65-point theta grid: {len(counterexamples)} "
        f"counterexamples, worst interior excess = {worst_excess:.2e}",
    )


def test_criterion_08_mc_exact_limit():
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.5, i0=0.0, beta=1.0)
    dt = 1e-3 / max(p.beta, p.omega / (2 * math.pi))
    ic = InitialCondition(m0=0.5, w0=0.3)
    rep = ensemble_average(ic, p, 2, dt=dt, horizon=5.0, master_seed=2024)
    w_exact = -1.0 + (ic.w0 + 1.0) * np.exp(-p.beta_s * rep.t)
    m_exact = ic.m0 * np.cos(p.omega * rep.t)
    err_w = float(np.max(np.abs(rep.mean_w - w_exact)))
    err_m = float(np.max(np.abs(rep.mean_m - m_exact)))
    report(
        8,
        err_w <= 1e-6 and err_m <= 1e-6,
        f"zero-field ensemble vs exact decay: max errors w {err_w:.2e}, m {err_m:.2e} "
        f"(dt = {dt:g})",
    )


def test_criterion_09_mc_weak_coupling():
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.2, i0=0.1 / math.pi, beta=1.0)
    d = derive_params(p)
    ic = InitialCondition(m0=0.6, w0=0.8)
    start = time.time()
    rep = ensemble_average(ic, p, 10_000, dt=0.05, horizon=5.0 / d.gamma, master_seed=99)
    elapsed = time.time() - start
    closed_w = rep.mean_w - rep.residual_w
    span = float(np.max(closed_w) - np.min(closed_w))
    band = np.maximum(3.0 * rep.se_w, 0.05 * span)
    ok = bool(np.all(np.abs(rep.residual_w) <= band))
    report(
        9,
        ok,
        f"10^4 trajectories in {elapsed:.1f}s: max |w residual| "
        f"{np.max(np.abs(rep.residual_w)):.4f} within band (floor "
        f"{band.min():.4f}); dipole residual {np.max(np.abs(rep.residual_m)):.4f} "
        "(second-order damping, informational)",
    )


def test_criterion_10_spectrum_fidelity():
    p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    dt = min(0.05 / p.beta, 0.05 * 2 * math.pi / p.omega)
    n_steps = int(round(200.0 / p.beta / dt))
    omega, power, _ = sample_periodogram(p, dt, n_steps, derive_seeds(42, range(200)))
    fit = fit_spectrum(omega, power)
    ok = (
        fit is not None
        and abs(fit.peak_omega - p.omega) <= 0.02 * p.omega
        and abs(fit.hwhm - p.beta) <= 0.10 * p.beta
    )
    report(
        10,
        ok,
        f"fitted peak {fit.peak_omega:.4f} (target {p.omega}), "
        f"HWHM {fit.hwhm:.4f} (target {p.beta}), 200 realizations",
    )


def test_criterion_11_scaling_identity(tmp_path):
    rng = np.random.default_rng(111)
    worst = 0.0
    checked = 0
    while checked < 50:
        gamma = rng.uniform(0.3, 3.0)
        lam = rng.uniform(0.1, 4.0)
        om = rng.uniform(0.1, 4.0)
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        t = rng.uniform(0.05, 3.0) / gamma
        p = params_for_rates(gamma, lam, om)
        d = derive_params(p)
        pair = StatePair(theta)
        if trace_distance(pair, p, t) < 0.05:
            continue
        h = 1e-4 / max(1.0, om, lam, gamma)
        lhs = (
            8 * (trace_distance(pair, p, t + h) - trace_distance(pair, p, t - h))
            - (trace_distance(pair, p, t + 2 * h) - trace_distance(pair, p, t - 2 * h))
        ) / (12 * h)
        cfg = DimensionlessConfig(lambda_hat=lam / gamma, omega_hat=om / gamma, t_max=10.0)
        rhs = gamma * sigma_rate(theta, cfg, gamma * t)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        checked += 1
    # dimensionful entry point agrees with the dimensionless engine
    p = params_for_rates(0.7, 1.3, 2.4)
    config, out = tmp_path / "params.cfg", tmp_path / "nonmark.json"
    config.write_text("".join(f"{f.name} = {getattr(p, f.name)!r}\n"
                              for f in dataclasses.fields(p)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["nonmark", "--config", str(config), "--tmax", "6.0",
                     "--theta-grid", "9", "--out", str(out)]) == 0
    n_dim = json.loads(out.read_text())["n_value"]
    n_dimless = n_measure(nondimensionalize(p, 6.0), theta_grid_size=9).n_value
    ok = worst <= 1e-9 and n_dim == pytest.approx(n_dimless, rel=1e-12)
    report(
        11,
        ok,
        f"sigma scaling on 50 draws: worst deviation {worst:.2e}; "
        f"dimensionful N = {n_dim:.6f} matches dimensionless",
    )


def test_criterion_12_state_validity():
    rng = np.random.default_rng(112)
    worst_ball = -math.inf
    worst_purity = (1.0, 0.0)
    n_points = 0
    for _ in range(1000):
        p = SystemParams(
            omega=rng.uniform(0.1, 20),
            kappa=rng.uniform(0.1, 2),
            beta_s=rng.uniform(0, 3),
            i0=rng.uniform(0, 5),
            beta=rng.uniform(0.05, 4),
        )
        d = derive_params(p)
        ic = InitialCondition(0.0, rng.uniform(-1, 1))
        ts = rng.uniform(0, 20.0 / d.gamma, size=100)
        m = np.asarray(mean_dipole(ic, p, ts))
        w = np.asarray(mean_inversion(ic, p, ts))
        r2 = m * m + w * w
        pur = 0.5 * (1.0 + r2)
        worst_ball = max(worst_ball, float(np.max(r2)) - 1.0)
        worst_purity = (
            min(worst_purity[0], float(np.min(pur))),
            max(worst_purity[1], float(np.max(pur))),
        )
        n_points += ts.size

    # trace distance never exceeds its initial value 1
    worst_dist = -math.inf
    for _ in range(2000):
        p = SystemParams(
            omega=rng.uniform(0.1, 20),
            kappa=rng.uniform(0.1, 2),
            beta_s=rng.uniform(0, 3),
            i0=rng.uniform(0, 5),
            beta=rng.uniform(0.05, 4),
        )
        d = derive_params(p)
        pair = StatePair(rng.uniform(0, math.pi / 2))
        ts = rng.uniform(0, 30.0 / d.gamma, size=50)
        worst_dist = max(
            worst_dist, float(np.max(np.asarray(trace_distance(pair, p, ts)))) - 1.0
        )
        if -d.lambda_sq <= (0.5 * d.gamma) ** 2:
            worst_dist = max(
                worst_dist,
                float(np.max(np.asarray(trace_distance(pair, p, ts, "as-printed")))) - 1.0,
            )
        n_points += ts.size

    ok = (
        worst_ball <= 1e-12
        and worst_purity[0] >= 0.5
        and worst_purity[1] <= 1.0 + 1e-12
        and worst_dist <= 1e-12
    )
    report(
        12,
        ok,
        f"{n_points} randomized evolutions: max ball excess {worst_ball:.2e}, "
        f"purity in [{worst_purity[0]:.3f}, {worst_purity[1]:.6f}], "
        f"max distance excess {worst_dist:.2e}",
    )
