"""Independent oracles used to freeze expected values in the test suite.

These deliberately avoid the library's own evaluation paths: the
inversion oracle integrates the memory-kernel closure as a small ODE
system, the backflow oracles enumerate envelope rises analytically,
sample them or the distance on a dense grid, integrate their own
coherence-branch rate by adaptive quadrature, or walk the critical
points of the trace distance, the pair distance is half the distance of
the derived ensemble means, the AR(1) oracle steps the complex field
recurrence one sample at a time, the field covariance is the Lorentzian
autocorrelation on the grid, the periodogram reference transforms one
realization at a time, the ensemble oracle steps each trajectory's RK4
in Python floats and reduces the stacked trajectories with numpy's axis
statistics, the exact ensemble means solve the moment hierarchy of the
Ornstein-Uhlenbeck field, the sweep reference evaluates every grid cell
on its own and writes with the standard-library encoders, the Lorentzian
fit is scipy's trust-region least squares on complex-step derivatives
polished by a root solve of its gradient, and derivatives come from
Richardson-extrapolated finite differences.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, least_squares, root

from dipolefield.blp import BranchKind, backflow_integral
from dipolefield.dynamics import InitialCondition, mean_dipole, mean_inversion
from dipolefield.model import DimensionlessConfig, SystemParams


def closure_inversion_ode(
    w0: float, p: SystemParams, tgrid: np.ndarray
) -> np.ndarray:
    """Ensemble inversion from direct integration of the two-variable closure.

    The resonant part of the memory kernel is exponential, so the closed
    integro-differential equation for the mean inversion is equivalent to

        W' = -beta_s (W + omega/2) - kappa^2 (C0/2) u,   u' = -beta u + W,

    with C0 = pi * beta * i0. Returns the dimensionless inversion 2W/omega.
    """
    c0 = math.pi * p.beta * p.i0
    w_big0 = 0.5 * p.omega * w0

    def rhs(_t, y):
        w_big, u = y
        return [
            -p.beta_s * (w_big + 0.5 * p.omega) - p.kappa**2 * (c0 / 2.0) * u,
            -p.beta * u + w_big,
        ]

    sol = solve_ivp(
        rhs,
        (0.0, float(tgrid[-1])),
        [w_big0, 0.0],
        t_eval=tgrid,
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    return 2.0 * sol.y[0] / p.omega


def omega_rises(omega_hat: float, t_max: float) -> float:
    """Total rise of |cos(omega_hat tau)| on [0, t_max], by enumeration."""
    if omega_hat <= 0 or t_max <= 0:
        return 0.0
    total = 0.0
    h = math.pi / (2.0 * omega_hat)
    k = 0
    while (2 * k + 1) * h < t_max:
        a = (2 * k + 1) * h
        b = min((2 * k + 2) * h, t_max)
        total += abs(math.cos(omega_hat * b)) - abs(math.cos(omega_hat * a))
        k += 1
    return total


def lambda_rises(lambda_hat: float, t_max: float, decay: float = 1.0) -> float:
    """Total rise of exp(-decay*tau)|cos(lambda_hat tau)| on [0, t_max].

    Rise ends follow from the arctangent form of the critical point, so no
    root-finding is involved.
    """
    if lambda_hat <= 0 or t_max <= 0:
        return 0.0

    def env(tau: float) -> float:
        return math.exp(-decay * tau) * abs(math.cos(lambda_hat * tau))

    rise_len = math.atan2(lambda_hat, decay) / lambda_hat
    total = 0.0
    k = 0
    while True:
        z = (2 * k + 1) * math.pi / (2.0 * lambda_hat)
        if z >= t_max:
            break
        total += env(min(z + rise_len, t_max))
        k += 1
    return total


def sampled_rises(freq: float, decay: float, t_max: float, n: int) -> tuple:
    """Starts and ends of the rises of exp(-decay tau)|cos(freq tau)| on [0, t_max], sampled.

    The function is sampled at n uniform points, and each maximal run of increasing
    samples is one rise, from its first to its last sample. A rise longer than a few
    spacings then starts and ends within one spacing of the true ones.
    """
    t = np.linspace(0.0, t_max, n)
    up = np.diff(np.exp(-decay * t) * np.abs(np.cos(freq * t))) > 0.0
    edges = np.flatnonzero(np.diff(np.concatenate(([0], up.astype(int), [0]))))
    return t[edges[::2]], t[edges[1::2]]


def omega_branch_quadrature(omega_hat: float, t_max: float) -> float:
    """Coherence-branch backflow: adaptive quadrature of the rise rate of |cos(omega_hat tau)|.

    Integrates the positive part of d|cos(omega_hat tau)|/dtau,
    max(0, -omega_hat sin(x) sgn(cos x)) with x = omega_hat tau, over each
    rise ((2k+1)h, (2k+2)h), h = pi/(2 omega_hat), cut at t_max,
    independently of the closed form and of the engine's integrands.
    """
    if omega_hat <= 0 or t_max <= 0:
        return 0.0

    def rate(tau):
        x = omega_hat * tau
        return max(0.0, -omega_hat * math.sin(x) * math.copysign(1.0, math.cos(x)))

    h = math.pi / (2.0 * omega_hat)
    total = 0.0
    k = 0
    while (2 * k + 1) * h < t_max:
        a = (2 * k + 1) * h
        b = min((2 * k + 2) * h, t_max)
        total += quad(rate, a, b, epsabs=1e-11, epsrel=1e-11, limit=200)[0]
        k += 1
    return total


def distance_rises(
    theta: float, lambda_hat: float, omega_hat: float, t_max: float,
    decay: float = 1.0, n_grid: int = 200_001,
) -> float:
    """Total rise of the interior-theta trace distance on [0, t_max].

    D^2 = u e^{-2 decay tau} cos^2(lambda tau) + (1-u) cos^2(omega tau)
    with u = cos^2(theta). The critical points of D are the sign changes of
    d(D^2)/dtau on a dense grid, each bisected to machine precision; D is
    monotone between consecutive critical points, so the rise is the sum of
    the positive increments of D across them. Unlike a plain grid total
    variation, this does not undershoot near sharp dips of D.
    """
    u = math.cos(theta) ** 2

    def dist(t):
        return np.sqrt(u * np.exp(-2.0 * decay * t) * np.cos(lambda_hat * t) ** 2
                       + (1.0 - u) * np.cos(omega_hat * t) ** 2)

    def slope_sq(t):
        cl, sl = np.cos(lambda_hat * t), np.sin(lambda_hat * t)
        co, so = np.cos(omega_hat * t), np.sin(omega_hat * t)
        return (-2.0 * u * np.exp(-2.0 * decay * t) * cl * (decay * cl + lambda_hat * sl)
                - 2.0 * (1.0 - u) * omega_hat * co * so)

    ts = np.linspace(0.0, t_max, n_grid)
    g = np.sign(slope_sq(ts))
    idx = np.nonzero(g[:-1] * g[1:] < 0)[0]
    lo, hi, g_lo = ts[idx], ts[idx + 1], g[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = np.sign(slope_sq(mid)) == g_lo
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    crit = np.sort(np.concatenate(([0.0, t_max], 0.5 * (lo + hi), ts[g == 0.0])))
    return float(np.sum(np.maximum(np.diff(dist(crit)), 0.0)))


def sampled_distance_rises(theta: float, lambda_hat: float, omega_hat: float, t_max: float,
                           n: int, chunk: int = 2**18) -> float:
    """Sum of the positive increments of the derived distance at angle theta over n uniform
    points of [0, t_max], a lower bound of its total rise.

    D^2 = u e^{-2 tau} cos^2(lambda tau) + (1-u) cos^2(omega tau), u = cos^2(theta). The
    points are taken chunk at a time, each chunk starting from the last value of the one
    before, so memory stays bounded. Any partition's positive increments sum to at most
    the total rise, so no sampling error can push the sum above it.
    """
    u, step, total, last = math.cos(theta) ** 2, t_max / (n - 1), 0.0, np.empty(0)
    for start in range(0, n, chunk):
        t = np.arange(start, min(start + chunk, n)) * step
        d = np.sqrt(u * np.exp(-2.0 * t) * np.cos(lambda_hat * t) ** 2
                    + (1.0 - u) * np.cos(omega_hat * t) ** 2)
        total += float(np.sum(np.maximum(np.diff(np.concatenate((last, d))), 0.0)))
        last = d[-1:]
    return total


def derived_numerator(u, t, lambda_hat: float, omega_hat: float):
    """d(D^2)/dt of the derived distance, expanded by hand: the numerator of the derived rate
    for the branches (omega_hat, 0) and (lambda_hat, 1). ``u`` and ``t`` broadcast."""
    cl = np.cos(lambda_hat * t)
    da = -np.exp(-2.0 * t) * (2.0 * cl * cl + lambda_hat * np.sin(2.0 * lambda_hat * t))
    db = -omega_hat * np.sin(2.0 * omega_hat * t)
    return u * da + (1.0 - u) * db


def derived_numerator_terms(u: np.ndarray, lambda_hat: float, omega_hat: float) -> tuple:
    """(a, r, f) of the terms a e^{-r t} cos(f t + phi) summing to ``derived_numerator``."""
    # -u e^{-2 t} (1 + cos 2 lam t + lam sin 2 lam t) - (1 - u) om sin 2 om t
    return ((u, 2.0, 0.0), (u * math.hypot(1.0, lambda_hat), 2.0, 2.0 * lambda_hat),
            ((1.0 - u) * omega_hat, 0.0, 2.0 * omega_hat))


def printed_numerator(t, u: float, lambda_hat: float, omega_hat: float):
    """Numerator of ``printed_rate`` at u = cos^2(theta); it carries the rate's sign."""
    return -u * (np.exp(0.5 * t) * omega_hat * np.sin(2.0 * omega_hat * t)
                 + np.exp(-0.5 * t) * (np.sin(lambda_hat * t) ** 2
                                       + lambda_hat * np.sin(2.0 * lambda_hat * t)))


def printed_rate(t, theta: float, lambda_hat: float, omega_hat: float):
    """The verbatim as-printed interior rate at angle theta; see ``printed_interior_integral``."""
    u = math.cos(theta) ** 2
    den = (np.exp(t) * u * np.cos(omega_hat * t) ** 2
           + (1.0 - u) * np.cos(lambda_hat * t) ** 2)
    return printed_numerator(t, u, lambda_hat, omega_hat) / (2.0 * np.sqrt(den))


def printed_interior_integral(
    theta: float, lambda_hat: float, omega_hat: float, t_max: float,
    n_grid: int = 200_001, halvings: int = 48, nodes: int = 12,
) -> float:
    """Integral of the positive part of the verbatim as-printed interior rate.

    The rate is, with u = cos^2(theta),

        -u [e^{tau/2} om sin(2 om tau) + e^{-tau/2} (sin^2(lam tau) + lam sin(2 lam tau))]
        / (2 sqrt(e^tau u cos^2(om tau) + (1 - u) cos^2(lam tau))).

    Its positivity intervals come from the sign changes of the numerator
    on a dense grid, each bisected to machine precision. Where one cosine
    vanishes the denominator falls to the other term, within a layer as
    narrow as ~e^{-tau/2}/om when e^{tau/2} is large, so the intervals are
    also cut at the zeros of both cosines. Each piece is split into cells
    that halve in width toward both ends, and each cell is integrated by
    Gauss-Legendre.
    """
    u = math.cos(theta) ** 2
    args = (u, lambda_hat, omega_hat)
    ts = np.linspace(0.0, t_max, n_grid)
    g = np.sign(printed_numerator(ts, *args))
    idx = np.nonzero(g[:-1] * g[1:] < 0)[0]
    lo, hi, g_lo = ts[idx], ts[idx + 1], g[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = np.sign(printed_numerator(mid, *args)) == g_lo
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    dips = [(2 * np.arange(int(f * t_max / math.pi) + 1) + 1) * math.pi / (2.0 * f)
            for f in (lambda_hat, omega_hat) if f > 0.0]
    cuts = np.unique(np.concatenate(([0.0, t_max], 0.5 * (lo + hi), ts[g == 0.0], *dips)))
    cuts = cuts[cuts <= t_max]
    a, b = cuts[:-1], cuts[1:]
    keep = printed_numerator(0.5 * (a + b), *args) > 0.0
    a, b = a[keep, None], b[keep, None]
    halves = 0.5 ** np.arange(halvings, 0, -1)
    edges = np.concatenate(([0.0], halves, 1.0 - halves[::-1][1:], [1.0]))
    x, w = np.polynomial.legendre.leggauss(nodes)
    left, width = edges[:-1, None], np.diff(edges)[:, None]
    frac = (left + 0.5 * width * (x + 1.0)).ravel()
    weight = (0.5 * width * w).ravel()
    return float(np.sum((b - a) * weight
                        * printed_rate(a + (b - a) * frac, theta, lambda_hat, omega_hat)))


def printed_log_slope_reference(lambda_hat: float, omega_hat: float, t_max: float) -> float:
    """Slope c of the as-printed interior backflow against ln(1/theta) as theta -> 0.

    As u = cos^2(theta) -> 1 the printed denominator
    2 sqrt(u e^tau cos^2(om tau) + (1 - u) cos^2(lam tau)) tends to
    2 e^{tau/2} |cos(om tau)|, which vanishes linearly, with slope
    e^{tau_0/2} om, at each zero tau_0 = (k + 1/2) pi / om. There the om term
    of the numerator vanishes with sin(2 om tau_0), leaving

        P(tau_0) = -e^{-tau_0/2} (sin^2(lam tau_0) + lam sin(2 lam tau_0)).

    Where P(tau_0) > 0 the rate is about P / (2 e^{tau_0/2} om |tau - tau_0|)
    on both sides of tau_0, down to a width of order theta |cos(lam tau_0)|,
    so each such zero adds P(tau_0) e^{-tau_0/2} / om per unit of ln(1/theta).
    """
    c, k = 0.0, 0
    while (tau0 := (k + 0.5) * math.pi / omega_hat) < t_max:
        p = -math.exp(-0.5 * tau0) * (math.sin(lambda_hat * tau0) ** 2
                                      + lambda_hat * math.sin(2.0 * lambda_hat * tau0))
        if p > 0.0:
            c += p * math.exp(-0.5 * tau0) / omega_hat
        k += 1
    return c


def literal_max_reference(
    lambda_hat: float, omega_hat: float, t_max: float, decay: float = 1.0,
    n_scan: int = 2001,
) -> float:
    """Integral over [0, t_max] of the pointwise maximum of the two branch rates' positive parts.

    The rates, written out here, are

        r_om  = -om sin(om tau) sgn cos(om tau),
        r_lam = -e^{-decay tau} (lam sin(lam tau) + decay cos(lam tau)) sgn cos(lam tau).

    Between consecutive multiples of pi/(2 om) and pi/(2 lam) both signs
    are fixed, so each rate is smooth there. On each such piece a dense
    sign scan of r_om - r_lam and of r_lam finds the crossings and the
    lambda-rise ends, each bisected to machine precision, and adaptive
    quadrature integrates max(0, r_om, r_lam) between them.
    """
    lam, om = lambda_hat, omega_hat

    def rates(t, s_om, s_lam):
        r_om = -om * np.sin(om * t) * s_om
        r_lam = -np.exp(-decay * t) * (lam * np.sin(lam * t) + decay * np.cos(lam * t)) * s_lam
        return r_om, r_lam

    grid = [np.array([0.0, t_max])]
    grid += [np.arange(1, int(2.0 * f * t_max / math.pi) + 1) * math.pi / (2.0 * f)
             for f in (lam, om) if f > 0.0]
    grid = np.unique(np.concatenate(grid))
    grid = grid[grid <= t_max]
    p, q = grid[:-1, None], grid[1:, None]
    mid = 0.5 * (p + q)
    s_om, s_lam = np.sign(np.cos(om * mid)), np.sign(np.cos(lam * mid))
    ts = p + (q - p) * np.linspace(0.0, 1.0, n_scan)
    cuts = [grid]
    for pick in (lambda a, b: a - b, lambda a, b: b):
        g = np.sign(pick(*rates(ts, s_om, s_lam)))
        row, col = np.nonzero(g[:, :-1] * g[:, 1:] < 0)
        lo, hi, g_lo = ts[row, col], ts[row, col + 1], g[row, col]
        for _ in range(60):
            m = 0.5 * (lo + hi)
            left = np.sign(pick(*rates(m, s_om[row, 0], s_lam[row, 0]))) == g_lo
            lo, hi = np.where(left, m, lo), np.where(left, hi, m)
        cuts.append(0.5 * (lo + hi))
    cuts = np.unique(np.concatenate(cuts))

    def integrand(t):
        r_om, r_lam = rates(t, math.copysign(1.0, math.cos(om * t)),
                            math.copysign(1.0, math.cos(lam * t)))
        return max(0.0, r_om, r_lam)

    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        # full output: on slivers next to a crossing quad warns of bad
        # behaviour while its error estimate is ~1e-28; the estimate is checked
        value, abserr = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200,
                             full_output=1)[:2]
        assert abserr < 1e-11, (a, b, abserr)
        total += value
    return total


def tangency_angle(
    lambda_hat: float, omega_hat: float, start: float, decay: float = 1.0
) -> tuple[float, float] | None:
    """(theta, tau) at which d(D^2)/dtau has a double root, or None.

    With d(D^2)/dtau = u A(tau) + (1 - u) B(tau), a double root at tau
    needs A B' = A' B there and u = B / (B - A) in (0, 1). The first root
    of A B' - A' B within half a period of omega after ``start`` is taken.
    """
    def a_term(t):
        c = math.cos(lambda_hat * t)
        s = math.sin(lambda_hat * t)
        return -2.0 * math.exp(-2.0 * decay * t) * c * (decay * c + lambda_hat * s)

    def b_term(t):
        return -omega_hat * math.sin(2.0 * omega_hat * t)

    def wronskian(t):
        return (a_term(t) * richardson_derivative(b_term, t, 1e-4)
                - richardson_derivative(a_term, t, 1e-4) * b_term(t))

    ts = np.linspace(start, start + math.pi / omega_hat, 400)
    ws = [wronskian(t) for t in ts]
    for t0, t1, w0, w1 in zip(ts[:-1], ts[1:], ws[:-1], ws[1:]):
        if w0 * w1 < 0:
            tau = brentq(wronskian, t0, t1, xtol=1e-14)
            b, a = b_term(tau), a_term(tau)
            u = b / (b - a) if b != a else -1.0
            return (math.acos(math.sqrt(u)), tau) if 0.0 < u < 1.0 else None
    return None


def ar1_steps(w: np.ndarray, a: complex) -> np.ndarray:
    """W_0 = w_0 and W_k = a W_(k-1) + w_k, one step at a time along the first axis.

    The complex recurrence of the field synthesis, on rows of any lanes,
    written into a new array.
    """
    paths = np.empty_like(w)
    paths[0] = w[0]
    for k in range(1, len(w)):
        paths[k] = a * paths[k - 1] + w[k]
    return paths


def field_covariance(c0: float, beta: float, omega: float, dt: float, n_steps: int) -> np.ndarray:
    """The (K+1, K+1) covariance C(t_j - t_k) of the field on the grid t_k = k dt.

    C(tau) = c0 exp(-beta |tau|) cos(omega tau), the Lorentzian autocorrelation
    the field realizations are to have, taken from the formula alone.
    """
    tau = dt * np.abs(np.subtract.outer(np.arange(n_steps + 1), np.arange(n_steps + 1)))
    return c0 * np.exp(-beta * tau) * np.cos(omega * tau)


def periodogram_reference(values, dt: float) -> np.ndarray:
    """Averaged periodogram dt |FFT|^2 / N of realizations ``values``, one 1-D record each.

    One ``np.fft.rfft`` per realization, the terms summed in order, then
    divided by the number of realizations.
    """
    power = 0.0
    for v in values:
        power = power + (dt / len(v)) * np.abs(np.fft.rfft(v)) ** 2
    return power / len(values)


def ensemble_paths(ic, p: SystemParams, fields: list, dt: float) -> tuple:
    """(m, w) of RK4 trajectories, one plain loop per field, stacked record-major.

    Each field's trajectory steps

        m' = mdot,  mdot' = -omega^2 m - kappa omega w E,
        w' = -beta_s (w + 1) + (kappa/omega) mdot E

    in Python floats by classic RK4, the field at a half step being the
    mean of its ends, with the operations grouped as the stochastic
    module groups them. Row i of each array is the trajectory of
    ``fields[i]``, sampled at t = k dt.
    """
    om2, k_fast, k_slow, bs = p.omega * p.omega, p.kappa * p.omega, p.kappa / p.omega, p.beta_s

    def rhs(m, md, w, e):
        return md, -om2 * m - k_fast * w * e, -bs * (w + 1.0) + k_slow * md * e

    ms, ws = [], []
    for field in fields:
        m, md, w = float(ic.m0), float(ic.mdot0), float(ic.w0)
        path_m, path_w = [m], [w]
        for e0, e1 in zip(field[:-1].tolist(), field[1:].tolist()):
            eh = 0.5 * (e0 + e1)
            a1, b1, c1 = rhs(m, md, w, e0)
            a2, b2, c2 = rhs(m + 0.5 * dt * a1, md + 0.5 * dt * b1, w + 0.5 * dt * c1, eh)
            a3, b3, c3 = rhs(m + 0.5 * dt * a2, md + 0.5 * dt * b2, w + 0.5 * dt * c2, eh)
            a4, b4, c4 = rhs(m + dt * a3, md + dt * b3, w + dt * c3, e1)
            m, md, w = (m + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                        md + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
                        w + (dt / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4))
            path_m.append(m)
            path_w.append(w)
        ms.append(path_m)
        ws.append(path_w)
    return np.array(ms), np.array(ws)


def ensemble_reference(ic, p: SystemParams, fields: list, dt: float) -> tuple:
    """(mean_m, mean_w, se_m, se_w) of the ``ensemble_paths`` trajectories: their
    ``mean(axis=0)`` and ``std(axis=0, ddof=1) / sqrt(n)``."""
    m, w = ensemble_paths(ic, p, fields, dt)
    root_n = math.sqrt(len(fields))
    return (m.mean(axis=0), w.mean(axis=0),
            m.std(axis=0, ddof=1) / root_n, w.std(axis=0, ddof=1) / root_n)


def hierarchy_means(p: SystemParams, s0, t, L: int) -> np.ndarray:
    """Exact ensemble means (m, mdot, w) at the times ``t`` (ascending, from 0 on).

    The trajectory equations above are linear in s = (m, mdot, w) plus the
    constant drive -beta_s on w, and the field is sigma (x cos omega t +
    y sin omega t) with sigma^2 = pi beta i0 and x, y independent unit
    Ornstein-Uhlenbeck processes at rate beta. The moments
    q_nk = E[s He_n(x) He_k(y)] / sqrt(n! k!) then obey the closed linear
    hierarchy (Shapiro & Loginov, Physica A 91, 563 (1978))

        q_nk' = (A - (n + k) beta) q_nk + b d_n0 d_k0
                + sigma B [cos omega t (sqrt(n+1) q_n+1,k + sqrt(n) q_n-1,k)
                           + sin omega t (sqrt(k+1) q_n,k+1 + sqrt(k) q_n,k-1)],

    with q_nk(0) = s0 d_n0 d_k0, since the stationary field starts
    independent of s0. The mean is q_00; the hierarchy is truncated at
    n + k <= L and solved by DOP853 (rtol 1e-10, atol 1e-12). It shares no
    approximation with the closed forms' second-order closure and no code
    with the Monte Carlo integrator.
    """
    t = np.asarray(t, dtype=float)
    index = [(n, k) for n in range(L + 1) for k in range(L + 1 - n)]
    where = {nk: i for i, nk in enumerate(index)}
    # x He_n = He_n+1 + n He_n-1 couples each moment to its neighbours in n (x) or k (y)
    ladder_x, ladder_y = np.zeros((2, len(index), len(index)))
    for i, (n, k) in enumerate(index):
        for ladder, neighbours in ((ladder_x, (((n + 1, k), n + 1), ((n - 1, k), n))),
                                   (ladder_y, (((n, k + 1), k + 1), ((n, k - 1), k)))):
            for nk, weight in neighbours:
                if nk in where:
                    ladder[i, where[nk]] = math.sqrt(weight)
    a = np.array([[0.0, 1.0, 0.0], [-p.omega**2, 0.0, 0.0], [0.0, 0.0, -p.beta_s]])
    b = math.sqrt(math.pi * p.beta * p.i0) * np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, -p.kappa * p.omega], [0.0, p.kappa / p.omega, 0.0]])
    level = np.diag([float(n + k) for n, k in index])
    base = np.kron(np.eye(len(index)), a) - p.beta * np.kron(level, np.eye(3))
    cos_part, sin_part = np.kron(ladder_x, b), np.kron(ladder_y, b)
    drive = np.zeros(3 * len(index))
    drive[2] = -p.beta_s

    def rhs(time, q):
        return (base @ q + math.cos(p.omega * time) * (cos_part @ q)
                + math.sin(p.omega * time) * (sin_part @ q) + drive)

    q0 = np.zeros(3 * len(index))
    q0[:3] = s0
    sol = solve_ivp(rhs, (0.0, float(t[-1])), q0, method="DOP853", t_eval=t,
                    rtol=1e-10, atol=1e-12)
    assert sol.success, sol.message
    return sol.y[:3]


def lorentzian_lsq(omega: np.ndarray, power: np.ndarray, p0) -> np.ndarray:
    """Least-squares (height, center, |hwhm|) of h g^2 / ((omega - c)^2 + g^2) from ``p0``.

    scipy's ``least_squares`` (trust-region reflective, xtol = ftol = gtol
    = 1e-15) with a complex-step Jacobian (Squire & Trapp 1998), exact to
    rounding. Its ftol stop compares costs, which leaves it about
    sqrt(eps) ~ 1e-8 short of the minimiser, so MINPACK's hybrid Powell
    root finder then solves J^T r = 0 from there to rounding level.
    """
    def residual(q):
        return q[0] * q[2] ** 2 / ((omega - q[1]) ** 2 + q[2] ** 2) - power

    def jacobian(q, h=1e-200):
        return np.stack([residual(q + 1j * h * e).imag / h for e in np.eye(3)], axis=1)

    q = least_squares(residual, np.asarray(p0, dtype=float), jac=jacobian,
                      xtol=1e-15, ftol=1e-15, gtol=1e-15).x
    sol = root(lambda q: jacobian(q).T @ residual(q), q, method="hybr", options={"xtol": 1e-10})
    assert sol.success, sol.message
    return np.array([sol.x[0], sol.x[1], abs(sol.x[2])])


def sweep_payload_reference(lambdas, omegas, ts, mode: str = "derived") -> tuple:
    """Sweep rows and CSV/JSON file bytes, one cell at a time.

    Each cell (lambda outer, omega, T inner) calls ``backflow_integral`` for
    both branches on its own config; the files are written by
    ``sweep_files_reference``. Rows are tuples in ``SweepPoint`` field order.
    """
    rows = []
    for lam in lambdas:
        for om in omegas:
            for t_max in ts:
                cfg = DimensionlessConfig(lambda_hat=float(lam), omega_hat=float(om),
                                          t_max=float(t_max))
                r_om, r_lam = (backflow_integral(b, cfg, mode) for b in BranchKind)
                winner = "lambda" if r_lam.n_value > r_om.n_value + 1e-10 else "omega"
                rows.append((cfg.lambda_hat, cfg.omega_hat, cfg.t_max, r_om.n_value,
                             r_lam.n_value, max(r_om.n_value, r_lam.n_value), winner,
                             r_om.intervals, r_lam.intervals))
    return (rows, *sweep_files_reference(rows))


def sweep_files_reference(rows: list) -> tuple[bytes, bytes]:
    """CSV and JSON file bytes of sweep rows (tuples in ``SweepPoint`` field
    order), written by ``csv.writer`` and ``json.dumps(indent=2)``."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["lambda", "omega", "T", "n_omega_branch", "n_lambda_branch", "n_max",
                     "winning_branch"])
    writer.writerows([f"{x:.12g}" for x in row[:6]] + [row[6]] for row in rows)
    keys = ("lambda", "omega", "T", "n_omega_branch", "n_lambda_branch", "n_max",
            "winning_branch")
    payload = [dict(zip(keys, row[:7]), intervals_omega=[list(iv) for iv in row[7]],
                    intervals_lambda=[list(iv) for iv in row[8]]) for row in rows]
    return text.getvalue().encode(), (json.dumps(payload, indent=2) + "\n").encode()


def richardson_derivative(f, t: float, h: float) -> float:
    """Fourth-order central difference (five-point Richardson form)."""
    return (8.0 * (f(t + h) - f(t - h)) - (f(t + 2 * h) - f(t - 2 * h))) / (12.0 * h)


def pair_distance_from_means(theta: float, p: SystemParams, t: np.ndarray) -> np.ndarray:
    """Trace distance of the antipodal pair from its derived ensemble means.

    The pair is (m, w) = (sin theta, cos theta) and its antipode. The trace
    distance of two qubit states is half the distance of their Bloch vectors,
    here the differences of ``mean_dipole`` and of ``mean_inversion``.
    """
    one = InitialCondition(math.sin(theta), math.cos(theta))
    two = InitialCondition(-one.m0, -one.w0)
    dm = mean_dipole(one, p, t) - mean_dipole(two, p, t)
    dw = mean_inversion(one, p, t) - mean_inversion(two, p, t)
    return 0.5 * np.hypot(dm, dw)


def params_for_rates(
    gamma: float, lam: float, omega: float, kappa: float = 1.0
) -> SystemParams:
    """SystemParams realizing prescribed (gamma, lambda, omega).

    Uses beta = beta_s = gamma, which forces lambda_sq = pi*i0*kappa^2*beta/2,
    so i0 = 2*lam^2 / (pi*kappa^2*gamma).
    """
    return SystemParams(
        omega=omega,
        kappa=kappa,
        beta_s=gamma,
        i0=2.0 * lam * lam / (math.pi * kappa * kappa * gamma),
        beta=gamma,
    )
