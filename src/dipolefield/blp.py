"""Backflow-of-information engine (BLP non-Markovianity measure).

Everything here is dimensionless: rates are measured in units of the
inversion damping rate and times as tau = gamma * t. The distinguishability
of an antipodal pure pair evolves as

    D(tau) = sqrt(cos^2(theta) * env(tau)^2 * cos^2(lambda_hat * tau)
                  + sin^2(theta) * cos^2(omega_hat * tau)),

with env = exp(-tau) in "derived" mode and exp(-tau/2) in "as-printed"
mode. Whenever D increases, distinguishability flows back; the measure
adds up the rises of D (the integral of the positive part of dD/dtau) and
maximizes over theta. On an interval where the rate is positive that
integral is exactly D(b) - D(a), so the engine telescopes wherever the
rate is the derivative of D. The maximum splits into two physical branches:

* omega branch  -- coherence pair: D = |cos(omega_hat tau)|, undamped;
  every completed rise adds 1 (``analytic_n_omega``);
* lambda branch -- inversion pair: D = env(tau) * |cos(lambda_hat tau)|;
  its rises form a geometric series.

Both are exp(-c tau)|cos(f tau)|, listed in one table that every branch
quantity reads (``_branches``): (f, c) = (omega_hat, 0) and (lambda_hat, c),
c = 1 or 1/2 the envelope rate. Each rise starts at a zero of the cosine and
ends after atan2(f, c)/f. ``_rise_count`` counts those begun before a time,
``_rises`` lists them and ``_branch_value`` sums them in closed form. One form
each gives the branch rates (``_rates``), distances (``_distances``, mixed by
``dynamics._mix``) and parts of the derived rate's numerator.

The interior angles are first certified in one array pass. Cut at the
quarter-period grid and the lambda-rise ends (``_cut_distances``), both
parts of D are monotone on every piece, which bounds each angle's backflow
from above (``_rise_bound``). An angle whose bound is below the larger
branch value by more than ``_CERTIFY_MARGIN`` cannot win and is not
scanned. The angles left are scanned elementwise in one array computation,
so the result equals a scan of every angle bit for bit: the positivity
intervals of the rate are bracketed on the quarter-period grid of both
cosines and refined by one vectorised root solve (``_chandrupatla``, whose
roots equal those of scipy's ``find_root`` bit for bit). The same locator
finds where the two branch rates cross on the pieces where both rise, the
only ones where the faster branch can change, so the pointwise maximum of
``literal_pointwise_max`` telescopes too.

Only "derived" mode scans interior angles. The printed interior rate is
not the derivative of any printed distance, and its backflow has no
grid-independent maximum over theta: it grows like c ln(1/theta) as
theta -> 0, and where c = 0 its limit there is not the theta = 0 value
(see the README's "Known model limits"). "as-printed" mode therefore
reports the larger of its two branch values, as ``sweep_grid`` and
``dominant_regime`` do, and ``sigma_rate`` is the derived rate alone. The
printed rate is kept only as a test oracle (tests/oracles.py).

The "as-printed" expressions keep the original theta labels, which attach
theta = 0 to the coherence integrand; branch identity is therefore tracked
by ``BranchKind`` (physical pair), never by theta.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .dynamics import (MAX_QUARTER_PERIODS, ArrayLike, FormulaSource, _check_mode, _check_quarters,
                       _check_theta, _envelope_decay, _mix)
from .model import DimensionlessConfig

__all__ = [
    "BranchKind",
    "BackflowResult",
    "KinkWarning",
    "sigma_rate",
    "backflow_integral",
    "analytic_n_omega",
    "n_measure",
    "literal_pointwise_max",
    "dominant_regime",
    "SweepPoint",
    "SweepGrid",
    "sweep_grid",
    "write_sweep_csv",
    "write_sweep_json",
]

#: ties between branch integrals within this margin resolve to the omega branch
TIE_TOL = 1e-10
#: distances below this are treated as exact zeros (kinks) of D
_KINK_TOL = 1e-12
#: cap on the (owner, gap, sample) values of one positivity-interval scan,
#: checked before they are allocated; each value costs about 80 bytes of
#: peak memory (a 65-angle derived scan of 2**21 values peaks near 250 MB)
MAX_SCAN_SAMPLES = 2**21
#: samples per gap of the breakpoint grid in a positivity-interval scan
_SCAN_SAMPLES = 9
#: halvings of a sampled gap that may hide a root pair: 24, the first count that leaves
#: it narrower than 1e-7 of its width
_HALVINGS = 24
#: an interior angle whose rise bound is below the larger branch value M by
#: more than this times (1 + M) cannot win and is not scanned; the bound and
#: the scan each round by a few ulps per piece or interval, at most about
#: 1e-10 (1 + M) over the 2**21 / 9 gaps the scan cap allows
_CERTIFY_MARGIN = 1e-9
#: cap on the cells of one sweep, checked before any is evaluated; written a chunk at
#: a time, a 64 x 64 x 64 JSON sweep peaks 7.1 MB above a one-cell one, but the
#: (omega, T) interval texts, one per pair though each rise is rendered once, take a
#: 1 x 512 x 512 one to 201 MB
MAX_SWEEP_CELLS = 2**18
#: cap on the rise intervals of one JSON sweep, counted (``_rise_count``) before any rise is built:
#: on a 2-vCPU Xeon, 1 x 1 x 4 cells at omega 1600 and T 1000 list 2.04e6 and peak at 442 MB
MAX_SWEEP_INTERVALS = 2**21


class BranchKind(str, Enum):
    """Physical branch of the backflow: coherence (omega) or inversion (lambda).

    Members iterate in that order, omega first.
    """

    OMEGA = "omega"
    LAMBDA = "lambda"


#: physical branch at theta = 0 and at theta = pi/2, per mode
_ENDPOINT_BRANCHES = {
    "derived": (BranchKind.LAMBDA, BranchKind.OMEGA),
    "as-printed": (BranchKind.OMEGA, BranchKind.LAMBDA),
}


class KinkWarning(UserWarning):
    """The trace distance has a kink (exact zero) at the requested time."""


@dataclass(frozen=True)
class BackflowResult:
    """Backflow integral with its positivity intervals.

    ``n_omega_branch``/``n_lambda_branch`` carry the two endpoint-branch
    surfaces when produced by ``n_measure``; single-target calls leave
    them None. ``winning_branch`` is None for an interior-theta target.
    """

    n_value: float
    winning_branch: BranchKind | None
    theta_star: float
    intervals: tuple[tuple[float, float], ...]
    n_omega_branch: float | None = None
    n_lambda_branch: float | None = None


def _branches(cfg: DimensionlessConfig, decay: float = _envelope_decay("derived")) -> tuple:
    """The branch table, (f, c) in ``BranchKind`` order: (omega_hat, 0), (lambda_hat, decay)."""
    return (cfg.omega_hat, 0.0), (cfg.lambda_hat, decay)


def _lambda_wins(n_omega: ArrayLike, n_lambda: ArrayLike) -> ArrayLike:
    """The winner rule, on floats or arrays: the lambda branch wins iff it
    beats the omega branch by more than TIE_TOL."""
    return n_lambda > n_omega + TIE_TOL


def _winner(n_omega: float, n_lambda: float) -> BranchKind:
    return BranchKind.LAMBDA if _lambda_wins(n_omega, n_lambda) else BranchKind.OMEGA


# ---------------------------------------------------------------------------
# rate of change of the trace distance
# ---------------------------------------------------------------------------

def _rate_numerator(u: ArrayLike, tau: ArrayLike, branches: tuple) -> ArrayLike:
    """Numerator d(D^2)/dtau of the derived rate num / den; it carries the rate's sign. Each
    branch adds d/dtau (e^{-c tau} cos f tau)^2 = -e^{-2c tau}(2c cos^2 f tau + f sin 2f tau),
    weighted 1 - u and u in table order. ``u`` and ``tau`` broadcast."""
    def part(f: float, c: float) -> ArrayLike:
        cos = np.cos(f * tau)
        # the phase (2 f) tau of the term table, which differs from 2 (f tau) where f tau is
        # subnormal; 2 (f tau) where 2 f overflows
        phase = 2.0 * f * tau if 2.0 * f < math.inf else 2.0 * (f * tau)
        return -np.exp(-2.0 * c * tau) * (2.0 * c * cos * cos + f * np.sin(phase))

    om, lam = (part(f, c) for f, c in branches)
    return (1.0 - u) * om + u * lam


def _rates(branches: Sequence[tuple[float, float]], tau: ArrayLike) -> np.ndarray:
    """Each branch's |d/dtau e^{-c tau} cos(f tau)| = e^{-c tau}|f sin(f tau) + c cos(f tau)| at
    ``tau``, one row per branch; between zeros it is hypot(f, c) e^{-c tau}|cos(f tau - phi)|."""
    return np.array([np.exp(-c * tau) * abs(f * np.sin(f * tau) + c * np.cos(f * tau))
                     for f, c in branches])


def sigma_rate(theta: float, cfg: DimensionlessConfig, tau: float) -> float:
    """dD/dtau of the derived pair distance at mixing angle theta (units of gamma).

    At isolated zeros of D, which occur only along the endpoint branches,
    the two-sided derivative does not exist; the right-sided limit, the one
    the backflow integrates, is returned and a ``KinkWarning`` is issued.
    The printed interior rate is not the derivative of any printed distance
    and is not evaluated here (see the module docstring).
    Raises ValueError for theta outside [0, pi/2], for a non-finite tau,
    and wherever the rate overflows (e^{-2 tau} below -log(DBL_MAX)/2) or a
    phase f tau exceeds DBL_MAX.
    """
    _check_theta(theta)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    u, branches = math.cos(theta) ** 2, _branches(cfg)
    try:
        with np.errstate(over="raise", invalid="raise"):  # invalid: the cosine of an inf phase
            num = _rate_numerator(u, tau, branches)
            den = 2.0 * _mix(u, *_distances(branches, tau))
            if den > 2.0 * _KINK_TOL:
                return float(num / den)
            warnings.warn(
                f"rate denominator vanishes at tau={tau}; returning the right-sided limit",
                KinkWarning,
                stacklevel=2,
            )
            # the branch rates, combined as the distance combines them
            return float(_mix(u, *_rates(branches, tau)))
    except FloatingPointError:
        raise ValueError(f"the derived rate overflows at tau={tau}: an exponent exceeds "
                         "log(DBL_MAX) or a product or phase DBL_MAX") from None


# ---------------------------------------------------------------------------
# branch rises: exp(-decay tau)|cos(freq tau)|, decay 0 (omega) or the envelope rate (lambda)
# ---------------------------------------------------------------------------

def _branch_value(freq: ArrayLike, decay: ArrayLike, t_max: ArrayLike) -> np.ndarray:
    """Total rise of exp(-c tau)|cos(f tau)| over [0, T], elementwise over broadcast arrays.

    With x = f T, k = floor(x/pi), r = x - k pi and phi = atan2(f, c), the
    rises that end by T number K = k + [r >= pi/2 + phi]; rise j adds
    sin(phi) e^{-c((j + 1/2) pi + phi)/f}, so they sum to
    sin(phi) e^{-c(phi + pi/2)/f} (1 - q^K)/(1 - q), q = e^{-c pi/f}, or to K
    when c = 0. A rise that T cuts short (pi/2 < r < pi/2 + phi) adds
    e^{-c T}|cos x|. At c = 0 this is floor(x/pi) plus the partial rise.
    """
    f, c, t = (np.asarray(v, dtype=float) for v in (freq, decay, t_max))
    x = f * t
    k = np.floor(x / np.pi)
    r = x - k * np.pi
    phi = np.arctan2(f, c)
    done = k + (r >= np.pi / 2 + phi)
    partial = np.where((np.pi / 2 < r) & (r < np.pi / 2 + phi),
                       np.exp(-c * t) * np.abs(np.cos(x)), 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # f = 0 or c = 0
        a = c * np.pi / f
        geometric = (np.sin(phi) * np.exp(-c * (phi + np.pi / 2) / f)
                     * np.expm1(-a * done) / np.expm1(-a))
    return np.where((c > 0.0) & (done > 0.0), geometric, done) + partial


def _rise_count(freq: float, t_max: float) -> int:
    """How many rises of exp(-c tau)|cos(freq tau)|, any c, begin before t_max: the zeros
    (2 j + 1) q of the cosine below it, q = pi/(2 freq). Over ``MAX_QUARTER_PERIODS`` raises
    ValueError."""
    _check_quarters(freq, t_max)
    q = math.pi / (2.0 * freq) if freq > 0.0 else math.inf  # f = 0 or subnormal: no rise
    k = int(t_max / (2.0 * q)) + 1  # the zeros (2 j + 1) q, j < k; under the quarter
    return k - ((2 * k - 1) * q >= t_max)  # cap only the last can reach t_max


def _rises(branches: Sequence[tuple[float, float]], t_max: float) -> tuple:
    """Starts and ends of the rises in [0, t_max] of exp(-c tau)|cos(f tau)| for each branch
    (f, c), branch after branch, and the index of each branch's first rise (and of the end).

    Each starts at a zero z of the cosine and ends at z + atan2(f, c)/f (a quarter period if
    c = 0). A branch over ``MAX_QUARTER_PERIODS`` raises ValueError before any rise is built.
    """
    quarter, reach, n, first = [], [], [], [0]
    for f, c in branches:
        n.append(k := _rise_count(f, t_max))
        quarter.append(math.pi / (2.0 * f) if k else 0.0)
        reach.append(math.atan2(f, c) / f if k else 0.0)
        first.append(first[-1] + k)
    # one row per rise: its branch's quarter period, reach and first index (an exact integer)
    q, r, off = np.repeat(np.array([quarter, reach, first[:-1]]), n, axis=1)
    zeros = (np.arange(1, 2 * first[-1], 2) - 2 * off) * q  # (2 j + 1) q
    return zeros, np.minimum(zeros + r, t_max), first


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """The distinct values of a float array without NaN, sorted: ``np.unique`` without
    the ``numpy.ma`` import it makes on first use."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _rise_intervals(branches: Sequence[tuple[float, float]], t_max: float) -> tuple:
    """The ``_rises`` of each branch as a tuple of (start, end) pairs, from one call."""
    zeros, ends, first = _rises(branches, t_max)
    pairs = list(zip(zeros.tolist(), ends.tolist()))
    return tuple(tuple(pairs[i:j]) for i, j in zip(first, first[1:]))


def _distances(branches: Sequence[tuple[float, float]], tau: ArrayLike) -> np.ndarray:
    """Each branch's distance e^{-c tau}|cos(f tau)| at ``tau``, one row per branch."""
    return np.array([np.exp(-c * tau) * np.abs(np.cos(f * tau)) for f, c in branches])


def _cut_distances(branches: tuple, t_max: float, *cuts: np.ndarray) -> tuple:
    """The distinct ``cuts`` and lambda-rise ends up to t_max, sorted, and the ``_distances``
    there; with the quarter-period grid among the cuts both are monotone between them."""
    cuts = _sorted_unique(np.concatenate((*cuts, _rises(branches[1:], t_max)[1])))
    return cuts, _distances(branches, cuts)


# ---------------------------------------------------------------------------
# positivity-interval location
# ---------------------------------------------------------------------------

def _breakpoints(branches: Sequence[tuple[float, float]], t_max: float) -> np.ndarray:
    """Quarter-period grid of every branch frequency, bounding every sign change."""
    pts = [np.array([0.0, t_max])]
    for f, _ in branches:
        if f > 0.0:
            step = math.pi / (2.0 * f)
            _check_quarters(f, t_max)
            pts.append(np.arange(1, int(t_max / step) + 2) * step)
    grid = _sorted_unique(np.concatenate(pts))
    return grid[grid <= t_max]


def _numerator_terms(u: np.ndarray, branches: tuple) -> tuple:
    """(a, r, f) of the terms a e^{-r tau} cos(f tau + phi) summing to ``_rate_numerator``: a
    branch of weight w adds (w c, 2c, 0) and (w hypot(c, f), 2c, 2f). Lambda's come first, so
    sums over the terms add as in the hand-expanded form (omega's constant term adds +0)."""
    return tuple(term for w, (f, c) in reversed(tuple(zip((1.0 - u, u), branches)))
                 for term in ((w * c, 2.0 * c, 0.0), (w * math.hypot(c, f), 2.0 * c, 2.0 * f)))


def _numerator_curvature(terms: tuple, k: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> np.ndarray:
    """Bound on |d^2/dtau^2| over [lo, hi] of the sum of a term table, for owners k.

    Each term's second derivative is at most a (r^2 + f^2) e^{-r tau},
    largest at lo for a decaying term and at hi for a growing one.
    """
    return sum(a[k] * (r * r + f * f) * np.exp(-r * (lo if r > 0 else hi))
               for a, r, f in terms)


def _check_sweep(n_lambda: int, n_omega: int, n_t: int) -> None:
    """Reject a sweep of more than ``MAX_SWEEP_CELLS`` lambda x omega x T cells."""
    if (cells := n_lambda * n_omega * n_t) > MAX_SWEEP_CELLS:
        raise ValueError(f"the sweep has {n_lambda} x {n_omega} x {n_t} = {cells} cells, over "
                         f"the cap of {MAX_SWEEP_CELLS} (blp.MAX_SWEEP_CELLS)")


def _check_scan(owners: int, gaps: int) -> None:
    """Reject a positivity scan of more than ``MAX_SCAN_SAMPLES`` owners x gaps x samples."""
    if (values := owners * gaps * _SCAN_SAMPLES) > MAX_SCAN_SAMPLES:
        raise ValueError(f"the positivity scan needs {owners} owners x {gaps} gaps x "
                         f"{_SCAN_SAMPLES} samples = {values:.3g} values, over the cap of "
                         f"{MAX_SCAN_SAMPLES} (blp.MAX_SCAN_SAMPLES)")


def _sign_changes(fn: Callable, terms: tuple, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points where fn(tau, k) changes sign or vanishes within the gaps [lo, hi], for every owner k.

    fn is a sum of terms a e^{-r tau} cos(f tau + phi), listed in ``terms``
    as (a, r, f) with one amplitude a per owner. Returns the points and their
    owners, unsorted. fn is sampled at ``_SCAN_SAMPLES`` points per gap, for
    all owners in one array call. A value within its rounding error of zero
    is a root. A gap whose ends share a sign hides a root pair only if
    min(|fn(lo)|, |fn(hi)|) <= max|fn''| (hi - lo)^2 / 8, so such gaps are
    halved until ``_numerator_curvature`` clears them or they are narrower
    than 1e-7 of the sampled gap they came from (``_HALVINGS`` halvings,
    whatever the time scale); a gap whose bound overflows is not halved,
    since no width clears it. All sign changes are refined in one
    Chandrupatla solve, which runs even when there is none. Raises
    ValueError past ``MAX_SCAN_SAMPLES`` owners x gaps x samples.
    """
    size = terms[0][0].size
    _check_scan(size, lo.size)

    def h(tau: np.ndarray, k: np.ndarray) -> np.ndarray:
        # rounding: a few ulps of each term a e^{-r tau}, plus what the
        # rounding of its argument f tau carries into the cosine
        noise = sum(a[k] * np.exp(-r * tau) * (1.0 + f * tau) for a, r, f in terms)
        val = fn(tau, k)
        return np.where(abs(val) <= 16.0 * np.finfo(float).eps * noise, 0.0, val)

    xs = np.linspace(lo, hi, _SCAN_SAMPLES, axis=1)
    hs = h(xs, np.arange(size)[:, None, None])  # time factors once per (gap, sample)
    xs = np.broadcast_to(xs, hs.shape)
    k = np.broadcast_to(np.arange(size)[:, None, None], hs.shape)
    points, owners = [xs[hs == 0.0]], [k[hs == 0.0]]
    lo, hi, kk = xs[..., :-1].ravel(), xs[..., 1:].ravel(), k[..., 1:].ravel()
    h_lo, h_hi = hs[..., :-1].ravel(), hs[..., 1:].ravel()
    brackets = []
    for depth in range(_HALVINGS + 1):  # every gap left has been halved depth times
        sign = np.sign(h_lo) * np.sign(h_hi)  # h_lo * h_hi can overflow
        change = sign < 0.0
        brackets.append((lo[change], hi[change], kk[change]))
        width = hi - lo
        # an overflowing bound (inf) is inf at any width, so no halving clears its gap; a
        # NaN one, an infinite curvature times an underflowed width**2, clears nothing either
        with np.errstate(over="ignore", invalid="ignore"):
            bound = _numerator_curvature(terms, kk, lo, hi) * width**2 / 8.0
        hidden = np.minimum(abs(h_lo), abs(h_hi)) <= bound
        split = (sign > 0.0) & hidden & (bound < np.inf) & (depth < _HALVINGS)
        lo, hi, h_lo, h_hi, kk = (x[split] for x in (lo, hi, h_lo, h_hi, kk))
        if not lo.size:
            break
        mid = 0.5 * lo + 0.5 * hi  # halves, so that lo + hi past DBL_MAX does not overflow
        h_mid = h(mid, kk)
        points.append(mid[h_mid == 0.0])
        owners.append(kk[h_mid == 0.0])
        lo, hi, kk = np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.concatenate((kk, kk))
        h_lo, h_hi = np.concatenate((h_lo, h_mid)), np.concatenate((h_mid, h_hi))
    lo, hi, kk = (np.concatenate(c) for c in zip(*brackets))
    return (np.concatenate((_chandrupatla(fn, lo, hi, kk), *points)),
            np.concatenate((kk, *owners)))


def _sign_intervals(fn: Callable, terms: tuple,
                    grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intervals (a, b) of [grid[0], grid[-1]] where fn(tau, k) > 0, for every owner k at once.

    The ends are those of the span and the ``_sign_changes`` in the gaps of
    ``grid``; the intervals are sorted by owner, then by time. An interval no
    wider than 1e-14 of its end, a root found twice, is dropped: a tolerance
    relative to tau, so that it holds at every time scale.
    """
    size = terms[0][0].size
    roots, kk = _sign_changes(fn, terms, grid[:-1], grid[1:])
    every = np.arange(size)
    pts = np.concatenate((np.full(size, grid[0]), np.full(size, grid[-1]), roots))
    owner = np.concatenate((every, every, kk))
    order = np.lexsort((pts, owner))
    pts, owner = pts[order], owner[order]
    keep = (owner[:-1] == owner[1:]) & (np.diff(pts) > 1e-14 * pts[1:])
    a, b, owner = pts[:-1][keep], pts[1:][keep], owner[:-1][keep]
    keep = fn(0.5 * a + 0.5 * b, owner) > 0.0
    return a[keep], b[keep], owner[keep]


def _chandrupatla(fn: Callable, lo: np.ndarray, hi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Root of fn(tau, k) in each bracket [lo, hi], by Chandrupatla's method.

    Chandrupatla, Adv. Eng. Softw. 28, 145 (1997), with the steps, tolerances
    and stopping tests of scipy's ``find_root`` at its defaults, so the roots
    equal its ``x`` bit for bit. Each step takes the inverse quadratic
    interpolant through the last three points where its acceptance test
    holds, else the midpoint, kept at least half the tolerance from either
    end. An element stops at the end with the smaller |f| once that |f| is at
    most tiny; with NaN once its ends share a sign, an end is not finite or
    both values are NaN; else once the bracket is narrower than
    4 tiny + 4 eps |root|. Stopped elements leave the arrays. At most 2046
    steps, scipy's cap: the bisections from the largest normal float down to
    the smallest.
    """
    tiny, eps = np.finfo(float).smallest_normal, np.finfo(float).eps
    x1, x2 = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    f1, f2 = fn(x1, k), fn(x2, k)
    ftol = tiny + 0.0 * np.minimum(abs(f1), abs(f2))  # NaN for an infinite end, as in scipy
    x3, f3, idx, t = x2, f2, np.arange(x1.size), 0.5
    out = np.empty(x1.size)
    for step in range(2047):
        near = abs(f1) < abs(f2)
        xmin, fmin = np.where(near, x1, x2), np.where(near, f1, f2)
        met = abs(fmin) <= ftol
        failed = ~met & ((np.sign(f1) == np.sign(f2)) | ~(np.isfinite(x1) & np.isfinite(x2))
                         | (np.isnan(f1) & np.isnan(f2)))
        xmin[failed] = np.nan
        dx, tol = abs(x2 - x1), abs(xmin) * (4.0 * eps) + 4.0 * tiny
        go = ~(met | failed | (dx < tol))
        out[idx] = xmin
        if step == 2046 or not go.any():
            return out
        x1, f1, x2, f2, x3, f3, k, idx, ftol, dx, tol = (
            v[go] for v in (x1, f1, x2, f2, x3, f3, k, idx, ftol, dx, tol))
        if step:
            with np.errstate(divide="ignore", invalid="ignore"):
                xi1, phi1 = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                iqi = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        x = x1 + t * (x2 - x1)
        f = fn(x, k)
        same = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f


# ---------------------------------------------------------------------------
# backflow values: telescoped rises
# ---------------------------------------------------------------------------

def _interior_scan(
    thetas: np.ndarray, cfg: DimensionlessConfig, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derived backflow at each interior angle, and the positivity intervals (a, b, angle index).

    ``grid`` is ``_breakpoints`` of cfg. Each angle's value and intervals are
    computed elementwise, so they do not depend on which other angles are scanned.
    """
    branches, u = _branches(cfg), np.cos(thetas) ** 2
    with np.errstate(over="ignore"):  # e^{-2 c tau} with 2 c tau past DBL_MAX: 0, its limit
        a, b, owner = _sign_intervals(lambda tau, k: _rate_numerator(u[k], tau, branches),
                                      _numerator_terms(u, branches), grid)
    d = _mix(u[owner], *_distances(branches, np.stack((a, b))))
    totals = np.bincount(owner, d[1] - d[0], minlength=u.size)
    return np.maximum(totals, 0.0), a, b, owner


def _rise_bound(thetas: np.ndarray, cfg: DimensionlessConfig, grid: np.ndarray) -> np.ndarray:
    """Upper bound B >= N on the derived backflow at each interior angle.

    D = sqrt(u a^2 + (1 - u) b^2) with u = cos^2(theta), a = e^{-tau}|cos lam tau|
    and b = |cos om tau|. Cut at ``grid`` (``_breakpoints`` of cfg) and at the
    lambda-rise ends (``_cut_distances``), a and b are monotone on every piece [p, q], and D
    rises there by at most D_q - sqrt(u min(a)^2 + (1 - u) min(b)^2), with
    the minima over the piece ends. Where a and b rise together that is
    D_q - D_p, and where they fall together it is 0. Where a falls and b
    rises, D >= F = sqrt(u a_q^2 + (1 - u) b^2), so D' <= (1 - u) b b'/D <= F'
    and D rises by at most F_q - F_p, the same term; the mirror case swaps
    a and b. The bound is exact at u = 0 and u = 1.
    """
    d = _cut_distances(_branches(cfg), cfg.t_max, grid)[1]
    u = np.cos(thetas)[:, None] ** 2
    return np.sum(_mix(u, *d[:, 1:]) - _mix(u, *np.minimum(d[:, :-1], d[:, 1:])), axis=1)


def backflow_integral(
    target: Union[BranchKind, float],
    cfg: DimensionlessConfig,
    mode: FormulaSource = "derived",
) -> BackflowResult:
    """Integral of the positive part of the distance rate over [0, cfg.t_max].

    ``target`` selects a physical branch (``BranchKind``) or a mixing angle
    theta in [0, pi/2]; every single-angle result is built here. A branch
    value is its closed form, evaluated after its rises are listed, so a
    horizon over ``MAX_QUARTER_PERIODS`` raises ValueError before it. An
    interior angle runs the scan ``n_measure`` runs over all its angles:
    positivity intervals bracketed on the quarter-period grid of both
    cosines, refined by root-finding, each adding D(b) - D(a) exactly.

    Endpoint angles are routed to the branch integrands: in "derived" mode
    theta = 0 is the inversion (lambda) pair and theta = pi/2 the coherence
    (omega) pair; "as-printed" mode keeps the original swapped labels
    (theta = 0 -> omega integrand, theta = pi/2 -> lambda integrand). An
    interior theta in "as-printed" mode raises ``ValueError``: the printed
    interior rate is not the derivative of any printed distance.
    """
    _check_mode(mode)
    ends, eps = _ENDPOINT_BRANCHES[mode], 1e-12
    if not isinstance(target, BranchKind):
        theta = _check_theta(float(target))
        if eps <= theta <= math.pi / 2 - eps:
            if mode != "derived":
                raise ValueError(f"theta = {theta} is interior: the as-printed interior rate is "
                                 "not the derivative of any printed distance, and its backflow "
                                 "has no grid-independent maximum over theta; only theta = 0 "
                                 "and pi/2 (the two branches) are defined in as-printed mode")
            values, a, b, _ = _interior_scan(np.array([theta]), cfg,
                                             _breakpoints(_branches(cfg), cfg.t_max))
            return BackflowResult(n_value=float(values[0]), winning_branch=None, theta_star=theta,
                                  intervals=tuple(zip(a.tolist(), b.tolist())))
        target = ends[theta > eps]
    branch = dict(zip(BranchKind, _branches(cfg, _envelope_decay(mode))))[target]
    intervals = _rise_intervals([branch], cfg.t_max)[0]  # refuses an overlong horizon first
    return BackflowResult(n_value=float(_branch_value(*branch, cfg.t_max)), winning_branch=target,
                          theta_star=math.pi / 2 * ends.index(target), intervals=intervals)


# ---------------------------------------------------------------------------
# analytic coherence-branch measure
# ---------------------------------------------------------------------------

def analytic_n_omega(omega_hat: float, t_max: float) -> float:
    """Closed form of the coherence-branch backflow.

    Counts the completed half-periods of |cos| plus the current partial
    rise: floor(x/pi) + |cos x| if x mod pi > pi/2 else floor(x/pi), with
    x = omega_hat * t_max. Both arguments go through ``DimensionlessConfig``,
    so a negative or non-finite one raises ValueError, as does an x over
    ``MAX_QUARTER_PERIODS`` quarter periods.
    """
    cfg = DimensionlessConfig(0.0, omega_hat, t_max)
    _check_quarters(cfg.omega_hat, cfg.t_max)
    return float(_branch_value(cfg.omega_hat, 0.0, cfg.t_max))


# ---------------------------------------------------------------------------
# full measure, pointwise-max variant, regime classification
# ---------------------------------------------------------------------------

def n_measure(
    cfg: DimensionlessConfig,
    mode: FormulaSource = "derived",
    theta_grid_size: int = 65,
) -> BackflowResult:
    """Backflow measure over [0, cfg.t_max], maximized over the pair angle theta.

    In "derived" mode theta runs over a uniform grid of [0, pi/2] including
    both endpoints (which reduce to the two branch integrands). "as-printed"
    mode scores only its two endpoint angles, as its interior rate has no
    grid-independent maximum (see ``backflow_integral``): its value is the
    larger branch value, and ``theta_grid_size`` is checked but unused. The
    result carries the maximum (the first one, so a tie keeps theta = 0),
    the maximizing angle, both endpoint-branch values, and the positivity
    intervals of the winner. ``winning_branch`` compares the two branch
    surfaces, resolving ties within 1e-10 to the omega branch. A branch over
    ``MAX_QUARTER_PERIODS`` raises ValueError before any value is computed, and a
    derived scan past ``MAX_SCAN_SAMPLES`` before its angles are built.

    Only the interior angles that the rise bound cannot rule out are scanned,
    for their values: an angle whose bound is below the larger branch value M
    by more than 1e-9 (1 + M) (``_CERTIFY_MARGIN``) cannot be a maximum. The
    scan is elementwise, so an interior winner's intervals are those of
    ``backflow_integral`` at its angle. An interior angle can win (README).
    """
    _check_mode(mode)
    if theta_grid_size < 2:
        raise ValueError("theta_grid_size must be at least 2")
    branches, t_max = _branches(cfg, _envelope_decay(mode)), cfg.t_max
    for f, _ in branches:  # an overlong horizon raises before any branch value overflows
        _check_quarters(f, t_max)
    n_omega, n_lambda = _branch_value(*np.array(branches).T, t_max).tolist()
    value = dict(zip(BranchKind, (n_omega, n_lambda)))
    ends = _ENDPOINT_BRANCHES[mode]
    if mode == "derived":  # refuse a scan over the cap before its angles are built
        grid = _breakpoints(branches, t_max)
        _check_scan(theta_grid_size - 2, max(grid.size - 1, 1))
    thetas = np.linspace(0.0, math.pi / 2, theta_grid_size if mode == "derived" else 2)
    # a certified angle keeps -inf: its value is below the larger branch value
    values = np.concatenate(([value[ends[0]]], np.full(thetas.size - 2, -np.inf),
                             [value[ends[1]]]))
    if thetas.size > 2:
        best = max(n_omega, n_lambda)
        bound = _rise_bound(thetas[1:-1], cfg, grid)
        scan = np.flatnonzero(bound >= best - _CERTIFY_MARGIN * (1.0 + best))
        if scan.size:
            values[scan + 1] = _interior_scan(thetas[1:-1][scan], cfg, grid)[0]
    k = int(np.argmax(values))  # first maximum
    if k in (0, thetas.size - 1):
        intervals = _rise_intervals([dict(zip(BranchKind, branches))[ends[k > 0]]], t_max)[0]
    else:  # the scan is elementwise, so one angle rescanned gives the same bits
        intervals = backflow_integral(float(thetas[k]), cfg).intervals
    return BackflowResult(
        n_value=float(values[k]),
        winning_branch=_winner(n_omega, n_lambda),
        theta_star=float(thetas[k]),
        intervals=intervals,
        n_omega_branch=n_omega,
        n_lambda_branch=n_lambda,
    )


def literal_pointwise_max(cfg: DimensionlessConfig, mode: FormulaSource = "derived") -> float:
    """Integral over [0, cfg.t_max] of the pointwise maximum of the two branch integrands.

    This is the literal reading of the single-integral form of the
    measure; the max-of-integrals semantics of ``n_measure`` is the one
    matching the two-surface figures. Both are exposed so they can be
    compared; this one is always >= max of the branch integrals.

    The integral telescopes. Cut [0, t_max] at the quarter-period grid and
    the lambda-rise ends: on each piece neither branch rate changes sign. A
    piece where a branch distance falls adds the other's rise, or 0. Only
    where both rise can the larger rate change hands, at a sign change of
    the rates' difference
    g = |om sin om tau| - e^{-c tau}|lam sin lam tau + c cos lam tau|,
    so those pieces alone are searched for them (as in the theta scan) and
    cut there. Then every piece adds
    max(D_omega(b) - D_omega(a), D_lambda(b) - D_lambda(a), 0).
    Where both rates are small, the difference of their squares is below
    its rounding error, while g still locates the crossing to an ulp.
    """
    _check_mode(mode)
    branches, t_max = _branches(cfg, _envelope_decay(mode)), cfg.t_max
    grid = _breakpoints(branches, t_max)
    _check_scan(1, grid.size - 1)  # the cap of a scan of every piece, before any is built
    cuts, d = _cut_distances(branches, t_max, grid)
    both = np.all(np.diff(d) > 0.0, axis=0)
    crossings, _ = _sign_changes(lambda tau, _k: np.subtract(*_rates(branches, tau)),
                                 tuple((np.full(1, math.hypot(f, c)), c, f) for f, c in branches),
                                 cuts[:-1][both], cuts[1:][both])
    _, d = _cut_distances(branches, t_max, cuts, crossings)
    return float(np.sum(np.maximum(np.max(np.diff(d), axis=0), 0.0)))


def dominant_regime(
    lambda_hat: float,
    omega_hat: float,
    t_max: float,
    mode: FormulaSource = "derived",
) -> BranchKind:
    """Which branch dominates the backflow over [0, t_max].

    Returns the lambda branch iff its integral strictly exceeds the omega
    branch by more than 1e-10; ties resolve to the omega branch. The closed
    forms list no rises, so no quarter-period cap applies, but a branch phase
    f T that is not finite raises ValueError before any value is computed.
    """
    _check_mode(mode)
    cfg = DimensionlessConfig(lambda_hat=lambda_hat, omega_hat=omega_hat, t_max=t_max)
    if not math.isfinite(max(cfg.lambda_hat, cfg.omega_hat) * cfg.t_max):
        raise ValueError(f"a branch phase f T is not finite at T = {cfg.t_max:.6g}")
    return _winner(*(float(_branch_value(f, c, cfg.t_max))
                     for f, c in _branches(cfg, _envelope_decay(mode))))


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a (lambda_hat, omega_hat, t_max) sweep."""

    lambda_hat: float
    omega_hat: float
    t_max: float
    n_omega_branch: float
    n_lambda_branch: float
    n_max: float
    winning_branch: str
    intervals_omega: tuple[tuple[float, float], ...]
    intervals_lambda: tuple[tuple[float, float], ...]


@dataclass(frozen=True, eq=False)
class SweepGrid(Sequence[SweepPoint]):
    """A sweep as its axes, the value tables per (omega, T) and per (lambda, T), and the
    lambda envelope rate; as a sequence, its cells as read-only ``SweepPoint`` rows, lambda
    outermost and T innermost, built with their rise intervals when indexed by an integer."""

    lambdas: tuple[float, ...]
    omegas: tuple[float, ...]
    ts: tuple[float, ...]
    n_omega: np.ndarray  # [omega, T]
    n_lambda: np.ndarray  # [lambda, T]
    lambda_decay: float

    def __len__(self) -> int:
        return len(self.lambdas) * len(self.omegas) * len(self.ts)

    def __getitem__(self, index: int) -> SweepPoint:
        rest, k = divmod(range(len(self))[index], len(self.ts))
        i, j = divmod(rest, len(self.omegas))
        lam, om, t = self.lambdas[i], self.omegas[j], self.ts[k]
        n_om, n_lam = float(self.n_omega[j, k]), float(self.n_lambda[i, k])
        branches = _branches(DimensionlessConfig(lam, om, t), self.lambda_decay)
        return SweepPoint(lam, om, t, n_om, n_lam, max(n_om, n_lam), _winner(n_om, n_lam).value,
                          *_rise_intervals(branches, t))


def sweep_grid(lambdas: Sequence[float], omegas: Sequence[float], ts: Sequence[float],
               mode: FormulaSource = "derived") -> SweepGrid:
    """Evaluate both branch integrals on the full grid, as its two branch tables.

    The branches separate: N_omega depends only on (omega_hat, T) and
    N_lambda only on (lambda_hat, T), so each table is one ``_branch_value``
    call. The first invalid cell in row order raises its ``DimensionlessConfig``
    error, and an axis whose largest frequency spans over ``MAX_QUARTER_PERIODS``
    up to the largest T raises ValueError. A grid with an empty axis is empty.
    More than ``MAX_SWEEP_CELLS`` cells raise ValueError before any is evaluated.
    """
    _check_mode(mode)
    lambdas, omegas, ts = (tuple(map(float, axis)) for axis in (lambdas, omegas, ts))
    _check_sweep(len(lambdas), len(omegas), len(ts))
    if not (lambdas and omegas and ts):
        lambdas = omegas = ts = ()
    else:  # T varies fastest, so a bad T shows first, then a bad omega, then a bad lambda
        lam0, om0, t0 = lambdas[0], omegas[0], ts[0]
        for cell in [*((lam0, om0, t) for t in ts), *((lam0, om, t0) for om in omegas),
                     *((lam, om0, t0) for lam in lambdas)]:
            DimensionlessConfig(*cell)
        for axis in (omegas, lambdas):
            _check_quarters(max(axis), max(ts))
    decay = _envelope_decay(mode)
    return SweepGrid(lambdas, omegas, ts, _branch_value(np.array(omegas)[:, None], 0.0, ts),
                     _branch_value(np.array(lambdas)[:, None], decay, ts), decay)


#: format(value, spec) per element, into an object array; spec "" gives repr
_format = np.frompyfunc(format, 2, 1)
#: most cells the sweep writers join and write at a time. On a 2-vCPU Xeon a 40 x 40 x 4 JSON
#: sweep process peaks at 30.0, 30.1, 30.9 and 32.4 MB in blocks of 1, 3, 6 and 12 lambda rows
#: (chunks of 160, 512, 1024 and 2048), 37.3 MB written whole, its CSV twin at 29.2-29.6 MB,
#: 30.3 MB whole; between those chunks the writers' times differ by under 10 %
_SWEEP_CHUNK = 512


def _write_cells(path: str | Path, grid: SweepGrid, head: str, lead: tuple, n_texts: tuple,
                 winners: tuple, tail: tuple = (), sep: str = "", foot: str = "") -> None:
    """Write ``head``, the cells in row order with ``sep`` between them, then ``foot``.

    A cell's pieces are ``lead``, one piece with n_max and the winner, then ``tail``, each
    broadcast to (lambda, omega, T); the last tail piece ends in ``sep``, which the last
    cell drops. The middle piece is an n_max text of ``n_texts`` followed by a text of
    ``winners`` (both omega's, lambda's), picked by the case of the tie rule, one int8 per
    cell: omega is not behind; lambda leads by at most TIE_TOL (its value, omega wins);
    lambda wins. Row-order blocks of at most ``_SWEEP_CHUNK`` cells, basic slices of
    those tables, are joined and written in turn, so no text of the whole grid is held."""
    shape = (len(grid.lambdas), len(grid.omegas), len(grid.ts))
    lead, tail = ([np.broadcast_to(p, shape) for p in pieces] for pieces in (lead, tail))
    # n_max is where(n_lam > n_om, n_lam, n_om), Python's max(n_om, n_lam): a tie keeps
    # the omega value, so a 0.0/-0.0 tie prints as a cell-by-cell max does
    n_om, n_lam = grid.n_omega, grid.n_lambda[:, None]
    case = np.add(n_lam > n_om, _lambda_wins(n_om, n_lam), dtype=np.int8)  # [lambda, omega, T]
    picks = [np.broadcast_to(p, shape) for p in
             (n_texts[0] + winners[0], *((n_texts[1] + w)[:, None] for w in winners))]
    # the axis a block runs along: lambda when whole rows fit, else omega, else T
    axis = 2 - (shape[2] <= _SWEEP_CHUNK) - (shape[1] * shape[2] <= _SWEEP_CHUNK)
    step = _SWEEP_CHUNK // max(math.prod(shape[axis + 1:]), 1)
    blocks = [(*(slice(i, i + 1) for i in outer), slice(at, at + step))
              for outer in np.ndindex(shape[:axis]) for at in range(0, shape[axis], step)]
    with open(path, "w", newline="") as f:
        f.write(head)
        for b in blocks:
            pick = np.choose(case[b], [p[b] for p in picks])
            text = "".join(np.stack([*(p[b] for p in lead), pick, *(p[b] for p in tail)],
                                    axis=-1).ravel().tolist())
            if b is blocks[-1]:  # no sep after the last cell
                text = text[:len(text) - len(sep)]
            f.write(text)
        f.write(foot)


def write_sweep_csv(grid: SweepGrid, path: str | Path) -> None:
    """CSV with header lambda,omega,T,n_omega_branch,n_lambda_branch,n_max,winning_branch.

    Values print as %.12g, lines end in \\r\\n (the csv module's default
    dialect, which never needs quoting for these fields). Each axis value
    and table entry is formatted once, before the file is opened; the rows
    are joined from those texts and written in blocks of at most ``_SWEEP_CHUNK``.
    """
    lam, om, t, n_om, n_lam = (_format(v, ".12g") for v in
                               (grid.lambdas, grid.omegas, grid.ts, grid.n_omega, grid.n_lambda))
    lead = ((lam + ",")[:, None, None], om[:, None] + "," + t + "," + n_om + ",",
            (n_lam + ",")[:, None])
    header = "lambda,omega,T,n_omega_branch,n_lambda_branch,n_max,winning_branch\r\n"
    _write_cells(path, grid, header, lead, (n_om, n_lam),
                 tuple(f",{b.value}\r\n" for b in BranchKind))


def _interval_texts(grid: SweepGrid, closes: tuple) -> Iterator[np.ndarray]:
    """Yield the JSON texts of the rise intervals of each (omega, T), then of each (lambda, T),
    each followed by its axis's text of ``closes``.

    A (frequency, T) list holds the rises begun before T (``_rise_count``): those that end by
    T, then at most one that T cuts short, ending at T (rises are disjoint, so only the last
    begun can be cut). Each list appears once per value of the other axis; over
    ``MAX_SWEEP_INTERVALS`` in all raise ValueError before any rise is built. Each frequency's
    rises are built once, up to the largest T (those up to a T are a prefix), and each rise
    start, rise end and T is rendered once.
    """
    axes = ((grid.omegas, 0.0, grid.lambdas), (grid.lambdas, grid.lambda_decay, grid.omegas))
    begun = [[[_rise_count(f, t) for t in grid.ts] for f in fs] for fs, _, _ in axes]
    listed = sum(len(o) * sum(map(sum, n)) for (*_, o), n in zip(axes, begun))
    if listed > MAX_SWEEP_INTERVALS:
        raise ValueError(f"the JSON sweep lists {listed} rise intervals, over the cap of "
                         f"{MAX_SWEEP_INTERVALS} (blp.MAX_SWEEP_INTERVALS)")
    t_ends = [f"{t!r}\n      ]" for t in grid.ts]
    for (fs, c, _), counts, close in zip(axes, begun, closes):
        zeros, ends, first = _rises([(f, c) for f in fs], max(grid.ts, default=0.0))
        e = ends.tolist()
        starts = [f"      [\n        {a!r},\n        " for a in zeros.tolist()]
        pieces = [a + f"{b!r}\n      ]" for a, b in zip(starts, e)]
        texts = np.empty((len(fs), len(grid.ts)), dtype=object)
        for r, (o, ns) in enumerate(zip(first, counts)):
            for col, (n, t_max, t_end) in enumerate(zip(ns, grid.ts, t_ends)):
                m = bisect.bisect_right(e, t_max, o, o + n)  # after the begun rises ended by T
                body = ",\n".join(pieces[o:m] + [a + t_end for a in starts[m:o + n]])
                texts[r, col] = f"[\n{body}\n    ]{close}" if n else "[]" + close
        yield texts


def write_sweep_json(grid: SweepGrid, path: str | Path) -> None:
    """JSON variant of the sweep: same fields plus the positivity intervals.

    The text is that of ``json.dumps(payload, indent=2)`` plus a newline,
    written by hand: with ``indent`` set the json module falls back to its
    pure-Python encoder. Numbers print through ``float.__repr__`` as there
    (every value of a sweep is finite). Each axis value and table entry is
    formatted once, and each rise of each axis frequency rendered once
    (``_interval_texts``), before the file is opened; the cells are joined
    from those texts and written in blocks of at most ``_SWEEP_CHUNK``. More than
    ``MAX_SWEEP_INTERVALS`` intervals raise ValueError before any rise is built.
    """
    sep = ",\n"
    om_texts, lam_texts = _interval_texts(grid, (',\n    "intervals_lambda": ', "\n  }" + sep))
    lam, om, t, n_om, n_lam = (_format(v, "") for v in
                               (grid.lambdas, grid.omegas, grid.ts, grid.n_omega, grid.n_lambda))
    lead = (('  {\n    "lambda": ' + lam + ',\n    "omega": ')[:, None, None],
            om[:, None] + ',\n    "T": ' + t + ',\n    "n_omega_branch": ' + n_om
            + ',\n    "n_lambda_branch": ', (n_lam + ',\n    "n_max": ')[:, None])
    winners = tuple(f',\n    "winning_branch": "{b.value}",\n    "intervals_omega": '
                    for b in BranchKind)
    tail = (om_texts, lam_texts[:, None])
    head, foot = ("[\n", "\n]\n") if len(grid) else ("[]\n", "")
    _write_cells(path, grid, head, lead, (n_om, n_lam), winners, tail, sep, foot)
