import dataclasses
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dipolefield.blp as blp
from dipolefield.blp import (
    BranchKind,
    KinkWarning,
    _branch_value,
    _interior_scan,
    analytic_n_omega,
    backflow_integral,
    dominant_regime,
    literal_pointwise_max,
    n_measure,
    sigma_rate,
    sweep_grid,
    write_sweep_csv,
    write_sweep_json,
)
from dipolefield.dynamics import StatePair, trace_distance
from dipolefield.model import DimensionlessConfig

from oracles import (
    derived_numerator,
    derived_numerator_terms,
    distance_rises,
    lambda_rises,
    literal_max_reference,
    omega_branch_quadrature,
    omega_rises,
    params_for_rates,
    printed_interior_integral,
    printed_log_slope_reference,
    printed_numerator,
    sampled_distance_rises,
    sampled_rises,
    sweep_files_reference,
    sweep_payload_reference,
    tangency_angle,
)


def cfg_of(lam, om, t_max=10.0):
    return DimensionlessConfig(lambda_hat=lam, omega_hat=om, t_max=t_max)


# ---------------------------------------------------------------------------
# sigma_rate
# ---------------------------------------------------------------------------

def test_sigma_rate_short_time_coherence_pair():
    # coherence endpoint: sigma ~ -omega_hat^2 * tau
    for om in (0.5, 1.0, 3.0):
        cfg = cfg_of(1.0, om)
        tau = 1e-5
        got = sigma_rate(math.pi / 2, cfg, tau)
        assert got == pytest.approx(-om * om * tau, rel=1e-3)


def test_sigma_rate_short_time_inversion_pair():
    # inversion endpoint: sigma -> -1 (unit damping rate) as tau -> 0+
    for lam in (0.3, 1.0, 2.0):
        cfg = cfg_of(lam, 1.0)
        assert sigma_rate(0.0, cfg, 1e-7) == pytest.approx(-1.0, abs=1e-5)


def test_sigma_rate_is_distance_derivative():
    # cross-check against finite differences of the dimensionless distance
    rng = np.random.default_rng(31)
    for _ in range(50):
        lam, om = rng.uniform(0.2, 4, size=2)
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        cfg = cfg_of(lam, om)
        tau = rng.uniform(0.05, 4.0)
        u = math.cos(theta) ** 2

        def dist(x):
            return math.sqrt(
                u * math.exp(-2 * x) * math.cos(lam * x) ** 2
                + (1 - u) * math.cos(om * x) ** 2
            )

        if dist(tau) < 0.05:
            continue
        h = 1e-5
        fd = (8 * (dist(tau + h) - dist(tau - h)) - (dist(tau + 2 * h) - dist(tau - 2 * h))) / (12 * h)
        assert sigma_rate(theta, cfg, tau) == pytest.approx(fd, abs=1e-8)


def test_sigma_rate_kink_one_sided():
    cfg = cfg_of(1.0, 1.0)
    tau = math.pi / 2  # zero of the coherence-pair distance
    with pytest.warns(KinkWarning):
        right = sigma_rate(math.pi / 2, cfg, tau)
    assert right == pytest.approx(1.0, rel=1e-9)   # right-sided: omega_hat * |sin| = 1


@pytest.mark.parametrize("theta, lam, om, k", [
    (0.0, 1.3, 2.1, 0), (0.0, 0.5, 2.1, 1), (math.pi / 2, 1.3, 2.1, 0), (math.pi / 2, 1.3, 0.9, 2),
])
def test_sigma_rate_kink_limit_is_the_branch_rate(theta, lam, om, k):
    # at the k-th zero of an endpoint branch's cosine the right-sided limit is that branch's
    # |d/dtau e^{-c tau} cos(f tau)|: lam e^{-tau} on the inversion pair, om on the coherence pair
    f, c = (lam, 1.0) if theta == 0.0 else (om, 0.0)
    tau = (k + 0.5) * math.pi / f
    with pytest.warns(KinkWarning):
        got = sigma_rate(theta, cfg_of(lam, om), tau)
    assert got == pytest.approx(f * math.exp(-c * tau), rel=1e-9)


def derived_distance(tau, theta, lam, om):
    u = math.cos(theta) ** 2
    return math.sqrt(u * math.exp(-2.0 * tau) * math.cos(lam * tau) ** 2
                     + (1.0 - u) * math.cos(om * tau) ** 2)


def derived_rate(tau, theta, lam, om):
    """The hand-expanded derived rate: ``derived_numerator`` over twice the derived distance."""
    return (float(derived_numerator(math.cos(theta) ** 2, tau, lam, om))
            / (2.0 * derived_distance(tau, theta, lam, om)))


@pytest.mark.parametrize("theta, tau, lam, om", [
    (0.7, 1.1, 1.3, 2.1), (0.2, 0.3, 0.5, 3.0), (1.3, 2.7, 2.2, 0.9), (math.pi / 2, 1.9, 1.7, 1.1),
    (0.0, 0.4, 1.3, 2.1),
])
def test_sigma_rate_is_the_hand_expanded_rate(theta, tau, lam, om):
    assert sigma_rate(theta, cfg_of(lam, om), tau) == pytest.approx(
        derived_rate(tau, theta, lam, om), rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tau=st.floats(0.0, 1500.0), theta=st.floats(0.0, math.pi / 2),
       lam=st.floats(0.1, 4.0), om=st.floats(0.1, 4.0))
@example(tau=709.0, theta=0.7, lam=1.0, om=2.0)
@example(tau=1500.0, theta=0.7, lam=1.0, om=2.0)
def test_sigma_rate_is_the_hand_expanded_rate_at_large_times(tau, theta, lam, om):
    # away from the kinks the rate is the hand form, unwarned, where e^{-2 tau} underflows too
    assume(2.0 * derived_distance(tau, theta, lam, om) > 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigma_rate(theta, cfg_of(lam, om), tau) == pytest.approx(
            derived_rate(tau, theta, lam, om), rel=1e-12)


def test_sigma_rate_takes_no_mode():
    # the printed interior rate is kept in tests/oracles.py only: sigma_rate has one form
    with pytest.raises(TypeError, match="mode"):
        sigma_rate(0.7, cfg_of(1.0, 2.0), 1.0, mode="as-printed")


_LOG_MAX = math.log(sys.float_info.max)


def test_sigma_rate_is_finite_at_large_times():
    # every exponential of the derived rate decays at positive times: no bound on tau
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(sigma_rate(0.7, cfg_of(1.0, 2.0), 1500.0))


def test_sigma_rate_refuses_negative_times_where_the_rate_overflows():
    # past the exponential's limit the rate raises; before it a product of exponentials
    # can overflow first, so every tau of the band either is finite or raises, unwarned
    exp_limit, finite, over = -_LOG_MAX / 2.0, -354.0, -355.0  # e^{-2 tau} past -354.89
    cfg = cfg_of(1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(sigma_rate(0.7, cfg, finite))
        for theta in (0.0, 0.7, math.pi / 2):
            for tau in (over, math.nextafter(exp_limit, -math.inf)):
                with pytest.raises(ValueError, match="rate overflows"):
                    sigma_rate(theta, cfg, tau)
        outcomes = set()
        for tau in np.linspace(over, finite, 401).tolist():
            try:
                outcomes.add(math.isfinite(sigma_rate(0.7, cfg, tau)))
            except ValueError:
                outcomes.add("raised")
        assert outcomes == {True, "raised"}


@pytest.mark.parametrize("theta, tau", [
    (-1.0, 1.0), (5.0, 1.0), (math.nan, 1.0), (0.7, math.nan), (0.7, math.inf), (0.7, -math.inf),
])
def test_sigma_rate_rejects_bad_theta_and_tau(theta, tau):
    # a KinkWarning turned into an error would escape pytest.raises(ValueError)
    cfg = cfg_of(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="theta must lie|tau must be finite"):
            sigma_rate(theta, cfg, tau)
        assert math.isfinite(sigma_rate(0.7, cfg, -1.0))  # a negative time is fine


@pytest.mark.parametrize("lam, om", [(1.0, 1e308), (1e308, 1.0)], ids=["omega", "lambda"])
def test_sigma_rate_raises_where_a_phase_overflows(lam, om):
    # f tau = 2e308 is inf in float arithmetic, and cos(inf) is invalid: an error, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rate overflows at tau=2.0"):
            sigma_rate(0.7, DimensionlessConfig(lam, om, 1.0), 2.0)


def test_sigma_rate_scaling_identity():
    # sigma(t; gamma, lambda, omega, theta) = gamma * sigma(gamma t; 1, ...)
    # with the left side obtained from the dimensionful trace distance
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 40:
        gamma = rng.uniform(0.3, 3)
        lam = rng.uniform(0.1, 4)
        om = rng.uniform(0.1, 4)
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        t = rng.uniform(0.05, 3.0) / gamma
        p = params_for_rates(gamma, lam, om)
        pair = StatePair(theta)
        if trace_distance(pair, p, t) < 0.05:
            continue
        h = 1e-4 / max(1.0, om, lam, gamma)
        fd = (
            8 * (trace_distance(pair, p, t + h) - trace_distance(pair, p, t - h))
            - (trace_distance(pair, p, t + 2 * h) - trace_distance(pair, p, t - 2 * h))
        ) / (12 * h)
        cfg = DimensionlessConfig(lambda_hat=lam / gamma, omega_hat=om / gamma, t_max=10.0)
        rhs = gamma * sigma_rate(theta, cfg, gamma * t)
        assert fd == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))
        checked += 1


# ---------------------------------------------------------------------------
# branch integrands: positive parts of the derived rate at theta = pi/2 (omega)
# and theta = 0 (lambda)
# ---------------------------------------------------------------------------

def test_branch_integrand_omega_spot_values():
    cfg = cfg_of(1.0, 1.0)
    assert max(0.0, sigma_rate(math.pi / 2, cfg, math.pi / 4)) == 0.0     # |cos| falling
    assert max(0.0, sigma_rate(math.pi / 2, cfg, 3 * math.pi / 4)) == pytest.approx(
        math.sin(3 * math.pi / 4), rel=1e-14
    )


def test_branch_integrand_omega_quotient_form():
    # away from the kinks the positive-part quotient form is identical
    rng = np.random.default_rng(33)
    for _ in range(200):
        om = rng.uniform(0.2, 5)
        tau = rng.uniform(0, 10)
        c = math.cos(om * tau)
        if abs(c) < 1e-3:
            continue
        quotient = (om / 4) * (abs(math.sin(2 * om * tau)) - math.sin(2 * om * tau)) / abs(c)
        rate = max(0.0, sigma_rate(math.pi / 2, cfg_of(1.0, om), tau))
        assert rate == pytest.approx(quotient, abs=1e-12)


def test_branch_integrand_omega_unit_integral():
    # one full rise of |cos| adds exactly 1
    res = backflow_integral(BranchKind.OMEGA, cfg_of(1.0, 1.0, math.pi))
    assert res.n_value == pytest.approx(1.0, abs=1e-8)


def test_branch_integrand_lambda_spot_values():
    assert max(0.0, sigma_rate(0.0, cfg_of(1.0, 1.0), math.pi / 4)) == 0.0
    # monotone envelope: no backflow at zero frequency (and tiny frequency)
    taus = np.linspace(0, 20, 500)
    for lam in (0.0, 1e-4):
        assert all(max(0.0, sigma_rate(0.0, cfg_of(lam, 1.0), tau)) == 0.0 for tau in taus)


def test_branch_integrand_lambda_onset_and_integral():
    # first positive stretch opens at the first cosine zero (pi/2 for lam=1)
    cfg = cfg_of(1.0, 1.0)
    assert max(0.0, sigma_rate(0.0, cfg, math.pi / 2 - 1e-6)) == 0.0
    assert max(0.0, sigma_rate(0.0, cfg, math.pi / 2 + 1e-6)) > 0.0
    res = backflow_integral(BranchKind.LAMBDA, cfg_of(1.0, 1.0, math.pi))
    oracle = lambda_rises(1.0, math.pi)          # e^{-3 pi/4} sin(pi/4)
    assert oracle == pytest.approx(math.exp(-3 * math.pi / 4) * math.sin(math.pi / 4), rel=1e-14)
    assert res.n_value == pytest.approx(oracle, abs=1e-8)
    assert res.n_value < math.exp(-math.pi / 2)  # analytic envelope bound
    assert len(res.intervals) == 1
    assert res.intervals[0][0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert res.intervals[0][1] == pytest.approx(3 * math.pi / 4, abs=1e-10)


# ---------------------------------------------------------------------------
# branch values: one closed form for both branches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("decay", [0.0, 0.5, 1.0])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(freq=st.floats(1e-3, 20.0), t_max=st.floats(0.0, 60.0))
def test_branch_value_matches_the_sum_of_rises(decay, freq, t_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = float(_branch_value(freq, decay, t_max))
    assert got == pytest.approx(lambda_rises(freq, t_max, decay), rel=1e-13, abs=1e-16)


@pytest.mark.parametrize("decay", [0.0, 0.5, 1.0])
def test_branch_value_edges(decay):
    # zero and tiny frequencies, and T exactly on a cosine zero and on a rise end
    cases = [(0.0, 5.0), (0.0, 0.0), (1e-300, 5.0), (1e-300, 1e300), (2e-300, 1e300),
             (3.0, 0.0), (1.0, math.pi / 2)]
    for freq in (0.3, 1.0, 7.0):
        for k in range(4):
            zero = (2 * k + 1) * math.pi / (2 * freq)
            cases += [(freq, zero), (freq, zero + math.atan2(freq, decay) / freq)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [float(_branch_value(f, decay, t)) for f, t in cases]
    want = [lambda_rises(f, t, decay) for f, t in cases]
    assert got == pytest.approx(want, rel=1e-13, abs=1e-16)
    assert got[:4] == [0.0] * 4 and got[5] == 0.0


@pytest.mark.parametrize("decay", [0.0, 0.5, 1.0])
def test_branch_value_table_equals_its_scalar_calls(decay):
    # a (frequency x T) table holds the digits of the per-cell calls
    rng = np.random.default_rng(38)
    freqs = np.concatenate(([0.0, 1e-300], rng.uniform(0.0, 10.0, 40)))
    ts = np.concatenate(([0.0, math.pi / 2], rng.uniform(0.0, 50.0, 9)))
    table = _branch_value(freqs[:, None], decay, ts)
    cells = [[float(_branch_value(f, decay, t)) for t in ts.tolist()] for f in freqs.tolist()]
    assert table.tolist() == cells
    if decay == 0.0:
        assert cells == [[analytic_n_omega(f, t) for t in ts.tolist()] for f in freqs.tolist()]


# ---------------------------------------------------------------------------
# backflow integral
# ---------------------------------------------------------------------------

def test_backflow_zero_before_first_zero():
    rng = np.random.default_rng(36)
    for _ in range(50):
        lam, om = rng.uniform(0.1, 5, size=2)
        t_short = 0.999 * min(math.pi / (2 * om), math.pi / (2 * lam))
        cfg = cfg_of(lam, om, t_short)
        assert backflow_integral(BranchKind.OMEGA, cfg).n_value == 0.0
        assert backflow_integral(BranchKind.LAMBDA, cfg).n_value == 0.0


def test_backflow_omega_spot_values():
    full = backflow_integral(BranchKind.OMEGA, cfg_of(0.1, 1.0, math.pi)).n_value
    part = backflow_integral(BranchKind.OMEGA, cfg_of(0.1, 1.0, 0.9 * math.pi)).n_value
    assert full == pytest.approx(1.0, abs=1e-8)
    assert part == pytest.approx(0.9510565162951535, abs=1e-6)


def test_backflow_additivity_over_rises():
    # every full rise of |cos| contributes exactly 1
    for om in (0.5, 1.0, 2.0, 4.0):
        for t_max in (0.7, 1.9, 3.3, 5.0):
            got = backflow_integral(BranchKind.OMEGA, cfg_of(1.0, om, t_max)).n_value
            assert got == pytest.approx(omega_rises(om, t_max), abs=1e-7)


def test_backflow_interior_theta_between_endpoints():
    t_max = 5.0
    res = backflow_integral(0.7, cfg_of(1.3, 2.1, t_max))
    assert res.n_value >= 0
    assert res.theta_star == 0.7
    assert res.winning_branch is None
    for a, b in res.intervals:
        assert 0 <= a < b <= t_max


def test_backflow_endpoint_routing_derived():
    cfg = cfg_of(1.0, 2.0, 6.0)
    lam_res = backflow_integral(BranchKind.LAMBDA, cfg)
    om_res = backflow_integral(BranchKind.OMEGA, cfg)
    assert backflow_integral(0.0, cfg).n_value == lam_res.n_value
    assert backflow_integral(math.pi / 2, cfg).n_value == om_res.n_value


def test_backflow_endpoint_routing_as_printed():
    # the fixed expressions label the coherence integrand with theta = 0
    cfg = cfg_of(1.0, 2.0, 6.0)
    om_res = backflow_integral(BranchKind.OMEGA, cfg, mode="as-printed")
    lam_res = backflow_integral(BranchKind.LAMBDA, cfg, mode="as-printed")
    assert backflow_integral(0.0, cfg, mode="as-printed").n_value == om_res.n_value
    assert backflow_integral(math.pi / 2, cfg, mode="as-printed").n_value == lam_res.n_value


def test_backflow_lambda_as_printed_decays_slower():
    cfg = cfg_of(1.5, 0.3, 8.0)
    derived = backflow_integral(BranchKind.LAMBDA, cfg, mode="derived").n_value
    printed = backflow_integral(BranchKind.LAMBDA, cfg, mode="as-printed").n_value
    assert printed > derived > 0
    assert printed == pytest.approx(lambda_rises(1.5, 8.0, decay=0.5), abs=1e-7)


def test_backflow_interior_near_dip_regression():
    # D dips to ~3e-6 near tau = 7.9; adaptive quadrature of the rate
    # missed the narrow spike and returned 7.1438876897 (2.4e-5 high)
    cfg = cfg_of(0.656, 2.984, 7.982)
    got = backflow_integral(1.4682, cfg).n_value
    assert got == pytest.approx(distance_rises(1.4682, 0.656, 2.984, 7.982), abs=1e-9)
    assert got == pytest.approx(7.1438635104, abs=1e-9)


def test_backflow_interior_close_root_pair_regression():
    # the rate turns positive only on (2.4763, 2.4948), inside one of the
    # nine-sample gaps of the quarter-period grid
    theta, lam = 0.050699596194789566, 0.6034405640065522
    om, t_max = 1.2212100317101389, 3.574557963036592
    res = backflow_integral(theta, cfg_of(lam, om, t_max))
    assert len(res.intervals) == 1
    assert res.intervals[0] == pytest.approx((2.4763388001, 2.4948069804), abs=1e-9)
    assert res.n_value == pytest.approx(distance_rises(theta, lam, om, t_max), abs=1e-9)
    assert res.n_value > 1e-7


_ANGLES = st.floats(0.01, math.pi / 2 - 0.01)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(theta=_ANGLES, lam=st.floats(0.05, 4.0), om=st.floats(0.05, 4.0),
       t_max=st.floats(0.3, 10.0))
def test_interior_backflow_is_total_rise(theta, lam, om, t_max):
    got = backflow_integral(theta, cfg_of(lam, om, t_max)).n_value
    assert got == pytest.approx(distance_rises(theta, lam, om, t_max), abs=1e-9)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(theta=_ANGLES, om=st.floats(0.3, 3.0), k=st.integers(0, 3), m=st.integers(0, 3),
       detune=st.floats(-1e-3, 1e-3), extra=st.floats(0.05, 3.0))
def test_interior_backflow_is_total_rise_near_kinks(theta, om, k, m, detune, extra):
    # both cosines nearly vanish at tau0, so D dips close to zero there
    tau0 = (2 * k + 1) * math.pi / (2 * om)
    lam = (2 * m + 1) * math.pi / (2 * tau0) * (1 + detune)
    assume(lam <= 6.0)
    t_max = tau0 + extra
    got = backflow_integral(theta, cfg_of(lam, om, t_max)).n_value
    assert got == pytest.approx(distance_rises(theta, lam, om, t_max), abs=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.2, 3.0), om=st.floats(0.2, 3.0), start=st.floats(0.1, 5.0),
       nudge=st.floats(-1e-2, 1e-2))
def test_interior_backflow_is_total_rise_near_double_roots(lam, om, start, nudge):
    # the rate touches zero at tau0 for this theta; nudging the angle splits
    # the double root into a close pair or removes it
    found = tangency_angle(lam, om, start)
    assume(found is not None)
    theta, tau0 = found
    theta *= 1 + nudge
    assume(0.0 < theta < math.pi / 2)
    t_max = tau0 + 0.5
    got = backflow_integral(theta, cfg_of(lam, om, t_max)).n_value
    assert got == pytest.approx(distance_rises(theta, lam, om, t_max), abs=1e-9)


# ---------------------------------------------------------------------------
# as-printed mode: the two branches, and the interior rate it leaves out
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.05, 4.0), om=st.floats(0.05, 4.0), t_max=st.floats(0.3, 20.0),
       grid_size=st.sampled_from([2, 3, 9, 65]))
def test_as_printed_measure_is_the_branch_maximum(lam, om, t_max, grid_size):
    cfg = cfg_of(lam, om, t_max)
    res = n_measure(cfg, mode="as-printed", theta_grid_size=grid_size)
    n_om, n_lam = res.n_omega_branch, res.n_lambda_branch
    assert res.n_value == max(n_om, n_lam)
    # the first maximum wins, so a tie keeps theta = 0, the as-printed omega branch
    branch = BranchKind.OMEGA if n_om >= n_lam else BranchKind.LAMBDA
    assert res.theta_star == (0.0 if branch is BranchKind.OMEGA else math.pi / 2)
    assert res.intervals == backflow_integral(branch, cfg, mode="as-printed").intervals
    assert res.intervals == backflow_integral(res.theta_star, cfg, mode="as-printed").intervals
    assert res.winning_branch is dominant_regime(lam, om, t_max, mode="as-printed")
    (cell,) = sweep_grid([lam], [om], [t_max], mode="as-printed")
    assert cell.n_max == res.n_value
    assert (cell.n_omega_branch, cell.n_lambda_branch) == (n_om, n_lam)


def test_backflow_interior_as_printed_raises():
    cfg = cfg_of(1.3, 2.1, 5.0)
    for theta in (1e-11, 0.7, math.pi / 2 - 1e-11):
        with pytest.raises(ValueError, match="not the derivative of any printed distance"):
            backflow_integral(theta, cfg, mode="as-printed")
    # within 1e-12 of an endpoint theta still routes to its branch
    for theta, branch in ((1e-13, BranchKind.OMEGA), (math.pi / 2 - 1e-13, BranchKind.LAMBDA)):
        got = backflow_integral(theta, cfg, mode="as-printed")
        assert got == backflow_integral(branch, cfg, mode="as-printed")


def test_printed_interior_backflow_grows_like_c_log_inverse_theta():
    # as theta -> 0 the printed denominator falls to e^{tau/2}|cos(om tau)|, and
    # each zero tau_0 of that cosine with P(tau_0) > 0 adds a layer of width
    # ~theta, worth P(tau_0) e^{-tau_0/2} / om per unit of ln(1/theta)
    lam, om, t_max = 3.5658, 2.4126, 5.4732
    c = printed_log_slope_reference(lam, om, t_max)
    assert c == pytest.approx(0.696288, abs=1e-6)
    rise = (printed_interior_integral(1e-6, lam, om, t_max)
            - printed_interior_integral(1e-4, lam, om, t_max))
    assert rise == pytest.approx(c * math.log(100.0), rel=1e-4)


def printed_sign_intervals(lam, om, t_max, u=np.ones(1)):
    """Positivity intervals (a, b, owner) of u P on [0, t_max], by blp's locator, one owner per u.

    P = -(e^{tau/2} om sin 2 om tau + e^{-tau/2} (sin^2 lam tau + lam sin 2 lam tau))
    is the printed numerator (``oracles.printed_numerator`` at u = 1), with a term that grows
    like e^{tau/2}.
    """
    # -e^{tau/2} om sin 2 om tau - e^{-tau/2} (1/2 - cos(2 lam tau)/2 + lam sin 2 lam tau)
    terms = ((u * om, -0.5, 2.0 * om), (0.5 * u, 0.5, 0.0),
             (u * math.hypot(0.5, lam), 0.5, 2.0 * lam))
    return blp._sign_intervals(lambda tau, k: u[k] * printed_numerator(tau, 1.0, lam, om),
                               terms, blp._breakpoints(((om, 0.0), (lam, 0.5)), t_max))


def test_rounding_level_zeros_need_no_halving(monkeypatch):
    # with lam/om = 2/3 the printed numerator vanishes exactly at multiples
    # of pi/2, on the grid, where it evaluates to ~1e-14; such values are
    # roots, and the gaps next to them are not halved toward the width floor
    rounds = []
    curvature = blp._numerator_curvature

    def counted(*args):
        rounds.append(1)
        return curvature(*args)

    monkeypatch.setattr(blp, "_numerator_curvature", counted)
    counts = []
    for lam in (2.0, 2.0001):
        rounds.clear()
        a, b, _ = printed_sign_intervals(lam, 3.0, 5.0)
        counts.append(len(rounds))
    assert counts[0] <= counts[1]
    # the intervals of lam = 2 are where P > 0: their ends are roots, and a
    # dense sample finds P positive inside them and nowhere else
    a, b, _ = printed_sign_intervals(2.0, 3.0, 5.0)
    ends = np.concatenate((a, b))
    assert np.all(abs(printed_numerator(ends[ends < 5.0], 1.0, 2.0, 3.0)) < 1e-12)
    ts = np.linspace(0.0, 5.0, 100_001)
    p = printed_numerator(ts, 1.0, 2.0, 3.0)
    inside = ((a[:, None] < ts) & (ts < b[:, None])).any(axis=0)
    outside = ~((a[:, None] <= ts) & (ts <= b[:, None])).any(axis=0)
    assert np.all(p[inside] > 0.0) and np.all(p[outside] <= 1e-12)


def test_sign_tests_do_not_overflow_on_the_printed_numerator():
    # at tau = 709 the printed numerator reaches ~1e154, and the product of
    # two samples overflowed where the locator compared their signs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, _ = printed_sign_intervals(1.0, 2.0, 709.0)
    assert a.size > 400 and np.all(a < b)


@pytest.mark.parametrize("lam, om, t_max", [
    (1.7, 2.3, 9.0),
    (2.0, 3.0, 5.0),  # zeros of the numerator on the quarter-period grid
    (0.926081485894418, 2.6721814930631127, 18.423801256360935),
    (1.0639404656002296, 2.088830335488228, 20.11563339314566),
])
def test_as_printed_intervals_are_shared_by_every_angle(lam, om, t_max):
    # the locator's sign, rounding and curvature tests all scale with an
    # owner's amplitude, so the owners u P of 63 angles, located together,
    # each find the intervals of P itself
    a1, b1, _ = printed_sign_intervals(lam, om, t_max)
    u = np.cos(np.linspace(0.0, math.pi / 2, 65)[1:-1]) ** 2
    a, b, owner = printed_sign_intervals(lam, om, t_max, u)
    for k in range(u.size):
        mine = owner == k
        assert mine.sum() == a1.size
        assert np.max(abs(a[mine] - a1), initial=0.0) <= 1e-13
        assert np.max(abs(b[mine] - b1), initial=0.0) <= 1e-13


@pytest.mark.parametrize("mode", ["derived"])
def test_batched_scan_matches_single_angles(mode):
    cfg = cfg_of(1.7, 2.3, 9.0)
    thetas = np.linspace(0.0, math.pi / 2, 17)[1:-1]
    values, a, b, owner = _interior_scan(thetas, cfg, blp._breakpoints(blp._branches(cfg), 9.0))
    for k, theta in enumerate(thetas):
        alone = backflow_integral(float(theta), cfg, mode=mode)
        assert values[k] == pytest.approx(alone.n_value, abs=1e-13)
        assert alone.intervals == tuple(zip(a[owner == k].tolist(), b[owner == k].tolist()))


_FREQS = st.sampled_from([0.0, 1e-17]) | st.floats(0.0, 6.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lam=_FREQS, om=_FREQS, u=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       tau=st.just(0.0) | st.floats(0.0, 900.0), width=st.floats(0.0, 2.0))
def test_rate_numerator_and_its_terms_equal_the_hand_form(lam, om, u, tau, width):
    # the numerator summed over the branch table, and its term table's rounding-noise
    # sum and curvature bound, equal the hand-expanded derived forms bit for bit
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    def noise(terms, k, t):  # the rounding scale of a numerator value in _sign_changes
        return sum(a[k] * np.exp(-r * t) * (1.0 + f * t) for a, r, f in terms)

    branches = blp._branches(cfg_of(lam, om))
    us, k = np.array([u, 0.0, 1.0, 0.5]), np.arange(4)
    taus = np.array([tau, tau + width, 0.0])
    assert bits(blp._rate_numerator(u, tau, branches)) == bits(derived_numerator(u, tau, lam, om))
    assert (bits(blp._rate_numerator(us[:, None], taus, branches))
            == bits(derived_numerator(us[:, None], taus, lam, om)))
    mine, ref = blp._numerator_terms(us, branches), derived_numerator_terms(us, lam, om)
    lo, hi = np.full(4, tau), np.full(4, tau + width)
    assert bits(noise(mine, k, tau)) == bits(noise(ref, k, tau))
    assert (bits(blp._numerator_curvature(mine, k, lo, hi))
            == bits(blp._numerator_curvature(ref, k, lo, hi)))


# ---------------------------------------------------------------------------
# the Chandrupatla root solve
# ---------------------------------------------------------------------------

def _scipy_roots(fn, lo, hi, k):
    from scipy.optimize.elementwise import find_root

    return find_root(fn, (lo, hi), args=(k,)).x


_MODES = st.sampled_from(["derived", "as-printed"])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mode=_MODES, lam=st.floats(0.05, 4.0), om=st.floats(0.05, 4.0), t_max=st.floats(0.3, 26.0))
def test_chandrupatla_matches_scipy_on_located_brackets(mode, lam, om, t_max):
    # every bracket the locator hands the solver, in the theta scan (or, in
    # as-printed mode, for the printed numerator) and for the pointwise-max
    # difference h, must give scipy's root bit for bit
    kernel, calls = blp._chandrupatla, []

    def recorded(fn, lo, hi, k):
        calls.append((fn, lo, hi, k))
        return kernel(fn, lo, hi, k)

    cfg = cfg_of(lam, om, t_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blp, "_chandrupatla", recorded)
        if mode == "derived":
            _interior_scan(np.linspace(0.0, math.pi / 2, 9)[1:-1], cfg,
                           blp._breakpoints(blp._branches(cfg), t_max))
        else:
            printed_sign_intervals(lam, om, t_max)
        literal_pointwise_max(cfg, mode)
    assert len(calls) == 2
    for fn, lo, hi, k in calls:
        assert np.array_equal(kernel(fn, lo, hi, k), _scipy_roots(fn, lo, hi, k))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mode=_MODES, lam=st.floats(0.05, 4.0), om=st.floats(0.05, 4.0), theta=_ANGLES,
       start=st.sampled_from([0.0, 690.0]), w=st.floats(1e-300, 1e-2))
def test_chandrupatla_matches_scipy_on_edge_brackets(mode, lam, om, theta, start, w):
    u = np.array([math.cos(theta) ** 2])

    def printed(tau, k):
        return u[k] * printed_numerator(tau, 1.0, lam, om)

    def fn(tau, k):
        if mode == "derived":
            return blp._rate_numerator(u[k], tau, ((om, 0.0), (lam, 1.0)))
        return printed(tau, k)

    # sign changes on a grid of [start, start + 10]: near tau = 700 the
    # as-printed numerator is ~1e150
    xs = np.linspace(start, start + 10.0, 1001)
    fs = fn(xs, 0)
    i = np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0.0)
    lo, hi = xs[i], xs[i + 1]
    k = np.zeros(i.size, dtype=int)
    root = blp._chandrupatla(fn, lo, hi, k)
    # the same brackets halved to width below 1e-7, like the locator's floor
    nlo, nhi = lo, hi
    while np.max(nhi - nlo, initial=0.0) > 1e-7:
        mid = 0.5 * (nlo + nhi)
        left = np.sign(fn(mid, k)) == np.sign(fn(nlo, k))
        nlo, nhi = np.where(left, mid, nlo), np.where(left, nhi, mid)
    # and cut to end within rounding of the root (some of these no longer
    # bracket it, which both must report as NaN)
    below, above = np.nextafter(root, -np.inf), np.nextafter(root, np.inf)
    lo = np.concatenate((lo, nlo, below, lo, root))
    hi = np.concatenate((hi, nhi, hi, above, hi))
    k = np.zeros(lo.size, dtype=int)
    assert np.array_equal(blp._chandrupatla(fn, lo, hi, k), _scipy_roots(fn, lo, hi, k),
                          equal_nan=True)

    # the printed numerator vanishes exactly at tau = 0, so a root there
    # converges on the absolute tolerance alone
    lo, hi, k = np.array([-w, -w, -1e-2]), np.array([w, 1e-2, w]), np.zeros(3, dtype=int)
    got = blp._chandrupatla(printed, lo, hi, k)
    assert np.array_equal(got, _scipy_roots(printed, lo, hi, k))
    assert np.all(abs(got) <= w)


@pytest.mark.parametrize("f", [
    lambda x, c: (x - c) / (1.0 - x),  # +inf at x = 1
    lambda x, c: 1e-300 * (x - c) ** 3 / (1.0 - x),  # and below tiny near its root
    lambda x, c: np.log(x) + c,  # -inf at x = 0
    lambda x, c: np.sqrt(x) - c,  # NaN below 0
    lambda x, c: np.arctan(x) - c,  # finite at x = inf
], ids=["pole", "flat-pole", "log", "sqrt", "atan"])
def test_chandrupatla_matches_scipy_on_non_finite_values(f):
    # an infinite end value voids the function tolerance (0 * inf is NaN);
    # NaN values, infinite ends and broken brackets stop with NaN, and a
    # bracket with a zero at both ends (the last) stops at once
    lo = np.array([0.0, 0.0, -1.0, 0.5, 0.0, -np.inf, 0.0, 0.2, 0.25])
    hi = np.array([1.0, 0.5, 1.0, 1.0, np.inf, np.inf, 1.0, 0.3, 0.25])
    c = np.array([0.1, 0.5, 0.9, 0.7, 0.3, 0.3, 1.0, 0.6, 0.25])
    with np.errstate(all="ignore"):
        got, ref = blp._chandrupatla(f, lo, hi, c), _scipy_roots(f, lo, hi, c)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.isnan(got).any() and not np.isnan(got).all()


@pytest.mark.parametrize("mode", ["derived", "as-printed"])
def test_n_measure_without_interior_angles(mode):
    cfg = cfg_of(1.3, 2.1, 5.0)
    res = n_measure(cfg, mode=mode, theta_grid_size=2)
    assert res.n_value == max(res.n_omega_branch, res.n_lambda_branch)


def test_n_measure_interior_winner_is_that_angles_backflow(monkeypatch):
    # no derived config inside the scan cap is known whose maximum lies inside
    # (0, pi/2), so branch values below every interior one force the interior
    # winner's path
    monkeypatch.setattr(blp, "_branch_value", lambda freq, *_: np.full(np.shape(freq), -1.0))
    cfg = DimensionlessConfig(1.0, 2.0, 6.0)
    res = n_measure(cfg, theta_grid_size=9)
    assert res.theta_star == pytest.approx(1.3744, abs=1e-4) and len(res.intervals) == 4
    ref = backflow_integral(res.theta_star, cfg)
    assert res.n_value == ref.n_value
    assert res.intervals == ref.intervals


def test_an_interior_angle_beats_both_branches_beyond_the_scan_cap():
    # the maximizing pair need not be an endpoint: at the default grid's angle
    # 55 pi/128 a sampled lower bound of the derived backflow beats the larger
    # branch value (636.120) by more than 0.5. The config spans 849 164 gaps,
    # so both the theta scan and the single angle refuse it at the scan cap
    cfg = cfg_of(2000.0, 3.0, 666.0)
    theta = float(np.linspace(0.0, math.pi / 2, 65)[55])
    best = max(backflow_integral(b, cfg).n_value for b in BranchKind)
    assert best == pytest.approx(636.11998, abs=1e-5)
    assert sampled_distance_rises(theta, 2000.0, 3.0, 666.0, 8 * 10**6) >= best + 0.5
    for call in (lambda: n_measure(cfg), lambda: backflow_integral(theta, cfg)):
        with pytest.raises(ValueError, match="MAX_SCAN_SAMPLES"):
            call()


@pytest.mark.parametrize("s", [1e20, 1e100])
def test_an_interior_angle_keeps_its_backflow_at_any_time_scale(s):
    # (s, s, 3/s) has the phases of (1, 1, 3) and tends to the undamped limit 0.98999 as s
    # grows; with tolerances absolute in tau, every positivity interval past s = 1e14 was
    # dropped as narrower than 1e-14 and pi/8 returned 0.0. The endpoints are closed forms
    cfg = cfg_of(s, s, 3.0 / s)
    res = backflow_integral(math.pi / 8, cfg)
    assert res.n_value == pytest.approx(0.9899924966004, rel=1e-12)
    assert len(res.intervals) == 1
    assert backflow_integral(0.0, cfg).n_value == pytest.approx(res.n_value, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mode=_MODES, lam=st.just(0.0) | st.floats(0.05, 4.0),
       om=st.just(0.0) | st.floats(0.05, 6.0), t_max=st.floats(0.0, 2.0) | st.floats(2.0, 20.0),
       size=st.sampled_from([2, 3, 5, 9, 17]))
@example(mode="derived", lam=2.0, om=1.0, t_max=5.0, size=17)
def test_n_measure_is_the_grid_maximum_of_backflow_integral(mode, lam, om, t_max, size):
    # every field of the measure is read off the single-angle results on its
    # grid (as-printed mode scores only the two endpoints), bit for bit
    cfg = cfg_of(lam, om, t_max)
    res = n_measure(cfg, mode, size)
    thetas = np.linspace(0.0, math.pi / 2, size if mode == "derived" else 2).tolist()
    each = [backflow_integral(theta, cfg, mode) for theta in thetas]
    values = [r.n_value for r in each]
    k = values.index(max(values))  # the first maximum
    assert repr(res.n_value) == repr(values[k])
    assert res.theta_star == thetas[k]
    assert res.intervals == backflow_integral(res.theta_star, cfg, mode).intervals
    assert repr((res.n_omega_branch, res.n_lambda_branch)) == repr(
        tuple(backflow_integral(b, cfg, mode).n_value for b in BranchKind))


def test_reported_intervals_are_merged_positivity_intervals():
    # the locator brackets sign changes on the quarter-period grid, but the
    # reported intervals are cut only at roots of the rate
    cfg = cfg_of(2.948, 2.151, 8.155)
    grid = np.concatenate([np.arange(1, 40) * math.pi / (2 * f) for f in (2.948, 2.151)])
    for theta in (0.2, 0.7, 1.3):
        res = backflow_integral(theta, cfg)
        assert res.intervals
        assert all(np.any((a < grid) & (grid < b)) for a, b in res.intervals)
        for a, b in res.intervals:
            for end in (a, b):
                if end < 8.155:
                    assert abs(sigma_rate(theta, cfg, end)) < 1e-9


# ---------------------------------------------------------------------------
# analytic coherence-branch closed form
# ---------------------------------------------------------------------------

def test_analytic_n_omega_spot_values():
    assert analytic_n_omega(1.0, math.pi) == pytest.approx(1.0, abs=1e-12)
    assert analytic_n_omega(1.0, 0.4 * math.pi) == 0.0
    assert analytic_n_omega(8.0, 5.0) == pytest.approx(12.667, abs=1e-3)
    assert analytic_n_omega(8.0, 5.0) == pytest.approx(12.0 + abs(math.cos(40.0)), rel=1e-14)
    assert analytic_n_omega(1.0, math.pi / 2) == 0.0
    assert analytic_n_omega(0.0, 5.0) == 0.0


@pytest.mark.parametrize("omega_hat, t_max, message", [
    (-2.0, 3.0, "omega_hat must be nonnegative"),
    (math.nan, 1.0, "omega_hat must be finite"),
    (1.0, math.inf, "t_max must be finite"),
    (1.0, -1.0, "t_max must be nonnegative"),
    (2.0, 1e308, "quarter periods, over the cap"),
])
def test_analytic_n_omega_rejects_what_the_config_rejects(omega_hat, t_max, message):
    # the quarter cap is checked before omega_hat * t_max overflows, with no RuntimeWarning
    with pytest.raises(ValueError, match=message):
        analytic_n_omega(omega_hat, t_max)


def test_analytic_n_omega_continuity():
    # continuous across the piecewise boundaries (multiples of pi/2)
    for x0 in (math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi):
        lo = analytic_n_omega(1.0, x0 - 1e-9)
        hi = analytic_n_omega(1.0, x0 + 1e-9)
        assert hi == pytest.approx(lo, abs=1e-7)


def test_analytic_matches_quadrature_sample():
    rng = np.random.default_rng(37)
    for _ in range(40):
        om = rng.uniform(0.1, 5)
        t_max = rng.uniform(0.1, 5)
        quad_val = omega_branch_quadrature(om, t_max)
        assert quad_val == pytest.approx(analytic_n_omega(om, t_max), abs=1e-7)
        engine = backflow_integral(BranchKind.OMEGA, cfg_of(0.1, om, t_max)).n_value
        assert engine == pytest.approx(quad_val, abs=1e-7)


# ---------------------------------------------------------------------------
# n_measure and friends
# ---------------------------------------------------------------------------

def test_n_measure_zero_at_short_times():
    cfg = cfg_of(1.0, 1.0, 0.9 * math.pi / 2)
    res = n_measure(cfg, theta_grid_size=17)
    assert res.n_value == 0.0


def test_n_measure_omega_dominated():
    cfg = cfg_of(0.1, 8.0, 5.0)
    res = n_measure(cfg, theta_grid_size=17)
    assert res.winning_branch is BranchKind.OMEGA
    assert res.n_value == pytest.approx(12.667, abs=1e-3)
    assert res.theta_star == pytest.approx(math.pi / 2)
    assert res.n_omega_branch == pytest.approx(12.667, abs=1e-3)
    assert res.n_lambda_branch < 0.1


def test_n_measure_as_printed_labels():
    # same maximum, but the winning angle label follows the printed map
    cfg = cfg_of(0.1, 8.0, 5.0)
    res = n_measure(cfg, mode="as-printed", theta_grid_size=17)
    assert res.winning_branch is BranchKind.OMEGA
    assert res.theta_star == 0.0
    assert res.n_omega_branch == pytest.approx(12.667, abs=1e-3)


#: (lambda_hat, omega_hat, T) past tau ~ 354, where a lambda-branch distance's square
#: underflows: repr of n_measure's value, then literal_pointwise_max's, derived and as-printed
LONG_HORIZON_PINS = {
    (0.05, 0.02, 450.0): ("2.911130261884677", "2.9111302618846766",
                          "2.911130261884677", "2.911130267419478"),
    (0.2, 0.01, 640.0): ("2.0", "2.000028374844807", "2.0", "2.002827480587432"),
    (0.01, 0.003, 900.0): ("0.9040721420170612", "0.9040721420170611",
                           "0.9040721420170612", "0.9040721420170611"),
    (0.12, 0.0, 777.0): ("9.098031898990645e-08", "9.098031898990638e-08",
                         "0.00012570942067203562", "0.0001257094206720355"),
}


@pytest.mark.parametrize("lam, om, t_max", list(LONG_HORIZON_PINS))
def test_long_horizon_values_are_pinned(lam, om, t_max):
    cfg = cfg_of(lam, om, t_max)
    assert tuple(repr(v) for mode in ("derived", "as-printed")
                 for v in (n_measure(cfg, mode).n_value, literal_pointwise_max(cfg, mode))
                 ) == LONG_HORIZON_PINS[lam, om, t_max]


def test_literal_pointwise_max_sees_a_rise_past_the_squares_underflow():
    # the one lambda rise starts at tau = pi / (2 lam) ~ 416, where e^{-2 tau} is below the
    # smallest normal float; the pointwise maximum still adds up to the lambda branch value
    cfg = cfg_of(0.0037756485290864525, 1e-17, 638.7664842269052)
    res = n_measure(cfg)
    assert res.n_lambda_branch > res.n_omega_branch
    assert literal_pointwise_max(cfg) == pytest.approx(res.n_lambda_branch, rel=1e-12)


def test_n_measure_monotone_in_horizon():
    values = [n_measure(cfg_of(1.2, 2.4, t), theta_grid_size=9).n_value
              for t in (1.0, 2.0, 3.5, 5.0)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("mode", ["derived", "as-printed"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.2, 4.0), om=st.floats(0.2, 4.0), t_max=st.floats(0.1, 15.0),
       extra=st.floats(0.0, 5.0))
def test_n_measure_nondecreasing_in_horizon(mode, lam, om, t_max, extra):
    # every N(theta) integrates a nonnegative rate, and so does their maximum
    short = n_measure(cfg_of(lam, om, t_max), mode=mode, theta_grid_size=9).n_value
    long = n_measure(cfg_of(lam, om, t_max + extra), mode=mode, theta_grid_size=9).n_value
    assert long >= short - 1e-12


@pytest.mark.parametrize("mode", ["derived", "as-printed"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.05, 5.0), om=st.floats(0.05, 5.0), frac=st.floats(1e-3, 1.0))
def test_n_measure_zero_before_first_cosine_zero(mode, lam, om, frac):
    # up to the first zero of both cosines every factor of D is decreasing
    t_max = frac * min(math.pi / (2 * lam), math.pi / (2 * om))
    assert n_measure(cfg_of(lam, om, t_max), mode=mode, theta_grid_size=17).n_value == 0.0


# ---------------------------------------------------------------------------
# the certified theta scan
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(1e-6, math.pi / 2 - 1e-6), lam=st.just(0.0) | st.floats(0.05, 4.0),
       om=st.just(0.0) | st.floats(0.05, 6.0), t_max=st.floats(0.0, 2.0) | st.floats(2.0, 26.0),
       ratio=st.sampled_from([None, 1.0, 3.0, 1.0 / 3.0]), nudge=st.floats(-1e-6, 1e-6))
def test_rise_bound_is_at_least_the_backflow(theta, lam, om, t_max, ratio, nudge):
    # the bound must hold at every angle, not only on the grid; lam = 0 is
    # an overdamped config, and an odd ratio om/lam puts zeros of both
    # cosines together, where D has a kink
    if ratio is not None:
        om = lam * ratio * (1.0 + nudge)
    cfg = cfg_of(lam, om, t_max)
    bound = blp._rise_bound(np.array([theta]), cfg, blp._breakpoints(blp._branches(cfg), t_max))
    assert bound[0] >= distance_rises(theta, lam, om, t_max) - 1e-9


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.just(0.0) | st.floats(0.05, 4.0), om=st.just(0.0) | st.floats(0.05, 6.0),
       t_max=st.floats(0.0, 26.0))
@example(lam=2.0, om=1.0, t_max=5.0)
@example(lam=1.0, om=3.0, t_max=math.pi / 2)  # zeros of both cosines meet at the horizon
def test_rise_bound_at_the_endpoints_is_the_branch_backflow(lam, om, t_max):
    # at u = 1 the bound keeps only the rises of a, at u = 0 those of b
    cfg = cfg_of(lam, om, t_max)
    bound = blp._rise_bound(np.array([0.0, math.pi / 2]), cfg,
                            blp._breakpoints(blp._branches(cfg), t_max))
    assert bound[0] == pytest.approx(lambda_rises(lam, t_max), rel=1e-12, abs=1e-12)
    assert bound[1] == pytest.approx(omega_rises(om, t_max), rel=1e-12, abs=1e-12)


def full_scan_measure(cfg, theta_grid_size):
    """Derived n_measure with every interior angle scanned: the first maximum,
    its angle and intervals, and the omega and lambda branch values."""
    thetas = np.linspace(0.0, math.pi / 2, theta_grid_size)
    first, last = (backflow_integral(b, cfg) for b in (BranchKind.LAMBDA, BranchKind.OMEGA))
    inner, a, b, owner = (np.empty(0),) * 4
    if theta_grid_size > 2:
        grid = blp._breakpoints(blp._branches(cfg), cfg.t_max)
        inner, a, b, owner = _interior_scan(thetas[1:-1], cfg, grid)
    values = np.concatenate(([first.n_value], inner, [last.n_value]))
    k = int(np.argmax(values))
    intervals = {0: first.intervals, theta_grid_size - 1: last.intervals}.get(
        k, tuple(zip(a[owner == k - 1].tolist(), b[owner == k - 1].tolist())))
    return float(values[k]), float(thetas[k]), intervals, last.n_value, first.n_value


def assert_matches_full_scan(cfg, theta_grid_size):
    res = n_measure(cfg, theta_grid_size=theta_grid_size)
    got = (res.n_value, res.theta_star, res.intervals, res.n_omega_branch, res.n_lambda_branch)
    assert repr(got) == repr(full_scan_measure(cfg, theta_grid_size))


@pytest.fixture
def scans(monkeypatch):
    """The number of angles of each ``_interior_scan`` call."""
    sizes, scan = [], blp._interior_scan

    def counted(thetas, cfg, grid):
        sizes.append(thetas.size)
        return scan(thetas, cfg, grid)

    monkeypatch.setattr(blp, "_interior_scan", counted)
    return sizes


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.just(0.0) | st.floats(0.05, 4.0), om=st.just(0.0) | st.floats(0.05, 6.0),
       t_max=st.floats(0.0, 2.0) | st.floats(2.0, 30.0), size=st.sampled_from([2, 3, 9, 65]))
@example(lam=2.0, om=1.0, t_max=5.0, size=2)
@example(lam=2.0, om=1.0, t_max=5.0, size=3)
def test_certified_scan_equals_the_full_scan(lam, om, t_max, size):
    assert_matches_full_scan(cfg_of(lam, om, t_max), size)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.6, 2.7), om=st.floats(1.15, 5.6), t_max=st.floats(0.9, 26.0))
def test_certified_scan_equals_the_full_scan_on_the_scan_workload(lam, om, t_max):
    # the benchmark's nonmark box: lambda in [0.8, 1.2], omega in [1.5, 2.5],
    # gamma in [0.45, 1.3] and tmax up to 20, in units of gamma
    assert_matches_full_scan(cfg_of(lam, om, t_max), 65)


def test_certified_scan_runs_no_scan_when_every_angle_is_certified(scans):
    # the reference holds its own binding of _interior_scan, which is not counted
    assert_matches_full_scan(cfg_of(0.1, 8.0, 5.0), 65)
    assert scans == []


def test_certified_scan_scans_only_the_uncertified_angles(scans):
    n_measure(cfg_of(4.0, 1.0, 3.0))
    assert len(scans) == 1 and 0 < scans[0] < 63
    assert_matches_full_scan(cfg_of(4.0, 1.0, 3.0), 65)


def test_literal_pointwise_max_bounds():
    cfg = cfg_of(1.5, 1.1, 6.0)
    res = n_measure(cfg, theta_grid_size=9)
    literal = literal_pointwise_max(cfg)
    assert literal >= max(res.n_omega_branch, res.n_lambda_branch) - 1e-8
    # with a negligible lambda branch the two collapse
    cfg2 = cfg_of(1e-3, 1.1, 6.0)
    assert literal_pointwise_max(cfg2) == pytest.approx(
        analytic_n_omega(1.1, 6.0), abs=1e-6
    )


def test_literal_pointwise_max_as_printed_regression():
    # Gauss-Kronrod over the grid pieces returned 39.4920741664 here (3.2e-6
    # low, no error raised); 39.4920773378 is a piecewise 10-point
    # Gauss-Legendre sum over 20000 cells per grid piece
    lam, om, t_max = 2.1205324272200645, 4.898443542548282, 25.336602323735057
    got = literal_pointwise_max(cfg_of(lam, om, t_max), mode="as-printed")
    assert got == pytest.approx(literal_max_reference(lam, om, t_max, decay=0.5), abs=1e-10)
    assert got == pytest.approx(39.4920773378, abs=1e-8)


@pytest.mark.parametrize("mode", ["derived", "as-printed"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.0, 4.0), om=st.floats(0.05, 5.0), t_max=st.floats(0.3, 26.0))
@example(lam=0.0, om=1.7, t_max=9.0)
@example(lam=1.3, om=0.0, t_max=9.0)
@example(lam=1.0, om=1.0, t_max=3.0)  # both branches rise on one piece, with no crossing
def test_literal_pointwise_max_matches_oracle(mode, lam, om, t_max):
    cfg = cfg_of(lam, om, t_max)
    got = literal_pointwise_max(cfg, mode=mode)
    decay = 1.0 if mode == "derived" else 0.5
    assert got == pytest.approx(literal_max_reference(lam, om, t_max, decay), abs=1e-9)
    n_om, n_lam = (backflow_integral(b, cfg, mode=mode).n_value for b in BranchKind)
    assert max(n_om, n_lam) - 1e-12 <= got <= n_om + n_lam + 1e-12


def test_literal_pointwise_max_locates_crossings_of_small_rates(monkeypatch):
    # near tau = 14.362 the omega rate falls to zero at the end of a piece
    # where the damped lambda rate is about 6e-7; they cross 1.6e-7 before
    # that end, where the difference of their squares (~1e-13) is within its
    # rounding. The crossing, from 40-digit arithmetic, is 14.36236651406196459
    roots, kernel = [], blp._chandrupatla

    def recorded(fn, lo, hi, k):
        out = kernel(fn, lo, hi, k)
        roots.extend(out.tolist())
        return out

    monkeypatch.setattr(blp, "_chandrupatla", recorded)
    literal_pointwise_max(cfg_of(1.2109243079957042, 1.9686403026991368, 17.359899808544004))
    assert min(abs(r - 14.36236651406196459) for r in roots) < 1e-13


def test_dominant_regime():
    assert dominant_regime(5.0, 0.1, 5.0) is BranchKind.LAMBDA
    assert dominant_regime(0.1, 5.0, 5.0) is BranchKind.OMEGA
    # omega branch identically zero, lambda branch active
    assert dominant_regime(2.0, 0.2, 2.0) is BranchKind.LAMBDA
    # exact tie resolves to omega
    assert dominant_regime(0.0, 0.0, 5.0) is BranchKind.OMEGA
    # the closed forms build no rise intervals, so no quarter-period cap applies
    assert dominant_regime(1.0, 1e12, 1.0) is BranchKind.OMEGA


@pytest.mark.parametrize("mode", ["derived", "as-printed"])
def test_dominant_regime_and_a_branch_refuse_a_phase_that_overflows(mode):
    # omega_hat T = 2e308 is not a float: both raise before any branch value is
    # evaluated, so the suite's RuntimeWarning-as-error filter sees no warning
    with pytest.raises(ValueError, match="branch phase f T is not finite"):
        dominant_regime(1.0, 2.0, 1e308, mode)
    with pytest.raises(ValueError, match="quarter periods, over the cap"):
        backflow_integral(BranchKind.OMEGA, cfg_of(1.0, 2.0, 1e308), mode)


def test_no_threshold_property():
    for lam in (0.05, 0.1, 0.5, 1.0, 2.0):
        t_max = math.pi / lam
        got = backflow_integral(BranchKind.LAMBDA, cfg_of(lam, 1.0, t_max)).n_value
        assert got > 0.0
        assert got == pytest.approx(lambda_rises(lam, t_max), rel=1e-4, abs=1e-12)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_order_and_writers(tmp_path):
    lams = [0.0, 1.0]
    oms = [0.5, 2.0]
    ts = [1.0, 3.0]
    rows = sweep_grid(lams, oms, ts)
    assert len(rows) == 8
    # lambda outermost, omega middle, t innermost
    assert [r.lambda_hat for r in rows] == [0.0] * 4 + [1.0] * 4
    assert [r.omega_hat for r in list(rows)[:4]] == [0.5, 0.5, 2.0, 2.0]
    assert [r.t_max for r in list(rows)[:2]] == [1.0, 3.0]
    for r in rows:
        assert r.n_max == max(r.n_omega_branch, r.n_lambda_branch)
        assert r.winning_branch in ("omega", "lambda")

    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda,omega,T,n_omega_branch,n_lambda_branch,n_max,winning_branch"
    assert len(lines) == 9

    json_path = tmp_path / "sweep.json"
    write_sweep_json(rows, json_path)
    import json

    payload = json.loads(json_path.read_text())
    assert len(payload) == 8
    assert "intervals_omega" in payload[0] and "intervals_lambda" in payload[0]


_axis = st.lists(st.floats(0.0, 8.0), max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lams=_axis, oms=_axis, ts=st.lists(st.floats(0.0, 12.0), max_size=3),
       mode=st.sampled_from(["derived", "as-printed"]))
def test_sweep_matches_per_cell_reference(lams, oms, ts, mode):
    # rows and file bytes equal a cell-by-cell evaluation written by the
    # csv and json modules, empty and single-point axes included
    rows = sweep_grid(lams, oms, ts, mode=mode)
    ref_rows, ref_csv, ref_json = sweep_payload_reference(lams, oms, ts, mode)
    assert [(r.lambda_hat, r.omega_hat, r.t_max, r.n_omega_branch, r.n_lambda_branch,
             r.n_max, r.winning_branch, r.intervals_omega, r.intervals_lambda)
            for r in rows] == ref_rows
    with tempfile.TemporaryDirectory() as tmp:
        write_sweep_csv(rows, Path(tmp) / "sweep.csv")
        write_sweep_json(rows, Path(tmp) / "sweep.json")
        assert (Path(tmp) / "sweep.csv").read_bytes() == ref_csv
        assert (Path(tmp) / "sweep.json").read_bytes() == ref_json


def test_sweep_rejects_the_first_invalid_cell():
    # the first invalid cell in row order decides the error, as cell by cell
    for lams, oms, ts, message in (
        ([1.0, math.nan], [1.0], [-1.0], "t_max must be nonnegative"),
        ([1.0, 2.0, math.inf], [1.0], [1.0], "lambda_hat must be finite"),
        ([1.0], [math.inf, 2.0], [1.0, -2.0], "omega_hat must be finite"),
        ([math.nan], [math.nan], [math.nan], "lambda_hat must be finite"),
        ([1.0, -0.5], [1.0], [1.0], "lambda_hat must be nonnegative"),
        ([1.0], [-3.0, 2.0], [1.0, -2.0], "omega_hat must be nonnegative"),
        ([1.0], [2.0, -3.0], [1.0, -2.0], "t_max must be nonnegative"),
        ([-1.0], [-1.0], [math.inf], "t_max must be finite"),
    ):
        with pytest.raises(ValueError, match=message):
            sweep_grid(lams, oms, ts)
    assert list(sweep_grid([], [1.0], [math.nan])) == []
    assert list(sweep_grid([math.nan], [1.0], [])) == []


def test_sweep_grid_caps_its_cells(monkeypatch):
    # refused on the axis lengths, before any cell is evaluated
    with pytest.raises(ValueError, match="513 x 512 x 1 = 262656 cells, over the cap of 262144"):
        sweep_grid(np.zeros(513), np.zeros(512), [1.0])
    # the cap is inclusive
    monkeypatch.setattr(blp, "MAX_SWEEP_CELLS", 6)
    assert len(sweep_grid([1.0, 2.0], [1.0], [1.0, 2.0, 3.0])) == 6
    with pytest.raises(ValueError, match="over the cap of 6"):
        sweep_grid([1.0, 2.0], [1.0], [1.0, 2.0, 3.0, 4.0])


def test_json_sweep_caps_its_intervals(monkeypatch, tmp_path):
    # the count is that of the intervals the file lists (rises cut at T included,
    # none at T = 0 or at frequency 0), the cap is inclusive, a refused sweep opens
    # no file, and a CSV sweep lists no intervals
    lams, oms, ts = [0.0, 1.5, 3.0], [0.0, 2.0, 4.5], [0.0, 1.0, 4.0, 7.5, 1.0]
    rows, ref_csv, ref_json = sweep_payload_reference(lams, oms, ts)
    n = sum(len(row[7]) + len(row[8]) for row in rows)
    grid = sweep_grid(lams, oms, ts)
    monkeypatch.setattr(blp, "MAX_SWEEP_INTERVALS", n)
    write_sweep_json(grid, tmp_path / "sweep.json")
    assert (tmp_path / "sweep.json").read_bytes() == ref_json
    monkeypatch.setattr(blp, "MAX_SWEEP_INTERVALS", n - 1)
    with pytest.raises(ValueError, match=rf"lists {n} rise intervals, over the cap of {n - 1} "
                                         r"\(blp\.MAX_SWEEP_INTERVALS\)"):
        write_sweep_json(grid, tmp_path / "refused.json")
    assert not (tmp_path / "refused.json").exists()
    # one cell of 318 rises, one over the cap: counted exactly, before any rise is built
    monkeypatch.setattr(blp, "MAX_SWEEP_INTERVALS", 317)
    with monkeypatch.context() as m:
        m.setattr(blp, "_rises", mock.Mock(side_effect=AssertionError("built")))
        with pytest.raises(ValueError, match="lists 318 rise intervals"):
            write_sweep_json(sweep_grid([0.0], [100.0], [10.0]), tmp_path / "refused.json")
    monkeypatch.setattr(blp, "MAX_SWEEP_INTERVALS", 0)
    write_sweep_csv(grid, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == ref_csv


def test_json_sweep_far_over_the_interval_cap_is_refused_before_its_rises_are_built(
        monkeypatch, tmp_path):
    # every (frequency, T) list is counted by _rise_count, so a sweep over the cap is
    # refused with its exact count before any rise is built: 4096 omegas up to 1600 at
    # T = 1000 list about 1e9 rises
    monkeypatch.setattr(blp, "_rises", mock.Mock(side_effect=AssertionError("built")))
    grid = sweep_grid([1.0], np.linspace(1.0, 1600.0, 4096), [1000.0])
    with pytest.raises(ValueError, match=rf"lists 1044992261 rise intervals, over the cap "
                                         rf"of {blp.MAX_SWEEP_INTERVALS} "):
        write_sweep_json(grid, tmp_path / "refused.json")
    # one cell of 318 rises, two over the cap
    monkeypatch.setattr(blp, "MAX_SWEEP_INTERVALS", 316)
    with pytest.raises(ValueError, match="lists 318 rise intervals, over the cap of 316"):
        write_sweep_json(sweep_grid([0.0], [100.0], [10.0]), tmp_path / "refused.json")
    assert not (tmp_path / "refused.json").exists()


# frequency 3 up to this T spans half a quarter period less than MAX_QUARTER_PERIODS
_quarter_cap_t = (blp.MAX_QUARTER_PERIODS - 0.5) * math.pi / 6.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(freqs=st.lists(st.sampled_from([0.0, 1e-17]) | st.floats(1e-3, 50.0), max_size=5),
       decay=st.sampled_from([0.0, 0.5, 1.0]),
       ts=st.lists(st.just(0.0) | st.floats(0.0, 30.0), max_size=4),
       starts=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 40)), max_size=2))
@example(freqs=[3.0, 0.0, 1e-17, 1.5], decay=0.5, ts=[_quarter_cap_t, 1.0], starts=[(3, 7)])
@example(freqs=[1e-17, 0.0], decay=0.0, ts=[3 * (math.pi / 2e-17), 0.0], starts=[(0, 2)])
@example(freqs=[2.0, 0.0], decay=1.0, ts=[], starts=[])
# at these frequencies numpy's arctan2 and math.atan2 round apart; the rises take math.atan2
@example(freqs=[1.6802451796979123, 20.228187439236592], decay=1.0, ts=[30.0], starts=[])
@example(freqs=[1.6802451796979123], decay=0.5, ts=[30.0], starts=[])
def test_one_rise_kernel_gives_each_branchs_rises(freqs, decay, ts, starts):
    # one call over every frequency, damped by decay and undamped, gives each branch's
    # own call bit for bit; the JSON sweep lists, for each (frequency, T), the rises begun
    # before T and ended by it as searchsorted counts them on those arrays, with T for the
    # end of a rise T cuts; at zero and 1e-17 frequencies, T = 0, no T, T exactly on a
    # rise start and a largest T just under the quarter-period cap (over it, both refuse)
    for i, k in starts:
        if i < len(freqs) and freqs[i] > 0.0:
            ts = ts + [(2 * k + 1) * (math.pi / (2.0 * freqs[i]))]  # the start _rises builds
    top = max(ts, default=0.0)
    branches = [(f, c) for c in (decay, 0.0) for f in freqs]
    if 2.0 * max(freqs, default=0.0) * top / math.pi > blp.MAX_QUARTER_PERIODS:
        with pytest.raises(ValueError, match="quarter periods, over the cap"):
            blp._rises([(max(freqs), decay)], top)
        with pytest.raises(ValueError, match="quarter periods, over the cap"):
            blp._rises(branches, top)  # before any rise is built, as for one branch
        return
    zeros, ends, first = blp._rises(branches, top)
    assert len(first) == len(branches) + 1 and first[0] == 0
    assert first[-1] == zeros.size == ends.size
    lists = []  # per branch: the lists of each T
    for i, branch in enumerate(branches):
        want_zeros, want_ends, want_first = blp._rises([branch], top)
        assert want_first == [0, want_zeros.size]
        assert zeros[first[i]:first[i + 1]].tobytes() == want_zeros.tobytes()
        assert ends[first[i]:first[i + 1]].tobytes() == want_ends.tobytes()
        begun = np.searchsorted(want_zeros, ts, "left")
        done = np.minimum(np.searchsorted(want_ends, ts, "right"), begun)
        lists.append([[[z, e] for z, e in zip(want_zeros[:m].tolist(), want_ends.tolist())]
                      + [[z, t] for z in want_zeros[m:n].tolist()]
                      for n, m, t in zip(begun.tolist(), done.tolist(), ts)])
    # the lambda axis takes the damped branches and the omega axis the undamped ones
    grid = blp.SweepGrid(tuple(freqs), tuple(freqs), tuple(ts), None, None, decay)
    listed = len(freqs) * sum(len(iv) for per_t in lists for iv in per_t)
    if listed > blp.MAX_SWEEP_INTERVALS:  # the texts are not rendered, but refused
        with pytest.raises(ValueError, match=rf"lists {listed} rise intervals"):
            list(blp._interval_texts(grid, ("", "")))
        return
    lam_texts, om_texts = reversed(list(blp._interval_texts(grid, ("", ""))))
    texts = [*lam_texts.tolist(), *om_texts.tolist()]
    assert [[json.loads(text) for text in row] for row in texts] == lists


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(freq=st.sampled_from([0.0, 1e-17, 5e-324]) | st.floats(1e-3, 50.0),
       decay=st.sampled_from([0.0, 0.5, 1.0]), top=st.floats(0.0, 30.0),
       shares=st.lists(st.floats(0.0, 1.0), max_size=6))
@example(freq=2.0, decay=1.0, top=0.0, shares=[])
@example(freq=1e-17, decay=0.0, top=3 * (math.pi / 2e-17), shares=[0.3, 0.34])
@example(freq=5e-324, decay=1.0, top=1e300, shares=[0.5])
def test_rise_count_counts_the_rises_begun_before_t(freq, decay, top, shares):
    # for every T up to top, _rise_count(f, T) is the number of the rises _rises builds up
    # to top that begin before T: at T = 0, T = top, T exactly on each rise start, and
    # frequencies 0, 1e-17 and 5e-324 (the pi / (2 f) quarter period overflows)
    zeros = blp._rises([(freq, decay)], top)[0]
    ts = [0.0, top, *(top * s for s in shares), *zeros.tolist()]
    assert [blp._rise_count(freq, t) for t in ts] == np.searchsorted(zeros, ts, "left").tolist()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(freq=st.floats(0.2, 5.0), decay=st.sampled_from([0.0, 0.5, 1.0]),
       t_max=st.floats(0.0, 20.0))
def test_rises_match_a_sampled_oracle(freq, decay, t_max):
    # every rise is at least atan2(5, 1)/5 = 0.27 long, over 500 spacings; a rise that T
    # cuts within a few spacings of its start may or may not show in the samples
    h = t_max / 40_000
    offset = (t_max - math.pi / (2.0 * freq)) % (math.pi / freq)
    assume(min(offset, math.pi / freq - offset) > 3.0 * h)
    zeros, ends, _ = blp._rises([(freq, decay)], t_max)
    want_zeros, want_ends = sampled_rises(freq, decay, t_max, 40_001)
    assert zeros.size == want_zeros.size
    np.testing.assert_allclose(zeros, want_zeros, rtol=0, atol=1.001 * h)
    np.testing.assert_allclose(ends, want_ends, rtol=0, atol=1.001 * h)


@pytest.mark.parametrize("mode", ["derived", "as-printed"])
def test_sweep_grid_is_the_sequence_of_its_rows(mode):
    # indexing, negative indices and iteration give the rows of a
    # cell-by-cell evaluation in row order (lambda outer, T inner)
    lams, oms, ts = [0.0, 1.5, 3.0], [0.5, 2.0], [1.0, 2.5, 4.0]
    grid = sweep_grid(lams, oms, ts, mode=mode)
    ref_rows = sweep_payload_reference(lams, oms, ts, mode)[0]
    n = len(ref_rows)
    assert len(grid) == n == 18
    assert [dataclasses.astuple(grid[c]) for c in range(n)] == ref_rows
    assert [dataclasses.astuple(grid[c]) for c in range(-n, 0)] == ref_rows
    assert list(grid) == [grid[c] for c in range(n)]
    for c in (n, -n - 1):
        with pytest.raises(IndexError):
            grid[c]
    for empty in (sweep_grid([], oms, ts), sweep_grid(lams, [], ts), sweep_grid(lams, oms, [])):
        assert len(empty) == 0 and list(empty) == []


def test_sweep_writers_keep_the_per_cell_tie_rule(monkeypatch, tmp_path):
    # branch values at the tie edges, crossed on a grid: equal values, a lead
    # of exactly TIE_TOL, one ulp more, and 0.0/-0.0 in both orders; n_max is
    # max(n_omega, n_lambda) and lambda wins iff n_lambda > n_omega + 1e-10
    edge = 0.25 + blp.TIE_TOL
    values = [1.5, 0.25, edge, float(np.nextafter(edge, np.inf)), 0.0, -0.0]

    def branch_value(freq, decay, t_max):
        return np.broadcast_arrays(np.take(values, np.asarray(freq, dtype=int)), t_max)[0]

    monkeypatch.setattr(blp, "_branch_value", branch_value)
    # the frequencies 0-5 up to T = 1 have no rise, whole rises and rises cut at T
    axis = [float(i) for i in range(len(values))]
    grid = sweep_grid(axis, axis, [1.0])
    rows = [(lam, om, 1.0, values[int(om)], values[int(lam)],
             max(values[int(om)], values[int(lam)]),
             "lambda" if values[int(lam)] > values[int(om)] + 1e-10 else "omega",
             *blp._rise_intervals(((om, 0.0), (lam, 1.0)), 1.0))
            for lam in axis for om in axis]
    assert {r[6] for r in rows} == {"omega", "lambda"}
    assert [dataclasses.astuple(r) for r in grid] == rows
    ref_csv, ref_json = sweep_files_reference(rows)
    write_sweep_csv(grid, tmp_path / "sweep.csv")
    write_sweep_json(grid, tmp_path / "sweep.json")
    assert (tmp_path / "sweep.csv").read_bytes() == ref_csv
    assert (tmp_path / "sweep.json").read_bytes() == ref_json
    assert b",0,-0,0,omega" in ref_csv and b",-0,0,-0,omega" in ref_csv


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_sweep_writers_join_whole_cells_across_chunks(monkeypatch, tmp_path, chunk):
    # the writers write blp._SWEEP_CHUNK cells at a time: 27 cells (not a
    # multiple of 2 or 5), one cell and an empty axis give the bytes of the
    # cell-by-cell reference, and so do the tie-rule edges
    monkeypatch.setattr(blp, "_SWEEP_CHUNK", chunk)
    for lams, oms, ts in (([0.0, 1.5, 3.0], [0.5, 2.0, 4.0], [1.0, 4.0, 7.5]),
                          ([1.5], [2.0], [4.0]), ([1.0, 2.0], [], [3.0])):
        for mode in ("derived", "as-printed"):
            grid = sweep_grid(lams, oms, ts, mode=mode)
            _, ref_csv, ref_json = sweep_payload_reference(lams, oms, ts, mode)
            write_sweep_csv(grid, tmp_path / "sweep.csv")
            write_sweep_json(grid, tmp_path / "sweep.json")
            assert (tmp_path / "sweep.csv").read_bytes() == ref_csv
            assert (tmp_path / "sweep.json").read_bytes() == ref_json
    test_sweep_writers_keep_the_per_cell_tie_rule(monkeypatch, tmp_path)


@pytest.mark.parametrize("chunk, axes, block", [
    (7, ([0.0, 1.5, 3.0], [0.5, 2.0], [1.0, 4.0, 7.5]), 6),  # whole lambda rows of 6
    (7, ([1.5, 3.0], [0.5, 2.0, 4.0, 6.0], [1.0, 2.0, 4.0]), 6),  # rows of 12: omega-runs of 2
    (7, ([1.5], [0.5, 2.0], np.linspace(0.5, 9.0, 10).tolist()), 7),  # T-runs of 10: 7 and 3
    (512, ([1.0], [0.5, 4.0], np.linspace(0.0, 6.0, 600).tolist()), 512),  # a T-run of 600
    (512, ([0.5, 1.0], np.linspace(0.0, 5.0, 40).tolist(), [1.0, 2.5, 4.0] * 7),
     504),  # rows of 840: omega-runs of 24
])
def test_sweep_writers_write_at_most_a_chunk_of_cells_at_a_time(monkeypatch, tmp_path, chunk,
                                                                axes, block):
    # each write of either writer holds at most blp._SWEEP_CHUNK cells, also where one
    # lambda row or one (lambda, omega) T-run is longer, and the writes join into the file
    monkeypatch.setattr(blp, "_SWEEP_CHUNK", chunk)
    grid = sweep_grid(*axes)
    writes = []

    class Spy(io.StringIO):
        def write(self, text):
            writes.append(text)
            return len(text)

    for writer, cell in ((write_sweep_csv, "\r\n"), (write_sweep_json, '"lambda": ')):
        writer(grid, tmp_path / "sweep")
        writes.clear()
        with mock.patch.object(blp, "open", lambda *args, **kwargs: Spy(), create=True):
            writer(grid, tmp_path / "spied")
        assert "".join(writes).encode() == (tmp_path / "sweep").read_bytes()
        cells = [w.count(cell) for w in writes]
        assert sum(cells) == len(grid) + (writer is write_sweep_csv)  # the CSV header
        assert max(cells) == block <= chunk


_frequencies = st.lists(st.just(0.0) | st.floats(0.1, 6.0), max_size=4)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lams=_frequencies, oms=_frequencies,
       ts=st.lists(st.just(0.0) | st.floats(0.0, 10.0), max_size=3),
       cuts=st.lists(st.tuples(st.integers(0, 3), st.floats(0.05, 0.95)), max_size=2),
       repeat=st.booleans(), mode=st.sampled_from(["derived", "as-printed"]),
       chunk=st.sampled_from([1, 7, 512]))
@example(lams=[0.0, 2.0], oms=[3.0, 0.0], ts=[1.0, 0.0, 1.0], cuts=[(0, 0.5)], repeat=True,
         mode="as-printed", chunk=7)
@example(lams=[1e-17], oms=[0.0], ts=[3 * (math.pi / 2e-17), 5 * (math.pi / 2e-17)], cuts=[],
         repeat=False, mode="derived", chunk=512)  # a rise starts at T, its reach rounds to 0
def test_sweep_writers_equal_the_per_cell_reference(lams, oms, ts, cuts, repeat, mode, chunk):
    # the writers render each rise of an axis frequency once, up to the largest
    # T, and take the rises up to each T as a prefix; on unsorted and repeated
    # T, T = 0, zero frequencies and last rises cut at T, in any chunking, their
    # bytes are those of a cell-by-cell evaluation
    c = 1.0 if mode == "derived" else 0.5
    for freqs, decay in ((oms, 0.0), (lams, c)):
        if max(freqs, default=0.0) > 0.0:  # T inside rise k of the largest frequency
            f = max(freqs)
            ts = ts + [(2 * k + 1) * math.pi / (2.0 * f) + s * math.atan2(f, decay) / f
                       for k, s in cuts]
    if repeat:
        ts = ts + ts[:1]
    _, ref_csv, ref_json = sweep_payload_reference(lams, oms, ts, mode)
    grid = sweep_grid(lams, oms, ts, mode=mode)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(blp, "_SWEEP_CHUNK", chunk):
        write_sweep_csv(grid, Path(tmp) / "sweep.csv")
        write_sweep_json(grid, Path(tmp) / "sweep.json")
        assert (Path(tmp) / "sweep.csv").read_bytes() == ref_csv
        assert (Path(tmp) / "sweep.json").read_bytes() == ref_json


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.05, 8.0), om=st.floats(0.05, 8.0),
       ts=st.lists(st.floats(0.0, 40.0), min_size=2, max_size=8, unique=True),
       mode=st.sampled_from(["derived", "as-printed"]))
def test_sweep_branches_grow_or_saturate_in_time(lam, om, ts, mode):
    # the omega branch grows without bound while the damped lambda branch
    # saturates at the geometric sum of its rises s e^{-c(q + r)} rho^k
    rows = sweep_grid([lam], [om], sorted(ts), mode=mode)
    c = 1.0 if mode == "derived" else 0.5
    q, r = math.pi / (2.0 * lam), math.atan2(lam, c) / lam
    rho = math.exp(-c * math.pi / lam)
    saturation = lam / math.hypot(lam, c) * math.exp(-c * (q + r)) / (1.0 - rho)
    n_lam = [row.n_lambda_branch for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(n_lam, n_lam[1:]))
    assert max(n_lam) <= saturation * (1.0 + 1e-12)
    for row in rows:
        assert row.n_omega_branch >= math.floor(om * row.t_max / math.pi)
