import csv
import math

import numpy as np
import pytest

from dipolefield.dynamics import (
    MAX_QUARTER_PERIODS,
    InitialCondition,
    StatePair,
    mean_dipole,
    mean_inversion,
    trace_distance,
    write_timeseries,
)
from dipolefield.model import SystemParams, derive_params

from oracles import (closure_inversion_ode, hierarchy_means, pair_distance_from_means,
                     params_for_rates)


def random_params(rng, beta_s_min=0.0):
    return SystemParams(
        omega=rng.uniform(0.1, 10),
        kappa=rng.uniform(0.1, 2),
        beta_s=rng.uniform(beta_s_min, 3),
        i0=rng.uniform(0, 5),
        beta=rng.uniform(0.05, 4),
    )


# ---------------------------------------------------------------------------
# mean dipole
# ---------------------------------------------------------------------------

def test_mean_dipole_spot_values():
    p = SystemParams(omega=2.0, kappa=1.0, beta_s=0.1, i0=0.3, beta=1.0)
    assert mean_dipole(InitialCondition(1.0, 0.0), p, 0.0) == 1.0
    t_quarter = (math.pi / 2) / p.omega
    assert mean_dipole(InitialCondition(1.0, 0.0), p, t_quarter) == pytest.approx(0.0, abs=1e-15)
    t_half = math.pi / p.omega
    assert mean_dipole(InitialCondition(0.5, 0.0), p, t_half) == pytest.approx(-0.5)


def test_mean_dipole_depends_only_on_gap():
    # coherence dynamics is set by the level splitting alone
    rng = np.random.default_rng(21)
    ic = InitialCondition(0.7, 0.2)
    ts = np.linspace(0, 10, 50)
    reference = None
    for _ in range(20):
        p = random_params(rng)
        p = SystemParams(omega=3.0, kappa=p.kappa, beta_s=p.beta_s, i0=p.i0, beta=p.beta)
        vals = np.asarray(mean_dipole(ic, p, ts))
        if reference is None:
            reference = vals
        np.testing.assert_array_equal(vals, reference)


# ---------------------------------------------------------------------------
# mean inversion
# ---------------------------------------------------------------------------

def test_mean_inversion_initial_value():
    rng = np.random.default_rng(22)
    for _ in range(50):
        p = random_params(rng)
        w0 = rng.uniform(-1, 1)
        ic = InitialCondition(0.0, w0)
        for mode in ("derived", "as-printed"):
            assert mean_inversion(ic, p, 0.0, mode=mode) == pytest.approx(w0, abs=1e-14)


def test_mean_inversion_long_time_limit():
    p = SystemParams(omega=2.0, kappa=1.0, beta_s=1.0, i0=2 / math.pi, beta=1.0)
    d = derive_params(p)
    assert d.lambda_sq > 0 and d.gamma > 0
    w_inf = -2 * d.a_const / p.omega
    ic = InitialCondition(0.0, 1.0)
    assert mean_inversion(ic, p, 80.0) == pytest.approx(w_inf, abs=1e-12)


def test_mean_inversion_free_decay_exact():
    # zero field: the hyperbolic branch must reduce to pure relaxation
    p = SystemParams(omega=1.3, kappa=0.8, beta_s=1.0, i0=0.0, beta=2.0)
    ic = InitialCondition(0.0, 1.0)
    ts = np.linspace(0.0, 8.0, 400)
    expected = -1.0 + 2.0 * np.exp(-p.beta_s * ts)
    got = np.asarray(mean_inversion(ic, p, ts))
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_mean_inversion_matches_closure_ode():
    # brute-force kernel-closure integration pins the full derived form
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_params(rng)
        d = derive_params(p)
        w0 = rng.uniform(-1, 1)
        ts = np.linspace(0.0, 8.0 / d.gamma, 120)
        oracle = closure_inversion_ode(w0, p, ts)
        got = np.asarray(mean_inversion(InitialCondition(0.0, w0), p, ts))
        np.testing.assert_allclose(got, oracle, atol=5e-9)



def test_mean_inversion_at_critical_damping_matches_closure_ode():
    # pi*i0*kappa^2 = 0.5 puts lambda_sq exactly at zero, where the sine
    # envelope is t e^{-gamma t}; w0 != 0 gives it a nonzero coefficient
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.0, i0=0.5 / math.pi, beta=1.0)
    d = derive_params(p)
    assert d.lambda_sq == 0.0
    for w0 in (1.0, -0.6):
        assert d.c_sine + 0.5 * (p.beta - p.beta_s) * 0.5 * p.omega * w0 != 0.0
        ts = np.linspace(0.0, 8.0 / d.gamma, 120)
        got = np.asarray(mean_inversion(InitialCondition(0.0, w0), p, ts))
        np.testing.assert_allclose(got, closure_inversion_ode(w0, p, ts), rtol=0, atol=1e-9)


@pytest.mark.parametrize("beta_s, i0", [
    (0.0, 0.15915494309189532),  # one ulp below critical: lambda_sq = -2.8e-17
    (1.0 - 1e-8, 1.5915494469132586e-17),  # lambda_sq = -6.2e-33
])
def test_mean_inversion_just_below_critical_damping_matches_closure_ode(beta_s, i0):
    # the sinh envelope's two exponentials nearly cancel here; a plain difference
    # of them lost up to 7e-9 to the oracle and let the envelope peak at 1.06
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=beta_s, i0=i0, beta=1.0)
    d = derive_params(p)
    assert -1e-16 < d.lambda_sq < 0.0
    for w0 in (1.0, -0.6):
        ts = np.linspace(0.0, 8.0 / d.gamma, 120)
        got = np.asarray(mean_inversion(InitialCondition(0.0, w0), p, ts))
        np.testing.assert_allclose(got, closure_inversion_ode(w0, p, ts), rtol=0, atol=1e-10)


def test_mean_inversion_modes_agree_when_symmetric():
    # the variants differ only through the (beta - beta_s) * w0 sine term
    rng = np.random.default_rng(24)
    ts = np.linspace(0, 10, 60)
    for _ in range(20):
        p = random_params(rng)
        sym = SystemParams(omega=p.omega, kappa=p.kappa, beta_s=p.beta,
                           i0=p.i0, beta=p.beta)
        ic = InitialCondition(0.0, rng.uniform(-1, 1))
        np.testing.assert_allclose(
            np.asarray(mean_inversion(ic, sym, ts, mode="derived")),
            np.asarray(mean_inversion(ic, sym, ts, mode="as-printed")),
            atol=1e-14,
        )
        ic0 = InitialCondition(0.3, 0.0)
        np.testing.assert_allclose(
            np.asarray(mean_inversion(ic0, p, ts, mode="derived")),
            np.asarray(mean_inversion(ic0, p, ts, mode="as-printed")),
            atol=1e-14,
        )


def test_differencing_identity():
    # initial-value differences evolve with the damped envelope alone:
    # the offset and sine constants cancel, leaving
    # dW * e^{-gamma t} (cos(lambda t) + (beta-beta_s)/2 * sin(lambda t)/lambda)
    rng = np.random.default_rng(25)
    for _ in range(40):
        p = random_params(rng)
        d = derive_params(p)
        w1, w2 = rng.uniform(-1, 1, size=2)
        ts = np.linspace(0.0, 6.0 / d.gamma, 80)
        diff = np.asarray(mean_inversion(InitialCondition(0, w1), p, ts)) - np.asarray(
            mean_inversion(InitialCondition(0, w2), p, ts)
        )
        delta = 0.5 * (p.beta - p.beta_s)
        if d.lambda_sq > 0:
            lam = math.sqrt(d.lambda_sq)
            envelope = np.exp(-d.gamma * ts) * (
                np.cos(lam * ts) + delta * np.sin(lam * ts) / lam
            )
        else:
            nu = math.sqrt(-d.lambda_sq)
            envelope = np.exp(-d.gamma * ts) * np.cosh(nu * ts)
            if nu > 0:
                envelope += delta * np.exp(-d.gamma * ts) * np.sinh(nu * ts) / nu
            else:
                envelope += delta * ts * np.exp(-d.gamma * ts)
        np.testing.assert_allclose(diff, (w1 - w2) * envelope, atol=1e-12)


def test_differencing_identity_symmetric_rates():
    # with beta == beta_s the envelope is the bare damped cosine
    p = params_for_rates(gamma=1.2, lam=0.9, omega=4.0)
    d = derive_params(p)
    ts = np.linspace(0.0, 8.0, 60)
    diff = np.asarray(mean_inversion(InitialCondition(0, 0.9), p, ts)) - np.asarray(
        mean_inversion(InitialCondition(0, -0.4), p, ts)
    )
    expected = 1.3 * np.exp(-d.gamma * ts) * np.cos(math.sqrt(d.lambda_sq) * ts)
    np.testing.assert_allclose(diff, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Bloch-ball membership and the evolved state (m, w)
# ---------------------------------------------------------------------------

def test_initial_condition_ball():
    InitialCondition(m0=0.6, w0=0.8)  # boundary is fine
    with pytest.raises(ValueError, match="outside the Bloch ball"):
        InitialCondition(m0=0.8, w0=0.7)
    # m0^2 + w0^2 > 1 is false for NaN, so a non-finite value is refused on its own
    for bad in ({"m0": math.nan}, {"w0": math.nan}, {"m0": math.inf}, {"w0": -math.inf},
                {"mdot0": math.nan}, {"mdot0": math.inf}):
        with pytest.raises(ValueError, match="must be finite"):
            InitialCondition(**{"m0": 0.0, "w0": 1.0, **bad})


def test_evolved_state_identity_at_zero():
    p = SystemParams(omega=3.0, kappa=1.0, beta_s=0.4, i0=0.7, beta=1.2)
    ic = InitialCondition(0.6, 0.8)
    assert mean_dipole(ic, p, 0.0) == pytest.approx(0.6, abs=1e-14)
    assert mean_inversion(ic, p, 0.0) == pytest.approx(0.8, abs=1e-14)


def test_evolved_state_maximally_mixed_as_printed():
    # no emission: offset and sine constants vanish; in the fixed-expression
    # variant the inversion crosses zero exactly at the cosine zero
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.0, i0=2.0, beta=1.0)
    d = derive_params(p)
    assert d.a_const == 0.0 and d.c_sine == 0.0 and d.lambda_sq > 0
    t_q = (math.pi / 2) / math.sqrt(d.lambda_sq)
    ic = InitialCondition(0.0, 1.0)
    assert mean_dipole(ic, p, t_q) == 0.0
    assert mean_inversion(ic, p, t_q, mode="as-printed") == pytest.approx(0.0, abs=1e-14)
    # the exact closure keeps a sine remnant there
    expected = math.exp(-d.gamma * t_q) * d.gamma / math.sqrt(d.lambda_sq)
    assert mean_inversion(ic, p, t_q, mode="derived") == pytest.approx(expected, rel=1e-12)


def test_evolved_state_ball_membership_inversion_axis():
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(5000):
        p = random_params(rng)
        d = derive_params(p)
        ic = InitialCondition(0.0, rng.uniform(-1, 1))
        t = rng.uniform(0, 20.0 / d.gamma)
        m, w = mean_dipole(ic, p, t), mean_inversion(ic, p, t)
        worst = max(worst, m**2 + w**2 - 1.0)
    assert worst <= 1e-12


def test_evolved_state_coherent_breach_leaves_the_ball():
    # the closure's dipole never damps while the population relaxes, so the closed
    # forms carry a coherent initial state out of the ball at a full dipole revival
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.2, i0=0.1 / math.pi, beta=1.0)
    ic = InitialCondition(1.0, 0.0)
    t = 8 * math.pi / p.omega  # cos(omega t) = 1, inversion well relaxed
    m, w = mean_dipole(ic, p, t), mean_inversion(ic, p, t)
    assert m**2 + w**2 > 1.0


def test_exact_means_stay_in_the_ball_where_the_closed_forms_leave_it():
    # the escape above is the closure's undamped dipole: the exact means of the
    # model (the Ornstein-Uhlenbeck hierarchy, L = 16 agrees to 1e-10) stay inside
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.5, i0=0.25 / math.pi, beta=1.0)
    ic = InitialCondition(0.6, 0.8)
    t = np.linspace(0.0, 40.0, 4001)
    closed = mean_dipole(ic, p, t) ** 2 + mean_inversion(ic, p, t) ** 2
    m, _, w = hierarchy_means(p, (ic.m0, ic.mdot0, ic.w0), t, 12)
    outside = closed > 1.0
    assert outside.any()
    assert np.max((m**2 + w**2)[outside]) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# the closed forms against the exact hierarchy of the field's moments
# ---------------------------------------------------------------------------

#: acceptance criterion 09's weak-coupling config
_WEAK = SystemParams(omega=5.0, kappa=1.0, beta_s=0.2, i0=0.1 / math.pi, beta=1.0)


def test_hierarchy_converges_in_its_truncation():
    t = np.linspace(0.0, 10.0, 401)
    coarse, fine = (hierarchy_means(_WEAK, (0.6, 0.0, 0.8), t, L) for L in (8, 12))
    assert np.max(np.abs(coarse - fine)) <= 1e-9


def test_hierarchy_zero_field_is_free_precession_and_decay():
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.5, i0=0.0, beta=1.0)
    t = np.linspace(0.0, 10.0, 401)
    m, _, w = hierarchy_means(p, (0.5, 0.0, 0.3), t, 4)
    np.testing.assert_allclose(w, -1.0 + 1.3 * np.exp(-0.5 * t), rtol=0, atol=1e-8)
    np.testing.assert_allclose(m, 0.5 * np.cos(5.0 * t), rtol=0, atol=1e-8)


def test_weak_coupling_inversion_matches_the_exact_mean():
    # the closure is exact to second order in the field; here it is off by 7.5e-4
    t = np.linspace(0.0, 10.0, 401)
    ic = InitialCondition(0.6, 0.8)
    _, _, w = hierarchy_means(_WEAK, (ic.m0, ic.mdot0, ic.w0), t, 12)
    assert np.max(np.abs(w - mean_inversion(ic, _WEAK, t))) <= 2e-3


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------

def test_trace_distance_initial_value():
    rng = np.random.default_rng(27)
    for _ in range(20):
        p = random_params(rng)
        pair = StatePair(theta=rng.uniform(0, math.pi / 2))
        for mode in ("derived", "as-printed"):
            assert trace_distance(pair, p, 0.0, mode=mode) == pytest.approx(1.0, abs=1e-14)


def test_trace_distance_coherence_pair():
    p = SystemParams(omega=3.0, kappa=1.0, beta_s=0.5, i0=1.0, beta=1.0)
    ts = np.linspace(0, 5, 40)
    for mode in ("derived", "as-printed"):
        got = np.asarray(trace_distance(StatePair(math.pi / 2), p, ts, mode=mode))
        np.testing.assert_allclose(got, np.abs(np.cos(p.omega * ts)), atol=1e-14)


def test_trace_distance_inversion_pair_derived():
    p = params_for_rates(gamma=0.8, lam=1.5, omega=4.0)
    d = derive_params(p)
    ts = np.linspace(0, 6, 50)
    got = np.asarray(trace_distance(StatePair(0.0), p, ts, mode="derived"))
    expected = np.exp(-d.gamma * ts) * np.abs(np.cos(math.sqrt(d.lambda_sq) * ts))
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_trace_distance_is_the_distance_of_the_derived_states_when_beta_equals_beta_s():
    # half the Bloch-vector distance of the evolved pair (sin theta, cos theta)
    # and its antipode; only at beta = beta_s does the inversion difference
    # lose its sine term, as trace_distance assumes
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 10.0, 201)
    for k in range(20):
        rate = rng.uniform(0.05, 3.0)
        p = SystemParams(omega=rng.uniform(0.1, 10), kappa=rng.uniform(0.1, 2), beta_s=rate,
                         i0=0.0 if k % 4 == 0 else rng.uniform(0, 5), beta=rate)
        theta = rng.uniform(0, math.pi / 2)
        np.testing.assert_allclose(pair_distance_from_means(theta, p, ts),
                                   trace_distance(StatePair(theta), p, ts),
                                   rtol=0, atol=1e-13)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: trace_distance drops the sine term "
                                       "of the inversion difference when beta != beta_s")
def test_trace_distance_is_the_distance_of_the_derived_states_when_beta_differs_from_beta_s():
    # README's "Known model limits" config, where the two differ by 0.149
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.2, i0=0.5, beta=1.0)
    ts = np.linspace(0.0, 10.0, 201)
    np.testing.assert_allclose(pair_distance_from_means(0.7, p, ts),
                               trace_distance(StatePair(0.7), p, ts),
                               rtol=0, atol=1e-13)


def test_trace_distance_contractive_from_origin():
    # derived mode is contractive for every parameter set; the fixed-
    # expression variant carries only half the damping rate, so its
    # hyperbolic continuation stays below 1 only while sqrt(-lambda_sq)
    # does not exceed gamma/2
    rng = np.random.default_rng(28)
    for _ in range(300):
        p = random_params(rng)
        d = derive_params(p)
        pair = StatePair(theta=rng.uniform(0, math.pi / 2))
        t = rng.uniform(0, 30.0 / d.gamma)
        assert trace_distance(pair, p, t, mode="derived") <= 1.0 + 1e-12
        if -d.lambda_sq <= (0.5 * d.gamma) ** 2:
            assert trace_distance(pair, p, t, mode="as-printed") <= 1.0 + 1e-12


def test_trace_distance_as_printed_overdamped_growth():
    # outside that region the half-rate envelope genuinely escapes the
    # unit interval: a documented artifact of the fixed-expression variant
    p = SystemParams(omega=8.5, kappa=1.78, beta_s=2.3, i0=0.16, beta=0.25)
    d = derive_params(p)
    assert -d.lambda_sq > (0.5 * d.gamma) ** 2
    assert trace_distance(StatePair(0.0), p, 20.0, mode="as-printed") > 1.0


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_write_timeseries(tmp_path):
    p = SystemParams(omega=2.0, kappa=1.0, beta_s=0.3, i0=0.5, beta=1.0)
    ic = InitialCondition(0.0, 1.0)
    path = tmp_path / "series.csv"
    ts = np.linspace(0, 4, 9)
    write_timeseries(path, ic, p, ts)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "m", "w", "purity"]
    assert len(rows) == 10
    t3 = float(rows[3][0])
    w3 = float(rows[3][2])
    assert w3 == pytest.approx(mean_inversion(ic, p, t3), rel=1e-10)
    pur3 = float(rows[3][3])
    assert pur3 == pytest.approx(0.5 * (1 + w3 * w3), rel=1e-9)
    # the dipole enters too: a pure coherent state starts at purity 1
    write_timeseries(path, InitialCondition(0.6, 0.8), p, [0.0])
    assert path.read_text().splitlines()[1] == "0,0.6,0.8,1"


# ---------------------------------------------------------------------------
# the time domain
# ---------------------------------------------------------------------------

_TIME_CALLS = {
    "mean_dipole": lambda p, t: mean_dipole(InitialCondition(0.6, 0.8), p, t),
    "mean_inversion": lambda p, t: mean_inversion(InitialCondition(0.6, 0.8), p, t),
    "mean_inversion-as-printed": lambda p, t: mean_inversion(
        InitialCondition(0.6, 0.8), p, t, mode="as-printed"),
    "trace_distance": lambda p, t: trace_distance(StatePair(0.7), p, t),
    "trace_distance-as-printed": lambda p, t: trace_distance(StatePair(0.7), p, t, "as-printed"),
}
_OSCILLATORY = SystemParams(omega=2.0, kappa=1.0, beta_s=1.0, i0=2.0 / math.pi, beta=1.0)


@pytest.mark.parametrize("name", sorted(_TIME_CALLS))
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0, -5e-324,
                               [0.0, 1.0, math.nan], np.array([2.0, -1.0])])
def test_closed_forms_refuse_a_time_that_is_not_finite_and_nonnegative(name, t):
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        _TIME_CALLS[name](_OSCILLATORY, t)


@pytest.mark.parametrize("name", sorted(_TIME_CALLS))
def test_closed_forms_refuse_a_phase_past_the_quarter_cap(name):
    # omega = 2 > lambda = 1: the carrier sets the cap; at 1e308 nothing overflows first
    cap = MAX_QUARTER_PERIODS * math.pi / (2.0 * _OSCILLATORY.omega)
    assert np.all(np.isfinite(_TIME_CALLS[name](_OSCILLATORY, [0.0, cap])))
    for t in (np.nextafter(cap, math.inf), 1e308, [0.0, 1e308]):
        with pytest.raises(ValueError, match=f"over the cap of {MAX_QUARTER_PERIODS}"):
            _TIME_CALLS[name](_OSCILLATORY, t)


def test_a_lambda_above_omega_sets_the_cap_of_the_inversion_and_distance():
    p = SystemParams(omega=0.5, kappa=2.0, beta_s=1.0, i0=2.0 / math.pi, beta=1.0)
    lam = derive_params(p).lambda_value
    assert lam > p.omega
    t = 1.01 * MAX_QUARTER_PERIODS * math.pi / (2.0 * lam)
    assert math.isfinite(mean_dipole(InitialCondition(0.6, 0.8), p, t))
    for name in ("mean_inversion", "trace_distance"):
        with pytest.raises(ValueError, match=f"frequency {lam:.6g} up to T"):
            _TIME_CALLS[name](p, t)
