import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from dipolefield import stochastic
from dipolefield.dynamics import InitialCondition, mean_inversion
from dipolefield.model import SystemParams, derive_params
from dipolefield.stochastic import (
    SpectrumFitError,
    TrajectoryDivergenceError,
    derive_seeds,
    ensemble_average,
    field_variance,
    fit_spectrum,
    max_field_dt,
    sample_fields,
    sample_periodogram,
    write_field_csv,
)
from oracles import (ar1_reference, ensemble_reference, hierarchy_means, lorentzian_lsq,
                     periodogram_reference)


WEAK = SystemParams(omega=5.0, kappa=1.0, beta_s=0.2, i0=0.1 / math.pi, beta=1.0)


def one_field(p, dt, n_steps, seed):
    """The realization of one seed, as a 1-D array of n_steps + 1 samples."""
    return sample_fields(p, dt, n_steps, [seed])[:, 0]


def trajectory(ic, p, field, dt, seed):
    """(t, m, w) of one realization sampled at t = k dt: the one column of a ``_rk4_paths`` run."""
    rows = stochastic._rk4_paths(ic, p, field[:, None], dt, [seed])
    m, _, w = (np.array(x)[:, 0] for x in zip(*rows))
    return dt * np.arange(field.size), m, w


# ---------------------------------------------------------------------------
# field sampling
# ---------------------------------------------------------------------------

def test_sample_field_rejects_coarse_step():
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    limit = max_field_dt(p)
    with pytest.raises(ValueError, match="too coarse"):
        sample_fields(p, 2.0 * limit, 100, [1])
    assert sample_fields(p, limit, 100, [1]).shape == (101, 1)  # boundary step is accepted
    with pytest.raises(ValueError, match="at least 1"):  # a grid of one sample
        sample_fields(p, limit, 0, [1])


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_sample_fields_rejects_nonpositive_or_nonfinite_step(dt):
    with pytest.raises(ValueError, match="finite and positive"):
        sample_fields(WEAK, dt, 100, [1, 2])



def test_sample_fields_and_ensemble_cap_their_size(monkeypatch):
    ic, dt = InitialCondition(0, 1), max_field_dt(WEAK)
    # far beyond the cap, or with an overflowing horizon/dt: rejected, never allocated
    with pytest.raises(ValueError, match="exceed the cap"):
        sample_fields(WEAK, dt, 2**40, [1, 2])
    with pytest.raises(ValueError, match="exceed the cap"):
        ensemble_average(ic, WEAK, 4, dt, 1e12, 0)
    with pytest.raises(ValueError, match="exceed the cap"):
        ensemble_average(ic, WEAK, 2, 1e-300, 1e300, 0)
    # the cap is on n * (K + 1) samples, inclusive
    monkeypatch.setattr(stochastic, "MAX_FIELD_SAMPLES", 2 * 51)
    assert sample_fields(WEAK, dt, 50, [1, 2]).shape == (51, 2)
    assert ensemble_average(ic, WEAK, 2, dt, 50 * dt, 0).t.size == 51
    with pytest.raises(ValueError, match="2 realizations x 52 samples"):
        sample_fields(WEAK, dt, 51, [1, 2])
    with pytest.raises(ValueError, match="2 realizations x 52 samples"):
        ensemble_average(ic, WEAK, 2, dt, 51 * dt, 0)


# ---------------------------------------------------------------------------
# seeding: bulk SeedSequence and PCG64 against numpy itself
# ---------------------------------------------------------------------------

_INDICES = st.lists(st.one_of(st.integers(0, 2**32 + 8), st.integers(2**32 - 4, 2**64 - 1)),
                    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(master=st.one_of(st.integers(0, 2**32 + 2), st.integers(0, 2**130 - 1)), indices=_INDICES)
# masters of 3 to 5 words with 2-word indices: entropy past the 4-word pool is mixed in
@example(master=2**64, indices=[2**32, 2**64 - 1])
@example(master=2**96 + 5, indices=[2**32 + 7, 0])
@example(master=2**130 - 1, indices=[2**63, 2**32])
def test_derive_seeds_equal_seed_sequence(master, indices):
    expected = [int(np.random.SeedSequence([master, i]).generate_state(1, np.uint64)[0])
                for i in indices]
    assert derive_seeds(master, indices) == expected


def _draw_normals(seeds, n_steps):
    """Draws of ``stochastic._draw_normals`` as (len(seeds), 2, n_steps + 1) records."""
    out = stochastic._draw_normals(seeds, np.empty((n_steps + 1, len(seeds), 2)))
    return out.transpose(1, 2, 0)


# lists longer than the transposition tile of 16 records, with partial last tiles
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.one_of(st.integers(0, 2**32 + 2), st.integers(0, 2**64 - 1)),
                      min_size=1, max_size=40),
       n_steps=st.integers(1, 40))
def test_draw_normals_equal_default_rng(seeds, n_steps):
    expected = [np.random.default_rng(s).standard_normal((2, n_steps + 1)) for s in seeds]
    np.testing.assert_array_equal(_draw_normals(seeds, n_steps), expected)


def test_seed_edges_and_negative_seeds():
    edges = [0, 2**32 - 1, 2**32, 2**64 - 1]
    expected = [np.random.default_rng(s).standard_normal((2, 5)) for s in edges]
    np.testing.assert_array_equal(_draw_normals(edges, 4), expected)
    assert derive_seeds(7, range(3)) == [derive_seeds(7, [i])[0] for i in range(3)]
    for call in (lambda: derive_seeds(-1, [0]), lambda: derive_seeds(0, [-1]),
                 lambda: derive_seeds(-5, range(4)), lambda: _draw_normals([3, -1], 4),
                 lambda: sample_fields(WEAK, 0.05, 10, [-1])):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("shape", [(2, 301), (3, 2, 301)])
def test_quadrature_paths_match_stepwise_reference(shape):
    # the records are drawn record-major, then laid out time-major as the sampler uses them
    normals = np.random.default_rng(21).standard_normal(shape)
    rho, sigma_st = math.exp(-0.05), 1.7
    expected = np.moveaxis(ar1_reference(normals, rho, sigma_st), -1, 0)
    time_major = np.ascontiguousarray(np.moveaxis(normals, -1, 0))
    np.testing.assert_array_equal(
        stochastic._quadrature_paths(time_major, rho, sigma_st), expected
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_steps=st.integers(1, 400),
       lanes=st.one_of(st.tuples(st.integers(1, 9)), st.tuples(st.integers(1, 9), st.just(2))),
       beta_dt=st.floats(1e-4, 0.05), seed=st.integers(0, 2**32 - 1))
def test_quadrature_paths_match_stepwise_reference_on_any_shape(n_steps, lanes, beta_dt, seed):
    # time-major (K+1, ...) normals, one lane or several, each row of lanes a step
    normals = np.random.default_rng(seed).standard_normal((n_steps + 1, *lanes))
    rho, sigma_st = math.exp(-beta_dt), 1.7
    expected = np.moveaxis(ar1_reference(np.moveaxis(normals, 0, -1), rho, sigma_st), -1, 0)
    np.testing.assert_array_equal(
        stochastic._quadrature_paths(normals.copy(), rho, sigma_st), expected
    )


@pytest.mark.parametrize("c", [1, 3, 5])
def test_quadrature_paths_on_a_column_slice(c):
    # the partial last block of _field_blocks: the first c of b columns of a
    # (K+1, b, 2) buffer, a view that is not contiguous though each of its rows is
    buf = np.random.default_rng(c).standard_normal((201, 6, 2))
    rest = buf[:, c:].copy()
    rho, sigma_st = math.exp(-0.03), 0.9
    expected = np.moveaxis(ar1_reference(np.moveaxis(buf[:, :c], 0, -1), rho, sigma_st), -1, 0)
    assert stochastic._quadrature_paths(buf[:, :c], rho, sigma_st).base is buf
    np.testing.assert_array_equal(buf[:, :c], expected)
    np.testing.assert_array_equal(buf[:, c:], rest)


def test_sample_fields_match_per_seed_sampling(monkeypatch):
    p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    dt, n_steps = max_field_dt(p), 100
    # blocks of 3 realizations, so 7 seeds leave a partial last block
    monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", 3 * 2 * 8 * (n_steps + 1))
    seeds = derive_seeds(17, range(7))
    fields = sample_fields(p, dt, n_steps, seeds)
    assert fields.shape == (n_steps + 1, len(seeds))
    t = dt * np.arange(n_steps + 1)
    rho = math.exp(-p.beta * dt)
    for column, seed in zip(fields.T, seeds):
        np.testing.assert_array_equal(column, one_field(p, dt, n_steps, seed))
        # the same field built from the stepwise oracle
        z = np.random.default_rng(seed).standard_normal((2, n_steps + 1))
        x = ar1_reference(z, rho, math.sqrt(field_variance(p)))
        np.testing.assert_array_equal(
            column, x[0] * np.cos(p.omega * t) + x[1] * np.sin(p.omega * t)
        )


def test_streams_do_not_depend_on_block_size(monkeypatch, tmp_path):
    ic, dt, n_steps = InitialCondition(0.3, 0.5), max_field_dt(WEAK), 300
    seeds = derive_seeds(17, range(7))
    fields = [one_field(WEAK, dt, n_steps, s) for s in seeds]
    reference = periodogram_reference(fields, dt)

    def report_bytes():  # every field of the report, as write_json writes it
        path = tmp_path / "report.json"
        ensemble_average(ic, WEAK, 7, dt, n_steps * dt, 17).write_json(path)
        return path.read_bytes()

    report = report_bytes()
    # blocks of 1 and of 3 records (a partial last block), then the default
    record = 2 * 8 * (n_steps + 1)
    for budget in (record, 3 * record, stochastic.FIELD_BLOCK_BYTES):
        monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", budget)
        omega, power, first = sample_periodogram(WEAK, dt, n_steps, seeds)
        np.testing.assert_array_equal(omega, 2.0 * math.pi * np.fft.rfftfreq(n_steps + 1, d=dt))
        np.testing.assert_array_equal(power, reference)
        np.testing.assert_array_equal(first, fields[0])
        np.testing.assert_array_equal(sample_fields(WEAK, dt, n_steps, seeds), np.stack(fields, 1))
        assert report_bytes() == report


def test_streamed_periodogram_memory_does_not_grow_with_realizations():
    p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    dt = max_field_dt(p)
    n_steps = int(round(200.0 / p.beta / dt))  # criterion 10's record: 41 realizations a block
    peaks = []
    for n in (20, 200):
        seeds = derive_seeds(3, range(n))
        tracemalloc.start()
        try:
            sample_periodogram(p, dt, n_steps, seeds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < stochastic.FIELD_BLOCK_BYTES


def test_streamed_periodogram_peak_is_under_two_and_a_quarter_blocks():
    # criterion 10's run: the normals block, the one field buffer the helper
    # thread transforms (half a block), _draw_normals' transpose tile and the
    # transform's column groups; a whole-block transform would add half a block more
    p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    dt = max_field_dt(p)
    n_steps = int(round(200.0 / p.beta / dt))
    sample_periodogram(p, dt, 16, [1, 2])  # the modules the first call imports are not counted
    tracemalloc.start()
    try:
        sample_periodogram(p, dt, n_steps, derive_seeds(42, range(200)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * stochastic.FIELD_BLOCK_BYTES


class _Failure(Exception):
    pass


def _three_record_blocks(monkeypatch, n_steps):
    monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", 3 * 2 * 8 * (n_steps + 1))


def test_a_failing_transform_is_raised_and_the_helper_thread_ended(monkeypatch):
    n_steps, transform, widths = 100, stochastic._add_periodograms, []
    _three_record_blocks(monkeypatch, n_steps)

    def fail_on_second_block(power, block, dt):
        widths.append(block.shape[1])
        if len(widths) == 2:
            raise _Failure("transform failed")
        transform(power, block, dt)

    monkeypatch.setattr(stochastic, "_add_periodograms", fail_on_second_block)
    before = threading.active_count()
    with pytest.raises(_Failure, match="transform failed"):
        sample_periodogram(WEAK, max_field_dt(WEAK), n_steps, derive_seeds(5, range(7)))
    assert widths == [3, 3]  # the third block is drawn but never submitted
    assert threading.active_count() == before


def test_a_main_thread_failure_waits_for_the_transform_in_flight(monkeypatch):
    n_steps, transform, draw = 100, stochastic._add_periodograms, stochastic._draw_normals
    _three_record_blocks(monkeypatch, n_steps)
    started, done, draws = threading.Event(), threading.Event(), []

    def slow_transform(power, block, dt):
        started.set()
        time.sleep(0.2)
        transform(power, block, dt)
        done.set()

    def fail_on_second_draw(seeds, out):
        draws.append(len(seeds))
        if len(draws) == 2:
            assert started.wait(10) and not done.is_set()  # block 0's transform is in flight
            raise _Failure("draw failed")
        return draw(seeds, out)

    monkeypatch.setattr(stochastic, "_add_periodograms", slow_transform)
    monkeypatch.setattr(stochastic, "_draw_normals", fail_on_second_draw)
    before = threading.active_count()
    with pytest.raises(_Failure, match="draw failed"):
        sample_periodogram(WEAK, max_field_dt(WEAK), n_steps, derive_seeds(5, range(7)))
    assert done.is_set()  # the helper finished its transform before the failure came out
    assert threading.active_count() == before


def test_pipelined_periodogram_is_exact_with_late_transforms_and_fast_switching(monkeypatch):
    # three callers at once, each with a helper thread whose transforms start late,
    # switching threads every microsecond: a block modulated into the field buffer
    # before the transform of the one before returned would change the sum
    dt, n_steps, interval = max_field_dt(WEAK), 200, sys.getswitchinterval()
    _three_record_blocks(monkeypatch, n_steps)
    transform = stochastic._add_periodograms

    def late_transform(power, block, dt):
        time.sleep(0.01)
        transform(power, block, dt)

    runs = {s: derive_seeds(s, range(8)) for s in (21, 22, 23)}
    expected = {s: periodogram_reference(sample_fields(WEAK, dt, n_steps, seeds).T, dt)
                for s, seeds in runs.items()}
    monkeypatch.setattr(stochastic, "_add_periodograms", late_transform)
    got = {}

    def run(s):
        got[s] = sample_periodogram(WEAK, dt, n_steps, runs[s])[1]

    callers = [threading.Thread(target=run, args=(s,)) for s in runs]
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got.keys() == expected.keys()
    for s in runs:
        np.testing.assert_array_equal(got[s], expected[s])


def test_periodogram_needs_two_realizations():
    with pytest.raises(ValueError, match="need at least 2 realizations"):
        sample_periodogram(WEAK, max_field_dt(WEAK), 100, derive_seeds(1, range(1)))


def test_non_finite_field_variance_is_rejected_before_sampling():
    p = SystemParams(omega=1.0, kappa=1.0, beta_s=0.0, i0=1e308, beta=10.0)
    assert field_variance(p) == math.inf
    calls = [lambda: sample_fields(p, 0.005, 10, [1, 2]),
             lambda: sample_periodogram(p, 0.005, 10, [1, 2]),
             lambda: ensemble_average(InitialCondition(0, 1), p, 2, 0.005, 1.0, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="variance .* is not finite"):
                call()


def test_field_zero_mean():
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.0, i0=2.0, beta=1.0)
    f = one_field(p, 0.05, 100_000, 2)
    # effective sample count ~ record length * beta; generous 4-sigma band
    bound = 4.0 * math.sqrt(field_variance(p) / (f.size * 0.05 * p.beta))
    assert abs(float(np.mean(f))) < bound


def test_field_variance_convention():
    # stationary variance C(0) = pi * beta * i0 (the normalization under
    # which the trajectory closure reproduces the closed-form constants)
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.0, i0=2.0, beta=1.0)
    f = one_field(p, 0.05, 200_000, 3)
    var = float(np.var(f))
    assert var == pytest.approx(field_variance(p), rel=0.1)
    assert field_variance(p) == pytest.approx(2.0 * math.pi)


def test_field_autocorrelation_demodulated():
    # lagged product estimate ~ C(0) e^{-beta tau} cos(omega tau) at tau = 1/beta
    p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    dt = max_field_dt(p)
    f = one_field(p, dt, 400_000, 4)
    lag = int(round(1.0 / (p.beta * dt)))
    tau = lag * dt
    est = float(np.mean(f[:-lag] * f[lag:]))
    carrier = math.cos(p.omega * tau)
    assert abs(carrier) > 0.3  # lag chosen away from a carrier zero
    demod = est / carrier
    assert demod == pytest.approx(math.exp(-p.beta * tau) * field_variance(p), rel=0.15)


def test_field_reproducible_and_csv(tmp_path):
    p = WEAK
    f1 = one_field(p, 0.05, 50, 9)
    f2 = one_field(p, 0.05, 50, 9)
    np.testing.assert_array_equal(f1, f2)
    path = tmp_path / "field.csv"
    write_field_csv(f1, 0.05, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,E"
    assert len(lines) == 52
    assert lines[-1] == f"2.5,{f1[-1]:.12g}"


# ---------------------------------------------------------------------------
# spectrum estimation
# ---------------------------------------------------------------------------

def test_spectrum_lorentzian_fit():
    p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    dt = max_field_dt(p)
    n_steps = int(round(200.0 / p.beta / dt))
    omega, power, _ = sample_periodogram(p, dt, n_steps, derive_seeds(100, range(200)))
    fit = fit_spectrum(omega, power)
    assert fit is not None
    assert fit.peak_omega == pytest.approx(p.omega, rel=0.02)
    assert fit.hwhm == pytest.approx(p.beta, rel=0.10)
    # two-sided density peak is C(0)/beta = pi * i0
    assert fit.peak_height == pytest.approx(math.pi * p.i0, rel=0.25)


def _assert_fit_is_the_minimiser(omega, power):
    """``fit_spectrum`` equals the oracle on its own window and start, and beats curve_fit."""
    seen = []
    fit = stochastic._fit_lorentzian
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochastic, "_fit_lorentzian", lambda *args: seen.append(args) or fit(*args))
        est = fit_spectrum(omega, power)
    (x, y, p0), = seen
    got = np.array([est.peak_height, est.peak_omega, est.hwhm])
    # both reach the minimiser to ~1e-15; a fit stopped by a cost comparison lands ~1e-9 away
    np.testing.assert_allclose(got, lorentzian_lsq(x, y, p0), rtol=1e-10, atol=0)
    # the fit it replaces: trust-region reflective, stopped at a 1e-8 cost tolerance
    old, _ = curve_fit(stochastic._lorentzian, x, y, p0=p0, bounds=([0.0] * 3, [np.inf] * 3),
                       maxfev=10000)

    def cost(q):
        r = stochastic._lorentzian(x, *q) - y
        return r @ r

    assert cost(got) <= cost(old) * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), log_height=st.floats(-3.0, 3.0),
       hwhm=st.floats(0.3, 3.0), bins_per_hwhm=st.floats(2.0, 20.0),
       center_hwhms=st.floats(10.0, 30.0), n_avg=st.integers(2, 60))
def test_fit_is_the_minimiser_on_noisy_lorentzians(seed, log_height, hwhm, bins_per_hwhm,
                                                   center_hwhms, n_avg):
    # an average of n_avg exponential periodogram ordinates is Gamma(n_avg, 1/n_avg) noise
    step = hwhm / bins_per_hwhm
    omega = step * np.arange(int((center_hwhms + 40.0) * bins_per_hwhm))
    rng = np.random.default_rng(seed)
    power = stochastic._lorentzian(omega, 10.0**log_height, center_hwhms * hwhm, hwhm)
    _assert_fit_is_the_minimiser(omega, power * rng.gamma(n_avg, 1.0 / n_avg, omega.size))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), omega=st.floats(3.0, 20.0), beta=st.floats(0.3, 2.0),
       log_i0=st.floats(-3.0, 3.0), n=st.integers(2, 40), beta_duration=st.floats(8.0, 80.0))
def test_fit_is_the_minimiser_on_sampled_periodograms(seed, omega, beta, log_i0, n,
                                                      beta_duration):
    p = SystemParams(omega=omega, kappa=1.0, beta_s=0.0, i0=10.0**log_i0, beta=beta)
    dt = max_field_dt(p)
    n_steps = int(round(beta_duration / beta / dt))
    freqs, power, _ = sample_periodogram(p, dt, n_steps, derive_seeds(seed, range(n)))
    _assert_fit_is_the_minimiser(freqs, power)


def test_fit_rejects_non_finite_power():
    omega = 0.1 * np.arange(200)
    for bad in (np.nan, np.inf):
        power = stochastic._lorentzian(omega, 1.0, 10.0, 1.0)
        power[50] = bad
        with pytest.raises(SpectrumFitError, match="not finite"):
            fit_spectrum(omega, power)


def test_fit_rejects_a_negative_center():
    # the positive-frequency tail of a peak centred at -0.5
    omega = 0.1 * np.arange(200)
    with pytest.raises(SpectrumFitError, match="negative height .* or center -0.5"):
        fit_spectrum(omega, stochastic._lorentzian(omega, 1.0, -0.5, 1.0))


def test_fit_raises_at_the_iteration_cap(monkeypatch):
    omega = 0.1 * np.arange(200)
    power = stochastic._lorentzian(omega, 1.0, 10.0, 1.0)
    assert fit_spectrum(omega, power).peak_omega == pytest.approx(10.0, rel=1e-12)
    monkeypatch.setattr(stochastic, "FIT_MAX_ITER", 0)
    with pytest.raises(SpectrumFitError, match="did not converge in 0 iterations"):
        fit_spectrum(omega, power)


def test_spectrum_zero_field():
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.0, i0=0.0, beta=1.0)
    omega, power, _ = sample_periodogram(p, 0.05, 500, derive_seeds(5, range(3)))
    assert fit_spectrum(omega, power) is None
    assert np.all(power == 0.0)


# ---------------------------------------------------------------------------
# trajectory integration
# ---------------------------------------------------------------------------

def test_trajectory_zero_field_exact():
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.5, i0=0.0, beta=1.0)
    ic = InitialCondition(m0=0.4, w0=0.3, mdot0=1.0)
    field = one_field(p, 1e-3, 5000, 6)
    assert np.all(field == 0.0)
    t, m, w = trajectory(ic, p, field, 1e-3, 6)
    np.testing.assert_allclose(
        w, -1.0 + (ic.w0 + 1.0) * np.exp(-p.beta_s * t), atol=1e-8
    )
    np.testing.assert_allclose(
        m,
        ic.m0 * np.cos(p.omega * t) + (ic.mdot0 / p.omega) * np.sin(p.omega * t),
        atol=1e-8,
    )


def test_trajectory_zero_coupling_decouples_dipole():
    p = SystemParams(omega=4.0, kappa=0.0, beta_s=0.3, i0=2.0, beta=1.0)
    ic = InitialCondition(m0=0.8, w0=0.0)
    field = one_field(p, 1e-3, 4000, 7)
    assert np.any(field != 0.0)
    t, m, w = trajectory(ic, p, field, 1e-3, 7)
    np.testing.assert_allclose(m, ic.m0 * np.cos(p.omega * t), atol=1e-8)
    np.testing.assert_allclose(
        w, -1.0 + np.exp(-p.beta_s * t), atol=1e-8
    )


def test_trajectory_fourth_order_convergence():
    # integrate one fixed piecewise-linear field at dt, dt/2, dt/4;
    # successive differences must shrink ~16x
    p = WEAK
    ic = InitialCondition(m0=0.6, w0=0.8)
    dt = 0.04
    base = one_field(p, dt, 100, 8)

    def refine(field_values, factor):
        n = field_values.size
        t_old = np.arange(n) * dt
        t_new = np.arange((n - 1) * factor + 1) * (dt / factor)
        return np.interp(t_new, t_old, field_values)

    results = {}
    for factor in (1, 2, 4):
        _, m, w = trajectory(ic, p, refine(base, factor), dt / factor, 8)
        results[factor] = (m[:: factor], w[:: factor])

    err1 = max(
        np.max(np.abs(results[1][0] - results[2][0])),
        np.max(np.abs(results[1][1] - results[2][1])),
    )
    err2 = max(
        np.max(np.abs(results[2][0] - results[4][0])),
        np.max(np.abs(results[2][1] - results[4][1])),
    )
    assert 10.0 < err1 / err2 < 24.0


def test_trajectory_divergence_error():
    p = SystemParams(omega=5.0, kappa=60.0, beta_s=0.0, i0=10.0, beta=1.0)
    ic = InitialCondition(m0=0.0, w0=1.0)
    field = one_field(p, max_field_dt(p), 2000, 11)
    with pytest.raises(TrajectoryDivergenceError) as err:
        trajectory(ic, p, field, max_field_dt(p), 11)
    assert err.value.seed == 11
    assert err.value.time is not None


def test_divergence_in_a_middle_lane_is_reported_as_when_run_alone():
    # lane 3 of 5 crosses the limit first; every other lane runs through or crosses later
    p = SystemParams(omega=5.0, kappa=60.0, beta_s=0.0, i0=10.0, beta=1.0)
    ic, dt, n_steps = InitialCondition(m0=0.0, w0=1.0), max_field_dt(p), 2000
    seeds = [12, 10, 11, 8, 14]
    field = sample_fields(p, dt, n_steps, seeds)
    field[:, 1] *= 1e-3

    def divergence_time(lane):
        try:
            trajectory(ic, p, field[:, lane], dt, seeds[lane])
        except TrajectoryDivergenceError as err:
            assert err.seed == seeds[lane]
            return err.time
        return math.inf

    alone = [divergence_time(lane) for lane in range(len(seeds))]
    assert alone[3] < min(alone[:3] + alone[4:])
    with pytest.raises(TrajectoryDivergenceError) as err:
        for _ in stochastic._rk4_paths(ic, p, field, dt, seeds):
            pass
    assert (err.value.time, err.value.seed) == (alone[3], 8)
    assert str(err.value) == (f"trajectory diverged at t={alone[3]:.6g} (|state| > "
                              f"{stochastic.DIVERGENCE_LIMIT:g}, seed=8)")


def test_rk4_paths_yield_a_new_array_every_step():
    # the stage buffers are reused, so a kept state must never be one of them
    ic, dt, seeds = InitialCondition(m0=0.3, w0=0.5, mdot0=1.0), max_field_dt(WEAK), [4, 5, 6]
    kept = [(x, x.copy()) for x in stochastic._rk4_paths(
        ic, WEAK, sample_fields(WEAK, dt, 8, seeds), dt, seeds)]
    assert len(kept) == 9 and kept[0][0].shape == (3, 3)
    for (prev, _), (cur, _) in zip(kept, kept[1:]):
        assert not np.shares_memory(prev, cur)
    for x, copy in kept:  # untouched by the steps after it
        np.testing.assert_array_equal(x, copy)


# ---------------------------------------------------------------------------
# ensemble averaging
# ---------------------------------------------------------------------------

def test_ensemble_zero_field_residuals():
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=0.5, i0=0.0, beta=1.0)
    ic = InitialCondition(m0=0.5, w0=0.3)
    report = ensemble_average(ic, p, 2, dt=1e-3, horizon=5.0, master_seed=0)
    assert np.max(np.abs(report.residual_w)) < 1e-6
    assert np.max(np.abs(report.residual_m)) < 1e-6
    assert np.all(report.se_w == 0.0)


def test_ensemble_reproducible_and_matches_single(tmp_path):
    p = WEAK
    ic = InitialCondition(m0=0.0, w0=1.0)
    r1 = ensemble_average(ic, p, 4, dt=0.05, horizon=2.0, master_seed=42)
    r2 = ensemble_average(ic, p, 4, dt=0.05, horizon=2.0, master_seed=42)
    np.testing.assert_array_equal(r1.mean_w, r2.mean_w)
    np.testing.assert_array_equal(r1.mean_m, r2.mean_m)
    assert r1.seeds == r2.seeds

    # trajectory 2 of the batch equals the standalone integration
    n_steps = r1.t.size - 1
    f = one_field(p, 0.05, n_steps, r1.seeds[2])
    _, _, w = trajectory(ic, p, f, 0.05, r1.seeds[2])
    batch = ensemble_average(ic, p, 3, dt=0.05, horizon=2.0, master_seed=42)
    # means over k trajectories reconstruct each member: check via two runs
    sum3 = batch.mean_w * 3
    sum2 = ensemble_average(ic, p, 2, dt=0.05, horizon=2.0, master_seed=42).mean_w * 2
    np.testing.assert_allclose(sum3 - sum2, w, atol=1e-12)

    path = tmp_path / "report.json"
    r1.write_json(path)
    again = tmp_path / "report2.json"
    r2.write_json(again)
    assert path.read_bytes() == again.read_bytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 40), n_steps=st.integers(1, 30),
       radius=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * math.pi),
       omega=st.floats(5.0, 20.0), kappa=st.floats(0.1, 2.0), beta_s=st.floats(0.0, 1.0),
       weight=st.floats(0.0, 0.25), dt_frac=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1))
def test_streamed_statistics_equal_stacked_reference(n, n_steps, radius, angle, omega, kappa,
                                                     beta_s, weight, dt_frac, seed):
    # weak coupling, pi i0 kappa^2 <= beta / 4 with beta = 1: the statistics are
    # reduced row by row as RK4 runs, and equal those of the stacked trajectories
    p = SystemParams(omega=omega, kappa=kappa, beta_s=beta_s,
                     i0=weight / (math.pi * kappa**2), beta=1.0)
    ic = InitialCondition(m0=radius * math.cos(angle), w0=radius * math.sin(angle))
    dt = dt_frac * max_field_dt(p)
    report = ensemble_average(ic, p, n, dt, n_steps * dt, seed)
    assert report.t.size == n_steps + 1
    expected = ensemble_reference(ic, p, sample_fields(p, dt, n_steps, report.seeds).T, dt)
    for got, want in zip((report.mean_m, report.mean_w, report.se_m, report.se_w), expected):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 24), n_steps=st.integers(1, 20), mdot0=st.floats(-3.0, 3.0),
       radius=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * math.pi),
       omega=st.floats(5.0, 20.0), kappa=st.floats(0.1, 2.0), beta_s=st.floats(0.0, 1.0),
       weight=st.floats(0.0, 0.25), dt_frac=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=2, n_steps=1, mdot0=-3.0, radius=0.6, angle=1.0, omega=5.0, kappa=1.0, beta_s=0.2,
         weight=0.1, dt_frac=1.0, seed=7)
@example(n=2, n_steps=1, mdot0=2.5, radius=0.0, angle=0.0, omega=20.0, kappa=2.0, beta_s=0.0,
         weight=0.25, dt_frac=0.1, seed=0)
def test_streamed_statistics_with_a_dipole_rate_equal_stacked_reference(
        n, n_steps, mdot0, radius, angle, omega, kappa, beta_s, weight, dt_frac, seed):
    # as above with mdot0 != 0, which feeds the w equation from the first stage on
    p = SystemParams(omega=omega, kappa=kappa, beta_s=beta_s,
                     i0=weight / (math.pi * kappa**2), beta=1.0)
    ic = InitialCondition(m0=radius * math.cos(angle), w0=radius * math.sin(angle), mdot0=mdot0)
    dt = dt_frac * max_field_dt(p)
    report = ensemble_average(ic, p, n, dt, n_steps * dt, seed)
    assert report.t.size == n_steps + 1
    expected = ensemble_reference(ic, p, sample_fields(p, dt, n_steps, report.seeds).T, dt)
    for got, want in zip((report.mean_m, report.mean_w, report.se_m, report.se_w), expected):
        np.testing.assert_array_equal(got, want)


def test_ensemble_memory_grows_only_by_the_field():
    # the trajectories are reduced as they are integrated: only the n x (K+1)
    # field grows with n, not stored m and w paths or their transposes
    ic, dt, n_steps = InitialCondition(0.0, 1.0), max_field_dt(WEAK), 167
    sizes, peaks = (2000, 10000), []
    for n in sizes:
        tracemalloc.start()
        try:
            ensemble_average(ic, WEAK, n, dt, n_steps * dt, 99)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    field_bytes = 8 * (n_steps + 1) * (sizes[1] - sizes[0])
    assert peaks[1] - peaks[0] < 1.5 * field_bytes


def test_ensemble_weak_coupling_band():
    # module-level version of the oracle comparison (small n for speed)
    p = WEAK
    ic = InitialCondition(m0=0.0, w0=1.0)
    d = derive_params(p)
    report = ensemble_average(ic, p, 2000, dt=0.05, horizon=5.0 / d.gamma, master_seed=7)
    closed = report.mean_w - report.residual_w
    span = float(np.max(closed) - np.min(closed))
    band = np.maximum(3.0 * report.se_w, 0.05 * span)
    assert np.all(np.abs(report.residual_w) <= band)
    # with no initial dipole the dipole residual is purely statistical
    band_m = np.maximum(3.0 * report.se_m, 1e-9)
    assert np.mean(np.abs(report.residual_m) <= band_m) > 0.95


def test_ensemble_dipole_closure_accuracy():
    # the undamped-dipole form is a leading-order statement: measure its
    # accuracy at the reference coupling instead of asserting a tight band
    p = WEAK
    ic = InitialCondition(m0=0.6, w0=0.8)
    d = derive_params(p)
    report = ensemble_average(ic, p, 2000, dt=0.05, horizon=5.0 / d.gamma, master_seed=8)
    rel_deficit = np.max(np.abs(report.residual_m)) / ic.m0
    assert rel_deficit < 0.25  # second-order dipole damping stays moderate
    # and the inversion band still holds with a coherent component present
    closed = report.mean_w - report.residual_w
    span = float(np.max(closed) - np.min(closed))
    band = np.maximum(3.0 * report.se_w, 0.05 * span)
    assert np.all(np.abs(report.residual_w) <= band)


@pytest.mark.parametrize("lam, m0, w0", [(1.0, 0.0, 1.0), (1.0, 0.6, 0.8), (2.0, 0.0, 1.0)])
def test_ensemble_matches_the_exact_means_beyond_weak_coupling(lam, m0, w0):
    # beyond the CLI's weak-coupling guard (lambda_hat <= 0.354) the Monte Carlo means
    # agree with the exact hierarchy of the field's moments (max |z| 1.2-2.0 over the
    # 320 nonzero times), while the closure misses the inversion by 0.07 at
    # lambda_hat = 1 and 0.19 at lambda_hat = 2; beta = beta_s = 1 gives gamma = 1
    p = SystemParams(omega=5.0, kappa=1.0, beta_s=1.0, i0=2.0 * lam**2 / math.pi, beta=1.0)
    d = derive_params(p)
    assert d.gamma == 1.0 and math.isclose(math.sqrt(d.lambda_sq), lam)
    report = ensemble_average(InitialCondition(m0, w0), p, 4000, max_field_dt(p) / 2, 8.0, 5)
    m, _, w = hierarchy_means(p, (m0, 0.0, w0), report.t, 12)
    for mean, exact, se in ((report.mean_m, m, report.se_m), (report.mean_w, w, report.se_w)):
        assert np.max(np.abs(mean - exact)[1:] / se[1:]) <= 4.0
    assert np.max(np.abs(report.residual_w)) > np.max(np.abs(report.mean_w - w))
    if m0:  # the closure's dipole does not damp
        assert np.max(np.abs(report.residual_m)) > np.max(np.abs(report.mean_m - m))


def test_ensemble_energy_bound_weak_coupling():
    p = WEAK
    ic = InitialCondition(m0=0.0, w0=1.0)
    worst = 0.0
    for seed in derive_seeds(123, range(50)):
        _, _, w = trajectory(ic, p, one_field(p, 0.05, 170, seed), 0.05, seed)
        worst = max(worst, float(np.max(np.abs(w))))
    assert worst <= 1.05


def test_ensemble_steady_state():
    p = WEAK
    ic = InitialCondition(m0=0.0, w0=1.0)
    d = derive_params(p)
    # slowest decay rate is gamma - sqrt(-lambda_sq); run well past it
    report = ensemble_average(ic, p, 3000, dt=0.05, horizon=28.0, master_seed=9)
    tail = report.t > 22.0
    mc_tail = float(np.mean(report.mean_w[tail]))
    se_tail = float(np.mean(report.se_w[tail]))
    w_inf = -2.0 * d.a_const / p.omega
    assert abs(mc_tail - w_inf) <= 3.0 * se_tail


def test_ensemble_validation():
    with pytest.raises(ValueError, match="at least 2"):
        ensemble_average(InitialCondition(0, 1), WEAK, 1, 0.05, 1.0, 0)


@pytest.mark.parametrize("dt, horizon", [
    (0.0, 1.0), (-0.01, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (0.05, 0.0), (0.05, -1.0), (0.05, math.nan), (0.05, math.inf),
])
def test_ensemble_rejects_nonpositive_or_nonfinite_step_and_horizon(dt, horizon):
    with pytest.raises(ValueError, match="finite and positive"):
        ensemble_average(InitialCondition(0, 1), WEAK, 2, dt, horizon, 0)
