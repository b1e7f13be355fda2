import dataclasses
import json
import math
import os
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from dipolefield import stochastic
from dipolefield.dynamics import InitialCondition, _write_csv
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
)
from oracles import (ar1_steps, ensemble_paths, ensemble_reference, field_covariance,
                     hierarchy_means, lorentzian_lsq, periodogram_reference)


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


def test_ensemble_refuses_a_horizon_past_the_phase_cap_before_any_trajectory(monkeypatch):
    # 8e6 steps of two trajectories fit the sample cap, but omega t spans over 2**20
    # quarter periods: refused by the closed-form dipole before any field is drawn
    monkeypatch.setattr(stochastic, "_in_halves", None)
    dt = max_field_dt(WEAK)
    with pytest.raises(ValueError, match="quarter periods, over the cap"):
        ensemble_average(InitialCondition(0.6, 0.8), WEAK, 2, dt, 8e6 * dt, 0)


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


def _draw_normals(seeds, n_steps, lift=1.0, c=1.0 + 1.0j):
    """Draws of ``stochastic._draw_normals`` into a new (n_steps + 1, len(seeds)) complex array."""
    return stochastic._draw_normals(seeds, np.empty((n_steps + 1, len(seeds)), complex), lift, c)


def _default_rng_draws(seeds, n_steps, lift=1.0, c=1.0 + 1.0j):
    """The stream contract: column i from ``default_rng(seeds[i]).standard_normal(K + 2)`` z,
    as z_0 + i lift z_1, then c z_2, ..., c z_(K+1), each part one real product."""
    out = np.empty((n_steps + 1, len(seeds)), complex)
    for column, seed in zip(out.T, seeds):
        z = np.random.default_rng(seed).standard_normal(n_steps + 2)
        column[0] = complex(z[0], lift * z[1])
        column.real[1:], column.imag[1:] = c.real * z[2:], c.imag * z[2:]
    return out


# lists longer than the transposition tile of 16 records or more (a budget of up to 4 KiB
# at these short records), with partial last tiles
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.one_of(st.integers(0, 2**32 + 2), st.integers(0, 2**64 - 1)),
                      min_size=1, max_size=40),
       n_steps=st.integers(1, 40), tile_bytes=st.integers(0, 2**12),
       lift=st.floats(0.0, 1.0), c=st.complex_numbers(max_magnitude=1.0))
def test_draw_normals_equal_default_rng(seeds, n_steps, tile_bytes, lift, c):
    expected = _default_rng_draws(seeds, n_steps, lift, c)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "_TRANSPOSE_BYTES", tile_bytes)
        np.testing.assert_array_equal(_draw_normals(seeds, n_steps, lift, c), expected)


def test_seed_edges_and_negative_seeds():
    edges = [0, 2**32 - 1, 2**32, 2**64 - 1]
    np.testing.assert_array_equal(_draw_normals(edges, 4), _default_rng_draws(edges, 4))
    assert derive_seeds(7, range(3)) == [derive_seeds(7, [i])[0] for i in range(3)]
    for call in (lambda: derive_seeds(-1, [0]), lambda: derive_seeds(0, [-1]),
                 lambda: derive_seeds(-5, range(4)), lambda: _draw_normals([3, -1], 4),
                 lambda: sample_fields(WEAK, 0.05, 10, [-1])):
        with pytest.raises(ValueError):
            call()


def _complex_rows(seed, shape):
    """Time-major complex rows of standard normal parts."""
    return np.random.default_rng(seed).standard_normal((*shape, 2)).view(complex)[..., 0]


def _scan_bound(rho, n, big):
    """Largest |difference| of ``stochastic._ar1_paths`` and ``ar1_steps`` over n samples.

    Let u = 2^-53, M = ``big`` the largest |W| of either result, rho = |a|
    and G = sum of rho^i for i < L, L the segment length. A complex product
    rounds by at most sqrt(5) u of its magnitude (Brent, Percival &
    Zimmermann, Math. Comp. 76, 1469, 2007; 2u with a fused multiply-add),
    a complex sum by at most u of its magnitude. So a step of the reference
    rounds by at most 4uM, and errors made k steps back are damped by
    rho^k. A record of one segment is stepped as the reference steps it:
    the two differ by at most 8uMG. A later segment steps its own path y
    from its rows, whose |y| <= 2M rounds by at most 8uM a step, and then
    adds a^(k+1) c, the end c of the segment before. The running product
    a^(k+1) is within 3(k+1)u rho^(k+1) of the power, and (k+1) rho^(k+1)
    <= G since each of the first k+1 terms of G is at least rho^k; the
    product with c and the sum round by at most 4uM. Within a segment the
    two so differ by at most E = 16uM (G + 1) plus rho^(k+1) times the
    difference in c. Each segment's end carries the earlier ones' errors
    damped by rho^L, and every sample, the tail's too, is within
    2E / (1 - rho^L).
    """
    u, length = 2.0**-53, n // max(1, n // stochastic._SEGMENT)
    g = math.fsum(rho**i for i in range(length))
    if length == n:
        return 8 * u * big * g
    return 2 * 16 * u * big * (g + 1) / (1 - rho**length)


def _assert_scan_matches_the_steps(rows, beta_dt, theta):
    """``_ar1_paths`` of ``rows`` in place, within ``_scan_bound`` of ``ar1_steps``."""
    a = math.exp(-beta_dt) * complex(math.cos(theta), -math.sin(theta))
    expected = ar1_steps(rows, a)
    got = stochastic._ar1_paths(rows, a)
    big = max(np.abs(got).max(), np.abs(expected).max())
    assert np.abs(got - expected).max() <= _scan_bound(math.exp(-beta_dt), len(rows), big)


# time-major (K+1, ...) rows, one lane or several, each row of lanes a step; records of
# one segment, then of two or more
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 400),
       lanes=st.one_of(st.tuples(st.integers(1, 9)), st.tuples(st.integers(1, 9), st.just(2))),
       beta_dt=st.floats(1e-4, 0.05), theta=st.floats(0.0, 0.1 * math.pi),
       seed=st.integers(0, 2**32 - 1))
def test_ar1_paths_match_the_stepwise_loop_on_any_shape(n, lanes, beta_dt, theta, seed):
    _assert_scan_matches_the_steps(_complex_rows(seed, (n, *lanes)), beta_dt, theta)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1024, 8000),
       lanes=st.one_of(st.tuples(st.integers(1, 9)), st.tuples(st.integers(1, 9), st.just(2))),
       beta_dt=st.floats(1e-4, 0.05), theta=st.floats(0.0, 0.1 * math.pi),
       seed=st.integers(0, 2**32 - 1))
@example(n=1024, lanes=(1,), beta_dt=1e-4, theta=0.0, seed=0)  # the shortest of two segments
@example(n=6367, lanes=(9, 2), beta_dt=0.0314, theta=0.314, seed=1)  # criterion 10's record
def test_segmented_ar1_paths_match_the_stepwise_loop(n, lanes, beta_dt, theta, seed):
    _assert_scan_matches_the_steps(_complex_rows(seed, (n, *lanes)), beta_dt, theta)


@pytest.mark.parametrize("c", [1, 3, 5])
def test_ar1_paths_on_a_column_slice(c):
    # the partial last block of _field_blocks: the first c of b columns of a
    # (K+1, b) buffer, a view that is not contiguous though each of its rows is
    buf = _complex_rows(c, (201, 6)).copy()
    rest = buf[:, c:].copy()
    a = math.exp(-0.03) * complex(math.cos(0.2), -math.sin(0.2))
    expected = ar1_steps(buf[:, :c], a)
    assert stochastic._ar1_paths(buf[:, :c], a).base is buf
    bound = _scan_bound(math.exp(-0.03), 201, np.abs(expected).max() * 2)
    assert np.abs(buf[:, :c] - expected).max() <= bound
    np.testing.assert_array_equal(buf[:, c:], rest)


def _unit_responses(p, dt, n_steps):
    """The (K+1, K+2) map L from a realization's K+2 normals to its samples: ``sample_fields``
    of K+2 seeds whose j-th stream, in draw order, is the unit vector e_j."""
    drawn = iter(range(n_steps + 2))

    class Unit:  # stands in for numpy's Generator
        def __init__(self, bit_generator):
            pass

        def standard_normal(self, out):
            out[:] = 0.0
            out[next(drawn)] = 1.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "Generator", Unit)
        return sample_fields(p, dt, n_steps, range(n_steps + 2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n_steps=st.integers(1, 256), log_beta=st.floats(-300.0, 90.0),
       log_omega=st.floats(-323.3, 300.0), log_i0=st.floats(-3.0, 3.0),
       dt_frac=st.floats(1e-6, 1.0))
@example(n_steps=40, log_beta=0.0, log_omega=1.0, log_i0=0.0, dt_frac=1.0)  # criterion 10
@example(n_steps=40, log_beta=0.0, log_omega=-12.0, log_i0=0.0, dt_frac=1.0)  # omega -> 0
@example(n_steps=40, log_beta=0.0, log_omega=-323.3, log_i0=0.0, dt_frac=1.0)  # theta = 0
@example(n_steps=40, log_beta=-30.0, log_omega=300.0, log_i0=0.0, dt_frac=1.0)  # rho = 1, c = 0
@example(n_steps=1100, log_beta=0.0, log_omega=0.7, log_i0=0.0, dt_frac=1.0)  # two segments
def test_field_covariance_is_exact(n_steps, log_beta, log_omega, log_i0, dt_frac):
    """L L^T, pushed through ``sample_fields``, is the Lorentzian covariance on the grid."""
    p = SystemParams(omega=10.0**log_omega, kappa=1.0, beta_s=0.0, i0=10.0**log_i0,
                     beta=10.0**log_beta)
    dt, c0 = dt_frac * max_field_dt(p), field_variance(p)
    unit = _unit_responses(p, dt, n_steps)
    expected = field_covariance(c0, p.beta, p.omega, dt, n_steps)
    assert np.abs(unit @ unit.T - expected).max() <= 1e-13 * c0


def _periodogram_bound(fields, dt):
    """Largest |difference| of two averaged periodograms of ``fields`` that transform differently.

    A transform of N points in floating point is off by at most eps = c u log2 N
    of its norm, normwise (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 24.2), with c = 10 taken for the mixed-radix and
    Bluestein transforms. A squared magnitude dt |X_k|^2 / N is then off by at
    most eps (2 + eps) dt ||x||^2, since ||X||^2 = N ||x||^2; a packed pair
    (|Z_k|^2 + |Z_(N-k)|^2) dt / 2N by at most that of its two records. The n
    in-order additions and the scalings round by at most (n + 4) u of the
    largest sum.
    """
    n, u = len(fields), 2.0**-53
    eps = 10 * u * math.log2(len(fields[0]))
    sq_norms = sum(float(f @ f) for f in fields)
    largest = np.max(periodogram_reference(fields, dt)) * n
    return (2 * eps * (2 + eps) * dt * sq_norms + (n + 4) * u * largest) / n


def _paired_sums(records, b, block):
    """(sums, mixed) of ``stochastic._add_pairs`` over ``records`` and their terms ``b``, fed
    ``block`` rows at a time (an odd count ends with a zero record and a zero term)."""
    n, m = records.shape[1], stochastic._smooth_length(2 * records.shape[1] - 1)
    rows = np.vstack([records, np.zeros((len(records) % 2, n))])
    b = np.concatenate([b, np.zeros(len(records) % 2, complex)])
    pairs, sums, mixed = np.empty((block // 2, m), complex), np.zeros(2 * m), np.zeros((2, n))
    for start in range(0, len(rows), block):
        stochastic._add_pairs(rows[start:start + block], b[start:start + block], pairs, sums,
                              mixed)
    return sums, mixed


@pytest.mark.parametrize("n_samples", [301, 1021])
@pytest.mark.parametrize("records", [1, 2, 3, 4, 5, 17, 18])
def test_paired_transforms_match_per_record_ffts(n_samples, records):
    # records 2j and 2j + 1 share one zero-padded complex transform, and an odd last record
    # goes with a zero one; the sums do not depend on the blocks they are fed in
    rng = np.random.default_rng(records)
    s, b = rng.standard_normal((records, n_samples)), _complex_rows(records, (records,))
    m = stochastic._smooth_length(2 * n_samples - 1)  # the first 2^a 3^b 5^c from 2N - 1 on
    assert m == next(k for k in range(2 * n_samples - 1, 4 * n_samples)
                     if math.prod(f ** int(math.log(k, f) + 1) for f in (2, 3, 5)) % k == 0)
    sums, mixed = _paired_sums(s, b, 2)
    for block in (4, 20):
        for got, want in zip(_paired_sums(s, b, block), (sums, mixed)):
            np.testing.assert_array_equal(got, want)
    # |Z_f|^2 + |Z_(M-f)|^2 = 2 (|A_f|^2 + |B_f|^2) for Z = A + iB, A and B real
    squares = sums[::2] + sums[1::2]
    folded = 0.5 * (squares[:m // 2 + 1] + squares[-np.arange(m // 2 + 1)])
    expected = sum(np.abs(np.fft.rfft(x, m)) ** 2 for x in s)
    # as _periodogram_bound: an M-point transform is off by eps of its norm, and each of the
    # pairs' squared magnitudes by eps (2 + eps) M times the squared norm of its records
    u = 2.0**-53
    eps = 10 * u * math.log2(m)
    bound = eps * (2 + eps) * m * float(np.sum(s * s)) + (records + 4) * u * expected.max()
    assert np.abs(folded - expected).max() <= bound
    # b_r s_r, two roundings each, added in order
    weighted = np.stack([b.real @ s, b.imag @ s])
    scale = np.stack([np.abs(b.real) @ np.abs(s), np.abs(b.imag) @ np.abs(s)])
    assert np.all(np.abs(mixed - weighted) <= (records + 3) * u * scale)


def _spectrum_bound(p, dt, n_steps):
    """Largest |difference| of ``sample_periodogram``'s power and the averaged periodogram of
    ``sample_fields``' records, at a step that ``max_field_dt`` allows.

    Let u = 2^-53, N = K + 1, rho = e^(-beta dt) and P the peak of the
    expected periodogram dt E|X_j|^2 / N, from ``field_covariance``. A bin's
    power is a sum of terms, |G|^2 sum|S_j|^2, the cross terms and the
    boundary terms, each at most about (1 + 2/(N beta dt)) P in expectation:
    a record short against the correlation time 1/beta is nearly a turning
    phasor, whose transform is a steady-state response and a boundary term
    that cancel to it. Each term is computed to a few u log2 M (the
    transforms, the fold, the sums). The reference's records are stepped
    with a rounded factor a by the segmented scan, and drift from the exact
    AR(1) by up to about u G of the field's scale, G = sum of rho^i over
    i < N (``_scan_bound``); through a resonance as narrow as 1 - rho, that
    moves the power by about u G of P. So the two differ by
    c u (1 + 1/(N beta dt) + G) P. c = 128: the worst of 3000 scratch draws
    over this property's ranges came to 30 u (1 + 1/(N beta dt) + G) P, at
    omega dt = 0, where both resonances fall on bin 0. The expected peak
    stands for the drawn one, which a few records can leave far below the
    terms by chance.
    """
    n, u, rho = n_steps + 1, 2.0**-53, math.exp(-p.beta * dt)
    cov = field_covariance(field_variance(p), p.beta, p.omega, dt, n_steps)
    bins = np.arange(n // 2 + 1)
    peak = dt / n * np.fft.fft2(cov)[bins, -bins].real.max()
    g = math.fsum(rho**i for i in range(n))
    return 128 * u * (1 + 1 / (n * p.beta * dt) + g) * peak


# records of 2 to 301 samples, from far shorter than the correlation time (N beta dt = 1e-5)
# to 15 times it, 2 to 9 of them, at omega dt from 0 (underflowing) to its cap of 0.1 pi
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_steps=st.integers(1, 300), count=st.integers(2, 9), log_nbd=st.floats(-5.0, 2.5),
       theta_frac=st.floats(0.0, 1.0), log_i0=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
@example(n_steps=300, count=2, log_nbd=-5.0, theta_frac=0.5, log_i0=0.0, seed=1)
@example(n_steps=201, count=7, log_nbd=-2.0, theta_frac=0.0, log_i0=0.0, seed=2)  # omega dt = 0
@example(n_steps=300, count=9, log_nbd=2.5, theta_frac=1.0, log_i0=0.0, seed=3)
@example(n_steps=1, count=3, log_nbd=0.0, theta_frac=0.3, log_i0=0.0, seed=4)
def test_power_is_the_periodogram_of_the_sampled_records(n_steps, count, log_nbd, theta_frac,
                                                         log_i0, seed):
    dt = min(0.05, 10.0**log_nbd / (n_steps + 1))
    p = SystemParams(omega=max(theta_frac * 0.1 * math.pi / dt, 5e-324), kappa=1.0,
                     beta_s=0.0, i0=10.0**log_i0, beta=1.0)
    seeds = derive_seeds(seed, range(count))
    omega, power, first = sample_periodogram(p, dt, n_steps, seeds)
    fields = sample_fields(p, dt, n_steps, seeds)
    np.testing.assert_array_equal(first, fields[:, 0])
    reference = periodogram_reference(list(fields.T), dt)
    assert np.abs(power - reference).max() <= _spectrum_bound(p, dt, n_steps)


def test_criterion_10_power_is_the_reference_within_1e13_of_its_peak():
    p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    dt = max_field_dt(p)
    n_steps, seeds = int(round(200.0 / p.beta / dt)), derive_seeds(42, range(200))
    omega, power, first = sample_periodogram(p, dt, n_steps, seeds)
    fields = sample_fields(p, dt, n_steps, seeds)
    np.testing.assert_array_equal(first, fields[:, 0])
    reference = periodogram_reference(list(fields.T), dt)
    assert np.abs(power - reference).max() <= 1e-13 * reference.max()


def test_sample_fields_match_per_seed_sampling(monkeypatch):
    p = SystemParams(omega=10.0, kappa=1.0, beta_s=0.0, i0=1.0, beta=1.0)
    dt, n_steps = max_field_dt(p), 100
    # blocks of 4 realizations, so 7 seeds leave a partial last block
    monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", 4 * 2 * 8 * (n_steps + 1))
    seeds = derive_seeds(17, range(7))
    fields = sample_fields(p, dt, n_steps, seeds)
    assert fields.shape == (n_steps + 1, len(seeds))
    a, c, lift = stochastic._ar1_factors(p.beta * dt, p.omega * dt)
    scale = math.sqrt(field_variance(p))
    # the same fields from each seed's default_rng stream, stepped by the plain loop
    paths = ar1_steps(_default_rng_draws(seeds, n_steps, lift, c), a)
    big = 2 * np.abs(paths).max()  # the largest |W| of either, and then some
    bound = scale * (_scan_bound(math.exp(-p.beta * dt), n_steps + 1, big) + 2**-52 * big)
    for column, seed, path in zip(fields.T, seeds, paths.T):
        np.testing.assert_array_equal(column, one_field(p, dt, n_steps, seed))
        assert np.abs(column - scale * path.real).max() <= bound


def test_streams_do_not_depend_on_block_size(monkeypatch, tmp_path):
    ic, dt, n_steps = InitialCondition(0.3, 0.5), max_field_dt(WEAK), 300
    seeds = derive_seeds(17, range(7))
    fields = [one_field(WEAK, dt, n_steps, s) for s in seeds]
    reference, bound = periodogram_reference(fields, dt), _periodogram_bound(fields, dt)

    def report_bytes():  # every field of the report, as write_json writes it
        path = tmp_path / "report.json"
        ensemble_average(ic, WEAK, 7, dt, n_steps * dt, 17).write_json(path)
        return path.read_bytes()

    report, powers = report_bytes(), []
    # blocks of 2 (a budget of one record, rounded up to a pair) and of 4 records (an odd
    # partial last block), then the default
    record = 2 * 8 * (n_steps + 1)
    for budget in (record, 5 * record, stochastic.FIELD_BLOCK_BYTES):
        monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", budget)
        omega, power, first = sample_periodogram(WEAK, dt, n_steps, seeds)
        np.testing.assert_array_equal(omega, 2.0 * math.pi * np.fft.rfftfreq(n_steps + 1, d=dt))
        assert np.abs(power - reference).max() <= bound
        powers.append(power)
        np.testing.assert_array_equal(first, fields[0])
        np.testing.assert_array_equal(sample_fields(WEAK, dt, n_steps, seeds), np.stack(fields, 1))
        assert report_bytes() == report
    np.testing.assert_array_equal(powers[1], powers[0])
    np.testing.assert_array_equal(powers[2], powers[0])


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is not available")

#: test_cli's DIVERGENT config: strong coupling, where some trajectories diverge
DIVERGENT = SystemParams(omega=2.0, kappa=12.0, beta_s=1.0, i0=2.0, beta=1.0)


def _split_run(monkeypatch, p=WEAK, n=15, master_seed=23):
    """``ensemble_average`` arguments of a run that splits inside a field block: 15 seeds in
    blocks of 4, so the child's half, 8 seeds, starts at seed 7."""
    n_steps = 60
    monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", 4 * 2 * 8 * (n_steps + 1))
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    dt = max_field_dt(p)
    return InitialCondition(0.3, 0.5, mdot0=1.0), p, n, dt, n_steps * dt, master_seed


def _report_bytes(tmp_path, run):
    """Every field of the report of ``ensemble_average(*run)``, as write_json writes it."""
    path = tmp_path / "report.json"
    ensemble_average(*run).write_json(path)
    return path.read_bytes()


def _unsplit_bytes(monkeypatch, tmp_path, run):
    """``_report_bytes`` of a run kept in one process (one usable CPU); two CPUs after it."""
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 1)
    unsplit = _report_bytes(tmp_path, run)
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    return unsplit


@needs_fork
def test_a_split_run_integrates_each_half_in_its_own_process(monkeypatch, tmp_path, forks):
    # the caller's _rk4_paths calls are recorded; the child's land in its own copy of the list
    run, lanes, rk4 = _split_run(monkeypatch), [], stochastic._rk4_paths

    def recording_rk4(ic, p, field, dt, seeds):
        lanes.append(len(seeds))
        return rk4(ic, p, field, dt, seeds)

    monkeypatch.setattr(stochastic, "_rk4_paths", recording_rk4)
    unsplit = _unsplit_bytes(monkeypatch, tmp_path, run)
    assert (forks, lanes) == ([], [7, 8])  # one process, both halves in turn
    lanes.clear()
    assert _report_bytes(tmp_path, run) == unsplit
    assert (forks, lanes) == ([os.getpid()], [7])


@needs_fork
def test_only_a_run_of_two_blocks_or_more_is_split(monkeypatch, tmp_path, forks):
    run = _split_run(monkeypatch)
    ensemble_average(*run[:2], 7, *run[3:])
    assert forks == []
    ensemble_average(*run[:2], 8, *run[3:])
    assert forks == [os.getpid()]


def _quota_tree(monkeypatch, root, files):
    """Point ``_usable_cpus`` at a cgroup tree of ``files`` (path: text) under ``root``,
    on four CPUs of affinity."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    monkeypatch.setattr(stochastic, "_CGROUP", root)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


@pytest.mark.parametrize("files, cpus", [
    ({"cpu.max": "100000 100000\n"}, 1),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "100001 100000\n"}, 2),  # rounded up
    ({"cpu.max": "199999 100000\n"}, 2),
    ({"cpu.max": "250000 100000\n"}, 3),
    ({"cpu.max": "800000 100000\n"}, 4),  # never more than the affinity mask
    ({"cpu.max": "max 100000\n"}, 4),
    ({"cpu/cpu.cfs_quota_us": "150000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
    ({"cpu/cpu.cfs_quota_us": "300000", "cpu/cpu.cfs_period_us": "100000"}, 3),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 4),
    ({"cpu/cpu.cfs_quota_us": "150000\n"}, 4),  # no period to read
    ({}, 4),
])
def test_usable_cpus_are_capped_by_a_cgroup_cpu_quota(monkeypatch, tmp_path, files, cpus):
    _quota_tree(monkeypatch, tmp_path, files)
    assert stochastic._usable_cpus() == cpus


@needs_fork
def test_a_run_under_a_one_cpu_quota_is_not_split(monkeypatch, tmp_path, forks):
    n_steps = 60  # 8 seeds in blocks of 4: two blocks
    monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", 4 * 2 * 8 * (n_steps + 1))
    _quota_tree(monkeypatch, tmp_path, {"cpu.max": "100000 100000\n"})
    dt = max_field_dt(WEAK)
    run = (InitialCondition(0.0, 1.0), WEAK, 8, dt, n_steps * dt, 23)
    ensemble_average(*run)
    assert forks == []
    (tmp_path / "cpu.max").write_text("max 100000\n")  # without the quota the run is split
    ensemble_average(*run)
    assert forks == [os.getpid()]


@needs_fork
@pytest.mark.parametrize("failure", ["child", "fork"])
def test_the_parent_synthesizes_the_share_of_a_failed_child_or_fork(monkeypatch, tmp_path, forks,
                                                                     failure):
    run = _split_run(monkeypatch)
    unsplit = _unsplit_bytes(monkeypatch, tmp_path, run)
    parent, draw = os.getpid(), stochastic._draw_normals

    def fail_in_child(*args):
        if os.getpid() != parent:
            raise _Failure("child")
        return draw(*args)

    def no_fork():
        forks.append(os.getpid())
        raise OSError("fork failed")

    if failure == "child":
        monkeypatch.setattr(stochastic, "_draw_normals", fail_in_child)
    else:
        monkeypatch.setattr(os, "fork", no_fork)
    assert _report_bytes(tmp_path, run) == unsplit
    assert forks == [parent]


@needs_fork
def test_a_child_reaped_unseen_under_an_ignored_sigchld_is_redone(monkeypatch, tmp_path, forks):
    # waitpid then waits for the child and fails with ECHILD: the status is lost
    run = _split_run(monkeypatch)
    unsplit = _unsplit_bytes(monkeypatch, tmp_path, run)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        split = _report_bytes(tmp_path, run)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert split == unsplit
    assert forks == [os.getpid()]


@needs_fork
def test_a_failure_in_the_parent_share_is_raised_and_leaves_no_child(monkeypatch, forks):
    run = _split_run(monkeypatch)
    parent, draw = os.getpid(), stochastic._draw_normals

    def fail_in_parent(*args):
        if os.getpid() == parent:
            raise _Failure("parent")
        return draw(*args)

    monkeypatch.setattr(stochastic, "_draw_normals", fail_in_parent)
    with pytest.raises(_Failure, match="parent"):
        ensemble_average(*run)
    assert forks == [parent]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_divergence_in_the_child_half_is_raised_as_all_trajectories_report_it(monkeypatch,
                                                                                 forks):
    # 9 seeds, the child's half from seed 4: the caller's half first diverges at t = 1.9,
    # the child's at t = 0.75, so only the run of all trajectories reports the earliest
    ic, p, n, dt, horizon, master_seed = _split_run(monkeypatch, DIVERGENT, 9, 17)
    seeds, n_steps = derive_seeds(master_seed, range(n)), round(horizon / dt)
    with pytest.raises(TrajectoryDivergenceError) as alone:
        for _ in stochastic._rk4_paths(ic, p, sample_fields(p, dt, n_steps, seeds), dt, seeds):
            pass
    assert alone.value.seed in seeds[n // 2:]
    with pytest.raises(TrajectoryDivergenceError) as err:
        ensemble_average(ic, p, n, dt, horizon, master_seed)
    assert forks == [os.getpid()]
    assert (err.value.time, err.value.seed) == (alone.value.time, alone.value.seed)
    assert str(err.value) == str(alone.value)


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
    # criterion 10's run: a block of normals as rows (half a block) and its pairs'
    # zero-padded transforms (about one block), reused from block to block
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


def _periodogram_run(monkeypatch, n=15):
    """``sample_periodogram`` arguments of a run that splits: 15 seeds in blocks of 4, cut at
    2 (15 // 4) = 6, so the child's half of 9 seeds ends in an odd record, paired with a zero
    one."""
    n_steps = 60
    monkeypatch.setattr(stochastic, "FIELD_BLOCK_BYTES", 4 * 2 * 8 * (n_steps + 1))
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    return WEAK, max_field_dt(WEAK), n_steps, derive_seeds(23, range(n))


def _periodogram_bytes(run):
    """The omega, power and realization-0 bytes of ``sample_periodogram(*run)``."""
    return b"".join(a.tobytes() for a in sample_periodogram(*run))


@needs_fork
@pytest.mark.parametrize("failure", [None, "child", "fork", "sigchld"])
def test_a_split_periodogram_gives_the_unsplit_bytes(monkeypatch, forks, failure):
    # the caller's blocks of paired records are recorded; the child's land in its own copy of
    # the list. Each half's odd last record is paired with a zero one
    run, widths, add_pairs = _periodogram_run(monkeypatch), [], stochastic._add_pairs
    parent, draw = os.getpid(), stochastic._normal_rows

    def recording_add_pairs(s, *args):
        widths.append(len(s))
        add_pairs(s, *args)

    def fail_in_child(*args):  # after the child has added its first block
        if os.getpid() != parent and widths[-1:] == [4]:
            raise _Failure("child")
        return draw(*args)

    def no_fork():
        forks.append(os.getpid())
        raise OSError("fork failed")

    monkeypatch.setattr(stochastic, "_add_pairs", recording_add_pairs)
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 1)
    unsplit = _periodogram_bytes(run)
    assert (forks, widths) == ([], [4, 2, 4, 4, 2])  # one process, both halves in turn
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    widths.clear()
    if failure == "child":
        monkeypatch.setattr(stochastic, "_normal_rows", fail_in_child)
    elif failure == "fork":
        monkeypatch.setattr(os, "fork", no_fork)
    # with SIGCHLD ignored waitpid waits for the child and fails with ECHILD: the status is lost
    ignored = failure == "sigchld"
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN) if ignored else None
    try:
        assert _periodogram_bytes(run) == unsplit
    finally:
        if ignored:
            signal.signal(signal.SIGCHLD, previous)
    assert forks == [parent]
    assert widths == ([4, 2] if failure is None else [4, 2, 4, 4, 2])


@needs_fork
def test_only_a_periodogram_of_two_blocks_or_more_outside_a_one_cpu_quota_is_split(
        monkeypatch, tmp_path, forks):
    usable_cpus, run = stochastic._usable_cpus, _periodogram_run(monkeypatch)
    seeds = run[3][:8]  # two blocks of 4
    sample_periodogram(*run[:3], seeds[:7])
    assert forks == []
    monkeypatch.setattr(stochastic, "_usable_cpus", usable_cpus)  # the count under a quota
    _quota_tree(monkeypatch, tmp_path, {"cpu.max": "100000 100000\n"})
    sample_periodogram(*run[:3], seeds)
    assert forks == []
    (tmp_path / "cpu.max").write_text("max 100000\n")  # without the quota the run is split
    sample_periodogram(*run[:3], seeds)
    assert forks == [os.getpid()]


@needs_fork
def test_a_failure_in_the_caller_half_of_a_periodogram_is_raised_and_leaves_no_child(monkeypatch,
                                                                                     forks):
    run = _periodogram_run(monkeypatch)
    parent, draw = os.getpid(), stochastic._normal_rows

    def fail_in_parent(*args):
        if os.getpid() == parent:
            raise _Failure("parent")
        return draw(*args)

    monkeypatch.setattr(stochastic, "_normal_rows", fail_in_parent)
    with pytest.raises(_Failure, match="parent"):
        sample_periodogram(*run)
    assert forks == [parent]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_a_periodogram_whose_filter_overflows_is_refused():
    # omega on Fourier bin 10 of N = 301 and beta = 1e-300: there 1 - a z^j is beta dt, and the
    # filter terms that cancel overflow; the power is refused, not returned as NaN with a warning
    p = SystemParams(2.0 * math.pi * 10 / (301 * 0.05), 1.0, 0.0, 1.0, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="periodogram or its filter overflows"):
            sample_periodogram(p, 0.05, 300, [1, 2, 3, 4])


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
    _write_csv(path, "t,E", (0.05 * np.arange(len(f1)), f1), "\r\n")  # as spectrum --dump-field
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


def test_report_json_is_the_json_module_text(tmp_path):
    # n = 2, a dipole rate and a master seed of two entropy words; then -0.0 and the
    # non-finite values no report holds, which are written as json writes them
    ic = InitialCondition(m0=0.3, w0=0.5, mdot0=-1.5)
    report = ensemble_average(ic, WEAK, 2, 0.05, 0.15, 2**40 + 7)
    edges = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1])
    for rep in (report, dataclasses.replace(report, residual_w=edges, dt=-0.0)):
        rep.write_json(tmp_path / "report.json")
        fields = {"initial_condition" if f.name == "ic" else f.name: getattr(rep, f.name)
                  for f in dataclasses.fields(rep)}
        fields.update((k, v.tolist()) for k, v in fields.items() if isinstance(v, np.ndarray))
        fields.update(params=dataclasses.asdict(rep.params),
                      initial_condition=dataclasses.asdict(rep.ic))
        expected = json.dumps(fields, indent=2) + "\n"
        assert (tmp_path / "report.json").read_bytes() == expected.encode()


def _assert_statistics_of_the_joined_halves(ic, p, n, dt, n_steps, seed):
    """The report's means and standard errors equal, bit for bit, the pairwise sums over
    each half of the seeds (cut at n // 2) of the stacked trajectories, joined by Chan's
    formula, and are close to the stacked statistics of all the trajectories."""
    report = ensemble_average(ic, p, n, dt, n_steps * dt, seed)
    assert report.t.size == n_steps + 1
    fields = sample_fields(p, dt, n_steps, report.seeds).T
    h = n // 2
    halves = [ensemble_paths(ic, p, part, dt) for part in (fields[:h], fields[h:])]

    def row_sums(x):  # each time row of record-major trajectories, summed pairwise
        return np.ascontiguousarray(x.T).sum(axis=1)

    for got_mean, got_se, first, second in zip((report.mean_m, report.mean_w),
                                                (report.se_m, report.se_w), *halves):
        # per half: the sum and the sum of squared deviations
        s1, s2 = row_sums(first), row_sums(second)
        m2_1, m2_2 = row_sums((first - s1 / h) ** 2), row_sums((second - s2 / (n - h)) ** 2)
        m2 = m2_1 + m2_2 + (s2 / (n - h) - s1 / h) ** 2 * (h * (n - h) / n)
        np.testing.assert_array_equal(got_mean, (s1 + s2) / n)
        np.testing.assert_array_equal(got_se, np.sqrt(m2 / (n - 1)) / math.sqrt(n))
    stacked = ensemble_reference(ic, p, fields, dt)
    for got, want in zip((report.mean_m, report.mean_w, report.se_m, report.se_w), stacked):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 40), n_steps=st.integers(1, 30),
       radius=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * math.pi),
       omega=st.floats(5.0, 20.0), kappa=st.floats(0.1, 2.0), beta_s=st.floats(0.0, 1.0),
       weight=st.floats(0.0, 0.25), dt_frac=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1))
def test_streamed_statistics_equal_stacked_reference(n, n_steps, radius, angle, omega, kappa,
                                                     beta_s, weight, dt_frac, seed):
    # weak coupling, pi i0 kappa^2 <= beta / 4 with beta = 1: the statistics are
    # reduced row by row as RK4 runs, one half of the seeds at a time
    p = SystemParams(omega=omega, kappa=kappa, beta_s=beta_s,
                     i0=weight / (math.pi * kappa**2), beta=1.0)
    ic = InitialCondition(m0=radius * math.cos(angle), w0=radius * math.sin(angle))
    dt = dt_frac * max_field_dt(p)
    _assert_statistics_of_the_joined_halves(ic, p, n, dt, n_steps, seed)


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
    _assert_statistics_of_the_joined_halves(ic, p, n, dt, n_steps, seed)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def _pairwise_roundings(n):
    """The most roundings on any term's path through numpy's pairwise sum of n terms."""
    if n < 8:  # added one by one
        return n
    if n <= 128:  # n // 8 terms into each of 8 accumulators, 3 levels joining them, the rest
        return n // 8 - 1 + 3 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_roundings(half), _pairwise_roundings(n - half))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 40000), offset=st.floats(1e-3, 1e3), negative=st.booleans(),
       log_spread=st.floats(-12.0, -2.0), seed=st.integers(0, 2**32 - 1))
@example(n=40000, offset=1.0, negative=False, log_spread=-2.0, seed=0)
def test_moments_are_within_the_pairwise_bound_of_exact_sums(n, offset, negative, log_spread, seed):
    """S and M2 of rows x_i = c (1 + s r_i), |r_i| <= 1, s <= 1e-2, as ``_moments`` writes them,
    lie within the pairwise-summation bound of ``math.fsum`` over the same rows.

    A sum whose terms each pass through at most d roundings is within
    gamma_d sum |x_i| of the exact sum s (Higham, SIAM J. Sci. Comput. 14,
    783, 1993). numpy adds n terms one by one under 8; up to 128 it fills 8
    accumulators with n // 8 terms each, joins them in 3 levels and adds the
    n % 8 left one by one; above 128 it halves at a multiple of 8 and adds
    the halves, one rounding a level. So d = _pairwise_roundings(n), plus one
    for the reduction's first term: 22 at n = 40000, where index order
    allows n - 1. fsum F is s correctly rounded, so |S - F| <= gamma_(d+1) A,
    A = sum |x_i| >= |F|.

    Every x_i lies within a factor 2 of the means mu' = S / n and c' = F / n,
    so x_i - mu' and x_i - c' are exact (Sterbenz). The squares and fsum
    make the reference M2_F = T (1 +- gamma_2), T = M2 + n (mu - c')^2; the
    squares and d + 1 pairwise roundings make M2 as written T' (1 +-
    gamma_(d+2)), T' = M2 + n (mu - mu')^2, mu = s / n the exact mean.
    |mu - mu'| and |mu - c'| are both under gamma_(d+2) A / n, so
    |M2' - M2_F| <= gamma_(d+3) (M2' + M2_F) + 2 n (gamma_(d+2) A / n)^2.
    """
    rng = np.random.default_rng(seed)
    scale = (-offset if negative else offset) * rng.uniform(0.5, 2.0, (4, 3, 1))
    states = scale * (1.0 + 10.0**log_spread * rng.uniform(-1.0, 1.0, (4, 3, n)))
    out = np.full((2, 2, 4), np.nan)
    with pytest.MonkeyPatch.context() as patch:  # the rows stand in for RK4's
        patch.setattr(stochastic, "sample_fields", lambda *args: None)
        patch.setattr(stochastic, "_rk4_paths", lambda *args: iter(states))
        stochastic._moments(None, WEAK, 0.01, 3, range(n), out)
    d = 1 + _pairwise_roundings(n)
    for k, state in enumerate(states):
        for row, x in enumerate(state[::2]):
            total, size = math.fsum(x), math.fsum(np.abs(x))
            m2 = math.fsum((x - total / n) ** 2)
            assert abs(out[0, row, k] - total) <= _gamma(d + 1) * size
            slack = _gamma(d + 3) * (out[1, row, k] + m2) + 2 * (_gamma(d + 2) * size) ** 2 / n
            assert abs(out[1, row, k] - m2) <= slack


def test_ensemble_memory_grows_only_by_the_field(monkeypatch):
    # the trajectories are reduced as they are integrated, and the caller synthesizes
    # and integrates one half of the seeds at a time, split (10^4 seeds on two CPUs) or
    # not: only half of the n x (K+1) field grows with n, not the whole field or stored
    # m and w paths. Every field is private memory, which tracemalloc sees
    ic, dt, n_steps = InitialCondition(0.0, 1.0), max_field_dt(WEAK), 167
    sizes = (2000, 10000)
    field_bytes = 8 * (n_steps + 1) * (sizes[1] - sizes[0])
    for cpus in (1, 2):
        monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
        peaks = []
        for n in sizes:
            tracemalloc.start()
            try:
                ensemble_average(ic, WEAK, n, dt, n_steps * dt, 99)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.75 * field_bytes, cpus


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
