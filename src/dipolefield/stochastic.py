"""Brute-force stochastic oracle for the ensemble closed forms.

Field realizations are quadrature-modulated colored noise: two independent
stationary Gaussian processes with exponential autocorrelation ride the
cosine and sine of the carrier, so the field autocorrelation is

    C(tau) = C(0) * exp(-beta |tau|) * cos(omega tau),   C(0) = pi*beta*i0.

That variance normalization makes the second-order closure of the
trajectory equations reproduce the closed-form constants exactly, which is
what the ensemble comparison validates. The counter-rotating spectral lobe
at -omega is an O(beta/omega) artifact of any real stationary field;
validation regimes therefore keep omega well above beta.

Per-realization dynamics integrate, in dimensionless variables
(m = dipole / max dipole, w = inversion in units of half the splitting):

    m'' + omega^2 m = -kappa*omega * w * E(t)
    w' + beta_s (w + 1) = (kappa/omega) * m' * E(t)

with classic fixed-step fourth-order steps on the field grid; the two
couplings multiply to kappa^2, and ensemble observables depend on the
coupling only through that product.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import MAX_FIELD_SAMPLES, InitialCondition, _write_csv, mean_dipole, mean_inversion
from .model import SystemParams, derive_params

__all__ = [
    "EnsembleReport",
    "LorentzianFit",
    "TrajectoryDivergenceError",
    "SpectrumFitError",
    "derive_seeds",
    "field_variance",
    "max_field_dt",
    "sample_fields",
    "ensemble_average",
    "sample_periodogram",
    "fit_spectrum",
    "write_field_csv",
]

#: state magnitude beyond which a trajectory is declared divergent
DIVERGENCE_LIMIT = 1e3

#: bytes of unit normals synthesized at once, the one memory budget of field
#: synthesis: 41 realizations at the 6367-sample records of the spectrum
#: check, whose pipelined periodogram then holds the normals, one reused
#: field buffer of half their size (the block its helper thread transforms)
#: and a few transformed columns, under 2.25 blocks whatever the number of
#: realizations
FIELD_BLOCK_BYTES = 4 * 2**20

#: records drawn contiguously before they are transposed into a time-major block
_TRANSPOSE_SEEDS = 16

#: columns of a field block the periodogram transforms at once
_TRANSFORM_COLUMNS = 8

#: cap on the field variance pi*beta*i0, far from overflow in the periodogram's
#: squared sums of field samples and in the field's fourth power in an RK4 step
MAX_FIELD_VARIANCE = 1e100

_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
#: multiplier of PCG64's 128-bit linear congruential step
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: steps of the Lorentzian fit before it fails, and the relative parameter
#: step at which it has converged
FIT_MAX_ITER, FIT_XTOL = 200, 1e-12


class TrajectoryDivergenceError(RuntimeError):
    """A trajectory left the admissible state region (too-coarse step or bug)."""

    def __init__(self, message: str, seed: int | None = None, time: float | None = None):
        super().__init__(message)
        self.seed = seed
        self.time = time


class SpectrumFitError(RuntimeError):
    """The Lorentzian fit of the averaged periodogram did not converge."""


@dataclass(frozen=True)
class EnsembleReport:
    """Ensemble averages with standard errors and closed-form residuals."""

    t: np.ndarray
    mean_m: np.ndarray
    mean_w: np.ndarray
    se_m: np.ndarray
    se_w: np.ndarray
    residual_m: np.ndarray
    residual_w: np.ndarray
    n_realizations: int
    dt: float
    master_seed: int
    seeds: tuple[int, ...]
    params: SystemParams
    ic: InitialCondition

    def write_json(self, path: str | Path) -> None:
        """Write the fields as JSON lists, objects and numbers, ``ic`` as ``initial_condition``."""
        report = {"initial_condition" if f.name == "ic" else f.name: getattr(self, f.name)
                  for f in fields(self)}
        text = json.dumps(report, indent=2,
                          default=lambda v: v.tolist() if isinstance(v, np.ndarray) else asdict(v))
        Path(path).write_text(text + "\n", newline="")


@dataclass(frozen=True)
class LorentzianFit:
    peak_omega: float
    peak_height: float
    hwhm: float


# ---------------------------------------------------------------------------
# field generation
# ---------------------------------------------------------------------------

def field_variance(p: SystemParams) -> float:
    """Stationary field variance C(0) = pi * beta * i0."""
    return math.pi * p.beta * p.i0


def max_field_dt(p: SystemParams) -> float:
    """Largest step resolving both the noise envelope and the carrier."""
    return min(0.05 / p.beta, 0.05 * 2.0 * math.pi / p.omega)


def _seed_state(words: np.ndarray, lengths, n_out: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_out, np.uint64)`` for every row at once.

    Row i holds its entropy as little-endian uint32 words, the first
    ``lengths[i]`` of which count; entropy shorter than the 4-word pool is
    zero padded, as ``SeedSequence`` does itself.
    """
    const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value: np.ndarray) -> np.ndarray:  # advances the running constant
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return r ^ (r >> 16)

    words = np.pad(words, ((0, 0), (0, max(0, 4 - words.shape[1]))))
    pool = [hashmix(words[:, j]) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, words.shape[1]):
        for dst in range(4):
            pool[dst] = np.where(src < lengths, mix(pool[dst], hashmix(words[:, src])), pool[dst])
    const, mult = 0x8B51F9DD, 0x58F38DED
    out = np.stack([hashmix(pool[k % 4]) for k in range(2 * n_out)], axis=1)
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _words(values: Sequence[int]) -> np.ndarray:
    """Integers in [0, 2**64) as rows of two little-endian uint32 words."""
    try:
        return np.array(values, dtype=np.uint64).reshape(-1, 1).astype("<u8").view("<u4")
    except OverflowError:
        raise ValueError("seeds and seed indices must be integers in [0, 2**64)") from None


def derive_seeds(master_seed: int, indices: Sequence[int]) -> list[int]:
    """Seeds ``SeedSequence([master_seed, i]).generate_state(1, np.uint64)[0]`` of all indices.

    Bit-identical to numpy's, for any nonnegative master seed and indices
    in [0, 2**64).
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"master seed {master_seed} must be nonnegative")
    head = [master_seed >> s & _MASK32 for s in range(0, max(master_seed.bit_length(), 1), 32)]
    idx = _words(indices)
    words = np.hstack((np.broadcast_to(np.uint32(head), (len(idx), len(head))), idx))
    return _seed_state(words, len(head) + 1 + (idx[:, 1] > 0), 1)[:, 0].tolist()


def _check_step(p: SystemParams, dt: float) -> None:
    """Reject a non-finite or too large field variance and a bad or too coarse step."""
    if not math.isfinite(variance := field_variance(p)):
        raise ValueError(f"field variance pi*beta*i0 = pi*{p.beta:g}*{p.i0:g} is not finite")
    if variance > MAX_FIELD_VARIANCE:
        raise ValueError(f"field variance pi*beta*i0 = {variance:g} exceeds {MAX_FIELD_VARIANCE:g}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt={dt} must be finite and positive")
    limit = max_field_dt(p)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt} too coarse: must be <= min(0.05/beta, 0.05*2*pi/omega) = {limit:.6g}"
        )


def _check_size(n_realizations: int, n_steps: int) -> None:
    """Reject n_steps < 1 and runs of more than ``MAX_FIELD_SAMPLES`` samples in all.

    Callers clamp ``n_steps`` at the cap, so a step count there stands for
    any longer record.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if n_realizations * (n_steps + 1) > MAX_FIELD_SAMPLES:
        per = n_steps + 1 if n_steps < MAX_FIELD_SAMPLES else f"over {MAX_FIELD_SAMPLES}"
        raise ValueError(f"{n_realizations} realizations x {per} samples exceed the cap of "
                         f"{MAX_FIELD_SAMPLES} field samples")


def _draw_normals(seeds: Sequence[int], out: np.ndarray) -> np.ndarray:
    """Fill a time-major (K+1, len(seeds), 2) array with standard normals, one stream per seed.

    ``out[:, i].T`` equals ``np.random.default_rng(seeds[i]).standard_normal((2, K + 1))``
    for seeds in [0, 2**64): PCG64 states seeded in bulk, loaded through one
    reused state dict into one generator, which fills ``_TRANSPOSE_SEEDS``
    records at a time that are then transposed into place.
    """
    states = _seed_state(_words(seeds), 2, 4).tolist()
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    records = np.empty((min(_TRANSPOSE_SEEDS, len(states)), 2, out.shape[0]))
    for start in range(0, len(states), _TRANSPOSE_SEEDS):
        rows = records[:len(states) - start]
        for row, (s0, s1, q0, q1) in zip(rows, states[start:start + _TRANSPOSE_SEEDS]):
            # inc = 2 initseq + 1; two LCG steps from state 0, adding initstate between them
            pcg["inc"] = inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
            bits.state = state
            gen.standard_normal(out=row)
        out[:, start:start + len(rows)] = rows.transpose(2, 0, 1)
    return out


def _quadrature_paths(normals: np.ndarray, rho: float, sigma_st: float) -> np.ndarray:
    """Exact-discretization AR(1) paths from time-major unit normals, overwriting them.

    ``normals[0]`` seeds the stationary initial value; subsequent rows are
    the innovations, and the trailing axes, one or more, are independent
    lanes. Each step rounds ``rho * x_k`` and ``s_inn * z_{k+1}`` and then
    their sum, on one contiguous row of lanes. A step does only a row's few
    multiply-adds, so its cost is the ufunc calls and the row views: the
    array's iterator makes each row view once, the previous row is carried
    rather than indexed again, and ``rho`` is passed as a 0-d array, which
    a call takes without converting a Python float.
    """
    s_inn = sigma_st * math.sqrt(max(0.0, 1.0 - rho * rho))
    normals[0] *= sigma_st
    normals[1:] *= s_inn
    rows = iter(normals)
    prev, factor = next(rows), np.array(rho)
    step = np.empty(prev.shape)
    for row in rows:
        np.multiply(prev, factor, step)
        np.add(row, step, row)
        prev = row
    return normals


def _block_columns(n_steps: int) -> int:
    """Realizations per block: as many (K+1, 2) records of normals as fit ``FIELD_BLOCK_BYTES``."""
    return max(1, FIELD_BLOCK_BYTES // (2 * 8 * (n_steps + 1)))


def _field_blocks(
    p: SystemParams, dt: float, n_steps: int, seeds: Sequence[int],
    out: Callable[[int, int], np.ndarray],
) -> Iterator[np.ndarray]:
    """Field samples E(k dt) of one realization per seed, as time-major (K+1, b) blocks.

    Column j of the blocks, in order, is the realization of ``seeds[j]``.
    The AR(1) recurrence runs in place in one buffer of about
    ``FIELD_BLOCK_BYTES`` of normals. The block of ``seeds[start:stop]`` is
    then modulated into ``out(start, stop)``, a (K+1, stop - start) array,
    and yielded as that array. ``out`` is called only once the block's
    paths are filtered, so a caller may wait there until its destination is
    free to overwrite. Callers check the grid and the run size first.
    """
    sigma_st = math.sqrt(field_variance(p))
    rho = math.exp(-p.beta * dt)
    t = dt * np.arange(n_steps + 1)
    cos, sin = np.cos(p.omega * t)[:, None], np.sin(p.omega * t)[:, None]
    block = _block_columns(n_steps)
    normals = np.empty((n_steps + 1, min(block, len(seeds)), 2))
    for start in range(0, len(seeds), block):
        chunk = seeds[start:start + block]
        paths = _quadrature_paths(_draw_normals(chunk, normals[:, :len(chunk)]), rho, sigma_st)
        field = out(start, start + len(chunk))
        np.multiply(paths[..., 0], cos, field)
        field += np.multiply(paths[..., 1], sin, paths[..., 1])
        yield field


def sample_fields(p: SystemParams, dt: float, n_steps: int, seeds: Sequence[int]) -> np.ndarray:
    """Field samples E(k dt), k = 0..n_steps, one realization per seed, as a (K+1, n) array.

    Column j is the realization of ``seeds[j]``, bit-identical to sampling
    that seed alone; the columns are synthesized in blocks, each written
    straight into its columns (``_field_blocks``).
    Rejects n_steps < 1, a step that is not finite and positive or exceeds
    ``max_field_dt``, a non-finite field variance, and more than
    ``MAX_FIELD_SAMPLES`` samples in all, before anything is allocated.
    """
    _check_step(p, dt)
    _check_size(len(seeds), n_steps)
    field = np.empty((n_steps + 1, len(seeds)))
    for _ in _field_blocks(p, dt, n_steps, seeds, lambda start, stop: field[:, start:stop]):
        pass
    return field


def write_field_csv(values: np.ndarray, dt: float, path: str | Path) -> None:
    """Dump one realization, sampled at t = k dt, as CSV with header ``t,E``."""
    _write_csv(path, "t,E", (dt * np.arange(len(values)), values), "\r\n")


# ---------------------------------------------------------------------------
# trajectory integration
# ---------------------------------------------------------------------------

def _rk4_paths(
    ic: InitialCondition, p: SystemParams, field: np.ndarray, dt: float, seeds: Sequence[int]
) -> Iterator[np.ndarray]:
    """Fixed-step RK4 of the stacked state (m, mdot, w) driven by sampled fields.

    ``field`` is time-major, shape (K+1, n); column j drives the trajectory
    of ``seeds[j]``, which a divergence reports. Yields the state at
    t = 0, dt, ..., K dt, each a new (3, n) array with rows (m, mdot, w);
    nothing else is stored. Field values at half-steps are linear
    interpolants. The four stages and each stage input are written in place
    into (3, n) buffers made once per call, so a stage input, the final
    combination and the divergence test are each one call over all 3n lanes.
    """
    neg_om2, neg_bs = -(p.omega * p.omega), -p.beta_s
    # -k_fast w E and k_slow mdot E in one product; negation is exact, so
    # adding the first equals subtracting k_fast w E
    coef = np.array([[-(p.kappa * p.omega)], [p.kappa / p.omega]])
    n = field.shape[1]
    a, b, c, d = np.empty((4, 3, n))
    y, pair, eh = np.empty((3, n)), np.empty((2, n)), np.empty(n)

    def rhs(x, e, out):  # (mdot, -om^2 m - k_fast w E, -beta_s (w + 1) + k_slow mdot E)
        np.multiply(np.multiply(coef, x[2:0:-1], pair), e, pair)
        out[0] = x[1]
        np.multiply(x[0], neg_om2, out[1])
        np.add(x[2], 1.0, out[2])
        out[2] *= neg_bs
        out[1:] += pair

    def stage(x, k, h):  # the stage input x + h k, in y
        return np.add(np.multiply(k, h, y), x, y)

    x = np.repeat(np.array([[ic.m0], [ic.mdot0], [ic.w0]], dtype=float), n, axis=1)
    yield x

    for step, (e0, e1) in enumerate(zip(field[:-1], field[1:]), 1):
        np.multiply(np.add(e0, e1, eh), 0.5, eh)
        rhs(x, e0, a)
        rhs(stage(x, a, 0.5 * dt), eh, b)
        rhs(stage(x, b, 0.5 * dt), eh, c)
        rhs(stage(x, c, dt), e1, d)
        # ((a + 2b) + 2c) + d, summed into b
        np.add(a, np.multiply(b, 2.0, b), b)
        np.add(b, np.multiply(c, 2.0, c), b)
        x = x + np.multiply(np.add(b, d, b), dt / 6.0, b)

        if not (np.abs(x, out=y).max() <= DIVERGENCE_LIMIT):
            t_bad = dt * step
            seed = int(seeds[int(np.argmax(np.nanmax(y, axis=0)))])
            raise TrajectoryDivergenceError(
                f"trajectory diverged at t={t_bad:.6g} (|state| > {DIVERGENCE_LIMIT:g}, "
                f"seed={seed})", seed=seed, time=t_bad)
        yield x


def ensemble_average(
    ic: InitialCondition,
    p: SystemParams,
    n_realizations: int,
    dt: float,
    horizon: float,
    master_seed: int,
) -> EnsembleReport:
    """Average n independent trajectories and compare to the closed forms.

    Per-trajectory seeds derive deterministically from (master_seed,
    index), so the report is bit-identical across runs and independent of
    any execution interleaving. The trajectories are never stored: each
    time row of m and w is reduced as RK4 yields it, by index-ordered sums
    that equal ``mean(axis=0)`` and ``std(axis=0, ddof=1)`` of the
    stacked trajectories bit for bit, so the run holds only the n x (K+1)
    field of ``sample_fields``. Residuals are taken against the closed-form
    dipole and inversion on the same grid. Runs of more than
    ``MAX_FIELD_SAMPLES`` samples in all are rejected before any seed is derived.
    """
    if n_realizations < 2:
        raise ValueError("n_realizations must be at least 2")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon={horizon} must be finite and positive")
    _check_step(p, dt)
    # a ratio beyond the cap (even an overflowing one) is clamped, then rejected
    n_steps = max(1, math.ceil(min(horizon / dt, MAX_FIELD_SAMPLES) - 1e-12))
    _check_size(n_realizations, n_steps)

    seeds = tuple(derive_seeds(master_seed, range(n_realizations)))
    field = sample_fields(p, dt, n_steps, seeds)

    n = n_realizations
    mean_m, mean_w, se_m, se_w = np.empty((4, n_steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN raise divergence, unwarned
        for k, (m, _, w) in enumerate(_rk4_paths(ic, p, field, dt, seeds)):
            # cumsum adds in index order, as mean(axis=0) and std(axis=0, ddof=1)
            # of the record-major trajectories do; np.sum would add pairwise
            for x, mean, se in ((m, mean_m, se_m), (w, mean_w, se_w)):
                mean[k] = np.cumsum(x)[-1] / n
                se[k] = math.sqrt(np.cumsum((x - mean[k]) ** 2)[-1] / (n - 1)) / math.sqrt(n)

    t = dt * np.arange(n_steps + 1)
    return EnsembleReport(
        t=t, mean_m=mean_m, mean_w=mean_w, se_m=se_m, se_w=se_w,
        residual_m=mean_m - mean_dipole(ic, p, t),
        residual_w=mean_w - mean_inversion(ic, derive_params(p), p, t),
        n_realizations=n_realizations, dt=dt, master_seed=master_seed, seeds=seeds,
        params=p, ic=ic,
    )


# ---------------------------------------------------------------------------
# spectrum estimation
# ---------------------------------------------------------------------------

def _lorentzian(omega, height, center, hwhm):
    return height * hwhm**2 / ((omega - center) ** 2 + hwhm**2)


def _add_periodograms(power: np.ndarray, block: np.ndarray, dt: float) -> None:
    """Add dt |FFT|^2 / N of each column of a time-major (N, b) block to ``power``, in order.

    ``_TRANSFORM_COLUMNS`` columns are transformed at a time, into buffers
    made once per block, so the block's transform is never held whole.
    """
    n, width = block.shape[0], min(_TRANSFORM_COLUMNS, block.shape[1])
    spectra, terms = np.empty((width, power.size), complex), np.empty((width, power.size))
    for start in range(0, block.shape[1], width):
        columns = block[:, start:start + width]
        k = columns.shape[1]
        np.fft.rfft(columns, axis=0, out=spectra[:k].T)
        np.abs(spectra[:k], out=terms[:k])
        terms[:k] **= 2  # squared, then scaled: the roundings of (dt / N) * |X| ** 2
        terms[:k] *= dt / n
        for term in terms[:k]:
            power += term


def sample_periodogram(
    p: SystemParams, dt: float, n_steps: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Averaged periodogram (omega, power) of one field realization per seed, and realization 0.

    The realizations are the columns of ``sample_fields``; realization 0
    comes back as a 1-D array of its n_steps + 1 samples. The power uses the
    convention P(omega) = dt |FFT|^2 / N, under which the expected peak
    height is C(0)/beta = pi * i0; the periodograms are summed in seed order
    and then divided by the number of seeds. ``fit_spectrum`` fits the
    Lorentzian peak. Rejects what ``sample_fields`` rejects, and fewer than
    2 seeds.

    The blocks are pipelined over two threads. While the calling thread
    draws, filters and modulates block i + 1, one helper thread transforms
    block i and adds its periodograms to the sum; numpy's FFT releases the
    interpreter lock, so the two overlap. One transform is in flight at a
    time, and the calling thread modulates into the one (K+1, b) field
    buffer only after the transform reading it has returned, so the columns
    are added in seed order and every bit equals the serial sum. Memory is
    set by the block, not by the number of seeds: ``FIELD_BLOCK_BYTES`` of
    normals, the field buffer of half that, and ``_TRANSFORM_COLUMNS``
    columns of transform. A failure in either thread is raised here, after
    the helper thread has ended.
    """
    from concurrent.futures import ThreadPoolExecutor

    if len(seeds) < 2:
        raise ValueError("need at least 2 realizations")
    _check_step(p, dt)
    _check_size(len(seeds), n_steps)
    power = np.zeros((n_steps + 1) // 2 + 1)
    field = np.empty((n_steps + 1, min(_block_columns(n_steps), len(seeds))))
    pending = first = None

    def free_field(start: int, stop: int) -> np.ndarray:  # once no transform reads it
        if pending is not None:
            pending.result()
        return field[:, :stop - start]

    with ThreadPoolExecutor(1) as helper:
        for block in _field_blocks(p, dt, n_steps, seeds, free_field):
            if first is None:
                first = block[:, 0].copy()
            pending = helper.submit(_add_periodograms, power, block, dt)
        pending.result()
    power /= len(seeds)
    return 2.0 * math.pi * np.fft.rfftfreq(n_steps + 1, d=dt), power, first


def _lorentzian_derivatives(omega, height, center, hwhm):
    """Jacobian (n, 3) and second derivatives (3, 3, n) of ``_lorentzian`` in its parameters."""
    d, w2 = omega - center, hwhm * hwhm
    den = d * d + w2
    g, dw = w2 / den, 2.0 * hwhm * d * d / den**2
    dc, dcc = 2.0 * g * d / den, 2.0 * g * (3.0 * d * d - w2) / den**2
    dcw, dww = 4.0 * hwhm * d * (d * d - w2) / den**3, 2.0 * d * d * (d * d - 3.0 * w2) / den**3
    hess = np.array([[np.zeros_like(g), dc, dw], [dc, height * dcc, height * dcw],
                     [dw, height * dcw, height * dww]])
    return np.stack([g, height * dc, height * dw], axis=1), hess


def _fit_lorentzian(omega: np.ndarray, power: np.ndarray, p0) -> np.ndarray:
    """Least-squares (height, center, hwhm) from ``p0`` by the steps of ``fit_spectrum``."""
    p = np.array(p0, dtype=float)
    r = _lorentzian(omega, *p) - power
    cost, mu = r @ r, 1e-3
    for _ in range(FIT_MAX_ITER):
        jac, hess = _lorentzian_derivatives(omega, *p)
        a = jac.T @ jac
        damped = a + hess @ r + mu * np.diag(np.diag(a))
        try:
            np.linalg.cholesky(damped)
        except np.linalg.LinAlgError:  # not positive definite: damp harder
            mu *= 10.0
            continue
        step = np.linalg.solve(damped, -(jac.T @ r))
        r_trial = _lorentzian(omega, *(p + step)) - power
        slack = 4.0 * np.finfo(float).eps * (np.abs(r) @ np.abs(power))
        if (cost_trial := r_trial @ r_trial) <= cost + slack:
            p, r, cost, mu = p + step, r_trial, cost_trial, mu / 10.0
        else:
            mu *= 10.0
        if np.all(np.abs(step) <= FIT_XTOL * np.abs(p)):
            return p
    raise SpectrumFitError(f"Lorentzian fit did not converge in {FIT_MAX_ITER} iterations")


def fit_spectrum(omega: np.ndarray, power: np.ndarray) -> LorentzianFit | None:
    """Least-squares Lorentzian fit of an averaged periodogram on rfft frequencies ``omega``.

    The window spans 8 half-widths either side of the highest non-DC bin.
    From that bin, each step solves (H + mu diag(J^T J)) step = -J^T r,
    with H the exact Hessian of half the squared residual (Levenberg 1944;
    Marquardt 1963, plus the residual curvature, which keeps the last steps
    quadratic in noisy data). mu grows tenfold while that matrix is not
    positive definite or a step raises the cost by more than its rounding
    error, and is cut tenfold when a step is taken. The fit stops once a
    step moves no parameter by more than ``FIT_XTOL`` of its value: at the
    minimiser to rounding, where a cost tolerance stops ~sqrt(eps) short.
    Non-finite power, ``FIT_MAX_ITER`` steps without that, and a negative
    height or center raise ``SpectrumFitError``; the half-width is
    reported as |hwhm|. A zero spectrum has no peak to fit: it returns None.
    """
    if not np.all(np.isfinite(power)):
        raise SpectrumFitError("Lorentzian fit failed: the power is not finite")
    if np.max(power) <= 0.0:
        return None

    # fit window around the positive-frequency peak (skip the DC bin)
    ipk = 1 + int(np.argmax(power[1:]))
    half = power[ipk] / 2.0
    width_bins = max(3, int(np.sum(power[1:] >= half) / 2))
    lo = max(1, ipk - 8 * width_bins)
    hi = min(omega.size, ipk + 8 * width_bins + 1)
    hwhm_guess = max(width_bins * (omega[1] - omega[0]), omega[1] - omega[0])
    height, center, hwhm = _fit_lorentzian(omega[lo:hi], power[lo:hi],
                                           [power[ipk], omega[ipk], hwhm_guess])
    if height < 0.0 or center < 0.0:
        raise SpectrumFitError(f"Lorentzian fit failed: negative height {height:.6g} "
                               f"or center {center:.6g}")
    return LorentzianFit(peak_omega=float(center), peak_height=float(height),
                         hwhm=float(abs(hwhm)))
