"""Brute-force stochastic oracle for the ensemble closed forms.

Field realizations are samples of the stationary Gaussian process with the
Lorentzian autocorrelation

    C(tau) = C(0) * exp(-beta |tau|) * cos(omega tau),   C(0) = pi*beta*i0.

That variance normalization makes the second-order closure of the
trajectory equations reproduce the closed-form constants exactly, which is
what the ensemble comparison validates. The counter-rotating spectral lobe
at -omega is an O(beta/omega) artifact of any real stationary field;
validation regimes therefore keep omega well above beta.

On the grid t_k = k dt the field is E_k = sqrt(C(0)) Re W_k, with the complex
AR(1) W_k = a W_(k-1) + c e_k, a = exp(-beta dt - i omega dt), driven by one
real unit normal e_k a sample; c makes Re W exactly the unit-variance process
of that covariance, and W_0 is drawn from its stationary law
(``_ar1_factors``). The realization of seed s is built from
``np.random.default_rng(s).standard_normal(K + 2)``: the first two normals
give W_0, the other K are e_1..e_K. The averaged periodogram builds no
realization in time but the first: the DFT of a record's Re W is a filter
of its innovations' DFT plus a boundary term, so the power of all records
is summed in the frequency domain from their innovations' autocorrelation,
one zero-padded FFT of smooth length a pair of records
(``sample_periodogram``).

Per-realization dynamics integrate, in dimensionless variables
(m = dipole / max dipole, w = inversion in units of half the splitting):

    m'' + omega^2 m = -kappa*omega * w * E(t)
    w' + beta_s (w + 1) = (kappa/omega) * m' * E(t)

with classic fixed-step fourth-order steps on the field grid; the two
couplings multiply to kappa^2, and ensemble observables depend on the
coupling only through that product.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import operator
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import MAX_FIELD_SAMPLES, InitialCondition, mean_dipole, mean_inversion
from .model import SystemParams

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
]

#: state magnitude beyond which a trajectory is declared divergent
DIVERGENCE_LIMIT = 1e3

#: bytes of complex samples synthesized at once, the one memory budget of field
#: synthesis: 40 realizations at the 6367-sample records of the spectrum check,
#: whose periodogram then holds a block of their normals as rows (half the budget)
#: and their zero-padded 12800-point transforms in pairs (about one budget): a
#: traced peak of 7.16 MiB in the caller, under 2.25 blocks whatever the number of
#: realizations
FIELD_BLOCK_BYTES = 4 * 2**20

#: records drawn contiguously before they are scaled and transposed into a time-major
#: block: at least ``_TRANSPOSE_SEEDS``, and as many as fit ``_TRANSPOSE_BYTES`` (193 at
#: criterion 09's 168 samples, where 16 records a tile took 19 % longer per block)
_TRANSPOSE_SEEDS, _TRANSPOSE_BYTES = 16, 2**18

#: samples of an AR(1) segment, at least (``_ar1_paths``)
_SEGMENT = 512

#: the cgroup directory whose CPU quota caps the CPUs both stochastic commands count: a
#: container's own cgroup where one is mounted there; an ancestor's quota is not read
_CGROUP = Path("/sys/fs/cgroup")

#: cap on the field variance pi*beta*i0, far from overflow in the periodogram's
#: squared sums of field samples and in the field's fourth power in an RK4 step
MAX_FIELD_VARIANCE = 1e100

_MASK32 = 2**32 - 1

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
        """Write the fields as JSON lists, objects and numbers, ``ic`` as ``initial_condition``.

        The text is json's ``indent=2`` text plus a newline, written by hand: with ``indent``
        set the json module encodes in pure Python. A list (never empty) is its items as
        json's C encoder writes them, one a line, so a non-finite value, which no report
        holds since a divergence raises, would be written as json writes it (``NaN``).
        """
        def field(f):  # "name": value, nested one level as in the report
            key, v = "initial_condition" if f.name == "ic" else f.name, getattr(self, f.name)
            if isinstance(v, (np.ndarray, tuple)):
                items = json.dumps(v, separators=(",\n    ", ""), default=np.ndarray.tolist)
                return f'  "{key}": [\n    {items[1:-1]}\n  ]'
            return f'  "{key}": ' + json.dumps(v, indent=2, default=asdict).replace("\n", "\n  ")
        Path(path).write_text("{\n" + ",\n".join(map(field, fields(self))) + "\n}\n", newline="")


@dataclass(frozen=True)
class LorentzianFit:
    peak_omega: float
    peak_height: float
    hwhm: float


# ---------------------------------------------------------------------------
# field generation
# ---------------------------------------------------------------------------

def field_variance(p: SystemParams) -> float:
    """Stationary field variance C(0) = pi * beta * i0; inf where that overflows, which
    every sampler refuses."""
    return math.pi * p.beta * p.i0


def max_field_dt(p: SystemParams) -> float:
    """Largest step resolving both the noise envelope and the carrier. Raises ValueError
    where both overflow."""
    if not math.isfinite(dt := min(0.05 / p.beta, 0.05 * 2.0 * math.pi / p.omega)):
        raise ValueError(f"beta={p.beta:g}, omega={p.omega:g}: the field step overflows")
    return dt


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


class _Preset(np.random.bit_generator.ISeedSequence):
    """Hands over ``words``: numpy's ``PCG64`` takes a seed only through this interface."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _ar1_factors(beta_dt: float, theta: float) -> tuple[complex, complex, float]:
    """(a, c, lift) of the unit-variance field Re W_k: W_k = a W_(k-1) + c e_k, and
    W_0 = z_0 + i lift z_1, from real unit normals e_k and z.

    a = rho e^(-i theta), with rho = e^(-beta dt) and theta = omega dt. Re W
    is an ARMA(2,1) (Box & Jenkins, *Time Series Analysis*, 1970), and c is
    its minimum-phase factor. With q = 1 - rho^2 = -expm1(-2 beta dt),
    s = 1 + rho^2, r = -rho cos(theta) / s and D = hypot(q, 2 rho sin(theta)) / s,
    the moving-average coefficient is b = 2r / (1 + D). Then Re c = sigma =
    sqrt(q s / (1 + b^2)) and Im c = g sigma, with g = 4 rho^2 cos(theta)
    sin(theta) / (s (1 + D) (s D + q)), or 0 where that is 0 / 0. So
    E|W|^2 = |c|^2 / q = s (1 + g^2) / (1 + b^2) = P, and E[W^2] = c^2 / (1 - a^2)
    = 2 - P is real. The covariance of (Re W_0, Im W_0) is diag(1, P - 1), and
    its Cholesky factor is diag(1, lift), lift = sqrt(P - 1). Every factor is
    finite at theta = 0 and at rho = 1, where q = 0 and c = 0.
    """
    rho, q = math.exp(-beta_dt), -math.expm1(-2.0 * beta_dt)
    s, cos, sin = 1.0 + rho * rho, math.cos(theta), math.sin(theta)
    d = math.hypot(q, 2.0 * rho * sin) / s
    b = -2.0 * rho * cos / s / (1.0 + d)
    sigma = math.sqrt(q * s / (1.0 + b * b))
    g = 4.0 * rho * rho * cos * sin
    g = g / (s * (1.0 + d) * (s * d + q)) if g else 0.0
    lift = math.sqrt(max(0.0, s * (1.0 + g * g) / (1.0 + b * b) - 1.0))
    return rho * complex(cos, -sin), complex(sigma, g * sigma), lift


def _normal_rows(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row i of ``rows``, for i < len(states), filled with standard normals of the PCG64
    stream that numpy seeds from the ``SeedSequence`` words ``states[i]``
    (``_seed_state(_words(seeds), 2, 4)``): that of ``np.random.default_rng(seeds[i])``.
    Returns ``rows``."""
    preset = _Preset()
    for row, preset.words in zip(rows, states):
        np.random.Generator(np.random.PCG64(preset)).standard_normal(out=row)
    return rows


def _draw_normals(seeds: Sequence[int], out: np.ndarray, lift: float, c: complex) -> np.ndarray:
    """Fill a time-major complex (K+1, len(seeds)) array from K+2 standard normals a seed.

    With z = ``np.random.default_rng(seeds[i]).standard_normal(K + 2)``, for
    seeds in [0, 2**64), column i is z_0 + i lift z_1, then c z_2, ...,
    c z_(K+1): W_0 and the innovations of ``_ar1_factors``. The
    ``SeedSequence`` words of all seeds are computed at once, and
    ``_normal_rows`` draws a tile of records (``_TRANSPOSE_SEEDS``, or
    ``_TRANSPOSE_BYTES`` of them if more) that is then scaled and transposed
    into place.
    """
    states = _seed_state(_words(seeds), 2, 4)
    tile = max(_TRANSPOSE_SEEDS, _TRANSPOSE_BYTES // (8 * (len(out) + 1)))
    records = np.empty((min(tile, len(states)), len(out) + 1))
    for start in range(0, len(states), tile):
        rows = _normal_rows(states[start:start + tile], records[:len(states) - start])
        part = out[:, start:start + len(rows)]
        part.real[0] = rows[:, 0]
        np.multiply(rows[:, 1], lift, part.imag[0])
        np.multiply(rows[:, 2:].T, c, part[1:])
    return out


def _steps(rows: Iterator[np.ndarray], factor: np.ndarray) -> None:
    """x_k = factor x_(k-1) + z_k in place over rows z_0, z_1, ...: a product, then a sum."""
    prev = next(rows)
    step = np.empty(prev.shape, prev.dtype)
    for row in rows:
        np.multiply(prev, factor, step)
        np.add(row, step, row)
        prev = row


def _ar1_paths(w: np.ndarray, a: complex) -> np.ndarray:
    """W_k = a W_(k-1) + w_k in place over the time-major complex rows w_0, w_1, ... of ``w``.

    The trailing axes, one or more, are independent lanes. A record of n
    samples is cut into s = max(1, n // ``_SEGMENT``) segments of L = n // s
    samples and a tail of n - s L < s. The segments are stepped side by side
    from their own first rows; then each later one in turn adds a^(k+1),
    a running product, times the end of the one before to its k-th sample,
    and the tail is stepped on (a two-level scan: Blelloch, CMU-CS-90-190,
    1990). A step is two ufunc calls on a row of s x lanes, each row view
    made once and a a 0-d array, which a call takes as it is. s depends on n
    alone, so lanes are independent; s = 1 under 1024 samples.
    """
    segments = max(1, len(w) // _SEGMENT)
    length, factor = len(w) // segments, np.array(a)
    head = w[:segments * length].reshape(segments, length, *w.shape[1:], copy=False)
    _steps(iter(np.moveaxis(head, 1, 0)), factor)
    carry = np.cumprod(np.full(length, factor)).reshape(-1, *(1,) * (w.ndim - 1))
    for prev, segment in zip(head[:-1], head[1:]):
        segment += carry * prev[-1]
    _steps(iter(w[segments * length - 1:]), factor)
    return w


def _block_columns(n_steps: int) -> int:
    """Realizations per block: an even count, at least 2, of K+1 complex samples that fit
    ``FIELD_BLOCK_BYTES``, so that the periodogram's pairs never straddle a block."""
    return max(1, FIELD_BLOCK_BYTES // (2 * 8 * (n_steps + 1)) // 2) * 2


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, capped by the CPU quota of the
    cgroup at ``_CGROUP`` (v2 ``cpu.max``, else v1 ``cpu/cpu.cfs_quota_us`` over
    ``cpu.cfs_period_us``) rounded up, so that only a quota of at most one CPU stops
    the split. No quota (``max`` or -1) and a file that cannot be read leave the count
    alone."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for files in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        with contextlib.suppress(OSError, ValueError):  # no file, or no quota ("max")
            quota, period = map(int, " ".join((_CGROUP / f).read_text() for f in files).split())
            if quota > 0 and period > 0:
                return min(cpus, -(-quota // period))
    return cpus


def _in_halves(half: Callable[[Sequence[int], np.ndarray], None], seeds: Sequence[int],
               split: int, n_steps: int, shape: tuple[int, ...]) -> np.ndarray:
    """``half(seeds[:split], out[0])`` and ``half(seeds[split:], out[1])`` into ``out``, a new
    (2, *shape) array of zeros in an anonymous shared mapping, which is returned.

    With two field blocks of ``n_steps`` or more, ``os.fork`` and a second
    usable CPU (``_usable_cpus``), a forked child, leaving by ``os._exit``,
    does the second half while the caller does the first and then reaps it.
    If it is unsplit, or the fork fails, or the child exits nonzero or
    unseen (SIGCHLD ignored), the caller zeroes ``out[1]`` and computes it
    itself: the bytes are the same either way, and a failure is raised here.
    """
    out, pid = np.ndarray((2, *shape), buffer=mmap.mmap(-1, 16 * math.prod(shape))), -1
    # split from two blocks on (3120 seeds at criterion 09's grid); ensembles from a quarter
    # block on also ran 19-32 % faster split, but the cut-off stays until benchmarked
    if len(seeds) >= 2 * _block_columns(n_steps) and hasattr(os, "fork") and _usable_cpus() > 1:
        with contextlib.suppress(OSError):
            pid = os.fork()
        if pid == 0:  # the child: the second half, then out, whatever happens
            try:
                half(seeds[split:], out[1])
                os._exit(0)
            finally:
                os._exit(1)
    try:
        half(seeds[:split], out[0])
    finally:
        status = pid
        if pid > 0:  # with SIGCHLD ignored the child is reaped unseen, and its status lost
            with contextlib.suppress(ChildProcessError):
                status = os.waitpid(pid, 0)[1]
    if status:  # unsplit, or no child, or a failed or unseen one, which may have written out[1]
        out[1] = 0.0
        half(seeds[split:], out[1])
    return out


def sample_fields(p: SystemParams, dt: float, n_steps: int, seeds: Sequence[int]) -> np.ndarray:
    """Field samples E(k dt), k = 0..n_steps, one realization per seed, as a (K+1, n) array.

    Column j is the realization of ``seeds[j]``, bit-identical to sampling
    that seed alone. The complex AR(1) runs in place in one complex buffer
    of a block of realizations (``_block_columns``), and sqrt(C(0)) Re W of
    each block is written straight into its columns, in the calling process.
    Rejects n_steps < 1, a step that is not finite and positive or exceeds
    ``max_field_dt``, a non-finite field variance, and more than
    ``MAX_FIELD_SAMPLES`` samples in all, before anything is allocated.
    """
    _check_step(p, dt)
    _check_size(len(seeds), n_steps)
    a, c, lift = _ar1_factors(p.beta * dt, p.omega * dt)
    scale, block = math.sqrt(field_variance(p)), _block_columns(n_steps)
    field = np.empty((n_steps + 1, len(seeds)))
    w = np.empty((n_steps + 1, min(block, len(seeds))), complex)
    for start in range(0, len(seeds), block):
        chunk = seeds[start:start + block]
        paths = _ar1_paths(_draw_normals(chunk, w[:, :len(chunk)], lift, c), a)
        np.multiply(paths.real, scale, field[:, start:start + len(chunk)])
    return field


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
            # the largest |state| per lane; fmax skips NaN without nanmax's all-NaN warning
            seed = int(seeds[int(np.argmax(np.fmax.reduce(y, axis=0)))])
            raise TrajectoryDivergenceError(
                f"trajectory diverged at t={t_bad:.6g} (|state| > {DIVERGENCE_LIMIT:g}, "
                f"seed={seed})", seed=seed, time=t_bad)
        yield x


def _moments(
    ic: InitialCondition, p: SystemParams, dt: float, n_steps: int, seeds: Sequence[int],
    out: np.ndarray,
) -> None:
    """Sums and sums of squared deviations of m and of w over the trajectories of ``seeds``.

    ``out`` is (2, 2, K+1): the sums of m and of w, then their M2, at t = k dt. The
    field is synthesized here, and each time row is reduced as RK4 yields
    it, through one (2, n) view of its m and w rows, by numpy's pairwise
    sums: more accurate than adding in index order, and under half the calls.
    """
    field = sample_fields(p, dt, n_steps, seeds)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN raise divergence, unwarned
        for k, mw in enumerate(x[::2] for x in _rk4_paths(ic, p, field, dt, seeds)):  # m and w
            out[0, :, k] = total = mw.sum(axis=1)
            out[1, :, k] = ((mw - total[:, None] / len(seeds)) ** 2).sum(axis=1)


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
    any execution interleaving. The seeds are cut in two halves at n // 2;
    ``_moments`` synthesizes, integrates and reduces each half on its own,
    so a process holds one half's field at a time, and Chan's formula joins
    the two (sum, M2) pairs into the mean and the standard error
    sqrt(M2 / (n - 1) / n). ``_in_halves`` runs the halves, the second in a
    forked child where it can, into a shared mapping of the moments, with
    the same bytes either way. A divergence in either half is raised as one
    run of all the trajectories reports it. Residuals are taken against the
    closed-form dipole and inversion on the same grid. The dipole is evaluated
    first, so a horizon past its phase cap is refused before any trajectory
    runs; lambda passes that cap only beyond the weak-coupling guard, and the
    inversion checks it after the trajectories, so that a divergence is still
    reported as one. Runs of more than ``MAX_FIELD_SAMPLES`` samples in all, and
    couplings kappa*omega or kappa/omega that overflow, are rejected before any
    seed is derived.
    """
    if n_realizations < 2:
        raise ValueError("n_realizations must be at least 2")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon={horizon} must be finite and positive")
    if not (math.isfinite(p.kappa * p.omega) and math.isfinite(p.kappa / p.omega)):
        raise ValueError(f"kappa={p.kappa:g}, omega={p.omega:g}: the trajectory couplings "
                         "kappa*omega and kappa/omega must be finite")
    _check_step(p, dt)
    # a ratio beyond the cap (even an overflowing one) is clamped, then rejected
    n_steps = max(1, math.ceil(min(horizon / dt, MAX_FIELD_SAMPLES) - 1e-12))
    _check_size(n_realizations, n_steps)
    t = dt * np.arange(n_steps + 1)
    closed_m = mean_dipole(ic, p, t)

    seeds = tuple(derive_seeds(master_seed, range(n_realizations)))
    n, half = n_realizations, n_realizations // 2
    try:
        moments = _in_halves(lambda part, out: _moments(ic, p, dt, n_steps, part, out),
                             seeds, half, n_steps, (2, 2, n_steps + 1))
    except TrajectoryDivergenceError:  # raise the earliest divergence of all trajectories at once
        _moments(ic, p, dt, n_steps, seeds, np.empty((2, 2, n_steps + 1)))
        raise

    (sum_1, m2_1), (sum_2, m2_2) = moments
    mean_m, mean_w = (sum_1 + sum_2) / n
    m2 = m2_1 + m2_2 + (sum_2 / (n - half) - sum_1 / half) ** 2 * (half * (n - half) / n)
    se_m, se_w = np.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return EnsembleReport(
        t=t, mean_m=mean_m, mean_w=mean_w, se_m=se_m, se_w=se_w,
        residual_m=mean_m - closed_m, residual_w=mean_w - mean_inversion(ic, p, t),
        n_realizations=n_realizations, dt=dt, master_seed=master_seed, seeds=seeds,
        params=p, ic=ic,
    )


# ---------------------------------------------------------------------------
# spectrum estimation
# ---------------------------------------------------------------------------

def _lorentzian(omega, height, center, hwhm):
    return height * hwhm**2 / ((omega - center) ** 2 + hwhm**2)


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, for n <= 2^25: pocketfft's radix passes alone."""
    return min(f << (-(-n // f) - 1).bit_length()
               for f in (3**i * 5**j for i in range(17) for j in range(12)))


def _one_minus(decay, phi):
    """1 - e^(-decay + i phi), as -expm1(-decay) + e^(-decay) (2 sin^2(phi/2) - i sin phi): to a
    few ulps of its magnitude, however small that is."""
    half = np.sin(0.5 * phi)
    return -np.expm1(-decay) + np.exp(-decay) * (2.0 * half * half - 1j * np.sin(phi))


def _add_pairs(s: np.ndarray, b: np.ndarray, pairs: np.ndarray, sums: np.ndarray,
               mixed: np.ndarray) -> None:
    """Add records to the running sums of a ``sample_periodogram`` half, a pair at a time.

    Pair i of the records' innovations ``s`` (2h, N) and boundary terms
    ``b`` adds Re and Im of b_2i s_2i + b_(2i+1) s_(2i+1) to ``mixed``
    (2, N), by way of row i of ``pairs`` (h, M); that row then becomes
    s_2i + i s_(2i+1), zero-padded, and the squared real and imaginary parts
    of its M-point FFT, taken in place, are added to ``sums`` (2M). numpy
    reduces over a leading axis row by row, so neither sum depends on how
    the records fall into blocks.
    """
    h, n = len(s) // 2, s.shape[1]
    two, pairs = s.reshape(h, 2, n), pairs[:h]
    terms = pairs.view(float)[:, :2 * n].reshape(h, 2, n)
    np.matmul(b.view(float).reshape(h, 2, 2).transpose(0, 2, 1), two, terms)
    terms[0] += mixed
    np.sum(terms, axis=0, out=mixed)
    pairs.real[:, :n], pairs.imag[:, :n], pairs[:, n:] = two[:, 0], two[:, 1], 0.0
    squares = np.fft.fft(pairs, axis=1, out=pairs).view(float)
    np.multiply(squares, squares, squares)
    squares[0] += sums
    np.sum(squares, axis=0, out=sums)


def sample_periodogram(
    p: SystemParams, dt: float, n_steps: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Averaged periodogram (omega, power) of one field realization per seed, and realization 0.

    The realizations are the columns of ``sample_fields``, which builds
    realization 0, returned as a 1-D array of its n_steps + 1 samples. The
    power uses the convention P(omega) = dt |FFT|^2 / N, under which the
    expected peak height is C(0)/beta = pi * i0. ``fit_spectrum`` fits the
    Lorentzian peak. Rejects what ``sample_fields`` rejects, fewer than 2
    seeds, and a step so small that the angular frequencies, up to pi/dt,
    overflow.

    No other realization is built in time. Let s = (0, e_1, ..., e_K) be a
    record's innovations, S = DFT(s), q = sum of a^(K-k) s_k (so that
    W_K = a^K W_0 + c q) and B = W_0 - a c q / (1 - a^N). The circular form
    of W_k = a W_(k-1) + c s_k gives the DFT of Re W on the bins z^j as
    G_j S_j + (B g_j + conj(B) h_j)/2, with alpha = 1/(1 - a z^j), beta =
    1/(1 - conj(a) z^j), G = (c alpha + conj(c) beta)/2 and the geometric
    sums g = (1 - a^N) alpha and h = (1 - conj(a)^N) beta (N where 1 - a z^j
    is 0). Summed over records, its |.|^2 needs sum |S_j|^2, the transform
    of the record sum of B s, and the sums of |B|^2 and B^2. Each half draws
    its records as rows, a block at a time, and adds them by pairs
    (``_add_pairs``): one FFT of s_2i + i s_(2i+1), zero-padded to the
    smallest M = 2^a 3^b 5^c >= 2N - 1, squares both transforms; an inverse
    FFT, a fold and an N-point transform then give sum |S_j|^2 from the
    summed circular autocorrelation of s (Wiener-Khinchin). Each 1 - a z^j
    and 1 - a^N is formed by ``_one_minus``, each a^m as e^(-m beta dt)
    (cos m theta - i sin m theta).

    The terms cancel as a record falls short of the correlation time 1/beta,
    and a power that overflows there (or anywhere) raises ValueError.
    Against the periodogram of ``sample_fields``' records, whose AR(1)
    rounding drifts by about u G, the power is within 128 u (1 + 1/(N beta
    dt) + G) of the expected peak (u = 2^-53, G = sum of rho^i over i < N;
    tests/test_stochastic.py), and within 1e-13 of the peak at criterion 10.

    The seeds are cut in two halves at 2 (n // 4), and blocks hold an even
    count, so the pairs are the same whatever the blocks; a half's odd last
    record is paired with a zero one. Each half adds its blocks in seed
    order into its own sums and power, and the powers are added.
    ``_in_halves`` runs the second half in a forked child where it can, with
    the same bytes either way. A process's memory is set by the whole run's
    block, not by the number of seeds.
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 realizations")
    _check_step(p, dt)
    _check_size(len(seeds), n_steps)
    if not 2.0 * math.pi / dt < math.inf:
        raise ValueError(f"dt={dt:g}: the periodogram's angular frequencies overflow")
    n = n_steps + 1
    h, m, block = n // 2 + 1, _smooth_length(2 * n - 1), _block_columns(n_steps)
    decay, theta = p.beta * dt, p.omega * dt
    a, c, lift = _ar1_factors(decay, theta)
    kappa = complex(_one_minus(n * decay, -n * theta))  # 1 - a^N, 0 only where c is
    tilt = a * c / kappa if c else 0.0
    lags = np.arange(n_steps, -1, -1.0)  # a^(K-k) at k, as (real, imaginary) rows
    powers = np.exp(-decay * lags)[:, None] * np.stack([np.cos(theta * lags),
                                                        -np.sin(theta * lags)], axis=1)
    t = (2.0 * math.pi / n) * np.arange(h)
    d = _one_minus(decay, np.stack([-(theta + t), theta - t]))  # 1 - a z^j, 1 - conj(a) z^j

    def add_half(half: Sequence[int], power: np.ndarray) -> None:
        tile = np.empty((min(block, len(seeds) + len(seeds) % 2), n + 1))
        pairs = np.empty((len(tile) // 2, m), complex)
        sums, mixed = np.zeros(2 * m), np.zeros((2, n))
        b, states = np.empty(len(half) + 1, complex), _seed_state(_words(half), 2, 4)
        for start in range(0, len(half), block):
            rows = tile[:min(block, len(half) - start + 1) // 2 * 2]
            rows[-1] = 0.0  # the partner of an odd last record: zero normals, so B = 0
            _normal_rows(states[start:start + block], rows)
            w0 = rows[:, 0] + 1j * lift * rows[:, 1]
            rows[:, 1] = 0.0  # rows[:, 1:] are now the innovations s, with s_0 = 0
            q = np.matmul(rows[:, None, 1:], powers)[:, 0].view(complex)[:, 0]
            _add_pairs(rows[:, 1:], np.subtract(w0, tilt * q, b[start:start + len(rows)]), pairs,
                       sums, mixed)
        squares, b = sums[::2] + sums[1::2], b[:len(half)]  # the pairs' |Z_f|^2, and each B
        auto = np.fft.irfft(squares[:m // 2 + 1] + squares[-np.arange(m // 2 + 1)], m)
        auto[1:n] += auto[n - 1:0:-1]  # twice the summed circular autocorrelation of s
        y = np.fft.fft(mixed[0] + 1j * mixed[1])  # the transform of the record sum of B s
        total = (np.abs(gain) ** 2 * 0.5 * np.fft.rfft(auto[:n]).real
                 + (gain * (g[0].conj() * y[-np.arange(h)].conj() + g[1].conj() * y[:h])).real
                 + 0.25 * (np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2) * np.sum(np.abs(b) ** 2)
                 + 0.5 * (g[0] * g[1].conj() * np.sum(b * b)).real)
        np.multiply(total, dt * field_variance(p) / n, power)

    with np.errstate(over="ignore", invalid="ignore"):  # a filter that overflows: refused below
        alpha = np.divide(1.0, d, out=np.zeros_like(d), where=d != 0)
        g = np.where(d != 0, np.array([[kappa], [kappa.conjugate()]]) * alpha, n)
        gain = 0.5 * (c * alpha[0] + c.conjugate() * alpha[1])
        power = np.add(*_in_halves(add_half, seeds, 2 * (len(seeds) // 4), n_steps, (h,)))
    if not np.isfinite(power).all():
        raise ValueError(f"beta={p.beta:g}, i0={p.i0:g}: the periodogram or its filter overflows")
    omega = 2.0 * math.pi * np.fft.rfftfreq(n, d=dt)
    return omega, power / len(seeds), sample_fields(p, dt, n_steps, seeds[:1])[:, 0]


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
    Non-finite power or parameters, ``FIT_MAX_ITER`` steps without that,
    and a negative height or center raise ``SpectrumFitError``; the half-width is
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
    with np.errstate(all="ignore"):  # a trial step that overflows costs inf or NaN: rejected
        fitted = _fit_lorentzian(omega[lo:hi], power[lo:hi], [power[ipk], omega[ipk], hwhm_guess])
    if not np.all(np.isfinite(fitted)):
        raise SpectrumFitError("Lorentzian fit failed: a parameter overflows")
    height, center, hwhm = fitted
    if height < 0.0 or center < 0.0:
        raise SpectrumFitError(f"Lorentzian fit failed: negative height {height:.6g} "
                               f"or center {center:.6g}")
    return LorentzianFit(peak_omega=float(center), peak_height=float(height),
                         hwhm=float(abs(hwhm)))
