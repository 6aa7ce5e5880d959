"""Stochastic-simulation oracle for the closed-form prices.

Heston variance paths use full-truncation Euler on the square-root process
(negative proposals floored at zero inside drift and diffusion; the
recorded path holds the floored value, and nothing counts the floor hits),
whose bias vanishes as dt -> 0. BNS variance paths are exact in law: with
compound-Poisson/exponential (Gamma-OU) subordinators, each variance jumps
at its subordinator's jump times and between them decays exactly,

    sigma^2_t = a + (sigma^2_s - a) e^{-lambda (t - s)},

toward a = kappa1 under a deterministic subordinator and a = 0 otherwise
(Barndorff-Nielsen & Shephard 2001). Only variance paths enter the
realized generalized variance |Sigma|; asset price paths are provided
separately for end-to-end data-pipeline runs.

Each model has one path kernel behind its ensemble, streaming and price
routes:

* Heston steps a block of paths through the grid in one loop
  (``_heston_rows``), its state stored asset-major, (assets, paths), and
  the normals of each chunk of ``_CHUNK`` steps drawn from the block's
  live per-path generators. Each step writes its row over the normals it
  has just used, so the chunk's buffer ends up holding the chunk's rows.
  Once per chunk the recorded ones go to the run's ensemble and, for the
  streaming route, their |Sigma_1| are taken a stack of rows per kernel
  call and added to the per-path trapezoidal time average one row at a
  time in grid order. Besides its recorded rows a block holds
  O(block_size * _CHUNK * n_assets) floats whatever the number of steps.
  The chunks and the draw tiles below serve Heston's grid alone.
* BNS needs no grid. Its kernel (``_JumpList``) draws every path's jumps,
  merges each path's jumps across assets in time order and walks them once,
  keeping each variance's excess over its level, sigma^2 - a, right after
  each jump. A row at any time t is then a plus that excess decayed from
  the path's last jump at or before t (``_JumpList.rows`` finds it for all
  of a block's rows in one pass), and |Sigma_2| on a jump-free interval is
  a sum of products of terms affine in e^{-lambda s}, which
  ``heston._affine_product_integral`` integrates exactly, bar a pair term
  sigma_i sigma_j on a drift-only asset (kappa2 = 0, kappa1 > 0), which
  ``bns.quad_intervals`` integrates per interval to 1e-12 relative. So the
  streaming route's time average is the integral over each path's
  jump-free intervals, the recorded rows are exact values at
  ``record_times``, and the work is O(jumps + paths * recorded rows), not
  O(paths * n_steps). The estimate does not depend on dt at a fixed horizon
  n_steps * dt (the span the jumps are drawn over), nor do rows at times on
  both grids.

Every route, prices included, runs its blocks of paths through one runner
(``_run``). The ensemble route records the rows of ``record_times``, the
streaming route none unless asked for its ensemble, and the price routes
every grid row, after which each price block draws its return randomness
and writes its prices. The runner sets numpy's error state for each block,
so a path that overflows goes on as inf or NaN without a warning, and a
block with a row (or, on the price routes, a price) that is not finite
raises ``NumericalError``. Rows come from one formula on every route, so
``simulate_bns``, the recorded ensemble of the streaming estimator and the
price route's variances are the same numbers.

Three things keep a block cheap:

* Heston draws a chunk's normals a tile of paths of about ``_TILE_BYTES``
  (1 MiB) at a time and transposes each tile into the step-major buffer
  while it is in cache. Each path's normals come in the same order whatever
  the tile, so the tiling moves no result.
* A block writes its rows straight into its slice of the run's arrays and
  makes its working arrays for the length of the call: Heston's state, step
  temporaries, the row carried between chunks, the chunk buffer of normals
  and rows, and the draw tile, which also takes a chunk's determinants once
  its normals are transposed. No row is kept but the recorded ones, none is
  copied after the block, and no buffer is made per chunk or row.
* No generator costs more than its key, and BNS jumps need none. Heston
  and the price routes keep one live generator per path:
  ``np.random.Philox`` takes the path's (seed, path) key from a minimal
  seed sequence, so no ``SeedSequence`` is made and no OS entropy is read
  (``Philox(key=...)`` does both, for each path, with the interpreter lock
  held), and the stream is that of ``Philox(key=(seed, path))``. The BNS
  jumps come from ``_philox``, Philox4x64-10 in numpy: the four words of a
  counter block are a function of (seed, path, counter) alone, so a
  block's jump words are computed for all its paths at once, in uint64
  ufuncs that release the interpreter lock, and blocks on different
  threads draw side by side.

Reproducibility: every path owns a counter-based RNG stream keyed by
(seed, path index) (Philox, Salmon et al., SC 2011), so ensembles are
identical under any block size, thread count, or execution order. Per path
the draw layout is fixed:

* Heston variance paths consume n_steps * n_assets standard normals,
  step-major, drawn one step chunk at a time; the chunking leaves each
  path's sequence as one draw of all of them would make it.
* Heston price paths consume the variance normals first, then another
  n_steps * n_assets return normals.
* BNS variance paths draw asset i's jumps (i from 0, in portfolio order)
  from counter lane i + 1 of the path's key: the stream of
  ``Philox(key=(seed, path), counter=(0, i + 1, 0, 0))``, which never meets
  the counter-0 stream the generators read. With U = (w >> 11) 2^-53 of a
  word w (``Generator.random()``), word 0 gives the Poisson jump count N
  over [0, horizon) by inverse CDF, words 1..N the jump times horizon U
  and words N+1..2N the sizes -log1p(-U) / b. Assets with a deterministic
  subordinator draw nothing.
* BNS price paths draw n_steps * n_assets return normals from the path's
  counter-0 stream, as a fresh generator gives them, and the common jump
  Z* from lane n_assets + 1 in the same layout as the assets.

Per path, the time average adds its rows (or, for BNS, its jump-free
intervals) one at a time in time order, every row and interval value is
computed elementwise, and the aggregation is a deterministic pairwise
reduction over the per-path averages, so results are independent of
schedule, block size, chunking and tiling.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bns import quad_intervals
from .core import (
    BnsPortfolioParams,
    CorrelationMatrix,
    GammaOuSpec,
    _as_float,
    _jump_law,
    _whole_number,
)
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    MissingSubordinatorSpec,
    NumericalError,
    ValidationError,
)
from .genvar import _jump_terms, det_sigma1_values, det_sigma2_values
from .heston import HestonPortfolio, _affine_product_integral

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "PricePaths",
    "McEstimate",
    "simulate_heston",
    "simulate_bns",
    "simulate_heston_prices",
    "simulate_bns_prices",
    "mc_realized_variance",
    "heston_realized_variance_mc",
    "bns_realized_variance_mc",
    "ensemble_to_csv",
]

_SCHEMES = ("auto", "full_truncation_euler", "exact_ou")

# Refuse to materialize ensembles beyond this many float64 entries; callers
# should thin via record_times or use the streaming estimators.
_MAX_ENSEMBLE_ENTRIES = 2**28

# Steps per time-major chunk of the Heston path kernel.
_CHUNK = 256

# Bytes of the tiles of paths a Heston chunk's normals are drawn in, so that
# their transpose into step-major order happens in cache.
_TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid, seed, and scheme.

    ``record_times`` optionally thins the stored grid to the given times
    (each must lie on its own row of the step grid); Heston path generation
    always walks the full grid. ``block_size`` only controls memory
    batching and never affects results.
    """

    n_paths: int
    dt: float
    horizon: float
    seed: int
    scheme: str = "auto"
    record_times: tuple[float, ...] | None = None
    block_size: int = 4096

    def __post_init__(self):
        for name in ("n_paths", "seed", "block_size"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name)))
        for name in ("dt", "horizon"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not 1 <= self.n_paths <= _MAX_ENSEMBLE_ENTRIES:
            raise InvalidConfig(
                f"n_paths must be between 1 and {_MAX_ENSEMBLE_ENTRIES}, got {self.n_paths}"
            )
        if not (0.0 < self.dt <= self.horizon < math.inf):
            raise InvalidConfig(
                f"need 0 < dt <= horizon < inf, got dt={self.dt}, horizon={self.horizon}"
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must fit in an unsigned 64-bit integer")
        if self.scheme not in _SCHEMES:
            raise InvalidConfig(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
        if self.block_size < 1:
            raise InvalidConfig("block_size must be >= 1")
        steps = self.horizon / self.dt
        if steps > _MAX_ENSEMBLE_ENTRIES:
            raise InvalidConfig(
                f"horizon / dt = {steps:.3g} steps, more than the {_MAX_ENSEMBLE_ENTRIES} allowed"
            )
        if abs(round(steps) - steps) > 1e-9 * max(1.0, steps):
            raise InvalidConfig("dt must divide horizon into a whole number of steps")
        if self.record_times is not None:
            rec = tuple(_as_float("record time", t) for t in self.record_times)
            if not rec:
                raise InvalidConfig("record_times must be nonempty when given")
            if any(t2 <= t1 for t1, t2 in zip(rec, rec[1:])):
                raise InvalidConfig("record_times must be strictly increasing")
            # each time's grid row, strictly increasing and at most n_steps
            last = -1
            for m, t in enumerate(rec):
                if not 0.0 <= t <= self.horizon + 1e-12:
                    raise InvalidConfig(f"record time {t} outside [0, horizon]")
                idx = round(t / self.dt)
                if abs(idx * self.dt - t) > 1e-9 * max(1.0, self.horizon):
                    raise InvalidConfig(f"record time {t} is not on the dt grid")
                if idx > self.n_steps:
                    raise InvalidConfig(f"record time {t} is past the last grid row")
                if idx <= last:
                    raise InvalidConfig(
                        f"record times {rec[m - 1]} and {t} fall on one grid row at dt = {self.dt}"
                    )
                last = idx
            object.__setattr__(self, "record_times", rec)

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def record_indices(self) -> np.ndarray:
        if self.record_times is None:
            return np.arange(self.n_steps + 1)
        return np.array([round(t / self.dt) for t in self.record_times], dtype=int)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Recorded variance paths on a strictly increasing time grid.

    ``variance_paths`` has shape (n_paths, n_times, n_assets), all entries
    >= 0. ``jump_marks`` is kept for callers that attach their own marks;
    no simulator here fills it (``simulate_bns_prices`` returns the common
    return jump's marks in ``PricePaths.jump_marks``).
    """

    times: np.ndarray
    variance_paths: np.ndarray
    scheme: str
    jump_marks: tuple | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        paths = np.asarray(self.variance_paths, dtype=float)
        if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0.0):
            raise ValidationError("times must be a strictly increasing vector of finite values")
        if paths.ndim != 3 or paths.shape[1] != times.size:
            raise ValidationError(
                f"variance_paths shape {paths.shape} does not match {times.size} times"
            )
        # written so that NaN, which fails every comparison, fails it too
        if not np.all(paths >= 0.0):
            raise ValidationError("variance paths must be nonnegative numbers")
        times.setflags(write=False)
        paths.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "variance_paths", paths)

    @property
    def n_paths(self) -> int:
        return self.variance_paths.shape[0]

    @property
    def n_assets(self) -> int:
        return self.variance_paths.shape[2]


@dataclass(frozen=True, eq=False)
class PricePaths:
    """Joint price/variance paths from the end-to-end simulators."""

    times: np.ndarray
    prices: np.ndarray
    variance_paths: np.ndarray
    jump_marks: tuple | None = None


@dataclass(frozen=True)
class McEstimate:
    """Ensemble mean and standard error of the per-path averages."""

    mean: float
    std_error: float
    n_paths: int

    def __post_init__(self):
        # written so that NaN, which fails every comparison, fails it too
        if not self.std_error >= 0.0:
            raise ValidationError("std_error must be >= 0")

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "n_paths": self.n_paths}


@functools.cache
def _philox_key_type() -> type:
    """The seed-sequence type that hands Philox a (seed, path) key.

    Made on first use, so that importing this module (and the CLI) does
    not import numpy.random, which the first simulation loads anyway.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """A (seed, path) Philox key posing as a seed sequence.

        ``np.random.Philox(key=...)`` first seeds a throwaway
        ``SeedSequence`` from OS entropy and then overrides it with the key.
        Philox built from this object asks it for two 64-bit words and takes
        them as its key, so the stream is that of ``Philox(key=...)`` and no
        entropy is read.
        """

        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key.view(dtype)[:n_words]

    return PhiloxKey


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key_type()(key)))


def _rngs(cfg: SimConfig, lo: int, hi: int) -> list[np.random.Generator]:
    """The live generators of paths [lo, hi)."""
    return [_path_rng(cfg.seed, j) for j in range(lo, hi)]


# Philox4x64-10 (Salmon et al., SC 2011) as numpy's ``Philox`` computes it
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW = 0xFFFFFFFF


def _mulhi(a: int, b: np.ndarray, hi: np.ndarray, s: np.ndarray, t: np.ndarray) -> None:
    """hi = the high 64 bits of the 128-bit product of the constant a and b, by 32-bit halves.

    With a = a1 2^32 + a0 and b = b1 2^32 + b0, t = a1 b0 + (a0 b0 >> 32) and
    u = a0 b1 + (t & _LOW) fit in 64 bits, and the high word is
    a1 b1 + (t >> 32) + (u >> 32). ``s`` and ``t`` are scratch arrays like ``b``.
    """
    a0, a1 = a & _LOW, a >> 32
    np.bitwise_and(b, _LOW, out=s)
    np.multiply(s, a0, out=t)
    t >>= 32
    s *= a1
    t += s
    np.bitwise_and(t, _LOW, out=s)
    t >>= 32
    np.right_shift(b, 32, out=hi)
    hi *= a0
    s += hi
    s >>= 32
    np.right_shift(b, 32, out=hi)
    hi *= a1
    hi += t
    hi += s


def _philox(counters, key) -> tuple[np.ndarray, ...]:
    """The four words of Philox4x64-10 at ``counters`` under ``key``, elementwise.

    ``counters`` holds the four counter words and ``key`` the (seed, path)
    pair, each an int or a uint64 array, all broadcast together. The words
    are the block ``np.random.Philox(key=key)`` buffers at that counter;
    numpy adds one to its counter before it computes a block, so its stream
    from counter c reads the blocks at c + 1, c + 2, ... Every step is a
    ufunc on uint64 arrays, so a block of paths draws without the
    interpreter lock.
    """
    shape = np.broadcast_shapes(*(np.shape(x) for x in (*counters, key[1])))
    c0, c1, c2, c3, k1 = (
        np.array(np.broadcast_to(np.asarray(x, dtype=np.uint64), shape), ndmin=1)
        for x in (*counters, key[1])
    )
    k0 = int(key[0])
    hi0, hi1, s, t = (np.empty_like(c0) for _ in range(4))
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 += _PHILOX_W[1]
        _mulhi(_PHILOX_M[0], c0, hi0, s, t)
        _mulhi(_PHILOX_M[1], c2, hi1, s, t)
        c0 *= _PHILOX_M[0]
        c2 *= _PHILOX_M[1]
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        # the round's output (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); c1 and c3 become scratch
        c0, c1, c2, c3, hi0, hi1 = hi1, c2, hi0, c0, c1, c3
    return tuple(c.reshape(shape) for c in (c0, c1, c2, c3))


def _uniform(words: np.ndarray) -> np.ndarray:
    """(w >> 11) 2^-53 in [0, 1) of each word w, as ``Generator.random()`` makes it."""
    return (words >> 11) * (1.0 / 9007199254740992.0)


def _poisson_counts(u: np.ndarray, mean: float) -> np.ndarray:
    """Poisson(mean) counts by inverse CDF: per uniform u, the number of atoms with CDF <= u.

    The table holds the atoms in [lo, hi], outside which each tail has mass
    below e^-45 (Chernoff below, Bennett above), with the pmf built by
    ratios outward from the mode and the CDF normalized to 1 at hi. One
    method serves every mean.
    """
    mode = math.floor(mean)
    lo = max(0, math.floor(mean - math.sqrt(90.0 * mean)))
    hi = math.ceil(mean + 15.0 + math.sqrt(225.0 + 90.0 * mean))
    below = np.cumprod(np.arange(mode, lo, -1) / mean)[::-1]
    above = np.cumprod(mean / np.arange(mode + 1, hi + 1))
    cdf = np.cumsum(np.concatenate((below, [1.0], above)))
    cdf /= cdf[-1]
    return lo + np.searchsorted(cdf, u, side="right")


def _jumps(seed: int, lo: int, hi: int, lanes, laws, lam: float, horizon: float):
    """The jumps of Z_{lambda t} on [0, horizon) of paths [lo, hi) under each law.

    Law k of path j reads the stream of ``Philox(key=(seed, j),
    counter=(0, lanes[k], 0, 0))``, the counter blocks (m, lanes[k], 0, 0)
    for m >= 1: word 0 gives the Poisson count N at rate a lambda horizon,
    words 1..N the times horizon U and words N+1..2N the sizes
    -log1p(-U) / b. Returns per jump its path (from 0 at lo), law, time and
    size, ordered by path, law and draw.
    """
    B, A = hi - lo, len(laws)
    # stream o = (path, law) = (o // A, o % A)
    paths = np.repeat(np.arange(lo, hi, dtype=np.uint64), A)
    lanes = np.tile(np.array(lanes, dtype=np.uint64), B)
    first = _philox((1, lanes, 0, 0), (seed, paths))[0]
    counts = np.empty(B * A, dtype=np.int64)
    for k, law in enumerate(laws):
        counts[k::A] = _poisson_counts(_uniform(first[k::A]), law.a * lam * horizon)
    # a stream with jumps reads 1 + 2 N words, (N + 2) // 2 blocks of four, all in one call
    blocks = np.where(counts > 0, (counts + 2) // 2, 0)
    start = np.cumsum(blocks) - blocks
    owner = np.repeat(np.arange(B * A), blocks)
    m = np.arange(owner.size) - start[owner] + 1
    words = np.stack(_philox((m, lanes[owner], 0, 0), (seed, paths[owner])), axis=-1).reshape(-1)

    stream = np.repeat(np.arange(B * A), counts)
    at = 4 * start[stream] + 1 + np.arange(stream.size) - np.repeat(np.cumsum(counts) - counts, counts)
    time = horizon * _uniform(words[at])
    b = np.array([law.b for law in laws])
    size = -np.log1p(-_uniform(words[at + counts[stream]])) / b[stream % A]
    return stream // A, stream % A, time, size


def _check_scheme(cfg: SimConfig, allowed: str) -> str:
    if cfg.scheme not in ("auto", allowed):
        raise InvalidConfig(f"scheme {cfg.scheme!r} does not apply to this model")
    return allowed


def _check_ensemble_size(cfg: SimConfig, rows: int, values: int, advice: str) -> None:
    """Refuse to hold ``rows`` rows of ``values`` floats for each of the run's paths."""
    entries = cfg.n_paths * rows * values
    if entries > _MAX_ENSEMBLE_ENTRIES:
        raise InvalidConfig(f"ensemble of {entries} values is too large to materialize; {advice}")


# the time average and the block runner


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Per-row weights of the trapezoidal rule on ``times`` (not yet divided by its span)."""
    half = np.diff(times) / 2.0
    weights = np.zeros(times.size)
    weights[:-1] += half
    weights[1:] += half
    return weights


def _run(block, cfg: SimConfig, n: int, rows: np.ndarray, threads: int = 1):
    """Every block [lo, hi) of paths through ``block`` on min(threads, blocks) threads.

    ``block(lo, hi, rows, out)`` writes the block's grid rows ``rows``
    path-major into ``out``, its slice of the run's rows, and returns per
    path the time integral of |Sigma| over the horizon (zeros when nothing
    is integrated). Each block runs under ``np.errstate(over="ignore",
    invalid="ignore")``, since worker threads start with numpy's default
    error state, so a path that overflows goes on as inf or NaN without a
    warning; a block whose rows are not all finite raises
    ``NumericalError``. Returns the rows, (n_paths, rows.size, n), and per
    path the time average. ``threads`` must be a whole number >= 1: NaN
    would start no thread and 2.5 would start three.
    """
    threads = _whole_number("threads", threads)
    if threads < 1:
        raise InvalidConfig(f"threads must be >= 1, got {threads}")
    _check_ensemble_size(cfg, rows.size, n, "thin with record_times or use the streaming estimators")
    times = cfg.times
    recorded = np.empty((cfg.n_paths, rows.size, n))
    averages = np.empty(cfg.n_paths)

    def run(lo):
        hi = min(lo + cfg.block_size, cfg.n_paths)
        out = recorded[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            total = block(lo, hi, rows, out)
        if not np.isfinite(out).all():
            raise NumericalError(f"a variance path among paths {lo} to {hi - 1} is not finite")
        averages[lo:hi] = total / (times[-1] - times[0])

    with ThreadPoolExecutor(max_workers=min(threads, -(-cfg.n_paths // cfg.block_size))) as pool:
        list(pool.map(run, range(0, cfg.n_paths, cfg.block_size)))
    return recorded, averages


def _ensemble(cfg: SimConfig, recorded: np.ndarray, scheme: str) -> PathEnsemble:
    """The rows ``_run`` recorded at ``record_times`` as an ensemble."""
    return PathEnsemble(times=cfg.times[cfg.record_indices], variance_paths=recorded, scheme=scheme)


# Heston paths: one Euler step loop per block, its rows used a chunk at a time


def _heston_rows(portfolio: HestonPortfolio, cfg: SimConfig, rngs, rows: np.ndarray, out: np.ndarray,
                 corr: CorrelationMatrix | None = None) -> np.ndarray:
    """Full-truncation Euler variances of the paths of ``rngs``, made one grid row at a time.

    Writes the grid rows ``rows`` (strictly increasing) path-major into
    ``out``, shape (paths, rows.size, n), and returns per path the
    trapezoidal sum over the grid of |Sigma_1| under ``corr`` (zeros
    without it). The state is held (assets, paths), so per-asset parameters
    broadcast along the contiguous path axis; a row holds the floored value
    while the raw state carries the excursion. A chunk's normals are drawn a
    tile of paths at a time (about ``_TILE_BYTES``) and transposed into the
    step-major buffer ``z`` while the tile is in cache; each step writes its
    row over the normals it has just used, ``z[s]``, and the chunk's last
    row is carried into the next chunk. Once per chunk the recorded rows go
    to ``out`` and the rows' |Sigma_1| come from one ``det_sigma1_values``
    call per stack of rows that fits the idle draw tile; each row of the
    stack, times its trapezoid weight, is added to the time average one at a
    time in grid order. The buffers live for the call. It runs under
    ``_run``'s error state, so a path that overflows goes on as inf or NaN
    without a warning, and ``_run`` checks the rows.
    """
    n = portfolio.n
    B = len(rngs)
    chunk = min(_CHUNK, cfg.n_steps)
    tile = min(B, max(1, _TILE_BYTES // (chunk * n * 8)))
    buffer = np.empty(max(tile * chunk * n, B))
    drawn = buffer[: tile * chunk * n].reshape(tile, chunk * n)
    per_call = buffer.size // B
    z = np.empty((chunk, n, B))
    # each parameter as a contiguous (assets, paths) row, not a column broadcast at every step
    k, theta2, sigma0_2, gamma = (
        np.repeat([[getattr(a, name)] for a in portfolio.assets], B, axis=1)
        for name in ("k", "theta2", "sigma0_2", "gamma")
    )
    state, carried, drift, shock = (np.empty((n, B)) for _ in range(4))
    dt = cfg.dt
    sq_dt = math.sqrt(dt)
    weights = _trapezoid_weights(cfg.times)
    total = np.zeros(B)
    kept = 0

    def use(g0, stack):
        """Record the rows of ``stack`` (rows, assets, paths), grid rows g0, g0 + 1, ...,
        that are in ``rows`` and add their |Sigma_1| to the time average."""
        nonlocal kept, total
        while kept < rows.size and rows[kept] < g0 + len(stack):
            out[:, kept] = stack[rows[kept] - g0].T
            kept += 1
        if corr is None:
            return
        for r0 in range(0, len(stack), per_call):
            piece = stack[r0:r0 + per_call]
            values = det_sigma1_values(
                piece.transpose(0, 2, 1), corr, out=buffer[: len(piece) * B].reshape(-1, B)
            )
            values *= weights[g0 + r0:g0 + r0 + len(values), np.newaxis]
            for value in values:
                total += value

    np.copyto(state, sigma0_2)
    np.maximum(state, 0.0, out=carried)
    use(0, carried[np.newaxis])
    for s0 in range(0, cfg.n_steps, chunk):
        c = min(chunk, cfg.n_steps - s0)
        tiles = drawn[:, : c * n]
        for j0 in range(0, B, tile):
            part = rngs[j0:j0 + tile]
            for rng, normals in zip(part, tiles):
                rng.standard_normal(out=normals)
            np.copyto(
                z[:c, :, j0:j0 + len(part)],
                tiles[: len(part)].reshape(len(part), c, n).transpose(1, 2, 0),
            )
        prev = carried
        for row in z[:c]:
            # state += k (theta2 - prev) dt + gamma sqrt(prev) sqrt(dt) z in place, one
            # operation at a time in the order of that expression; the floored state
            # then takes the place of the normals z in ``row``
            np.subtract(theta2, prev, out=drift)
            drift *= k
            drift *= dt
            np.sqrt(prev, out=shock)
            shock *= gamma
            shock *= sq_dt
            shock *= row
            state += drift
            state += shock
            np.maximum(state, 0.0, out=row)
            prev = row
        use(s0 + 1, z[:c])
        np.copyto(carried, prev)
    return total


def _heston_block(portfolio: HestonPortfolio, cfg: SimConfig,
                  corr: CorrelationMatrix | None = None):
    """The Heston block function for ``_run``: the step loop on the block's live generators."""

    def block(lo, hi, rows, out):
        return _heston_rows(portfolio, cfg, _rngs(cfg, lo, hi), rows, out, corr)

    return block


def simulate_heston(portfolio: HestonPortfolio, cfg: SimConfig) -> PathEnsemble:
    """CIR variance paths per asset with independent drivers.

    Return correlations do not enter the variance paths; they are applied
    only in determinant evaluation through C.
    """
    scheme = _check_scheme(cfg, "full_truncation_euler")
    block = _heston_block(portfolio, cfg)
    return _ensemble(cfg, _run(block, cfg, portfolio.n, cfg.record_indices)[0], scheme)


# BNS paths


def _check_jump_count(p: BnsPortfolioParams, cfg: SimConfig, star: GammaOuSpec | None = None) -> None:
    """Refuse, before any draw, a run expected to draw more than ``_MAX_ENSEMBLE_ENTRIES`` jumps.

    The count is n_paths times the sum of a lambda horizon over the assets'
    jump laws and ``star`` (the price route's Z*), whatever the blocks and threads.
    """
    laws = [law for law in (*map(_jump_law, p.assets), star) if law is not None]
    count = cfg.n_paths * sum(law.a for law in laws) * p.lambda_ * cfg.n_steps * cfg.dt
    if count > _MAX_ENSEMBLE_ENTRIES:
        raise InvalidConfig(f"the run expects {count:.3g} jumps, more than the {_MAX_ENSEMBLE_ENTRIES} allowed")


class _JumpList:
    """A block of BNS paths as their events and each variance's excess over its level after each.

    Asset i's jumps of path j come from the counter lane i + 1 of path j's
    Philox stream (``_jumps``). The events of a block are each path's start
    (time 0) and its jumps, sorted stably by (path, time): each path is one
    run of events that begins with its start, and jumps at one time keep
    asset and draw order. Between events every variance decays exactly,
    v(t) = a + y e^{-lambda (t - t_e)} with a its level (kappa1 for a
    drift-only asset, else 0) and y = v(t_e) - a its excess after event e,
    so the rows at any times and the integral of |Sigma_2| come from the
    ``excess`` array, (events, assets), alone. An event carries its
    increment of y into the walk: sigma0^2 - a at a path's start, the jump's
    size on its asset's column at a jump.
    """

    def __init__(self, p: BnsPortfolioParams, cfg: SimConfig, lo: int, hi: int):
        n, B = p.n, hi - lo
        self.lam = lam = p.lambda_
        self.horizon = horizon = cfg.n_steps * cfg.dt
        specs = [_jump_law(a) for a in p.assets]
        self.level = np.array([a.kappa1 if law is None else 0.0 for a, law in zip(p.assets, specs)])

        jumping = [i for i, law in enumerate(specs) if law is not None]
        owner, law, t_jump, sizes = _jumps(
            cfg.seed, lo, hi, [i + 1 for i in jumping], [specs[i] for i in jumping], lam, horizon
        )
        path = np.concatenate((np.arange(B), owner))
        time = np.concatenate((np.zeros(B), t_jump))
        excess = np.zeros((path.size, n))
        excess[:B] = np.array([a.sigma0_2 for a in p.assets]) - self.level
        excess[np.arange(B, path.size), np.array(jumping, dtype=int)[law]] = sizes
        order = np.lexsort((time, path))
        self.path, self.time, self.excess = path[order], time[order], excess[order]
        self.starts = np.searchsorted(self.path, np.arange(B))
        jumps = np.diff(np.append(self.starts, self.path.size)) - 1

        # walk the jump ranks, each over the paths that still have a jump
        gaps = np.diff(self.time, prepend=0.0)
        gaps[self.starts] = 0.0
        decay = np.exp(-lam * gaps)
        for rank in range(1, jumps.max(initial=0) + 1):
            events = self.starts[jumps >= rank] + rank
            self.excess[events] += self.excess[events - 1] * decay[events, np.newaxis]

    def rows(self, times: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The variances at sorted ``times`` >= 0, shape (paths, times.size, assets), in ``out``
        if given.

        Row g of a path reads its last event at or before times[g], the
        running count along the rows of the events per (path, row) cell. A
        row depends only on its path and time, so any block or selection of
        the rows gives the same numbers.
        """
        B, T = self.starts.size, times.size
        first = np.searchsorted(times, self.time)  # the first row at or after each event
        inside = first < T
        cells = self.path[inside] * T + first[inside]
        events = np.cumsum(np.bincount(cells, minlength=B * T).reshape(B, T), axis=1)
        events += self.starts[:, np.newaxis] - 1
        # every index is in range; "clip" writes into ``out`` without the buffer "raise" makes
        rows = np.take(self.excess, events, axis=0, out=out, mode="clip")
        rows *= np.exp(-self.lam * (times - self.time[events]))[..., np.newaxis]
        rows += self.level
        return rows

    def integrals(self, corr: CorrelationMatrix, rho, var_z1: float) -> np.ndarray:
        """Per path, the integral of |Sigma_2| over the horizon, exact between events.

        On the interval after an event, with w = e^{-lambda s} and every
        v_l = y_l w + a_l, the determinant lemma expands to

            |Sigma_2| / |C| = prod_l v_l + lambda Var[Z_1*] (
                sum_i delta_ii rho_i^2 prod_{l != i} v_l
                + sum_{i < j} 2 delta_ij rho_i rho_j sigma_i sigma_j prod_{l != i, j} v_l),

        delta = C^-1. Every product of the v_l, and a pair term with a_i =
        a_j = 0 (sigma_i sigma_j = sqrt(y_i y_j) w), is one exponential-affine
        product integral over all the intervals at once; a pair term on a
        drift-only asset (a > 0) goes through ``bns.quad_intervals``, each
        interval on its own, to 1e-12 relative. A path's intervals add up in
        time order.
        """
        n = corr.n
        end = np.append(self.time[1:], self.horizon)
        end[self.starts[1:] - 1] = self.horizon
        tau = end - self.time
        d = self.excess.T

        def product(factors, d_extra=None):
            """Per interval, the integral of prod_{l in factors} v_l (times d_extra w if given)."""
            ds, cs = [d[l] for l in factors], [self.level[l] for l in factors]
            if d_extra is not None:
                ds, cs = [d_extra, *ds], [0.0, *cs]
            return _affine_product_integral(tau, ds, cs, rate=self.lam)

        def pair(k, s, i, j):
            """sqrt(v_i v_j) prod_{l != i, j} v_l on intervals k at times s after their events."""
            w = np.exp(-self.lam * s)
            v = [d[l][k] * w + self.level[l] for l in range(n)]
            return math.prod((v[l] for l in range(n) if l not in (i, j)), start=np.sqrt(v[i] * v[j]))

        values = product(range(n))
        jump_scale = self.lam * var_z1
        terms = _jump_terms(corr, rho, jump_scale)
        if terms:
            bracket = 0.0
            for i, j, weight in terms:
                others = [l for l in range(n) if l not in (i, j)]
                if i == j:
                    term = product(others)
                elif self.level[i] or self.level[j]:
                    term = quad_intervals(functools.partial(pair, i=i, j=j), tau, 1e-12, f"pair ({i}, {j})")
                else:
                    term = product(others, np.sqrt(d[i] * d[j]))
                bracket = bracket + weight * rho[i] * rho[j] * term
            values = values + jump_scale * bracket
        return np.bincount(self.path, weights=corr.det_c * values, minlength=self.starts.size)


def _bns_block(p: BnsPortfolioParams, cfg: SimConfig, corr: CorrelationMatrix | None = None):
    """The BNS block function for ``_run``, on each block's jump list.

    Without ``corr`` only rows are recorded. With it, the time integral of
    |Sigma_2| is that of ``_JumpList.integrals``, over each jump-free
    interval, taken before the rows so that its temporaries are gone when
    the rows fill their pages of the ensemble.
    """
    _check_jump_count(p, cfg)

    def block(lo, hi, rows, out):
        jumps = _JumpList(p, cfg, lo, hi)
        integral = np.zeros(hi - lo) if corr is None else jumps.integrals(corr, p.rho, p.kappa2_star)
        jumps.rows(cfg.times[rows], out)
        return integral

    return block


def simulate_bns(p: BnsPortfolioParams, cfg: SimConfig) -> PathEnsemble:
    """Exact-in-law OU variance paths, independent subordinator per asset.

    The common jump Z* enters only the return equations, so it plays no part
    here; ``jump_marks`` stays empty.
    """
    scheme = _check_scheme(cfg, "exact_ou")
    return _ensemble(cfg, _run(_bns_block(p, cfg), cfg, p.n, cfg.record_indices)[0], scheme)


# realized generalized variance


def _summarize(avgs: np.ndarray) -> McEstimate:
    n = avgs.size
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        mean = float(np.mean(avgs))
        se = float(np.std(avgs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NumericalError(f"Monte Carlo estimate is not finite: mean {mean}, std_error {se}")
    return McEstimate(mean=mean, std_error=se, n_paths=n)


def mc_realized_variance(
    ensemble: PathEnsemble,
    corr: CorrelationMatrix,
    rho=None,
    lambda_: float | None = None,
    kappa2_star: float | None = None,
) -> McEstimate:
    """Monte Carlo estimate of E[(1/T) integral_0^T |Sigma| dt].

    Per path, the trapezoidal time average of |Sigma_1| (Heston inputs, all
    jump arguments None) or |Sigma_2| (BNS inputs: rho, lambda_ and
    kappa2_star all given) along the recorded grid; the estimate is the
    ensemble mean with its standard error. Integration accuracy follows the
    recorded grid, so thinned ensembles trade bias for memory.
    """
    if ensemble.n_assets != corr.n:
        raise DimensionMismatch(
            f"ensemble has {ensemble.n_assets} assets, correlation has {corr.n}"
        )
    times = ensemble.times
    if times.size < 2:
        raise ValidationError("need at least two recorded times to integrate")
    jump_args = (rho is not None, lambda_ is not None, kappa2_star is not None)
    if any(jump_args) and not all(jump_args):
        raise ValidationError("rho, lambda_ and kappa2_star must be given together")
    if all(jump_args):
        dets = det_sigma2_values(ensemble.variance_paths, corr, rho, lambda_, kappa2_star)
    else:
        dets = det_sigma1_values(ensemble.variance_paths, corr)
    total = np.zeros(ensemble.n_paths)
    # row by row in grid order, as the Heston step loop adds them, so the routes agree bit for bit
    for w, row in zip(_trapezoid_weights(times), dets.T):
        total += w * row
    return _summarize(total / (times[-1] - times[0]))


def _streaming_estimate(block, cfg: SimConfig, n: int, scheme: str, threads: int,
                        return_ensemble: bool):
    rows = cfg.record_indices if return_ensemble else np.empty(0, dtype=int)
    recorded, averages = _run(block, cfg, n, rows, threads)
    estimate = _summarize(averages)
    return (estimate, _ensemble(cfg, recorded, scheme)) if return_ensemble else estimate


def heston_realized_variance_mc(
    portfolio: HestonPortfolio, cfg: SimConfig, threads: int = 1, *, return_ensemble: bool = False
):
    """Streaming Heston estimate on the full step grid.

    Identical path-for-path to ``mc_realized_variance(simulate_heston(...))``
    without materializing the ensemble; thread count does not affect the
    result. With ``return_ensemble``, returns (estimate, ensemble), the
    ensemble being ``simulate_heston(portfolio, cfg)`` recorded in the same
    pass.
    """
    scheme = _check_scheme(cfg, "full_truncation_euler")
    block = _heston_block(portfolio, cfg, portfolio.corr)
    return _streaming_estimate(block, cfg, portfolio.n, scheme, threads, return_ensemble)


def bns_realized_variance_mc(
    p: BnsPortfolioParams,
    corr: CorrelationMatrix,
    cfg: SimConfig,
    threads: int = 1,
    *,
    return_ensemble: bool = False,
):
    """Streaming BNS estimate of the |Sigma_2| time average over the horizon.

    Per path, the average is the integral over the jump-free intervals
    (``_JumpList.integrals``), so it does not depend on dt. With
    ``return_ensemble``, returns (estimate, ensemble), the ensemble being
    ``simulate_bns(p, cfg)`` recorded in the same pass.
    """
    scheme = _check_scheme(cfg, "exact_ou")
    if p.n != corr.n:
        raise DimensionMismatch(f"{p.n} assets vs {corr.n}x{corr.n} correlation")
    return _streaming_estimate(_bns_block(p, cfg, corr), cfg, p.n, scheme, threads, return_ensemble)


# price paths (data-pipeline plumbing, not used by the pricing oracle)


def _corr_factor(corr: CorrelationMatrix) -> np.ndarray:
    try:
        return np.linalg.cholesky(corr.c)
    except np.linalg.LinAlgError:
        w, vecs = np.linalg.eigh(corr.c)
        return vecs * np.sqrt(np.clip(w, 0.0, None))


def _price_inputs(n: int, s0, mu, beta):
    """s0, mu and beta, each one value or one per asset, as one finite value per asset, with s0 > 0."""
    s0, mu, beta = (np.asarray(x, dtype=float) for x in (s0, mu, beta))
    for name, x in (("s0", s0), ("mu", mu), ("beta", beta)):
        if x.ndim > 1 or x.size not in (1, n):
            raise DimensionMismatch(f"{name} must be one value or {n}, one per asset; got shape {x.shape}")
    s0, mu, beta = (np.broadcast_to(x, (n,)) for x in (s0, mu, beta))
    if not all(np.all(np.isfinite(x)) for x in (s0, mu, beta)):
        raise ValidationError("s0, mu and beta must be finite")
    if np.any(s0 <= 0.0):
        raise ValidationError("initial prices must be > 0")
    return s0, mu, beta


def _log_euler_prices(v, eps, L, s0, mu, beta, dt: float, out: np.ndarray, jumps=None) -> None:
    """Write s0 exp(x) into ``out`` for the log-Euler paths x driven by variances v and normals eps.

    The increment of step s is (mu + beta v_s - v_s / 2) dt
    + sqrt(v_s dt) (L eps_s), plus ``jumps[:, s]`` when given. It is built
    in ``out`` one operation at a time in the order of that expression
    (sums and products taken the other way round have the same bits), and
    summed along the steps where it stands.
    """
    v_start = v[:, :-1, :]
    incr = out[:, 1:]
    np.multiply(beta, v_start, out=incr)
    incr += mu
    shock = 0.5 * v_start  # v_s / 2 first; the array then takes the shock
    incr -= shock
    incr *= dt
    np.sqrt(v_start, out=shock)
    shock *= math.sqrt(dt)
    shock *= eps @ L.T
    incr += shock
    if jumps is not None:
        incr += jumps
    out[:, 0] = 0.0
    np.cumsum(incr, axis=1, out=incr)
    np.exp(out, out=out)
    out *= s0


def _price_paths(variance_rows, corr: CorrelationMatrix, cfg: SimConfig, s0, mu, beta, jumps=None):
    """(prices, variances) of all paths, each (n_paths, n_steps + 1, n), on ``_run``.

    Its block [lo, hi) writes the variances at every grid row, path-major,
    into its slice ``out`` of the run's rows by ``variance_rows(lo, hi,
    rngs, rows, out)``, then draws each path's n_steps * n return normals,
    step-major, from its live generators ``rngs`` (after whatever the
    variances drew from them) and its per-step log-price jumps from
    ``jumps(lo, hi)``, if given, and writes its prices into its slice of the
    run's prices. A price that is not finite raises ``NumericalError``, as
    ``_run`` does for a variance.
    """
    n = corr.n
    # the price routes hold every grid row, whatever record_times says
    _check_ensemble_size(cfg, cfg.n_steps + 1, 2 * n, "use fewer paths or a coarser dt")
    s0, mu, beta = _price_inputs(n, s0, mu, beta)
    L = _corr_factor(corr)
    prices = np.empty((cfg.n_paths, cfg.n_steps + 1, n))

    def block(lo, hi, rows, out):
        rngs = _rngs(cfg, lo, hi)
        variance_rows(lo, hi, rngs, rows, out)
        eps = np.empty((hi - lo, cfg.n_steps, n))
        for rng, normals in zip(rngs, eps):
            rng.standard_normal(out=normals)
        _log_euler_prices(
            out, eps, L, s0, mu, beta, cfg.dt, prices[lo:hi], None if jumps is None else jumps(lo, hi)
        )
        if not np.isfinite(prices[lo:hi]).all():
            raise NumericalError(f"a price path among paths {lo} to {hi - 1} is not finite")
        return np.zeros(hi - lo)

    return prices, _run(block, cfg, n, np.arange(cfg.n_steps + 1))[0]


def simulate_heston_prices(
    portfolio: HestonPortfolio, cfg: SimConfig, s0, mu=0.0
) -> PricePaths:
    """Log-Euler price paths with C-correlated return drivers."""
    _check_scheme(cfg, "full_truncation_euler")

    def variance_rows(lo, hi, rngs, rows, out):
        _heston_rows(portfolio, cfg, rngs, rows, out)

    return PricePaths(cfg.times, *_price_paths(variance_rows, portfolio.corr, cfg, s0, mu, 0.0))


def simulate_bns_prices(
    p: BnsPortfolioParams,
    corr: CorrelationMatrix,
    cfg: SimConfig,
    s0,
    mu=0.0,
    beta=0.0,
    subordinator_star: GammaOuSpec | None = None,
) -> PricePaths:
    """BNS price paths: diffusion plus the common jump rho_i dZ*_{lambda t}.

    ``subordinator_star`` fixes the law of Z*; the portfolio's kappa2_star
    only states Var[Z_1*], which does not determine a jump law by itself.
    """
    _check_scheme(cfg, "exact_ou")
    if p.n != corr.n:
        raise DimensionMismatch(f"{p.n} assets vs {corr.n}x{corr.n} correlation")
    if subordinator_star is None:
        if p.kappa2_star > 0.0:
            raise MissingSubordinatorSpec(
                "kappa2_star > 0 requires subordinator_star to fix the law of Z*"
            )
    elif not math.isclose(subordinator_star.kappa2, p.kappa2_star, rel_tol=1e-8):
        raise ValidationError(
            f"subordinator_star has kappa2 = {subordinator_star.kappa2}, "
            f"portfolio states kappa2_star = {p.kappa2_star}"
        )
    _check_jump_count(p, cfg, subordinator_star)
    horizon = cfg.n_steps * cfg.dt
    marks = []

    laws = [] if subordinator_star is None else [subordinator_star]

    def common_jumps(lo, hi):
        """rho_i times each step's Z* increment; each path's (times, sizes) go to ``marks``."""
        path, _, t_jump, sizes = _jumps(
            cfg.seed, lo, hi, [p.n + 1] * len(laws), laws, p.lambda_, horizon
        )
        # the step [s dt, (s + 1) dt) of each jump
        steps = np.minimum((t_jump / cfg.dt).astype(int), cfg.n_steps - 1)
        star = np.bincount(path * cfg.n_steps + steps, weights=sizes, minlength=(hi - lo) * cfg.n_steps)
        cuts = np.searchsorted(path, np.arange(1, hi - lo))
        marks.extend(zip(np.split(t_jump, cuts), np.split(sizes, cuts)))
        return star.reshape(hi - lo, cfg.n_steps, 1) * p.rho

    def variance_rows(lo, hi, rngs, rows, out):
        _JumpList(p, cfg, lo, hi).rows(cfg.times[rows], out)

    paths = _price_paths(variance_rows, corr, cfg, s0, mu, beta, common_jumps)
    return PricePaths(cfg.times, *paths, jump_marks=tuple(marks))


def ensemble_to_csv(ensemble: PathEnsemble, path) -> None:
    """One row per (path, time) with per-asset variances.

    The bytes of ``csv.writer``'s default dialect, written one path at a
    time: the row templates (time string, then ``%.17g`` fields) are made
    once, and each path is one ``%`` of their join behind its index.
    """
    n = ensemble.n_assets
    rows = [f"{t:.12g}" + ",%.17g" * n + "\r\n" for t in ensemble.times]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["path", "time"] + [f"var_{i + 1}" for i in range(n)]) + "\r\n")
        for j, path_rows in enumerate(ensemble.variance_paths):
            fh.write(f"{j},".join(["", *rows]) % tuple(path_rows.reshape(-1).tolist()))
