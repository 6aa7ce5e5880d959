"""Stochastic-simulation oracle for the closed-form prices.

Heston variance paths use full-truncation Euler on the square-root process
(negative proposals floored at zero inside drift and diffusion; the
recorded path holds the floored value, and nothing counts the floor hits),
whose bias vanishes as dt -> 0. BNS variance paths use the exact-in-law OU
recursion between jump times,

    sigma^2_{t+dt} = e^{-lambda dt} sigma^2_t
                     + sum_{jumps s in (t, t+dt]} e^{-lambda (t+dt-s)} J_s,

with compound-Poisson/exponential (Gamma-OU) subordinators, so it carries no
discretization bias. Only variance paths enter the realized generalized
variance |Sigma|; asset price paths are provided separately for end-to-end
data-pipeline runs.

One time-major pass serves all three routes. Each model has one path
kernel, which walks the grid of a block of paths in chunks of ``_CHUNK``
steps and yields (rows, paths, assets) variance planes, stored asset-major:
the initial row, then one plane per chunk. Heston draws each chunk's normals
from the block's live per-path generators; BNS draws every path's jumps up
front and bins the arrivals of one chunk at a time. One walker consumes the
planes: it copies out the recorded rows and, for the streaming route,
evaluates |Sigma| on each plane and adds it to the per-path trapezoidal time
average. So a block holds O(block_size * _CHUNK * n_assets) floats plus its
jumps, whatever the number of steps, and the streaming estimators can hand
back the recorded ensemble of the same pass. The ensemble route records
``record_times``, the price route records every row and then draws the
return randomness.

Reproducibility: every path owns a counter-based RNG stream keyed by
(seed, path index), so ensembles are identical under any block size, thread
count, or execution order. Per path the draw layout is fixed:

* Heston variance paths consume n_steps * n_assets standard normals,
  step-major, drawn one step chunk at a time; the chunking leaves each
  path's sequence as one draw of all of them would make it.
* Heston price paths consume the variance normals first, then another
  n_steps * n_assets return normals.
* BNS variance paths consume, per asset in portfolio order: one Poisson
  jump count over [0, horizon), that many uniform jump times, that many
  exponential jump sizes. Assets with a deterministic subordinator draw
  nothing.
* BNS price paths consume the variance draws, then n_steps * n_assets
  return normals, then the common jump Z* (count, times, sizes).

Per path, the time average adds its rows one at a time in grid order, and
the aggregation is a deterministic pairwise reduction over the per-path
averages, so results are independent of schedule, block size and chunking.
"""

from __future__ import annotations

import math
import numbers
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import BnsPortfolioParams, CorrelationMatrix, GammaOuSpec
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    MissingSubordinatorSpec,
    ValidationError,
)
from .genvar import det_sigma1_values, det_sigma2_values
from .heston import HestonPortfolio

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

# Steps per time-major chunk of the path kernels.
_CHUNK = 256


def _whole_number(name: str, value) -> int:
    """``value`` as an int; a bool, a non-integral or a non-finite number is an InvalidConfig."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        if not float(value).is_integer():
            raise InvalidConfig(f"{name} must be an integer, got {value!r}") from None
        return int(value)


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid, seed, and scheme.

    ``record_times`` optionally thins the stored grid to the given times
    (each must lie on the step grid); path generation always walks the full
    grid. ``block_size`` only controls memory batching and never affects
    results.
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
        if self.n_paths < 1:
            raise InvalidConfig(f"n_paths must be >= 1, got {self.n_paths}")
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
        if abs(round(steps) - steps) > 1e-9 * max(1.0, steps):
            raise InvalidConfig("dt must divide horizon into a whole number of steps")
        if self.record_times is not None:
            rec = tuple(float(t) for t in self.record_times)
            if not rec:
                raise InvalidConfig("record_times must be nonempty when given")
            if any(t2 <= t1 for t1, t2 in zip(rec, rec[1:])):
                raise InvalidConfig("record_times must be strictly increasing")
            for t in rec:
                if not 0.0 <= t <= self.horizon + 1e-12:
                    raise InvalidConfig(f"record time {t} outside [0, horizon]")
                idx = round(t / self.dt)
                if abs(idx * self.dt - t) > 1e-9 * max(1.0, self.horizon):
                    raise InvalidConfig(f"record time {t} is not on the dt grid")
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
    >= 0. ``jump_marks`` records the common return jump (times, sizes) per
    path and is populated only by the BNS price simulator; the variance
    drivers Z^i are independent of Z*.
    """

    times: np.ndarray
    variance_paths: np.ndarray
    scheme: str
    jump_marks: tuple | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        paths = np.asarray(self.variance_paths, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0.0):
            raise ValidationError("times must be a strictly increasing vector")
        if paths.ndim != 3 or paths.shape[1] != times.size:
            raise ValidationError(
                f"variance_paths shape {paths.shape} does not match {times.size} times"
            )
        if np.any(paths < 0.0):
            raise ValidationError("variance paths must be nonnegative")
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
        if self.std_error < 0.0:
            raise ValidationError("std_error must be >= 0")

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "n_paths": self.n_paths}


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rngs(cfg: SimConfig, lo: int, hi: int) -> list[np.random.Generator]:
    """The live generators of paths [lo, hi)."""
    return [_path_rng(cfg.seed, j) for j in range(lo, hi)]


def _blocks(n_paths: int, block_size: int):
    for lo in range(0, n_paths, block_size):
        yield lo, min(lo + block_size, n_paths)


def _chunks(n_steps: int):
    for s0 in range(0, n_steps, _CHUNK):
        yield s0, min(s0 + _CHUNK, n_steps)


def _check_scheme(cfg: SimConfig, allowed: str) -> str:
    if cfg.scheme not in ("auto", allowed):
        raise InvalidConfig(f"scheme {cfg.scheme!r} does not apply to this model")
    return allowed


def _check_ensemble_size(cfg: SimConfig, n_assets: int) -> None:
    entries = cfg.n_paths * cfg.record_indices.size * n_assets
    if entries > _MAX_ENSEMBLE_ENTRIES:
        raise InvalidConfig(
            f"ensemble of {entries} values is too large to materialize; "
            "thin with record_times or use the streaming estimators"
        )


# the time-major pass: every route walks a block's variance planes once


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Per-row weights of the trapezoidal rule on ``times`` (not yet divided by its span)."""
    half = np.diff(times) / 2.0
    weights = np.zeros(times.size)
    weights[:-1] += half
    weights[1:] += half
    return weights


def _accumulate(total: np.ndarray, dets: np.ndarray, weights: np.ndarray) -> None:
    """total += weights[g] * dets[g] for each row g, one row at a time in grid order.

    The one time-average accumulator of the streaming and ensemble routes.
    Each path's additions come in the same order however the rows are split
    into chunks or the paths into blocks, so both routes agree bit for bit.
    """
    for w, row in zip(weights, dets):
        total += w * row


def _walk(planes, paths: int, n: int, rows: np.ndarray, weights=None, dets=None):
    """One pass over a block's time-major variance planes, in grid order.

    Returns the grid rows ``rows`` (sorted) path-major, shape
    (paths, rows.size, n), and the per-path sums of weights[g] times
    ``dets`` of row g, which are zero without ``dets``.
    """
    recorded = np.empty((paths, rows.size, n))
    total = np.zeros(paths)
    g0 = 0
    for plane in planes:
        g1 = g0 + len(plane)
        i0, i1 = np.searchsorted(rows, (g0, g1))
        recorded[:, i0:i1] = plane[rows[i0:i1] - g0].transpose(1, 0, 2)
        if dets is not None:
            _accumulate(total, dets(plane), weights[g0:g1])
        g0 = g1
    return recorded, total


def _run(planes, cfg: SimConfig, n: int, scheme: str, dets=None, threads: int = 1,
         record: bool = True):
    """Every block of paths through the path kernel ``planes(rngs)`` on ``threads`` workers.

    Returns the ensemble of the rows of ``record_times`` (None unless
    ``record``) and per path the trapezoidal time average of ``dets`` along
    the full grid (zeros without ``dets``).
    """
    if threads < 1:
        raise InvalidConfig(f"threads must be >= 1, got {threads}")
    if record:
        _check_ensemble_size(cfg, n)
    rows = cfg.record_indices if record else np.empty(0, dtype=int)
    times = cfg.times
    weights = _trapezoid_weights(times)
    recorded = np.empty((cfg.n_paths, rows.size, n))
    averages = np.empty(cfg.n_paths)

    def run(span):
        lo, hi = span
        recorded[lo:hi], total = _walk(
            planes(_rngs(cfg, lo, hi)), hi - lo, n, rows, weights, dets
        )
        averages[lo:hi] = total / (times[-1] - times[0])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run, _blocks(cfg.n_paths, cfg.block_size)))
    if not record:
        return None, averages
    return PathEnsemble(times=times[rows], variance_paths=recorded, scheme=scheme), averages


def _paths_last(plane: np.ndarray) -> np.ndarray:
    """A (rows, paths, assets) view of a plane stored (rows, assets, paths).

    The path kernels store planes asset-major, so per-asset parameters
    broadcast along the contiguous path axis; the determinant kernels and
    the walker read them as (rows, paths, assets).
    """
    return plane.transpose(0, 2, 1)


def _return_normals(rngs, cfg: SimConfig, n: int) -> np.ndarray:
    """Each path's n_steps * n return normals, step-major, after its variance draws."""
    eps = np.empty((len(rngs), cfg.n_steps, n))
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=eps[j])
    return eps


# Heston paths


def _heston_planes(portfolio: HestonPortfolio, cfg: SimConfig, rngs):
    """Full-truncation Euler variance planes of the paths of ``rngs``.

    The recorded variance is the floored value while the raw state carries
    the excursion.
    """
    n = portfolio.n
    B = len(rngs)
    k, theta2, sigma0_2, gamma = (
        np.array([[getattr(a, name)] for a in portfolio.assets])
        for name in ("k", "theta2", "sigma0_2", "gamma")
    )
    dt = cfg.dt
    sq_dt = math.sqrt(dt)

    state = np.repeat(sigma0_2, B, axis=1)
    yield _paths_last(state[np.newaxis].copy())
    floored = np.maximum(state, 0.0)
    drawn = np.empty((B, _CHUNK * n))
    drift = np.empty((n, B))
    shock = np.empty((n, B))
    for s0, s1 in _chunks(cfg.n_steps):
        c = s1 - s0
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=drawn[j, : c * n])
        z = drawn[:, : c * n].reshape(B, c, n).transpose(1, 2, 0).copy()
        plane = np.empty((c, n, B))
        for s in range(c):
            # state += k (theta2 - floored) dt + gamma sqrt(floored) sqrt(dt) z in place,
            # one operation at a time in the order of that expression
            np.subtract(theta2, floored, out=drift)
            drift *= k
            drift *= dt
            np.sqrt(floored, out=shock)
            shock *= gamma
            shock *= sq_dt
            shock *= z[s]
            state += drift
            state += shock
            floored = np.maximum(state, 0.0, out=plane[s])
        yield _paths_last(plane)


def simulate_heston(portfolio: HestonPortfolio, cfg: SimConfig) -> PathEnsemble:
    """CIR variance paths per asset with independent drivers.

    Return correlations do not enter the variance paths; they are applied
    only in determinant evaluation through C.
    """
    scheme = _check_scheme(cfg, "full_truncation_euler")
    return _run(lambda rngs: _heston_planes(portfolio, cfg, rngs), cfg, portfolio.n, scheme)[0]


# BNS paths


def _resolve_subordinator(asset) -> GammaOuSpec | None:
    """Simulation law for one asset; None means the deterministic drift Z_t = kappa1 t."""
    if asset.subordinator is not None:
        return asset.subordinator
    if asset.kappa2 == 0.0:
        return None
    if asset.kappa1 > 0.0:
        return GammaOuSpec.from_cumulants(asset.kappa1, asset.kappa2)
    raise MissingSubordinatorSpec(
        "kappa1 = 0 with kappa2 > 0 does not determine a jump law; "
        "set an explicit subordinator spec"
    )


def _draw_jumps(rng: np.random.Generator, spec: GammaOuSpec, lambda_: float, horizon: float):
    """Jump times/sizes of Z_{lambda t} on [0, horizon): Poisson rate a*lambda."""
    count = rng.poisson(spec.a * lambda_ * horizon)
    times = rng.uniform(0.0, horizon, count)
    sizes = rng.exponential(1.0 / spec.b, count)
    return times, sizes


def _step_index(t_jump: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """The step [s dt, (s + 1) dt) of each jump time in [0, horizon)."""
    return np.minimum((t_jump / cfg.dt).astype(int), cfg.n_steps - 1)


def _bns_planes(p: BnsPortfolioParams, cfg: SimConfig, rngs):
    """Exact OU variance planes of the paths of ``rngs``.

    Every path's jumps are drawn first. Each jump is keyed by its cell
    (step, asset, path) of the stored planes and the keys sorted stably, so
    a chunk's arrivals are one slice, and jumps sharing a cell add up in
    draw order.
    """
    n = p.n
    B = len(rngs)
    lam = p.lambda_
    dt = cfg.dt
    decay = math.exp(-lam * dt)
    horizon = cfg.n_steps * dt
    specs = [_resolve_subordinator(a) for a in p.assets]
    # deterministic subordinator: integral of e^{-lam(t+dt-s)} kappa1 lam ds per step
    drift = np.array([
        [a.kappa1 * (1.0 - decay) if spec is None and a.kappa1 > 0.0 else 0.0]
        for a, spec in zip(p.assets, specs)
    ])

    owners, counts, t_jump, sizes = [], [], [np.empty(0)], [np.empty(0)]
    for j, rng in enumerate(rngs):
        for i, spec in enumerate(specs):
            if spec is not None:
                times, jumps = _draw_jumps(rng, spec, lam, horizon)
                owners.append(i * B + j)
                counts.append(times.size)
                t_jump.append(times)
                sizes.append(jumps)
    t_jump = np.concatenate(t_jump)
    steps = _step_index(t_jump, cfg)
    cells = steps * (n * B) + np.repeat(np.array(owners, dtype=int), counts)
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    weights = (np.concatenate(sizes) * np.exp(-lam * ((steps + 1) * dt - t_jump)))[order]

    state = np.repeat([[a.sigma0_2] for a in p.assets], B, axis=1)
    yield _paths_last(state[np.newaxis].copy())
    for s0, s1 in _chunks(cfg.n_steps):
        first = s0 * n * B
        lo, hi = np.searchsorted(cells, (first, s1 * n * B))
        plane = np.zeros((s1 - s0, n, B))
        np.add.at(plane.reshape(-1), cells[lo:hi] - first, weights[lo:hi])
        if drift.any():
            plane += drift
        for s in range(s1 - s0):
            plane[s] += decay * state
            state = plane[s]
        yield _paths_last(plane)


def simulate_bns(p: BnsPortfolioParams, cfg: SimConfig) -> PathEnsemble:
    """Exact-in-law OU variance paths, independent subordinator per asset.

    The common jump Z* enters only the return equations, so it plays no part
    here; ``jump_marks`` stays empty.
    """
    scheme = _check_scheme(cfg, "exact_ou")
    return _run(lambda rngs: _bns_planes(p, cfg, rngs), cfg, p.n, scheme)[0]


# realized generalized variance


def _summarize(avgs: np.ndarray) -> McEstimate:
    n = avgs.size
    mean = float(np.mean(avgs))
    se = float(np.std(avgs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
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
    _accumulate(total, dets.T, _trapezoid_weights(times))
    return _summarize(total / (times[-1] - times[0]))


def _streaming_estimate(planes, dets, cfg: SimConfig, n: int, scheme: str, threads: int,
                        return_ensemble: bool):
    ensemble, averages = _run(planes, cfg, n, scheme, dets, threads, record=return_ensemble)
    estimate = _summarize(averages)
    return (estimate, ensemble) if return_ensemble else estimate


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
    return _streaming_estimate(
        lambda rngs: _heston_planes(portfolio, cfg, rngs),
        lambda v: det_sigma1_values(v, portfolio.corr),
        cfg, portfolio.n, scheme, threads, return_ensemble,
    )


def bns_realized_variance_mc(
    p: BnsPortfolioParams,
    corr: CorrelationMatrix,
    cfg: SimConfig,
    threads: int = 1,
    *,
    return_ensemble: bool = False,
):
    """Streaming BNS estimate of the |Sigma_2| time average on the full grid.

    With ``return_ensemble``, returns (estimate, ensemble), the ensemble
    being ``simulate_bns(p, cfg)`` recorded in the same pass.
    """
    scheme = _check_scheme(cfg, "exact_ou")
    if p.n != corr.n:
        raise DimensionMismatch(f"{p.n} assets vs {corr.n}x{corr.n} correlation")
    return _streaming_estimate(
        lambda rngs: _bns_planes(p, cfg, rngs),
        lambda v: det_sigma2_values(v, corr, p.rho, p.lambda_, p.kappa2_star),
        cfg, p.n, scheme, threads, return_ensemble,
    )


# price paths (data-pipeline plumbing, not used by the pricing oracle)


def _corr_factor(corr: CorrelationMatrix) -> np.ndarray:
    try:
        return np.linalg.cholesky(corr.c)
    except np.linalg.LinAlgError:
        w, vecs = np.linalg.eigh(corr.c)
        return vecs * np.sqrt(np.clip(w, 0.0, None))


def _price_inputs(n: int, s0, mu, beta):
    """s0, mu and beta broadcast to one finite value per asset, with s0 > 0."""
    s0, mu, beta = (np.broadcast_to(np.asarray(x, dtype=float), (n,)) for x in (s0, mu, beta))
    if not all(np.all(np.isfinite(x)) for x in (s0, mu, beta)):
        raise ValidationError("s0, mu and beta must be finite")
    if np.any(s0 <= 0.0):
        raise ValidationError("initial prices must be > 0")
    return s0, mu, beta


def _log_euler_prices(v, eps, L, s0, mu, beta, dt: float, jumps=None) -> np.ndarray:
    """s0 exp(x) for the log-Euler paths x driven by variances v and normals eps.

    The increment of step s is (mu + beta v_s - v_s / 2) dt
    + sqrt(v_s dt) (L eps_s), plus ``jumps[:, s]`` when given.
    """
    v_start = v[:, :-1, :]
    incr = (mu + beta * v_start - 0.5 * v_start) * dt
    incr += np.sqrt(v_start) * math.sqrt(dt) * (eps @ L.T)
    if jumps is not None:
        incr += jumps
    x = np.zeros_like(v)
    x[:, 1:] = np.cumsum(incr, axis=1)
    return s0 * np.exp(x)


def simulate_heston_prices(
    portfolio: HestonPortfolio, cfg: SimConfig, s0, mu=0.0
) -> PricePaths:
    """Log-Euler price paths with C-correlated return drivers."""
    _check_scheme(cfg, "full_truncation_euler")
    _check_ensemble_size(cfg, 2 * portfolio.n)
    s0, mu, beta = _price_inputs(portfolio.n, s0, mu, 0.0)
    L = _corr_factor(portfolio.corr)
    every_row = np.arange(cfg.n_steps + 1)
    prices = np.empty((cfg.n_paths, cfg.n_steps + 1, portfolio.n))
    variances = np.empty_like(prices)
    for lo, hi in _blocks(cfg.n_paths, cfg.block_size):
        rngs = _rngs(cfg, lo, hi)
        v, _ = _walk(_heston_planes(portfolio, cfg, rngs), hi - lo, portfolio.n, every_row)
        eps = _return_normals(rngs, cfg, portfolio.n)
        prices[lo:hi] = _log_euler_prices(v, eps, L, s0, mu, beta, cfg.dt)
        variances[lo:hi] = v
    return PricePaths(times=cfg.times, prices=prices, variance_paths=variances)


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
    _check_ensemble_size(cfg, 2 * p.n)
    if p.n != corr.n:
        raise DimensionMismatch(f"{p.n} assets vs {corr.n}x{corr.n} correlation")
    s0, mu, beta = _price_inputs(p.n, s0, mu, beta)
    if p.kappa2_star > 0.0:
        if subordinator_star is None:
            raise MissingSubordinatorSpec(
                "kappa2_star > 0 requires subordinator_star to fix the law of Z*"
            )
        if not math.isclose(subordinator_star.kappa2, p.kappa2_star, rel_tol=1e-8):
            raise ValidationError(
                f"subordinator_star has kappa2 = {subordinator_star.kappa2}, "
                f"portfolio states kappa2_star = {p.kappa2_star}"
            )
    L = _corr_factor(corr)
    every_row = np.arange(cfg.n_steps + 1)
    horizon = cfg.n_steps * cfg.dt
    prices = np.empty((cfg.n_paths, cfg.n_steps + 1, p.n))
    variances = np.empty_like(prices)
    marks: list[tuple[np.ndarray, np.ndarray]] = []
    for lo, hi in _blocks(cfg.n_paths, cfg.block_size):
        rngs = _rngs(cfg, lo, hi)
        v, _ = _walk(_bns_planes(p, cfg, rngs), hi - lo, p.n, every_row)
        eps = _return_normals(rngs, cfg, p.n)
        star = np.zeros((hi - lo, cfg.n_steps))
        for j, rng in enumerate(rngs):
            if subordinator_star is None:
                marks.append((np.empty(0), np.empty(0)))
                continue
            t_jump, sizes = _draw_jumps(rng, subordinator_star, p.lambda_, horizon)
            np.add.at(star[j], _step_index(t_jump, cfg), sizes)
            marks.append((t_jump, sizes))
        prices[lo:hi] = _log_euler_prices(
            v, eps, L, s0, mu, beta, cfg.dt, star[:, :, np.newaxis] * p.rho
        )
        variances[lo:hi] = v
    return PricePaths(
        times=cfg.times, prices=prices, variance_paths=variances, jump_marks=tuple(marks)
    )


def ensemble_to_csv(ensemble: PathEnsemble, path) -> None:
    """One row per (path, time) with per-asset variances.

    The bytes of ``csv.writer``'s default dialect, written one formatted
    path at a time: the time strings are formatted once.
    """
    n = ensemble.n_assets
    fields = ",%.17g" * n + "\r\n"
    formats = [f"%d,{t:.12g}{fields}" for t in ensemble.times]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["path", "time"] + [f"var_{i + 1}" for i in range(n)]) + "\r\n")
        for j, path_rows in enumerate(ensemble.variance_paths):
            fh.write("".join(fmt % (j, *row) for fmt, row in zip(formats, path_rows.tolist())))
