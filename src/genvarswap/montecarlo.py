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

One block pipeline serves all three routes. Each model has one block
simulator, the only code that draws per-path randomness, which returns the
variance paths of paths [lo, hi). The ensemble route stores them, the
streaming route reduces them to per-path time averages of |Sigma| block by
block, and the price route runs one log-Euler kernel over them.

Reproducibility: every path owns a counter-based RNG stream keyed by
(seed, path index), so ensembles are identical under any block size, thread
count, or execution order. Per path the draw layout is fixed:

* Heston variance paths consume n_steps * n_assets standard normals,
  step-major.
* Heston price paths consume the variance normals first, then another
  n_steps * n_assets return normals.
* BNS variance paths consume, per asset in portfolio order: one Poisson
  jump count over [0, horizon), that many uniform jump times, that many
  exponential jump sizes. Assets with a deterministic subordinator draw
  nothing.
* BNS price paths consume the variance draws, then n_steps * n_assets
  return normals, then the common jump Z* (count, times, sizes).

Aggregation is a deterministic pairwise reduction over the per-path
averages, so results are schedule-independent.
"""

from __future__ import annotations

import csv
import math
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
        if self.n_paths < 1:
            raise InvalidConfig(f"n_paths must be >= 1, got {self.n_paths}")
        if not (0.0 < self.dt <= self.horizon < math.inf):
            raise InvalidConfig(
                f"need 0 < dt <= horizon < inf, got dt={self.dt}, horizon={self.horizon}"
            )
        if not 0 <= int(self.seed) < 2**64:
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


def _blocks(n_paths: int, block_size: int):
    for lo in range(0, n_paths, block_size):
        yield lo, min(lo + block_size, n_paths)


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


# block pipeline: every route walks the paths in blocks of variance paths


def _variances(block, model, cfg: SimConfig):
    """The (lo, hi) -> variance paths producer of a model's block simulator."""
    return lambda lo, hi: block(model, cfg, lo, hi, price_draws=False)[0]


def _ensemble(variances, cfg: SimConfig, n: int, scheme: str) -> PathEnsemble:
    _check_ensemble_size(cfg, n)
    rec = cfg.record_indices
    out = np.empty((cfg.n_paths, rec.size, n))
    for lo, hi in _blocks(cfg.n_paths, cfg.block_size):
        out[lo:hi] = variances(lo, hi)[:, rec, :]
    return PathEnsemble(times=cfg.times[rec], variance_paths=out, scheme=scheme)


# Heston paths


def _heston_block(
    portfolio: HestonPortfolio, cfg: SimConfig, lo: int, hi: int, price_draws: bool
):
    """Full-truncation Euler variance paths for paths [lo, hi).

    Returns (variances, return_normals); the reported variance is the floored
    value while the raw state carries the excursion, and the return normals
    are drawn (after the variance normals) only when requested.
    """
    n = portfolio.n
    n_steps = cfg.n_steps
    B = hi - lo
    k = np.array([a.k for a in portfolio.assets])
    theta2 = np.array([a.theta2 for a in portfolio.assets])
    sigma0_2 = np.array([a.sigma0_2 for a in portfolio.assets])
    gamma = np.array([a.gamma for a in portfolio.assets])

    z = np.empty((B, n_steps, n))
    eps = np.empty((B, n_steps, n)) if price_draws else None
    for j in range(B):
        rng = _path_rng(cfg.seed, lo + j)
        z[j] = rng.standard_normal(n_steps * n).reshape(n_steps, n)
        if price_draws:
            eps[j] = rng.standard_normal(n_steps * n).reshape(n_steps, n)

    dt = cfg.dt
    sq_dt = math.sqrt(dt)
    v = np.empty((B, n_steps + 1, n))
    v[:, 0, :] = sigma0_2
    state = np.broadcast_to(sigma0_2, (B, n)).copy()
    for s in range(n_steps):
        floored = np.maximum(state, 0.0)
        state = state + k * (theta2 - floored) * dt + gamma * np.sqrt(floored) * sq_dt * z[:, s, :]
        v[:, s + 1, :] = np.maximum(state, 0.0)
    return v, eps


def simulate_heston(portfolio: HestonPortfolio, cfg: SimConfig) -> PathEnsemble:
    """CIR variance paths per asset with independent drivers.

    Return correlations do not enter the variance paths; they are applied
    only in determinant evaluation through C.
    """
    scheme = _check_scheme(cfg, "full_truncation_euler")
    return _ensemble(_variances(_heston_block, portfolio, cfg), cfg, portfolio.n, scheme)


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


def _bns_block(
    p: BnsPortfolioParams,
    cfg: SimConfig,
    lo: int,
    hi: int,
    price_draws: bool,
    star_spec: GammaOuSpec | None = None,
):
    """Exact OU variance paths for paths [lo, hi).

    Returns (variances, return_normals, star_jumps); the latter two are only
    drawn when requested, keeping variance paths identical between the
    variance-only and price simulators.
    """
    n = p.n
    n_steps = cfg.n_steps
    B = hi - lo
    lam = p.lambda_
    dt = cfg.dt
    decay = math.exp(-lam * dt)
    horizon = n_steps * dt
    specs = [_resolve_subordinator(a) for a in p.assets]

    rows: list[list[np.ndarray]] = [[] for _ in range(n)]
    bins: list[list[np.ndarray]] = [[] for _ in range(n)]
    weights: list[list[np.ndarray]] = [[] for _ in range(n)]
    eps = np.empty((B, n_steps, n)) if price_draws else None
    star_jumps: list[tuple[np.ndarray, np.ndarray]] | None = [] if price_draws else None

    for j in range(B):
        rng = _path_rng(cfg.seed, lo + j)
        for i, spec in enumerate(specs):
            if spec is None:
                continue
            t_jump, sizes = _draw_jumps(rng, spec, lam, horizon)
            if t_jump.size:
                b = _step_index(t_jump, cfg)
                rows[i].append(np.full(b.size, j))
                bins[i].append(b)
                weights[i].append(sizes * np.exp(-lam * ((b + 1) * dt - t_jump)))
        if price_draws:
            eps[j] = rng.standard_normal(n_steps * n).reshape(n_steps, n)
            if star_spec is not None:
                star_jumps.append(_draw_jumps(rng, star_spec, lam, horizon))
            else:
                star_jumps.append((np.empty(0), np.empty(0)))

    v = np.empty((B, n_steps + 1, n))
    for i, asset in enumerate(p.assets):
        arrivals = np.zeros((B, n_steps))
        if rows[i]:
            np.add.at(
                arrivals,
                (np.concatenate(rows[i]), np.concatenate(bins[i])),
                np.concatenate(weights[i]),
            )
        if specs[i] is None and asset.kappa1 > 0.0:
            # deterministic subordinator: integral of e^{-lam(t+dt-s)} kappa1 lam ds
            arrivals += asset.kappa1 * (1.0 - decay)
        col = np.empty((B, n_steps + 1))
        col[:, 0] = asset.sigma0_2
        for s in range(n_steps):
            col[:, s + 1] = decay * col[:, s] + arrivals[:, s]
        v[:, :, i] = col
    return v, eps, star_jumps


def simulate_bns(p: BnsPortfolioParams, cfg: SimConfig) -> PathEnsemble:
    """Exact-in-law OU variance paths, independent subordinator per asset.

    The common jump Z* enters only the return equations, so it plays no part
    here; ``jump_marks`` stays empty.
    """
    scheme = _check_scheme(cfg, "exact_ou")
    return _ensemble(_variances(_bns_block, p, cfg), cfg, p.n, scheme)


# realized generalized variance


def _path_averages(dets: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.trapezoid(dets, times, axis=1) / (times[-1] - times[0])


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
    if ensemble.times.size < 2:
        raise ValidationError("need at least two recorded times to integrate")
    jump_args = (rho is not None, lambda_ is not None, kappa2_star is not None)
    if any(jump_args) and not all(jump_args):
        raise ValidationError("rho, lambda_ and kappa2_star must be given together")
    if all(jump_args):
        dets = det_sigma2_values(ensemble.variance_paths, corr, rho, lambda_, kappa2_star)
    else:
        dets = det_sigma1_values(ensemble.variance_paths, corr)
    return _summarize(_path_averages(dets, ensemble.times))


def _streaming_estimate(variances, dets, cfg: SimConfig, threads: int) -> McEstimate:
    """Per-path time averages of dets(variances(lo, hi)), block by block on ``threads`` workers."""
    if threads < 1:
        raise InvalidConfig(f"threads must be >= 1, got {threads}")
    avgs = np.empty(cfg.n_paths)
    times = cfg.times

    def run(span):
        lo, hi = span
        avgs[lo:hi] = _path_averages(dets(variances(lo, hi)), times)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run, _blocks(cfg.n_paths, cfg.block_size)))
    return _summarize(avgs)


def heston_realized_variance_mc(
    portfolio: HestonPortfolio, cfg: SimConfig, threads: int = 1
) -> McEstimate:
    """Streaming Heston estimate on the full step grid.

    Identical path-for-path to ``mc_realized_variance(simulate_heston(...))``
    without materializing the ensemble; thread count does not affect the
    result.
    """
    _check_scheme(cfg, "full_truncation_euler")
    return _streaming_estimate(
        _variances(_heston_block, portfolio, cfg),
        lambda v: det_sigma1_values(v, portfolio.corr),
        cfg, threads,
    )


def bns_realized_variance_mc(
    p: BnsPortfolioParams, corr: CorrelationMatrix, cfg: SimConfig, threads: int = 1
) -> McEstimate:
    """Streaming BNS estimate of the |Sigma_2| time average on the full grid."""
    _check_scheme(cfg, "exact_ou")
    if p.n != corr.n:
        raise DimensionMismatch(f"{p.n} assets vs {corr.n}x{corr.n} correlation")
    return _streaming_estimate(
        _variances(_bns_block, p, cfg),
        lambda v: det_sigma2_values(v, corr, p.rho, p.lambda_, p.kappa2_star),
        cfg, threads,
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
    prices = np.empty((cfg.n_paths, cfg.n_steps + 1, portfolio.n))
    variances = np.empty_like(prices)
    for lo, hi in _blocks(cfg.n_paths, cfg.block_size):
        v, eps = _heston_block(portfolio, cfg, lo, hi, price_draws=True)
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
    prices = np.empty((cfg.n_paths, cfg.n_steps + 1, p.n))
    variances = np.empty_like(prices)
    marks: list[tuple[np.ndarray, np.ndarray]] = []
    for lo, hi in _blocks(cfg.n_paths, cfg.block_size):
        v, eps, star_jumps = _bns_block(
            p, cfg, lo, hi, price_draws=True, star_spec=subordinator_star
        )
        star = np.zeros((hi - lo, cfg.n_steps))
        for j, (t_jump, sizes) in enumerate(star_jumps):
            np.add.at(star[j], _step_index(t_jump, cfg), sizes)
        prices[lo:hi] = _log_euler_prices(
            v, eps, L, s0, mu, beta, cfg.dt, star[:, :, np.newaxis] * p.rho
        )
        variances[lo:hi] = v
        marks.extend(star_jumps)
    return PricePaths(
        times=cfg.times, prices=prices, variance_paths=variances, jump_marks=tuple(marks)
    )


def ensemble_to_csv(ensemble: PathEnsemble, path) -> None:
    """One row per (path, time) with per-asset variances."""
    header = ["path", "time"] + [f"var_{i + 1}" for i in range(ensemble.n_assets)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(ensemble.n_paths):
            for s, t in enumerate(ensemble.times):
                row = [j, f"{t:.12g}"] + [
                    f"{x:.17g}" for x in ensemble.variance_paths[j, s]
                ]
                writer.writerow(row)
