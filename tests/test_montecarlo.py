"""Simulation schemes, RNG reproducibility, and the Monte Carlo estimators."""

import csv
import math
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import random_correlation
from scipy import stats

from genvarswap import (
    BnsAssetParams,
    BnsPortfolioParams,
    GammaOuSpec,
    HestonAssetParams,
    HestonPortfolio,
    McEstimate,
    PathEnsemble,
    SimConfig,
    bns_realized_variance_mc,
    heston_realized_variance_mc,
    mc_realized_variance,
    simulate_bns,
    simulate_heston,
    validate_correlation,
)
from genvarswap.errors import (
    DimensionMismatch,
    InvalidConfig,
    MissingSubordinatorSpec,
    NumericalError,
    ValidationError,
)
from genvarswap.heston import expected_realized_variance, expected_variance
from genvarswap.bns import expected_variance_bns, variance_of_variance_bns
from genvarswap import montecarlo
from genvarswap.montecarlo import (
    ensemble_to_csv,
    simulate_bns_prices,
    simulate_heston_prices,
)


def equicorrelated(n):
    return validate_correlation(np.full((n, n), 0.3) + 0.7 * np.eye(n))


CORR = equicorrelated(3)

# gamma this small leaves the diffusion term below one ulp of the variance
# state, so paths follow the Euler-discretized mean ODE exactly
TINY_GAMMA = 1e-300


def heston_portfolio(gamma=0.4, sigma0_2s=(0.04, 0.06, 0.05)):
    assets = tuple(
        HestonAssetParams(k=k, theta2=t2, sigma0_2=s2, gamma=gamma)
        for k, t2, s2 in zip((2.0, 1.0, 3.0), (0.09, 0.05, 0.07), sigma0_2s)
    )
    return HestonPortfolio(assets=assets, corr=CORR)


def bns_portfolio(
    kappa1s=(0.05, 0.07, 0.06),
    kappa2s=(0.004, 0.006, 0.005),
    rhos=(0.0, 0.0, 0.0),
    kappa2_star=0.0,
    sigma0_2s=(0.04, 0.06, 0.05),
    lambda_=2.0,
):
    assets = tuple(
        BnsAssetParams(sigma0_2=s, kappa1=k1, kappa2=k2, rho=r)
        for s, k1, k2, r in zip(sigma0_2s, kappa1s, kappa2s, rhos)
    )
    return BnsPortfolioParams(assets=assets, lambda_=lambda_, kappa2_star=kappa2_star)


# the CI "mixed" model: a leveraged drift-only asset (kappa2 = 0) and an asset without leverage
MIXED = dict(kappa2s=(0.004, 0.0, 0.005), rhos=(-0.3, -0.2, 0.0), kappa2_star=0.01)

# with MIXED, asset 0 jumps at a lambda = (2 kappa1^2 / kappa2) lambda = 100 per unit time,
# and each of its jumps decays the drift-only asset's excess over kappa1
HIGH_RATE = dict(kappa1s=(0.5, 0.07, 0.06), kappa2s=(0.01, 0.0, 0.005))


def reference_jump_draws(seed, j, lane, spec, lambda_, horizon):
    """Path j's jump times and sizes on counter lane ``lane``, read through numpy's own Philox.

    The stream is that of Philox(key=(seed, j), counter=(0, lane, 0, 0)): its
    first uniform gives the count N by scipy's Poisson quantile at rate
    a lambda horizon, the next N give the times horizon U and the N after
    them the sizes -log1p(-U) / b.
    """
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, j], dtype=np.uint64), counter=np.array([0, lane, 0, 0], dtype=np.uint64)
    ))
    count = int(stats.poisson.ppf(rng.random(), spec.a * lambda_ * horizon))
    times = rng.uniform(0.0, horizon, count)
    return times, -np.log1p(-rng.random(count)) / spec.b


def reference_asset_jumps(p, cfg, j, i):
    """Path j's jump times and sizes of asset i, on lane i + 1 (none for a drift-only asset)."""
    asset = p.assets[i]
    if asset.kappa2 == 0.0:
        return np.empty(0), np.empty(0)
    spec = GammaOuSpec.from_cumulants(asset.kappa1, asset.kappa2)
    return reference_jump_draws(cfg.seed, j, i + 1, spec, p.lambda_, cfg.n_steps * cfg.dt)


def bns_reference_jumps(p, cfg, j):
    """Path j's jumps (time, asset, size) by its own (seed, path) stream, in time order.

    Jumps at one time keep asset and draw order (``sorted`` is stable).
    """
    jumps = []
    for i in range(p.n):
        t_jump, sizes = reference_asset_jumps(p, cfg, j, i)
        jumps += [(t, i, size) for t, size in zip(t_jump, sizes)]
    return sorted(jumps, key=lambda jump: jump[0])


def bns_levels(p):
    """The level each variance decays to: kappa1 without jumps, else 0."""
    return np.array([0.0 if a.kappa2 > 0.0 else a.kappa1 for a in p.assets])


def bns_reference_events(p, cfg, j):
    """Path j as (time, variances right after) of its start and each jump: a plain exact-OU loop."""
    lam, level = p.lambda_, bns_levels(p)
    x = np.array([a.sigma0_2 for a in p.assets])
    events = [(0.0, x.copy())]
    for t, i, size in bns_reference_jumps(p, cfg, j):
        x = level + (x - level) * math.exp(-lam * (t - events[-1][0]))
        x[i] += size
        events.append((t, x.copy()))
    return events


def heston_reference_paths(pf, cfg):
    """Full-truncation Euler rows of every path, (paths, n_steps + 1, n), by a plain loop
    over each path's own (seed, path) stream, step-major."""
    k, theta2, sigma0_2, gamma = (
        np.array([getattr(a, name) for a in pf.assets]) for name in ("k", "theta2", "sigma0_2", "gamma")
    )
    paths = []
    for j in range(cfg.n_paths):
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, j], dtype=np.uint64)))
        z = rng.standard_normal(cfg.n_steps * pf.n).reshape(cfg.n_steps, pf.n)
        state = sigma0_2.copy()
        rows = [np.maximum(state, 0.0)]
        for s in range(cfg.n_steps):
            state = state + k * (theta2 - rows[-1]) * cfg.dt + gamma * np.sqrt(rows[-1]) * math.sqrt(cfg.dt) * z[s]
            rows.append(np.maximum(state, 0.0))
        paths.append(rows)
    return np.array(paths)


def bns_reference_path(p, cfg, j):
    """Path j of simulate_bns(p, cfg): each recorded time from the last event at or before it."""
    lam, level = p.lambda_, bns_levels(p)
    events = bns_reference_events(p, cfg, j)
    rows = []
    for t in cfg.times[cfg.record_indices]:
        t_e, x = [event for event in events if event[0] <= t][-1]
        rows.append(level + (x - level) * math.exp(-lam * (t - t_e)))
    return np.array(rows)


def bns_reference_integral(p, corr, cfg, j, nodes=20):
    """Path j's integral of |Sigma_2| over the horizon: Gauss-Legendre on each jump-free interval.

    |Sigma_2| is the determinant of D C D + lambda Var[Z_1*] rho rho^T at each node.
    """
    lam, level, rho = p.lambda_, bns_levels(p), p.rho
    horizon = cfg.n_steps * cfg.dt
    events = bns_reference_events(p, cfg, j)
    ends = [t for t, _ in events[1:]] + [horizon]
    u, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for (t0, x), t1 in zip(events, ends):
        s = 0.5 * (t1 - t0) * (u + 1.0)
        v = level + (x - level) * np.exp(-lam * s)[:, None]
        sigma = np.sqrt(v)
        matrices = sigma[:, :, None] * corr.c * sigma[:, None, :]
        matrices += lam * p.kappa2_star * np.outer(rho, rho)
        total += 0.5 * (t1 - t0) * float(w @ np.linalg.det(matrices))
    return total


def bns_grid_recursion_path(p, cfg, j):
    """Path j on the full grid by the step recursion of the grid simulator.

    x_{s+1} = e^{-lambda dt} x_s plus the step's jumps, each decayed from its
    time to the step end, added one at a time in draw order. It compounds
    rounding through every step; the exact rows agree with it to rounding.
    """
    dt, steps = cfg.dt, cfg.n_steps
    decay = math.exp(-p.lambda_ * dt)
    columns = []
    for i, asset in enumerate(p.assets):
        arrivals = np.zeros(steps)
        if asset.kappa2 > 0.0:
            t_jump, sizes = reference_asset_jumps(p, cfg, j, i)
            bins = np.minimum((t_jump / dt).astype(int), steps - 1)
            weights = sizes * np.exp(-p.lambda_ * ((bins + 1) * dt - t_jump))
            for b, w in zip(bins, weights):
                arrivals[b] += w
        else:
            arrivals += asset.kappa1 * (1.0 - decay)
        column = [asset.sigma0_2]
        for s in range(steps):
            column.append(decay * column[-1] + arrivals[s])
        columns.append(column)
    return np.array(columns).T


class TestSimConfig:
    def test_grid_properties(self):
        cfg = SimConfig(n_paths=10, dt=0.25, horizon=1.0, seed=1)
        assert cfg.n_steps == 4
        np.testing.assert_allclose(cfg.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(cfg.record_indices, [0, 1, 2, 3, 4])

    def test_record_times_mapped_to_grid(self):
        cfg = SimConfig(n_paths=10, dt=0.25, horizon=1.0, seed=1, record_times=(0.5, 1.0))
        np.testing.assert_array_equal(cfg.record_indices, [2, 4])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_paths=0),
            dict(dt=0.0),
            dict(dt=2.0),
            dict(dt=0.3),
            dict(seed=-1),
            dict(seed=2**64),
            dict(scheme="euler"),
            dict(block_size=0),
            dict(record_times=()),
            dict(record_times=(0.5, 0.25)),
            dict(record_times=(0.13,)),
            dict(record_times=(1.5,)),
            dict(horizon=math.inf),
            dict(dt=math.inf, horizon=math.inf),
            dict(horizon=math.nan),
            dict(dt=math.nan),
            dict(n_paths=2.5),
            dict(n_paths=True),
            dict(n_paths=math.inf),
            dict(n_paths="10"),
            dict(block_size=math.inf),
            dict(block_size=7.5),
            dict(block_size=True),
            dict(seed=2.5),
            dict(seed=False),
            dict(seed=math.nan),
            dict(seed=np.float64(math.inf)),
            dict(dt="0.25"),
            dict(dt=np.bool_(True)),
            dict(horizon=True),
            dict(horizon=None),
            dict(horizon=10**400),
            dict(dt=1e-300),
            dict(horizon=1e300),
            dict(dt=1.0, horizon=2**28 + 1),
            dict(n_paths=2**28 + 1),
            dict(record_times=("0.0", 1.0)),
            dict(record_times=(0.0, True)),
            # 0.5 and 0.5 + 1e-12 are both on the grid, on one row
            dict(dt=0.01, record_times=(0.5, 0.500000000001)),
            # within the horizon's 1e-12 slack, but on row n_steps + 1
            dict(dt=1e-12, horizon=1e-9, record_times=(0.0, 1e-9 + 1e-12)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(n_paths=10, dt=0.25, horizon=1.0, seed=1)
        base.update(kwargs)
        with pytest.raises(InvalidConfig):
            SimConfig(**base)

    def test_step_count_up_to_the_ensemble_limit_accepted(self):
        """The grid itself is never built here: only the count is checked."""
        cfg = SimConfig(n_paths=1, dt=1.0, horizon=2**28, seed=1)
        assert cfg.n_steps == montecarlo._MAX_ENSEMBLE_ENTRIES

    def test_integral_numbers_normalized(self):
        cfg = SimConfig(
            n_paths=np.int64(10), dt=0.25, horizon=1.0, seed=np.uint64(2**64 - 1),
            block_size=4.0,
        )
        assert (cfg.n_paths, cfg.seed, cfg.block_size) == (10, 2**64 - 1, 4)
        assert all(type(x) is int for x in (cfg.n_paths, cfg.seed, cfg.block_size))

    def test_real_numbers_normalized(self):
        cfg = SimConfig(n_paths=2, dt=np.float32(0.25), horizon=1, seed=1, record_times=(0, 1))
        assert (cfg.dt, cfg.horizon, cfg.record_times) == (0.25, 1.0, (0.0, 1.0))
        assert all(type(x) is float for x in (cfg.dt, cfg.horizon, *cfg.record_times))

    def test_scheme_model_mismatch(self):
        cfg = SimConfig(n_paths=2, dt=0.5, horizon=1.0, seed=1, scheme="exact_ou")
        with pytest.raises(InvalidConfig):
            simulate_heston(heston_portfolio(), cfg)
        cfg = SimConfig(n_paths=2, dt=0.5, horizon=1.0, seed=1, scheme="full_truncation_euler")
        with pytest.raises(InvalidConfig):
            simulate_bns(bns_portfolio(), cfg)

    def test_oversized_ensemble_rejected(self):
        cfg = SimConfig(n_paths=300000, dt=0.001, horizon=1.0, seed=1)
        with pytest.raises(InvalidConfig):
            simulate_heston(heston_portfolio(), cfg)


class TestHestonPaths:
    def test_tiny_gamma_follows_mean_ode(self):
        pf = heston_portfolio(gamma=TINY_GAMMA)
        cfg = SimConfig(n_paths=3, dt=1.0 / 2000.0, horizon=1.0, seed=5)
        ensemble = simulate_heston(pf, cfg)
        # all paths identical: the diffusion term is below one ulp
        np.testing.assert_array_equal(
            ensemble.variance_paths[0], ensemble.variance_paths[1]
        )
        for i, a in enumerate(pf.assets):
            closed = expected_variance(ensemble.times, a)
            np.testing.assert_allclose(
                ensemble.variance_paths[0, :, i], closed, rtol=2e-3
            )

    def test_seed_determinism(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=50, dt=0.01, horizon=0.5, seed=42)
        a = simulate_heston(pf, cfg)
        b = simulate_heston(pf, cfg)
        np.testing.assert_array_equal(a.variance_paths, b.variance_paths)

    def test_block_size_independence(self):
        pf = heston_portfolio()
        base = dict(n_paths=50, dt=0.01, horizon=0.5, seed=42)
        a = simulate_heston(pf, SimConfig(**base, block_size=7))
        b = simulate_heston(pf, SimConfig(**base, block_size=4096))
        np.testing.assert_array_equal(a.variance_paths, b.variance_paths)

    def test_stationary_ensemble_mean(self):
        pf = heston_portfolio(sigma0_2s=(0.09, 0.05, 0.07))
        cfg = SimConfig(n_paths=4000, dt=0.005, horizon=1.0, seed=7)
        ensemble = simulate_heston(pf, cfg)
        final = ensemble.variance_paths[:, -1, :]
        for i, a in enumerate(pf.assets):
            se = float(np.std(final[:, i], ddof=1)) / math.sqrt(cfg.n_paths)
            assert abs(float(np.mean(final[:, i])) - a.theta2) <= 3.0 * se

    def test_record_times_thin_the_full_grid(self):
        pf = heston_portfolio()
        base = dict(n_paths=20, dt=0.25, horizon=1.0, seed=9)
        full = simulate_heston(pf, SimConfig(**base))
        thin = simulate_heston(pf, SimConfig(**base, record_times=(0.5, 1.0)))
        np.testing.assert_array_equal(thin.times, [0.5, 1.0])
        np.testing.assert_array_equal(
            thin.variance_paths, full.variance_paths[:, [2, 4], :]
        )


class TestBnsPaths:
    def test_rate_zero_is_pure_decay(self):
        p = bns_portfolio(kappa1s=(0.0, 0.0, 0.0), kappa2s=(0.0, 0.0, 0.0))
        cfg = SimConfig(n_paths=2, dt=0.01, horizon=1.0, seed=3)
        ensemble = simulate_bns(p, cfg)
        for i, a in enumerate(p.assets):
            expected = a.sigma0_2 * np.exp(-p.lambda_ * ensemble.times)
            np.testing.assert_allclose(ensemble.variance_paths[0, :, i], expected, rtol=1e-12)

    def test_deterministic_subordinator_matches_mean_exactly(self):
        # kappa2 = 0 turns the OU recursion into the exact mean solution
        p = bns_portfolio(kappa2s=(0.0, 0.0, 0.0))
        cfg = SimConfig(n_paths=1, dt=0.02, horizon=2.0, seed=3)
        ensemble = simulate_bns(p, cfg)
        for i, a in enumerate(p.assets):
            closed = expected_variance_bns(ensemble.times, a, p.lambda_)
            np.testing.assert_allclose(ensemble.variance_paths[0, :, i], closed, rtol=1e-12)

    def test_seed_and_block_size_determinism(self):
        p = bns_portfolio()
        base = dict(n_paths=40, dt=0.02, horizon=1.0, seed=11)
        a = simulate_bns(p, SimConfig(**base, block_size=3))
        b = simulate_bns(p, SimConfig(**base, block_size=4096))
        np.testing.assert_array_equal(a.variance_paths, b.variance_paths)

    def test_ensemble_matches_ou_moments(self):
        p = bns_portfolio()
        cfg = SimConfig(n_paths=6000, dt=0.01, horizon=1.0, seed=13)
        ensemble = simulate_bns(p, cfg)
        final = ensemble.variance_paths[:, -1, :]
        for i, a in enumerate(p.assets):
            col = final[:, i]
            mean_se = float(np.std(col, ddof=1)) / math.sqrt(cfg.n_paths)
            assert abs(float(np.mean(col)) - expected_variance_bns(1.0, a, p.lambda_)) <= (
                3.0 * mean_se
            )
            centered_sq = (col - np.mean(col)) ** 2
            var_se = float(np.std(centered_sq, ddof=1)) / math.sqrt(cfg.n_paths)
            assert abs(
                float(np.var(col, ddof=1)) - variance_of_variance_bns(1.0, a, p.lambda_)
            ) <= 3.0 * var_se

    def test_explicit_subordinator_spec_is_honoured(self):
        spec = GammaOuSpec.from_cumulants(0.05, 0.004)
        with_spec = BnsPortfolioParams(
            assets=tuple(
                BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004, subordinator=spec)
                for _ in range(3)
            ),
            lambda_=2.0,
            kappa2_star=0.0,
        )
        derived = bns_portfolio(
            kappa1s=(0.05,) * 3, kappa2s=(0.004,) * 3, sigma0_2s=(0.04,) * 3
        )
        cfg = SimConfig(n_paths=10, dt=0.02, horizon=1.0, seed=17)
        np.testing.assert_array_equal(
            simulate_bns(with_spec, cfg).variance_paths,
            simulate_bns(derived, cfg).variance_paths,
        )

    def test_underdetermined_law_rejected(self):
        p = bns_portfolio(kappa1s=(0.0, 0.05, 0.05), kappa2s=(0.004, 0.004, 0.004))
        cfg = SimConfig(n_paths=2, dt=0.02, horizon=1.0, seed=17)
        with pytest.raises(MissingSubordinatorSpec):
            simulate_bns(p, cfg)


class TestMcRealizedVariance:
    def test_deterministic_stationary_case(self):
        pf = heston_portfolio(gamma=TINY_GAMMA, sigma0_2s=(0.09, 0.05, 0.07))
        cfg = SimConfig(n_paths=16, dt=0.05, horizon=1.0, seed=19)
        est = mc_realized_variance(simulate_heston(pf, cfg), CORR)
        assert est.mean == pytest.approx(CORR.det_c * 0.09 * 0.05 * 0.07, rel=1e-14)
        assert est.std_error == 0.0
        assert est.n_paths == 16

    def test_heston_mean_within_three_standard_errors(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=8000, dt=0.002, horizon=1.0, seed=23)
        est = mc_realized_variance(simulate_heston(pf, cfg), CORR)
        closed = expected_realized_variance(1.0, pf)
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_bns_zero_rho_within_three_standard_errors(self):
        from genvarswap.bns import expected_realized_variance_bns

        p = bns_portfolio()
        cfg = SimConfig(n_paths=8000, dt=0.002, horizon=1.0, seed=29)
        est = mc_realized_variance(
            simulate_bns(p, cfg), CORR, rho=p.rho, lambda_=p.lambda_, kappa2_star=0.0
        )
        closed = expected_realized_variance_bns(1.0, p, CORR)
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_jump_arguments_all_or_none(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=4, dt=0.25, horizon=1.0, seed=1)
        ensemble = simulate_heston(pf, cfg)
        with pytest.raises(ValidationError):
            mc_realized_variance(ensemble, CORR, rho=np.zeros(3))
        with pytest.raises(ValidationError):
            mc_realized_variance(ensemble, CORR, lambda_=1.0, kappa2_star=0.1)

    def test_dimension_mismatch(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=4, dt=0.25, horizon=1.0, seed=1)
        ensemble = simulate_heston(pf, cfg)
        with pytest.raises(DimensionMismatch):
            mc_realized_variance(ensemble, validate_correlation(np.eye(2)))

    def test_single_recorded_time_rejected(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=4, dt=0.25, horizon=1.0, seed=1, record_times=(1.0,))
        ensemble = simulate_heston(pf, cfg)
        with pytest.raises(ValidationError):
            mc_realized_variance(ensemble, CORR)

    ESTIMATORS = {
        "heston_streaming": lambda pf, p, cfg: heston_realized_variance_mc(pf, cfg),
        "bns_streaming": lambda pf, p, cfg: bns_realized_variance_mc(p, CORR, cfg, threads=2),
        "heston_ensemble": lambda pf, p, cfg: mc_realized_variance(simulate_heston(pf, cfg), CORR),
        "bns_ensemble": lambda pf, p, cfg: mc_realized_variance(
            simulate_bns(p, cfg), CORR, rho=p.rho, lambda_=p.lambda_, kappa2_star=p.kappa2_star
        ),
    }

    HESTON_ROUTES = {
        "ensemble": lambda pf, cfg: simulate_heston(pf, cfg),
        "streaming": lambda pf, cfg: heston_realized_variance_mc(pf, cfg, threads=2),
        "streaming_recorded": lambda pf, cfg: heston_realized_variance_mc(
            pf, cfg, threads=2, return_ensemble=True
        ),
        "prices": lambda pf, cfg: simulate_heston_prices(pf, cfg, s0=100.0),
    }

    @pytest.mark.parametrize("route", HESTON_ROUTES)
    def test_overflowing_heston_path_raises_without_a_warning(self, route):
        """gamma = 1e200 overflows the Euler step to inf and NaN: ``NumericalError`` on every
        route, not a ``ValidationError`` of the ensemble, and no warning from the worker
        threads, which start with numpy's default error state."""
        assets = heston_portfolio().assets
        pf = HestonPortfolio(
            assets=(assets[0], HestonAssetParams(k=1.0, theta2=0.05, sigma0_2=0.06, gamma=1e200),
                    assets[2]),
            corr=CORR,
        )
        cfg = SimConfig(n_paths=10, dt=0.1, horizon=1.0, seed=1, block_size=4)
        with warnings.catch_warnings(), pytest.raises(NumericalError, match="not finite"):
            warnings.simplefilter("error")
            self.HESTON_ROUTES[route](pf, cfg)

    PRICE_ROUTES = {
        "heston": lambda cfg, mu: simulate_heston_prices(heston_portfolio(), cfg, s0=100.0, mu=mu),
        "bns": lambda cfg, mu: simulate_bns_prices(bns_portfolio(), CORR, cfg, s0=100.0, mu=mu),
    }

    @pytest.mark.parametrize("route", PRICE_ROUTES)
    def test_overflowing_price_path_raises_without_a_warning(self, route):
        """mu = 1000 over a horizon of 1 overflows exp of the log prices while every
        variance stays finite: ``NumericalError``, and no warning from the worker thread."""
        cfg = SimConfig(n_paths=10, dt=0.1, horizon=1.0, seed=1, block_size=4)
        with warnings.catch_warnings(), pytest.raises(NumericalError, match="price path"):
            warnings.simplefilter("error")
            self.PRICE_ROUTES[route](cfg, 1000.0)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_non_finite_estimate_raises(self, estimator):
        """sigma_0^2 = 1e300 on one asset: every |Sigma| is finite, their spread overflows."""
        pf = heston_portfolio(sigma0_2s=(1e300, 0.06, 0.05))
        p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01, sigma0_2s=(1e300, 0.06, 0.05))
        cfg = SimConfig(n_paths=10, dt=0.1, horizon=1.0, seed=1)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="not finite"):
            self.ESTIMATORS[estimator](pf, p, cfg)


class TestStreamingEstimators:
    def test_heston_streaming_equals_ensemble_route(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=500, dt=0.01, horizon=1.0, seed=31, block_size=64)
        streaming = heston_realized_variance_mc(pf, cfg, threads=1)
        ensemble = mc_realized_variance(simulate_heston(pf, cfg), pf.corr)
        assert streaming.mean == ensemble.mean
        assert streaming.std_error == ensemble.std_error

    def test_thread_count_does_not_change_result(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=500, dt=0.01, horizon=1.0, seed=31, block_size=64)
        one = heston_realized_variance_mc(pf, cfg, threads=1)
        four = heston_realized_variance_mc(pf, cfg, threads=4)
        assert one == four

    BNS_PORTFOLIOS = (
        (dict(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01), 3),
        (dict(kappa1s=(0.05, 0.07), kappa2s=(0.004, 0.006), rhos=(-0.3, -0.5),
              kappa2_star=0.01, sigma0_2s=(0.04, 0.06)), 2),
        (dict(kappa1s=(0.05, 0.07, 0.06, 0.04), kappa2s=(0.004, 0.006, 0.005, 0.003),
              rhos=(-0.3, -0.2, 0.0, -0.4), kappa2_star=0.01,
              sigma0_2s=(0.04, 0.06, 0.05, 0.03)), 4),
    )

    @pytest.mark.parametrize(
        "kwargs, n", BNS_PORTFOLIOS + (({**MIXED, **HIGH_RATE}, 3),),
        ids=("n3", "n2", "n4", "high_rate_mixed"),
    )
    def test_bns_streaming_equals_exact_reference_integrals(self, kwargs, n):
        p, corr = bns_portfolio(**kwargs), equicorrelated(n)
        cfg = SimConfig(n_paths=60, dt=0.01, horizon=1.0, seed=37, block_size=7)
        streaming = bns_realized_variance_mc(p, corr, cfg, threads=2)
        reference = [bns_reference_integral(p, corr, cfg, j) for j in range(cfg.n_paths)]
        assert streaming.mean == pytest.approx(np.mean(reference) / cfg.horizon, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs, n", BNS_PORTFOLIOS + ((MIXED, 3),), ids=("n3", "n2", "n4", "mixed")
    )
    def test_bns_streaming_estimate_does_not_depend_on_dt(self, kwargs, n):
        """So do rows at times on both grids (0.5 and 1.0 are 50 * 0.01 and 500 * 0.001 exactly).

        The mixed model's pair term on its drift-only asset is integrated per interval too.
        """
        p, corr = bns_portfolio(**kwargs), equicorrelated(n)
        (coarse, coarse_rows), (fine, fine_rows) = (
            bns_realized_variance_mc(
                p, corr,
                SimConfig(n_paths=400, dt=dt, horizon=1.0, seed=37, block_size=50,
                          record_times=(0.0, 0.5, 1.0)),
                return_ensemble=True,
            )
            for dt in (0.01, 0.001)
        )
        assert coarse == fine
        assert coarse_rows.variance_paths.tobytes() == fine_rows.variance_paths.tobytes()

    def test_bns_drift_only_estimate_is_the_closed_form(self):
        """No jumps and rho = 0: every path is the mean path, integrated exactly."""
        from genvarswap.bns import expected_realized_variance_bns

        for horizon, dt in ((1.0, 0.01), (2.5, 0.5)):
            p = bns_portfolio(kappa2s=(0.0, 0.0, 0.0), kappa2_star=0.01)
            cfg = SimConfig(n_paths=50, dt=dt, horizon=horizon, seed=3, block_size=7)
            estimate = bns_realized_variance_mc(p, CORR, cfg, threads=2)
            closed = expected_realized_variance_bns(horizon, p, CORR)
            assert estimate.mean == pytest.approx(closed, rel=1e-12)
            assert estimate.std_error <= 1e-12 * estimate.mean

    def test_bns_fast_mean_reversion_neither_overflows_nor_loses_the_integral(self):
        """lambda * horizon = 1600: decay factors underflow to zero, none overflows."""
        p = BnsPortfolioParams(
            assets=tuple(
                BnsAssetParams(sigma0_2=s, kappa1=k1, kappa2=k2, rho=r)
                for s, k1, k2, r in ((0.04, 0.05, 0.004, -0.3), (0.06, 0.07, 0.006, -0.2))
            ),
            lambda_=400.0, kappa2_star=0.01,
        )
        corr = equicorrelated(2)
        cfg = SimConfig(n_paths=3, dt=0.01, horizon=4.0, seed=5, record_times=(0.0, 2.0, 4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate, ensemble = bns_realized_variance_mc(p, corr, cfg, return_ensemble=True)
        reference = [bns_reference_integral(p, corr, cfg, j) for j in range(cfg.n_paths)]
        assert estimate.mean == pytest.approx(np.mean(reference) / cfg.horizon, rel=1e-12)
        for j in range(cfg.n_paths):
            np.testing.assert_allclose(
                ensemble.variance_paths[j], bns_reference_path(p, cfg, j), rtol=1e-13, atol=0
            )

    @pytest.mark.parametrize(
        "kwargs", [{}, dict(sigma0_2s=(0.04, 1e-6, 0.05)), dict(lambda_=40.0)],
        ids=("mixed", "sigma0_2_1e-6", "lambda_40"),
    )
    def test_drift_only_pair_term_integrals_equal_scipy_quad(self, kwargs):
        """Per path, the integral of |Sigma_2| with a pair term on the drift-only asset is
        scipy's quad of det_sigma2_values along the path's exact rows, broken at its jumps.

        sigma_0^2 = 1e-6 << kappa1 puts a branch point of sqrt(v) just before the first
        interval; lambda = 40 makes every interval's decay steep.
        """
        from scipy import integrate

        from genvarswap.genvar import det_sigma2_values

        p = bns_portfolio(**{**MIXED, **kwargs})
        lam, level = p.lambda_, bns_levels(p)
        cfg = SimConfig(n_paths=4, dt=0.01, horizon=1.0, seed=3)
        jumps = montecarlo._JumpList(p, cfg, 0, cfg.n_paths)
        integrals = jumps.integrals(CORR, p.rho, p.kappa2_star)

        def det(t, t0, x):
            v = level + (x - level) * math.exp(-lam * (t - t0))
            return float(det_sigma2_values(v, CORR, p.rho, lam, p.kappa2_star))

        for j in range(cfg.n_paths):
            events = bns_reference_events(p, cfg, j)
            assert len(events) > 1
            ends = [t for t, _ in events[1:]] + [cfg.horizon]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reference = sum(
                    integrate.quad(det, t0, t1, args=(t0, x), epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for (t0, x), t1 in zip(events, ends)
                )
            assert integrals[j] == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_drift_only_pair_term_averages_do_not_depend_on_block_size(self):
        """Each interval refines on its own, so at sigma_0^2 = 1e-6, where a few intervals
        refine much further than the rest, every per-path average is the same bits in blocks
        of 1, 7 and 4096 paths."""
        p = bns_portfolio(**MIXED, sigma0_2s=(0.04, 1e-6, 0.05))
        averages = []
        for block_size in (1, 7, 4096):
            cfg = SimConfig(n_paths=300, dt=0.01, horizon=1.0, seed=3, block_size=block_size)
            block = montecarlo._bns_block(p, cfg, CORR)
            averages.append(montecarlo._run(block, cfg, p.n, np.empty(0, dtype=int))[1])
        assert averages[1].tobytes() == averages[0].tobytes()
        assert averages[2].tobytes() == averages[0].tobytes()

    @pytest.mark.parametrize("kwargs, n", BNS_PORTFOLIOS, ids=("n3", "n2", "n4"))
    def test_bns_grid_ensemble_estimate_closes_in_as_dt_shrinks(self, kwargs, n):
        """The trapezoid on the recorded grid converges to the exact integral."""
        p, corr = bns_portfolio(**kwargs), equicorrelated(n)
        gaps = []
        for dt in (0.01, 0.001):
            cfg = SimConfig(n_paths=400, dt=dt, horizon=1.0, seed=37, block_size=50)
            exact = bns_realized_variance_mc(p, corr, cfg, threads=2)
            grid = mc_realized_variance(
                simulate_bns(p, cfg), corr, rho=p.rho, lambda_=p.lambda_,
                kappa2_star=p.kappa2_star,
            )
            gaps.append(abs(grid.mean - exact.mean) / exact.mean)
        assert gaps[1] < gaps[0] / 5.0

    def test_thread_count_below_one_rejected(self):
        cfg = SimConfig(n_paths=4, dt=0.25, horizon=1.0, seed=1)
        for threads in (0, -1):
            with pytest.raises(InvalidConfig):
                heston_realized_variance_mc(heston_portfolio(), cfg, threads=threads)
            with pytest.raises(InvalidConfig):
                bns_realized_variance_mc(bns_portfolio(), CORR, cfg, threads=threads)

    @pytest.mark.parametrize(
        "threads", [math.nan, math.inf, -math.inf, 2.5, True, "2"],
        ids=("nan", "inf", "-inf", "2.5", "True", "str"),
    )
    def test_thread_count_must_be_a_whole_number(self, threads):
        """NaN would start no worker and wait forever, 2.5 would run three; each is refused."""
        cfg = SimConfig(n_paths=4, dt=0.25, horizon=1.0, seed=1)
        with pytest.raises(InvalidConfig, match="threads"):
            heston_realized_variance_mc(heston_portfolio(), cfg, threads=threads)
        with pytest.raises(InvalidConfig, match="threads"):
            bns_realized_variance_mc(bns_portfolio(), CORR, cfg, threads=threads)

    def test_whole_float_thread_count_runs(self):
        cfg = SimConfig(n_paths=40, dt=0.25, horizon=1.0, seed=1, block_size=7)
        pf = heston_portfolio()
        assert heston_realized_variance_mc(pf, cfg, threads=2.0) == heston_realized_variance_mc(
            pf, cfg, threads=2
        )


class TestOnePass:
    """The streaming pass records the ensemble of the same paths in bounded memory."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("thinned", [False, True])
    def test_recorded_rows_equal_ensemble_route(self, n, thinned):
        dt = 0.002
        steps = 2 * montecarlo._CHUNK + 88  # the grid crosses chunk boundaries
        record = (0.0, montecarlo._CHUNK * dt, (montecarlo._CHUNK + 1) * dt, steps * dt)
        assets = heston_portfolio().assets
        hpf = HestonPortfolio(assets=(assets + assets)[:n], corr=equicorrelated(n))
        bpf = bns_portfolio(
            kappa1s=(0.05, 0.07, 0.06, 0.04)[:n], kappa2s=(0.004, 0.006, 0.0, 0.003)[:n],
            rhos=(-0.3, -0.2, 0.0, -0.4)[:n], kappa2_star=0.01,
            sigma0_2s=(0.04, 0.06, 0.05, 0.03)[:n],
        )
        runs = {}
        for block_size in (1, 7, 4096):
            cfg = SimConfig(
                n_paths=9, dt=dt, horizon=steps * dt, seed=59, block_size=block_size,
                record_times=record if thinned else None,
            )
            heston_ensemble = simulate_heston(hpf, cfg)
            bns_ensemble = simulate_bns(bpf, cfg)
            for threads in (1, 2, 3):
                h_est, h_rec = heston_realized_variance_mc(
                    hpf, cfg, threads=threads, return_ensemble=True
                )
                b_est, b_rec = bns_realized_variance_mc(
                    bpf, equicorrelated(n), cfg, threads=threads, return_ensemble=True
                )
                for recorded, ensemble in ((h_rec, heston_ensemble), (b_rec, bns_ensemble)):
                    np.testing.assert_array_equal(recorded.variance_paths, ensemble.variance_paths)
                    np.testing.assert_array_equal(recorded.times, ensemble.times)
                    assert recorded.scheme == ensemble.scheme
                assert h_est == heston_realized_variance_mc(hpf, cfg, threads=threads)
                assert b_est == bns_realized_variance_mc(bpf, equicorrelated(n), cfg, threads=threads)
                runs[block_size, threads] = (h_est, b_est)
        assert len(set(runs.values())) == 1

    def test_paths_follow_the_per_path_draw_layout(self):
        """Each path equals a plain per-path loop over its own (seed, path) stream."""
        dt, steps, seed = 0.004, montecarlo._CHUNK + 44, 73
        cfg = SimConfig(n_paths=5, dt=dt, horizon=steps * dt, seed=seed, block_size=2)
        pf = heston_portfolio()
        p = bns_portfolio(kappa2s=(0.004, 0.0, 0.005))
        heston = simulate_heston(pf, cfg).variance_paths
        bns = simulate_bns(p, cfg).variance_paths
        k, theta2, sigma0_2, gamma = (
            np.array([getattr(a, name) for a in pf.assets])
            for name in ("k", "theta2", "sigma0_2", "gamma")
        )
        for j in range(cfg.n_paths):
            rng = np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
            z = rng.standard_normal(steps * 3).reshape(steps, 3)
            state = sigma0_2.copy()
            reference = [state]
            for s in range(steps):
                floored = np.maximum(state, 0.0)
                state = state + k * (theta2 - floored) * dt + gamma * np.sqrt(floored) * math.sqrt(dt) * z[s]
                reference.append(np.maximum(state, 0.0))
            np.testing.assert_array_equal(heston[j], reference)

            np.testing.assert_allclose(bns[j], bns_reference_path(p, cfg, j), rtol=1e-13, atol=0)

    def test_many_workers_fill_disjoint_blocks(self):
        pf = heston_portfolio()
        p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01)
        cfg = SimConfig(n_paths=40, dt=0.01, horizon=1.0, seed=71, block_size=3)
        expected = (
            heston_realized_variance_mc(pf, cfg, return_ensemble=True),
            bns_realized_variance_mc(p, CORR, cfg, return_ensemble=True),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [
                (
                    heston_realized_variance_mc(pf, cfg, threads=8, return_ensemble=True),
                    bns_realized_variance_mc(p, CORR, cfg, threads=8, return_ensemble=True),
                )
                for _ in range(3)
            ]
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            for (estimate, ensemble), (reference, reference_ensemble) in zip(run, expected):
                assert estimate == reference
                np.testing.assert_array_equal(
                    ensemble.variance_paths, reference_ensemble.variance_paths
                )

    def test_oversized_recorded_ensemble_rejected(self):
        cfg = SimConfig(n_paths=300000, dt=0.001, horizon=1.0, seed=1)
        with pytest.raises(InvalidConfig):
            heston_realized_variance_mc(heston_portfolio(), cfg, return_ensemble=True)

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_streaming_memory_does_not_grow_with_steps(self, model):
        p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01)

        def peak(dt):
            cfg = SimConfig(n_paths=64, dt=dt, horizon=1.0, seed=61, block_size=64)
            tracemalloc.start()
            try:
                if model == "heston":
                    heston_realized_variance_mc(heston_portfolio(), cfg)
                else:
                    bns_realized_variance_mc(p, CORR, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        coarse, fine = peak(1 / 1000), peak(1 / 2000)
        assert fine < 1.5 * coarse


class TestCounterDraws:
    """The vectorised Philox4x64-10 and the jump samplers that read its words."""

    @pytest.mark.parametrize(
        "counter",
        [(0, 0, 0, 0), (3, 1, 0, 0), (2**64 - 1, 5, 0, 0), (2**64 - 2, 2**64 - 1, 2**64 - 1, 7)],
        ids=("zero", "lane", "carry", "carry3"),
    )
    def test_philox_equals_numpy_random_raw(self, counter):
        """Three blocks from each counter; numpy adds one, with carry, before each block."""
        rng = np.random.default_rng(101)
        keys = [(2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1)] + [
            tuple(int(x) for x in rng.integers(0, 2**64, 2, dtype=np.uint64)) for _ in range(5)
        ]
        value = sum(c << (64 * w) for w, c in enumerate(counter))
        blocks = [(value + b) % 2**256 for b in (1, 2, 3)]
        counters = tuple(
            np.array([(c >> (64 * w)) % 2**64 for c in blocks], dtype=np.uint64) for w in range(4)
        )
        for seed, path in keys:
            expected = np.random.Philox(
                key=np.array([seed, path], dtype=np.uint64), counter=np.array(counter, dtype=np.uint64)
            ).random_raw(12)
            words = montecarlo._philox(counters, (seed, path))
            np.testing.assert_array_equal(np.stack(words, axis=-1).reshape(-1), expected)

    def test_philox_broadcasts_paths_against_counters(self):
        seed, paths = 2**64 - 1, np.array([0, 1, 2**32, 2**64 - 1], dtype=np.uint64)
        words = montecarlo._philox((np.arange(1, 4)[:, np.newaxis], 2, 0, 0), (seed, paths))
        assert all(w.shape == (3, 4) for w in words)
        for k, path in enumerate(paths):
            expected = np.random.Philox(
                key=np.array([seed, path], dtype=np.uint64),
                counter=np.array([0, 2, 0, 0], dtype=np.uint64),
            ).random_raw(12)
            np.testing.assert_array_equal(np.stack([w[:, k] for w in words], axis=-1).reshape(-1), expected)

    def test_uniforms_equal_generator_random(self):
        bits = np.random.Philox(key=np.array([7, 9], dtype=np.uint64))
        words = bits.random_raw(1000)
        bits = np.random.Philox(key=np.array([7, 9], dtype=np.uint64))
        np.testing.assert_array_equal(montecarlo._uniform(words), np.random.Generator(bits).random(1000))

    @pytest.mark.parametrize("mean", [0.01, 2.5, 12.0, 400.0, 1e5])
    def test_poisson_counts_are_scipy_quantiles(self, mean):
        """On a grid of uniforms the count is the least k with CDF(k) > u, scipy's quantile."""
        u = np.arange(1, 20_000) / 20_000
        np.testing.assert_array_equal(
            montecarlo._poisson_counts(u, mean), stats.poisson.ppf(u, mean).astype(int)
        )

    @pytest.mark.parametrize("rate, paths", [(0.01, 20000), (2.5, 4000), (12.0, 2000), (400.0, 400)])
    def test_jump_draws_pass_goodness_of_fit(self, rate, paths):
        """Counts are Poisson(a lambda horizon), times uniform and sizes exponential (seed 11).

        The count bins lump each tail beyond its 0.1 % quantile.
        """
        lam, horizon, b = 2.0, 0.5, 3.0
        spec = GammaOuSpec(a=rate / (lam * horizon), b=b)
        path, law, times, sizes = montecarlo._jumps(11, 0, paths, [1], [spec], lam, horizon)
        assert not law.any()
        counts = np.bincount(path, minlength=paths)
        lo, hi = int(stats.poisson.ppf(0.001, rate)), int(stats.poisson.isf(0.001, rate))
        observed = np.bincount(np.clip(counts, lo, hi) - lo, minlength=hi - lo + 1)
        expected = np.concatenate((
            [stats.poisson.cdf(lo, rate)],
            stats.poisson.pmf(np.arange(lo + 1, hi), rate),
            [stats.poisson.sf(hi - 1, rate)],
        )) * paths
        assert stats.chisquare(observed, expected).pvalue > 1e-3
        assert stats.kstest(times / horizon, "uniform").pvalue > 1e-3
        assert stats.kstest(sizes * b, "expon").pvalue > 1e-3
        assert np.all((times >= 0.0) & (times < horizon)) and np.all(np.isfinite(sizes))


class TestBlockPipeline:
    """Tiles, reused chunk buffers and key-only generators leave every result as it is."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("path", [0, 2**32, 2**63])
    def test_path_rng_streams_equal_keyed_philox(self, seed, path):
        ours = montecarlo._path_rng(seed, path)
        keyed = np.random.Generator(np.random.Philox(key=np.array([seed, path], dtype=np.uint64)))
        for draw in (
            lambda g: g.standard_normal(1000),
            lambda g: g.poisson(3.7, 1000),
            lambda g: g.uniform(0.0, 2.0, 1000),
            lambda g: g.exponential(0.5, 1000),
        ):
            np.testing.assert_array_equal(draw(ours), draw(keyed))

    def test_path_rng_reads_no_entropy(self, monkeypatch):
        # a SeedSequence without entropy draws it through the stdlib's SystemRandom
        reads = []
        urandom = random._urandom
        monkeypatch.setattr(random, "_urandom", lambda k: reads.append(k) or urandom(k))
        np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
        assert reads, "the probe does not see a SeedSequence read entropy"
        reads.clear()
        rng = montecarlo._path_rng(1, 2)
        assert not reads
        assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)

    def test_heston_price_paths_do_not_depend_on_block_size(self):
        """Prices and variances, with mu != 0, over a grid that crosses a chunk boundary."""
        pf = heston_portfolio(gamma=0.9)
        dt, steps = 0.004, montecarlo._CHUNK + 44
        runs = [
            simulate_heston_prices(
                pf, SimConfig(n_paths=20, dt=dt, horizon=steps * dt, seed=97, block_size=size),
                s0=[100.0, 50.0, 20.0], mu=0.03,
            )
            for size in (1, 7, 4096)
        ]
        first = runs[0]
        for other in runs[1:]:
            assert other.prices.tobytes() == first.prices.tobytes()
            assert other.variance_paths.tobytes() == first.variance_paths.tobytes()
        cfg = SimConfig(n_paths=20, dt=dt, horizon=steps * dt, seed=97)
        np.testing.assert_array_equal(first.variance_paths, simulate_heston(pf, cfg).variance_paths)

    def test_bns_price_paths_do_not_depend_on_block_size(self):
        """Prices and jump marks, with a drift-only and a rho = 0 asset.

        Z* reads counter lane n + 1 and the return normals the path's counter-0 stream.
        """
        p = bns_portfolio(
            kappa1s=(0.5, 0.07, 0.6), kappa2s=(0.002, 0.0, 0.003), rhos=(-0.3, -0.2, 0.0),
            kappa2_star=0.01,
        )
        star = GammaOuSpec.from_cumulants(0.05, 0.01)
        dt, steps = 0.004, montecarlo._CHUNK + 44
        horizon = steps * dt
        runs = [
            simulate_bns_prices(
                p, CORR, SimConfig(n_paths=20, dt=dt, horizon=horizon, seed=97, block_size=size),
                s0=100.0, mu=0.02, subordinator_star=star,
            )
            for size in (1, 7, 4096)
        ]
        first = runs[0]
        for other in runs[1:]:
            assert other.prices.tobytes() == first.prices.tobytes()
            assert other.variance_paths.tobytes() == first.variance_paths.tobytes()
            for (t1, s1), (t2, s2) in zip(other.jump_marks, first.jump_marks, strict=True):
                np.testing.assert_array_equal(t1, t2)
                np.testing.assert_array_equal(s1, s2)
        cfg = SimConfig(n_paths=20, dt=dt, horizon=horizon, seed=97)
        L = np.linalg.cholesky(CORR.c)
        for j in range(cfg.n_paths):
            v = first.variance_paths[j]
            np.testing.assert_allclose(v, bns_reference_path(p, cfg, j), rtol=1e-13, atol=0)
            times, sizes = first.jump_marks[j]
            expected = reference_jump_draws(97, j, p.n + 1, star, p.lambda_, horizon)
            np.testing.assert_array_equal(times, expected[0])
            np.testing.assert_array_equal(sizes, expected[1])
            rng = np.random.Generator(np.random.Philox(key=np.array([97, j], dtype=np.uint64)))
            eps = rng.standard_normal((steps, 3))
            star_steps = np.zeros(steps)
            np.add.at(star_steps, np.minimum((times / dt).astype(int), steps - 1), sizes)
            increments = (0.02 - 0.5 * v[:-1]) * dt + np.sqrt(v[:-1] * dt) * (eps @ L.T)
            increments += star_steps[:, np.newaxis] * p.rho
            log_prices = np.vstack((np.zeros(3), np.cumsum(increments, axis=0)))
            np.testing.assert_allclose(first.prices[j], 100.0 * np.exp(log_prices), rtol=1e-12)

    @pytest.mark.parametrize("block_size", [1, 7, 12])
    def test_rows_read_the_last_event_at_or_before_each_time(self, block_size):
        """``_JumpList.rows`` at every jump time of its block and at off-grid times is the exact
        decay from the path's last event at or before the time: an event at t counts for row t.

        The asset without jumps (kappa2 = 0) decays toward kappa1.
        """
        p = bns_portfolio(**MIXED)
        lam, level = p.lambda_, bns_levels(p)
        cfg = SimConfig(n_paths=12, dt=0.01, horizon=1.0, seed=29)
        off_grid = np.sort(np.random.default_rng(5).uniform(0.0, cfg.horizon, 10))
        for lo in range(0, cfg.n_paths, block_size):
            hi = min(lo + block_size, cfg.n_paths)
            events = [bns_reference_events(p, cfg, j) for j in range(lo, hi)]
            jump_times = [t for path in events for t, _ in path[1:]]
            jumps = montecarlo._JumpList(p, cfg, lo, hi)
            ties = 0
            for times in (np.unique(np.concatenate((jump_times, off_grid, [0.0, cfg.horizon]))),
                          off_grid):
                rows = jumps.rows(times)
                assert rows.shape == (hi - lo, times.size, p.n)
                for path, path_rows in zip(events, rows):
                    for t, row in zip(times, path_rows):
                        t_e, x = [event for event in path if event[0] <= t][-1]
                        ties += t > 0.0 and t_e == t
                        expected = level + (x - level) * math.exp(-lam * (t - t_e))
                        np.testing.assert_allclose(row, expected, rtol=1e-13, atol=0)
            # every jump was read at its own time
            assert ties == len(jump_times)

    def test_jumps_sharing_a_step_add_in_draw_order(self):
        """About 25 jumps per step and asset: each path equals the per-jump exact-OU loop."""
        p = bns_portfolio(kappa1s=(0.5, 0.7, 0.6), kappa2s=(0.001, 0.002, 0.001))
        cfg = SimConfig(n_paths=3, dt=0.05, horizon=1.0, seed=89, block_size=2)
        bns = simulate_bns(p, cfg).variance_paths
        for j in range(cfg.n_paths):
            np.testing.assert_allclose(bns[j], bns_reference_path(p, cfg, j), rtol=1e-13, atol=0)

    def test_drift_only_asset_beside_a_high_rate_asset(self):
        """About 100 jumps a path on asset 0 walk past the drift-only asset 1: the rows
        equal the per-path exact-OU loop, and rows and averages are the same bits in
        blocks of 1, 7 and 4096 paths."""
        p = bns_portfolio(**{**MIXED, **HIGH_RATE})
        runs = []
        for block_size in (1, 7, 4096):
            cfg = SimConfig(n_paths=20, dt=0.01, horizon=1.0, seed=41, block_size=block_size)
            block = montecarlo._bns_block(p, cfg, CORR)
            runs.append(montecarlo._run(block, cfg, p.n, cfg.record_indices))
        (recorded, averages), *others = runs
        for other, other_averages in others:
            assert other.tobytes() == recorded.tobytes()
            assert other_averages.tobytes() == averages.tobytes()
        for j in range(cfg.n_paths):
            assert len(bns_reference_events(p, cfg, j)) > 50
            np.testing.assert_allclose(
                recorded[j], bns_reference_path(p, cfg, j), rtol=1e-13, atol=0
            )

    def test_exact_rows_agree_with_the_grid_recursion(self):
        """The step recursion compounds rounding through every step; the rows agree to 1e-13."""
        p = bns_portfolio(kappa2s=(0.004, 0.0, 0.005))
        cfg = SimConfig(n_paths=6, dt=0.004, horizon=montecarlo._CHUNK * 0.004, seed=79)
        bns = simulate_bns(p, cfg).variance_paths
        for j in range(cfg.n_paths):
            np.testing.assert_allclose(
                bns[j], bns_grid_recursion_path(p, cfg, j), rtol=1e-13, atol=0
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tile_size_does_not_change_results(self, monkeypatch, n):
        dt = 0.002
        steps = 2 * montecarlo._CHUNK + 44  # the grid crosses chunk boundaries
        assets = heston_portfolio(gamma=0.9).assets
        hpf = HestonPortfolio(assets=(assets + assets)[:n], corr=equicorrelated(n))
        bpf = bns_portfolio(
            kappa1s=(0.5, 0.7, 0.06, 0.4)[:n], kappa2s=(0.001, 0.002, 0.0, 0.001)[:n],
            rhos=(-0.3, -0.2, 0.0, -0.4)[:n], kappa2_star=0.01,
            sigma0_2s=(0.04, 0.06, 0.05, 0.03)[:n],
        )
        # a leveraged drift-only asset in a pair term: that term goes through quad_intervals
        mixed = bns_portfolio(
            kappa1s=(0.05, 0.07, 0.06, 0.04)[:n], kappa2s=(0.004, 0.0, 0.005, 0.003)[:n],
            rhos=(-0.3, -0.2, 0.0, -0.4)[:n], kappa2_star=0.01,
            sigma0_2s=(0.04, 0.06, 0.05, 0.03)[:n],
        )

        def runs():
            results = []
            for block_size in (1, 7, 4096):
                cfg = SimConfig(
                    n_paths=9, dt=dt, horizon=steps * dt, seed=83, block_size=block_size
                )
                for threads in (1, 2):
                    results.append(heston_realized_variance_mc(
                        hpf, cfg, threads=threads, return_ensemble=True
                    ))
                    for p in (bpf, mixed):
                        results.append(bns_realized_variance_mc(
                            p, equicorrelated(n), cfg, threads=threads, return_ensemble=True
                        ))
            return results

        reference = runs()
        # the budget sizes the Heston draw tiles only: 1-path tiles; uneven tiles; one tile per chunk
        for budget in (1, 20000, 2**40):
            monkeypatch.setattr(montecarlo, "_TILE_BYTES", budget)
            for (estimate, ensemble), (expected, expected_ensemble) in zip(runs(), reference):
                assert estimate == expected
                np.testing.assert_array_equal(
                    ensemble.variance_paths, expected_ensemble.variance_paths
                )

    def test_uncorrelated_drift_only_leverage_stays_off_the_grid(self):
        """With C = I no pair term enters (delta_ij = 0 off the diagonal), so every term of
        the leveraged drift-only asset has a closed form and dt moves nothing."""
        p = bns_portfolio(**MIXED)
        identity = validate_correlation(np.eye(3))
        coarse, fine = (
            bns_realized_variance_mc(
                p, identity, SimConfig(n_paths=200, dt=dt, horizon=1.0, seed=37, block_size=50)
            )
            for dt in (0.01, 0.001)
        )
        assert coarse == fine

    def test_state_carries_across_reused_chunk_buffers(self):
        """Over three chunks, deterministic Heston paths equal a scalar recursion bit for bit.

        Drift-only BNS paths equal the closed form kappa1 + (x - kappa1) e^{-lambda t}.
        """
        dt, steps = 0.001, 2 * montecarlo._CHUNK + 44
        cfg = SimConfig(n_paths=3, dt=dt, horizon=steps * dt, seed=5, block_size=2)
        p = bns_portfolio(kappa2s=(0.0, 0.0, 0.0))
        pf = heston_portfolio(gamma=TINY_GAMMA)
        bns = simulate_bns(p, cfg).variance_paths
        heston = simulate_heston(pf, cfg).variance_paths
        for i, (b, h) in enumerate(zip(p.assets, pf.assets)):
            ou = [b.kappa1 + (b.sigma0_2 - b.kappa1) * math.exp(-p.lambda_ * t) for t in cfg.times]
            euler = [h.sigma0_2]
            for _ in range(steps):
                euler.append(euler[-1] + (h.theta2 - euler[-1]) * h.k * dt)
            for path in range(cfg.n_paths):
                np.testing.assert_allclose(bns[path, :, i], ou, rtol=1e-13, atol=0)
                np.testing.assert_array_equal(heston[path, :, i], euler)

    @pytest.mark.parametrize(
        "model", ["heston", "heston_recorded", "bns", "bns_recorded", "heston_prices", "bns_prices"]
    )
    def test_block_peak_memory(self, model):
        """One 1024-path block over 1000 steps.

        The streaming routes stay within two Heston chunk planes (Heston, whose step loop
        keeps one chunk of normals and no plane of rows) and within 12 KiB a path (BNS,
        whose jump list does not grow with the steps). The recorded routes, which write
        every grid row of every path into the ensemble and copy none of them, stay within
        1.6 (Heston) and 2.6 (BNS) times those rows. The price routes, which hold the
        prices, the variances and the return normals (BNS: and the Z* increments), stay
        within 6.5 (Heston) and 7.5 (BNS) times the variance rows.
        """
        cfg = SimConfig(n_paths=1024, dt=1e-3, horizon=1.0, seed=67, block_size=1024)
        p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01)
        rows = 1024 * 1001 * 3 * 8
        bound = {
            "heston": 2 * 1024 * montecarlo._CHUNK * 3 * 8,
            "heston_recorded": 1.6 * rows,
            "bns": 1024 * 12 * 1024,
            "bns_recorded": 2.6 * rows,
            "heston_prices": 6.5 * rows,
            "bns_prices": 7.5 * rows,
        }[model]
        star = GammaOuSpec.from_cumulants(0.05, 0.01)
        tracemalloc.start()
        try:
            if model == "heston":
                heston_realized_variance_mc(heston_portfolio(), cfg)
            elif model == "heston_recorded":
                simulate_heston(heston_portfolio(), cfg)
            elif model == "heston_prices":
                simulate_heston_prices(heston_portfolio(), cfg, s0=100.0, mu=0.05)
            elif model == "bns_prices":
                simulate_bns_prices(p, CORR, cfg, s0=100.0, mu=0.05, beta=0.5, subordinator_star=star)
            else:
                bns_realized_variance_mc(p, CORR, cfg, return_ensemble=model == "bns_recorded")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("threads, n_paths", [(2, 4096), (3, 2048)], ids=("2x4", "3x2"))
    def test_concurrent_blocks_hold_one_buffer_set_each(self, threads, n_paths):
        """Each block makes its buffers for the length of its call, and at most
        min(threads, blocks) blocks run at once: 2 threads over 4 blocks, and 3 threads
        over 2 blocks, stay within two sets, twice the one-block bound of
        ``test_block_peak_memory[heston]``."""
        cfg = SimConfig(n_paths=n_paths, dt=1e-3, horizon=1.0, seed=67, block_size=1024)
        tracemalloc.start()
        try:
            heston_realized_variance_mc(heston_portfolio(), cfg, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (2 * 1024 * montecarlo._CHUNK * 3 * 8)

    def test_one_determinant_call_per_stack_of_rows(self, monkeypatch):
        """A block of 100 paths over 600 steps evaluates |Sigma_1| once for its first row
        and once per chunk, not once per row; estimate and rows stay the ensemble route's."""
        pf = heston_portfolio()
        dt, steps = 0.001, 600
        cfg = SimConfig(n_paths=300, dt=dt, horizon=steps * dt, seed=29, block_size=100)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return det_sigma1_values(*args, **kwargs)

        det_sigma1_values = montecarlo.det_sigma1_values
        monkeypatch.setattr(montecarlo, "det_sigma1_values", spy)
        estimate, ensemble = heston_realized_variance_mc(pf, cfg, return_ensemble=True)
        assert len(calls) <= 3 * (1 + math.ceil(steps / montecarlo._CHUNK))
        assert sum(shape[0] for shape in calls) == 3 * (steps + 1)
        reference = simulate_heston(pf, cfg)
        assert estimate == mc_realized_variance(reference, pf.corr)
        np.testing.assert_array_equal(ensemble.variance_paths, reference.variance_paths)

    @pytest.mark.parametrize("tile_bytes", [None, 1], ids=("tiles", "one_path_tiles"))
    @pytest.mark.parametrize(
        "chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 1)], ids=("1", "C-1", "C", "C+1", "3C+1")
    )
    def test_chunk_boundaries(self, monkeypatch, chunks, extra, tile_bytes):
        """Grids shorter than a chunk, ending on and just past its boundaries: the estimate
        is the per-row trapezoid sum_g w_g (|C| prod_i v_i) added in grid order, bit for bit,
        and the recorded rows, on both sides of every boundary, equal a per-path loop's.
        One-path draw tiles hold fewer rows than a chunk, so a chunk's determinants take
        several kernel calls."""
        if tile_bytes is not None:
            monkeypatch.setattr(montecarlo, "_TILE_BYTES", tile_bytes)
        C = montecarlo._CHUNK
        steps = chunks * C + extra
        pf = heston_portfolio(gamma=0.9)
        dt = 0.001
        edges = sorted({g for b in range(C, steps + 1, C) for g in (b - 1, b, b + 1) if g <= steps}
                       | {0, steps})
        record = tuple(g * dt for g in edges)
        full = heston_reference_paths(pf, SimConfig(n_paths=9, dt=dt, horizon=steps * dt, seed=47))
        times = np.arange(steps + 1) * dt
        total = np.zeros(9)
        for g, w in enumerate(montecarlo._trapezoid_weights(times)):
            product = full[:, g, 0].copy()
            for i in range(1, pf.n):
                product *= full[:, g, i]
            total += w * (pf.corr.det_c * product)
        expected = montecarlo._summarize(total / times[-1])
        for block_size in (1, 7, 4096):
            cfg = SimConfig(
                n_paths=9, dt=dt, horizon=steps * dt, seed=47, block_size=block_size,
                record_times=record,
            )
            thinned = simulate_heston(pf, cfg).variance_paths
            np.testing.assert_array_equal(thinned, full[:, edges])
            for threads in (1, 2, 3):
                estimate, ensemble = heston_realized_variance_mc(
                    pf, cfg, threads=threads, return_ensemble=True
                )
                assert estimate == expected
                np.testing.assert_array_equal(ensemble.variance_paths, thinned)


class TestJumpCountLimit:
    """A run expected to draw more than ``_MAX_ENSEMBLE_ENTRIES`` jumps is refused before any
    draw, whatever its block size and thread count; one just below it reaches the draws."""

    class Drawn(Exception):
        pass

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            raise self.Drawn

        monkeypatch.setattr(montecarlo, "_jumps", spy)
        return calls

    @staticmethod
    def rate(share, n_paths, lambda_=2.0, horizon=1.0):
        """A Gamma-OU law whose a lambda horizon over n_paths is ``share`` of the limit."""
        a = share * montecarlo._MAX_ENSEMBLE_ENTRIES / (n_paths * lambda_ * horizon)
        return GammaOuSpec(a=a, b=1.0)

    @staticmethod
    def portfolio(spec, star):
        """One asset with jump law ``spec`` and two drift-only assets; Z* has law ``star``."""
        return bns_portfolio(
            kappa1s=(spec.kappa1, 0.07, 0.06), kappa2s=(spec.kappa2, 0.0, 0.0),
            rhos=(-0.3, -0.2, -0.4), kappa2_star=star.kappa2,
        )

    ROUTES = {
        "simulate_bns": lambda p, cfg, star: simulate_bns(p, cfg),
        "streaming": lambda p, cfg, star: bns_realized_variance_mc(p, CORR, cfg, threads=2),
        "recorded": lambda p, cfg, star: bns_realized_variance_mc(p, CORR, cfg, return_ensemble=True),
        "prices": lambda p, cfg, star: simulate_bns_prices(p, CORR, cfg, s0=100.0, subordinator_star=star),
    }

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("block_size", [1, 4096])
    def test_just_above_the_limit_raises_before_any_draw(self, draws, route, block_size):
        cfg = SimConfig(n_paths=8, dt=0.25, horizon=1.0, seed=3, block_size=block_size)
        star = GammaOuSpec.from_cumulants(0.1, 0.01)
        p = self.portfolio(self.rate(1.0 + 1e-9, cfg.n_paths), star)
        with pytest.raises(InvalidConfig, match=str(montecarlo._MAX_ENSEMBLE_ENTRIES)):
            self.ROUTES[route](p, cfg, star)
        assert not draws

    @pytest.mark.parametrize("route", ROUTES)
    def test_just_below_the_limit_draws(self, draws, route):
        cfg = SimConfig(n_paths=8, dt=0.25, horizon=1.0, seed=3)
        star = GammaOuSpec(a=1e-9, b=1.0)
        p = self.portfolio(self.rate(1.0 - 1e-6, cfg.n_paths), star)
        with pytest.raises(self.Drawn):
            self.ROUTES[route](p, cfg, star)
        assert draws

    def test_the_price_route_counts_the_common_jump(self, draws):
        """Z* at 0.6 of the limit over assets at 0.6: the price route is refused, the
        variance routes, which never draw Z*, are not."""
        cfg = SimConfig(n_paths=8, dt=0.25, horizon=1.0, seed=3)
        star = self.rate(0.6, cfg.n_paths)
        p = self.portfolio(self.rate(0.6, cfg.n_paths), star)
        with pytest.raises(InvalidConfig, match=str(montecarlo._MAX_ENSEMBLE_ENTRIES)):
            simulate_bns_prices(p, CORR, cfg, s0=100.0, subordinator_star=star)
        assert not draws
        with pytest.raises(self.Drawn):
            simulate_bns(p, cfg)


class TestPricePaths:
    @pytest.mark.parametrize("record_times", [None, (0.0, 1.0)], ids=("full_grid", "thinned"))
    @pytest.mark.parametrize("route", ["heston", "bns"])
    def test_size_check_counts_every_grid_row(self, monkeypatch, route, record_times):
        """A price route holds all n_steps + 1 rows of 2 n values per path, whatever
        ``record_times`` says: 100 paths by 101 rows by 6 values exceed a limit of 10,000,
        16 paths fit."""
        monkeypatch.setattr(montecarlo, "_MAX_ENSEMBLE_ENTRIES", 10_000)

        def run(n_paths):
            cfg = SimConfig(n_paths=n_paths, dt=0.01, horizon=1.0, seed=3, record_times=record_times)
            if route == "heston":
                return simulate_heston_prices(heston_portfolio(), cfg, s0=100.0)
            return simulate_bns_prices(bns_portfolio(), CORR, cfg, s0=100.0)

        with pytest.raises(InvalidConfig, match="ensemble of 60600 values") as refused:
            run(100)
        assert "record_times" not in str(refused.value)
        assert run(16).prices.shape == (16, 101, 3)

    def test_heston_price_paths_share_variance_draws(self):
        pf2 = HestonPortfolio(assets=heston_portfolio().assets[:2], corr=equicorrelated(2))
        cfg = SimConfig(n_paths=30, dt=0.01, horizon=0.5, seed=41)
        for pf, s0 in ((heston_portfolio(), (100.0, 50.0, 200.0)), (pf2, (100.0, 50.0))):
            pp = simulate_heston_prices(pf, cfg, s0=s0, mu=0.05)
            ensemble = simulate_heston(pf, cfg)
            np.testing.assert_array_equal(pp.variance_paths, ensemble.variance_paths)
            assert np.all(pp.prices > 0.0)
            assert np.all(pp.prices[:, 0, :] == np.array(s0))

    def test_heston_price_drift(self):
        pf = heston_portfolio(sigma0_2s=(0.09, 0.05, 0.07))
        cfg = SimConfig(n_paths=4000, dt=0.005, horizon=1.0, seed=43)
        pp = simulate_heston_prices(pf, cfg, s0=100.0, mu=0.05)
        log_total = np.log(pp.prices[:, -1, :] / 100.0)
        for i, a in enumerate(pf.assets):
            expected = 0.05 - 0.5 * a.theta2
            se = float(np.std(log_total[:, i], ddof=1)) / math.sqrt(cfg.n_paths)
            assert abs(float(np.mean(log_total[:, i])) - expected) <= 3.0 * se

    def test_bns_price_paths_share_variance_draws(self):
        p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01)
        p2 = bns_portfolio(
            kappa1s=(0.05, 0.07), kappa2s=(0.004, 0.006), rhos=(-0.3, -0.2),
            kappa2_star=0.01, sigma0_2s=(0.04, 0.06),
        )
        star = GammaOuSpec.from_cumulants(0.05, 0.01)
        cfg = SimConfig(n_paths=25, dt=0.01, horizon=0.5, seed=47)
        for p, corr in ((p, CORR), (p2, equicorrelated(2))):
            pp = simulate_bns_prices(p, corr, cfg, s0=100.0, subordinator_star=star)
            ensemble = simulate_bns(p, cfg)
            np.testing.assert_array_equal(pp.variance_paths, ensemble.variance_paths)
            assert len(pp.jump_marks) == cfg.n_paths
            assert any(times.size for times, _ in pp.jump_marks)

    def test_bns_star_spec_required_when_kappa2_star_positive(self):
        p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01)
        cfg = SimConfig(n_paths=4, dt=0.01, horizon=0.5, seed=47)
        with pytest.raises(MissingSubordinatorSpec):
            simulate_bns_prices(p, CORR, cfg, s0=100.0)

    def test_bns_star_spec_variance_mismatch_rejected(self):
        """The law of Z* must state the portfolio's kappa2_star, zero included."""
        cfg = SimConfig(n_paths=4, dt=0.01, horizon=0.5, seed=47)
        for kappa2_star, law_kappa2 in ((0.01, 0.02), (0.0, 0.2)):
            p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=kappa2_star)
            star = GammaOuSpec.from_cumulants(0.05, law_kappa2)
            with pytest.raises(ValidationError, match="kappa2_star"):
                simulate_bns_prices(p, CORR, cfg, s0=100.0, subordinator_star=star)

    def test_heston_price_stream_pin(self):
        """Stream pin: the first closes of the one-path history the calibration benchmark fits.

        The benchmark's closes are this path (seed 7, dt 1/252, two years,
        the README model) scaled per ticker, and its fits take 8 to 32 LM
        iterations across such paths, so a change to the draws, the step or
        its rounding moves the benchmark. The recorded values are the same
        under numpy's X86_V2, X86_V3 and X86_V4 dispatch.
        """
        assets = tuple(
            HestonAssetParams(k=k, theta2=theta2, sigma0_2=sigma0_2, gamma=gamma)
            for k, theta2, sigma0_2, gamma in (
                (2.0, 0.09, 0.04, 0.3), (1.0, 0.05, 0.06, 0.2), (3.0, 0.07, 0.05, 0.35)
            )
        )
        cfg = SimConfig(n_paths=1, dt=1.0 / 252, horizon=2.0, seed=7)
        pp = simulate_heston_prices(HestonPortfolio(assets, CORR), cfg, s0=100.0, mu=0.05)
        recorded = [
            [100.0, 100.0, 100.0],
            [101.83487011605878, 99.0105247223652, 99.08440928780286],
            [101.9570177460633, 100.03394505485674, 100.76561734878942],
            [100.3785357379436, 100.6556805069132, 100.36922890299455],
            [98.04320944297719, 97.89583233248068, 100.10294953558612],
        ]
        np.testing.assert_array_equal(pp.prices[0, :5], recorded)

    def test_nonpositive_initial_price_rejected(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=2, dt=0.25, horizon=1.0, seed=1)
        with pytest.raises(ValidationError):
            simulate_heston_prices(pf, cfg, s0=(100.0, 0.0, 50.0))
        for bad, error in (
            (dict(s0=math.nan), ValidationError),
            (dict(s0=100.0, mu=math.inf), ValidationError),
            (dict(s0=(100.0, 50.0)), DimensionMismatch),
            (dict(s0=100.0, mu=(0.01, 0.02, 0.03, 0.04)), DimensionMismatch),
            (dict(s0=[[100.0, 50.0, 20.0]]), DimensionMismatch),
        ):
            with pytest.raises(error):
                simulate_heston_prices(pf, cfg, **bad)
        for beta, error in ((math.nan, ValidationError), ((0.1, 0.2), DimensionMismatch)):
            with pytest.raises(error):
                simulate_bns_prices(bns_portfolio(), CORR, cfg, s0=100.0, beta=beta)


class TestContainers:
    def test_path_ensemble_validation(self):
        times = np.array([0.0, 0.5, 1.0])
        good = np.ones((2, 3, 3))
        with pytest.raises(ValidationError):
            PathEnsemble(times=np.array([0.0, 0.5, 0.5]), variance_paths=good, scheme="exact_ou")
        with pytest.raises(ValidationError):
            PathEnsemble(times=times, variance_paths=np.ones((2, 4, 3)), scheme="exact_ou")
        with pytest.raises(ValidationError):
            PathEnsemble(times=times, variance_paths=-good, scheme="exact_ou")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_path_ensemble_rejects_nonfinite_times(self, bad):
        for times in ([0.0, 0.5, bad], [bad, 0.5, 1.0]):
            with pytest.raises(ValidationError):
                PathEnsemble(times=np.array(times), variance_paths=np.ones((2, 3, 3)),
                             scheme="exact_ou")

    def test_path_ensemble_rejects_nan_variances(self):
        paths = np.ones((2, 3, 3))
        paths[1, 2, 0] = math.nan
        with pytest.raises(ValidationError):
            PathEnsemble(times=np.array([0.0, 0.5, 1.0]), variance_paths=paths, scheme="exact_ou")

    def test_mc_estimate_validation(self):
        for bad in (-0.1, math.nan):
            with pytest.raises(ValidationError):
                McEstimate(mean=1.0, std_error=bad, n_paths=10)
        assert McEstimate(mean=1.0, std_error=0.1, n_paths=10).to_dict() == {
            "mean": 1.0,
            "std_error": 0.1,
            "n_paths": 10,
        }

    def test_ensemble_to_csv(self, tmp_path):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=3, dt=0.5, horizon=1.0, seed=53)
        ensemble = simulate_heston(pf, cfg)
        target = tmp_path / "paths.csv"
        ensemble_to_csv(ensemble, target)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "path,time,var_1,var_2,var_3"
        assert len(lines) == 1 + 3 * 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == ensemble.variance_paths[0, 0, 0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
    def test_ensemble_to_csv_bytes_match_csv_writer(self, tmp_path, n):
        rng = np.random.default_rng(67)
        values = rng.lognormal(-3.0, 4.0, (5, 7, n))
        values.flat[:6] = (0.0, 5e-324, 1e-300, 1e300, np.inf, 0.1 + 0.2)
        times = np.arange(7) * 0.1 + 1e-13 * np.arange(7)
        ensemble = PathEnsemble(times=times, variance_paths=values, scheme="exact_ou")
        ensemble_to_csv(ensemble, tmp_path / "fast.csv")
        # reference: one csv.writer row per (path, time)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "time"] + [f"var_{i + 1}" for i in range(n)])
            for j in range(ensemble.n_paths):
                for s, t in enumerate(ensemble.times):
                    writer.writerow(
                        [j, f"{t:.12g}"] + [f"{x:.17g}" for x in ensemble.variance_paths[j, s]]
                    )
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
