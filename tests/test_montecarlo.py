"""Simulation schemes, RNG reproducibility, and the Monte Carlo estimators."""

import csv
import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import random_correlation

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
):
    assets = tuple(
        BnsAssetParams(sigma0_2=s, kappa1=k1, kappa2=k2, rho=r)
        for s, k1, k2, r in zip(sigma0_2s, kappa1s, kappa2s, rhos)
    )
    return BnsPortfolioParams(assets=assets, lambda_=2.0, kappa2_star=kappa2_star)


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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(n_paths=10, dt=0.25, horizon=1.0, seed=1)
        base.update(kwargs)
        with pytest.raises(InvalidConfig):
            SimConfig(**base)

    def test_integral_numbers_normalized(self):
        cfg = SimConfig(
            n_paths=np.int64(10), dt=0.25, horizon=1.0, seed=np.uint64(2**64 - 1),
            block_size=4.0,
        )
        assert (cfg.n_paths, cfg.seed, cfg.block_size) == (10, 2**64 - 1, 4)
        assert all(type(x) is int for x in (cfg.n_paths, cfg.seed, cfg.block_size))

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

    def test_bns_streaming_equals_ensemble_route(self):
        p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01)
        cfg = SimConfig(n_paths=400, dt=0.01, horizon=1.0, seed=37, block_size=50)
        p2 = bns_portfolio(
            kappa1s=(0.05, 0.07), kappa2s=(0.004, 0.006), rhos=(-0.3, -0.5),
            kappa2_star=0.01, sigma0_2s=(0.04, 0.06),
        )
        p4 = bns_portfolio(
            kappa1s=(0.05, 0.07, 0.06, 0.04), kappa2s=(0.004, 0.006, 0.005, 0.003),
            rhos=(-0.3, -0.2, 0.0, -0.4), kappa2_star=0.01,
            sigma0_2s=(0.04, 0.06, 0.05, 0.03),
        )
        for p, corr in ((p, CORR), (p2, equicorrelated(2)), (p4, equicorrelated(4))):
            streaming = bns_realized_variance_mc(p, corr, cfg, threads=2)
            ensemble = mc_realized_variance(
                simulate_bns(p, cfg), corr, rho=p.rho, lambda_=p.lambda_,
                kappa2_star=p.kappa2_star,
            )
            assert streaming.mean == ensemble.mean
            assert streaming.std_error == ensemble.std_error

    def test_thread_count_below_one_rejected(self):
        cfg = SimConfig(n_paths=4, dt=0.25, horizon=1.0, seed=1)
        for threads in (0, -1):
            with pytest.raises(InvalidConfig):
                heston_realized_variance_mc(heston_portfolio(), cfg, threads=threads)
            with pytest.raises(InvalidConfig):
                bns_realized_variance_mc(bns_portfolio(), CORR, cfg, threads=threads)


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
            for threads in (1, 2):
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
        decay = math.exp(-p.lambda_ * dt)
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

            rng = np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
            for i, asset in enumerate(p.assets):
                arrivals = np.zeros(steps)
                if asset.kappa2 > 0.0:
                    spec = GammaOuSpec.from_cumulants(asset.kappa1, asset.kappa2)
                    count = rng.poisson(spec.a * p.lambda_ * steps * dt)
                    t_jump = rng.uniform(0.0, steps * dt, count)
                    sizes = rng.exponential(1.0 / spec.b, count)
                    bins = np.minimum((t_jump / dt).astype(int), steps - 1)
                    weights = sizes * np.exp(-p.lambda_ * ((bins + 1) * dt - t_jump))
                    for b, w in zip(bins, weights):
                        arrivals[b] += w
                else:
                    arrivals += asset.kappa1 * (1.0 - decay)
                column = [asset.sigma0_2]
                for s in range(steps):
                    column.append(decay * column[-1] + arrivals[s])
                np.testing.assert_array_equal(bns[j, :, i], column)

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


class TestPricePaths:
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
        p = bns_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01)
        star = GammaOuSpec.from_cumulants(0.05, 0.02)
        cfg = SimConfig(n_paths=4, dt=0.01, horizon=0.5, seed=47)
        with pytest.raises(ValidationError):
            simulate_bns_prices(p, CORR, cfg, s0=100.0, subordinator_star=star)

    def test_nonpositive_initial_price_rejected(self):
        pf = heston_portfolio()
        cfg = SimConfig(n_paths=2, dt=0.25, horizon=1.0, seed=1)
        with pytest.raises(ValidationError):
            simulate_heston_prices(pf, cfg, s0=(100.0, 0.0, 50.0))
        for bad in (dict(s0=math.nan), dict(s0=100.0, mu=math.inf)):
            with pytest.raises(ValidationError):
                simulate_heston_prices(pf, cfg, **bad)
        with pytest.raises(ValidationError):
            simulate_bns_prices(bns_portfolio(), CORR, cfg, s0=100.0, beta=math.nan)


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

    def test_mc_estimate_validation(self):
        with pytest.raises(ValidationError):
            McEstimate(mean=1.0, std_error=-0.1, n_paths=10)
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
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
