"""Acceptance gate: one test per shipping criterion, one pass/fail line each.

Every test prints ``[PASS]``/``[FAIL] criterion NN: <measured numbers>`` before
asserting, so a ``pytest -v`` log shows both the verdict and the margins.
Criterion 10 needs an external price history and skips when none is supplied.
"""

import math
import os
import time

import numpy as np
import pytest
from conftest import random_correlation
from scipy import integrate

from genvarswap import (
    BnsAssetParams,
    BnsPortfolioParams,
    CalibrationProblem,
    HestonAssetParams,
    HestonPortfolio,
    InstantaneousVols,
    SimConfig,
    bns_realized_variance_mc,
    build_sigma2,
    det_sigma2,
    error_metrics,
    expected_realized_variance,
    expected_realized_variance_bns,
    expected_variance,
    expected_variance_bns,
    expected_vol_bns,
    fit,
    heston_realized_variance_mc,
    load_prices,
    log_returns,
    rolling_determinants,
    simulate_bns,
    simulate_heston,
    summary_stats,
    validate_correlation,
    variance_of_variance_bns,
)
from genvarswap.bns import compute_e_terms, third_central_moment_bns
from genvarswap.calibrate import default_bounds, initial_guess, model_curve
from genvarswap.heston import expected_realized_variance_quad
from genvarswap.montecarlo import mc_realized_variance

THREADS = os.cpu_count() or 1


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_heston(rng, corr=None):
    assets = tuple(
        HestonAssetParams(
            k=rng.uniform(0.5, 3.0),
            theta2=rng.uniform(0.02, 0.12),
            sigma0_2=rng.uniform(0.02, 0.12),
            gamma=rng.uniform(0.15, 0.35),
        )
        for _ in range(3)
    )
    return HestonPortfolio(assets=assets, corr=corr or random_correlation(rng))


def _random_bns(rng):
    assets = tuple(
        BnsAssetParams(
            sigma0_2=rng.uniform(0.01, 0.2),
            kappa1=rng.uniform(0.01, 0.15),
            kappa2=rng.uniform(0.001, 0.02),
        )
        for _ in range(3)
    )
    return BnsPortfolioParams(
        assets=assets, lambda_=rng.uniform(0.5, 5.0), kappa2_star=0.0
    )


def test_criterion_01_determinant_lemma_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        corr = random_correlation(rng)
        vols = InstantaneousVols(rng.uniform(0.1, 0.6, 3))
        rho = rng.uniform(-0.9, -0.05, 3)
        lambda_ = rng.uniform(0.5, 5.0)
        var_z1 = rng.uniform(0.0, 0.05)
        closed = det_sigma2(vols, corr, rho, lambda_, var_z1)
        brute = float(np.linalg.det(build_sigma2(vols, corr, rho, lambda_, var_z1)))
        worst = max(worst, abs(closed - brute) / abs(brute))
    elapsed = time.monotonic() - start
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"max rel gap {worst:.3e} (tol 1e-12) over 1000 instances in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_heston_closed_form_vs_quadrature():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        pf = _random_heston(rng)
        maturity = rng.uniform(0.1, 3.0)
        closed = expected_realized_variance(maturity, pf)
        quad = expected_realized_variance_quad(maturity, pf)
        worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.monotonic() - start
    _report(
        2,
        worst <= 1e-10 and elapsed < 5.0,
        f"max rel gap {worst:.3e} (tol 1e-10) over 1000 draws in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_03_bns_e0_e3_vs_quadrature():
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        p = _random_bns(rng)
        maturity = rng.uniform(0.1, 3.0)
        terms = compute_e_terms(maturity, p)

        def mean_var(t, i):
            """E[sigma_t^2] = e^{-lambda t} (sigma_0^2 - kappa1) + kappa1, in scalar arithmetic."""
            a = p.assets[i]
            return math.exp(-p.lambda_ * t) * (a.sigma0_2 - a.kappa1) + a.kappa1

        oracles = (
            integrate.quad(
                lambda t: mean_var(t, 0) * mean_var(t, 1) * mean_var(t, 2),
                0.0, maturity, epsabs=1e-14, epsrel=1e-13,
            )[0],
            integrate.quad(
                lambda t: mean_var(t, 1) * mean_var(t, 2),
                0.0, maturity, epsabs=1e-14, epsrel=1e-13,
            )[0],
            integrate.quad(
                lambda t: mean_var(t, 0) * mean_var(t, 2),
                0.0, maturity, epsabs=1e-14, epsrel=1e-13,
            )[0],
            integrate.quad(
                lambda t: mean_var(t, 0) * mean_var(t, 1),
                0.0, maturity, epsabs=1e-14, epsrel=1e-13,
            )[0],
        )
        for closed, oracle in zip((terms.e0, terms.e1, terms.e2, terms.e3), oracles):
            worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.monotonic() - start
    _report(
        3,
        worst <= 1e-10 and elapsed < 5.0,
        f"max rel gap {worst:.3e} (tol 1e-10) over 1000 draws in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_04_monte_carlo_vs_heston_closed_form():
    start = time.monotonic()
    rng = np.random.default_rng(1004)
    worst_z = 0.0
    worst_rel = 0.0
    for trial in range(3):
        pf = _random_heston(rng)
        cfg = SimConfig(n_paths=100_000, dt=0.001, horizon=1.0, seed=9000 + trial)
        est = heston_realized_variance_mc(pf, cfg, threads=THREADS)
        closed = expected_realized_variance(1.0, pf)
        worst_z = max(worst_z, abs(est.mean - closed) / est.std_error)
        worst_rel = max(worst_rel, abs(est.mean - closed) / closed)
    elapsed = time.monotonic() - start
    _report(
        4,
        worst_z <= 3.0 and worst_rel <= 0.02 and elapsed < 120.0,
        f"max |z| {worst_z:.2f} (<= 3), max rel gap {worst_rel:.4%} (<= 2%), "
        f"3 sets x 1e5 paths in {elapsed:.1f}s (< 2min)",
    )


def _brockhaus_budget(maturity, p, corr):
    """Upper bound on the E4-E6 approximation error inside the closed form.

    Each cross term integrates E[(sigma^sq)^2] E[sigma^a] E[sigma^b]; the code
    replaces E[sigma] by the two-term Taylor value v with guaranteed error
    eps = mu3 / (16 E^{5/2}), so the integrand is off by at most
    v_a eps_b + v_b eps_a + eps_a eps_b.
    """
    grid = np.linspace(0.0, maturity, 201)
    budget = 0.0
    for sq, a, b in ((2, 1, 0), (1, 2, 0), (0, 2, 1)):
        coeff = 2.0 * abs(corr.delta[a, b] * p.rho[a] * p.rho[b])
        if coeff == 0.0:
            continue
        integrand = np.empty_like(grid)
        for idx, t in enumerate(grid):
            mean_sq = expected_variance_bns(t, p.assets[sq], p.lambda_)
            mu3_a = third_central_moment_bns(t, p.assets[a], p.lambda_)
            mu3_b = third_central_moment_bns(t, p.assets[b], p.lambda_)
            vol_a = expected_vol_bns(t, p.assets[a], p.lambda_, mu3=mu3_a)
            vol_b = expected_vol_bns(t, p.assets[b], p.lambda_, mu3=mu3_b)
            pair_err = (
                vol_a.value * vol_b.error_bound
                + vol_b.value * vol_a.error_bound
                + vol_a.error_bound * vol_b.error_bound
            )
            integrand[idx] = mean_sq * pair_err
        budget += coeff * integrate.simpson(integrand, x=grid)
    return (corr.det_c / maturity) * p.lambda_ * p.kappa2_star * budget


def test_criterion_05_monte_carlo_vs_bns_closed_form():
    start = time.monotonic()
    corr = validate_correlation(np.full((3, 3), 0.3) + 0.7 * np.eye(3))
    cfg = SimConfig(n_paths=100_000, dt=0.001, horizon=1.0, seed=9100)

    plain = BnsPortfolioParams(
        assets=(
            BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004),
            BnsAssetParams(sigma0_2=0.06, kappa1=0.07, kappa2=0.006),
            BnsAssetParams(sigma0_2=0.05, kappa1=0.06, kappa2=0.005),
        ),
        lambda_=2.0,
        kappa2_star=0.0,
    )
    est0 = bns_realized_variance_mc(plain, corr, cfg, threads=THREADS)
    formula0 = expected_realized_variance_bns(1.0, plain, corr)
    z0 = abs(est0.mean - formula0) / est0.std_error

    leveraged = BnsPortfolioParams(
        assets=(
            BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004, rho=-0.3),
            BnsAssetParams(sigma0_2=0.06, kappa1=0.07, kappa2=0.006, rho=-0.2),
            BnsAssetParams(sigma0_2=0.05, kappa1=0.06, kappa2=0.005, rho=-0.4),
        ),
        lambda_=2.0,
        kappa2_star=0.01,
    )
    cfg2 = SimConfig(n_paths=100_000, dt=0.001, horizon=1.0, seed=9101)
    est1 = bns_realized_variance_mc(leveraged, corr, cfg2, threads=THREADS)
    formula1 = expected_realized_variance_bns(1.0, leveraged, corr)
    budget = _brockhaus_budget(1.0, leveraged, corr)
    gap1 = abs(est1.mean - formula1)
    allowed1 = 3.0 * est1.std_error + budget

    elapsed = time.monotonic() - start
    _report(
        5,
        z0 <= 3.0 and gap1 <= allowed1 and elapsed < 180.0,
        f"rho=0 |z| {z0:.2f} (<= 3); rho<0 gap {gap1:.3e} vs 3se+budget "
        f"{allowed1:.3e} (budget {budget:.3e}); {elapsed:.1f}s (< 3min)",
    )


def test_criterion_06_simulated_moments_match_formulas():
    start = time.monotonic()
    record = np.linspace(0.1, 1.0, 10)
    worst = 0.0

    bns = BnsPortfolioParams(
        assets=(
            BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004),
            BnsAssetParams(sigma0_2=0.06, kappa1=0.07, kappa2=0.006),
            BnsAssetParams(sigma0_2=0.05, kappa1=0.06, kappa2=0.005),
        ),
        lambda_=2.0,
        kappa2_star=0.0,
    )
    cfg = SimConfig(n_paths=40_000, dt=0.01, horizon=1.0, seed=9200, record_times=record)
    ensemble = simulate_bns(bns, cfg)
    paths = ensemble.variance_paths
    n_paths = paths.shape[0]
    for j, t in enumerate(ensemble.times):
        for i in range(3):
            states = paths[:, j, i]
            mean_se = states.std(ddof=1) / math.sqrt(n_paths)
            z = abs(states.mean() - expected_variance_bns(t, bns.assets[i], 2.0)) / mean_se
            worst = max(worst, z)
            centered_sq = (states - states.mean()) ** 2
            var_se = centered_sq.std(ddof=1) / math.sqrt(n_paths)
            z = abs(states.var(ddof=1) - variance_of_variance_bns(t, bns.assets[i], 2.0)) / var_se
            worst = max(worst, z)

    heston = HestonPortfolio(
        assets=(
            HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=0.3),
            HestonAssetParams(k=1.0, theta2=0.05, sigma0_2=0.06, gamma=0.2),
            HestonAssetParams(k=3.0, theta2=0.07, sigma0_2=0.05, gamma=0.35),
        ),
        corr=validate_correlation(np.full((3, 3), 0.3) + 0.7 * np.eye(3)),
    )
    cfg = SimConfig(n_paths=30_000, dt=0.001, horizon=1.0, seed=9201, record_times=record)
    ensemble = simulate_heston(heston, cfg)
    paths = ensemble.variance_paths
    n_paths = paths.shape[0]
    for j, t in enumerate(ensemble.times):
        for i in range(3):
            states = paths[:, j, i]
            mean_se = states.std(ddof=1) / math.sqrt(n_paths)
            z = abs(states.mean() - expected_variance(t, heston.assets[i])) / mean_se
            worst = max(worst, z)

    elapsed = time.monotonic() - start
    _report(
        6,
        worst <= 3.0,
        f"max |z| {worst:.2f} (<= 3) over 10 time points x 3 assets "
        f"(BNS mean+variance, Heston mean) in {elapsed:.1f}s",
    )


def test_criterion_07_calibration_round_trip():
    start = time.monotonic()
    corr = validate_correlation(np.full((3, 3), 0.3) + 0.7 * np.eye(3))
    times = np.linspace(0.05, 2.0, 25)
    noise = 1e-8
    floor = times.size * noise**2

    truth_h = np.array([1.0, 3.0, 6.0, 0.05, 0.08, 0.06, 0.10, 0.03, 0.09])
    rng = np.random.default_rng(1007)
    observed = model_curve("heston", truth_h, corr, times) + rng.normal(0.0, noise, times.size)
    from genvarswap.marketdata import RealizedVarianceSeries

    problem = CalibrationProblem(
        model="heston",
        observed=RealizedVarianceSeries(times=times, values=observed, window=10),
        corr=corr,
        initial=truth_h * 1.5,
        bounds=default_bounds("heston"),
    )
    res_h = fit(problem)
    arpe_h = error_metrics(observed, model_curve("heston", res_h.params, corr, times)).arpe

    truth_b = np.array(
        [2.0, 0.10, 0.03, 0.09, 0.05, 0.08, 0.06, 0.004, 0.006, 0.005, 0.0, 0.0, 0.0, 0.0]
    )
    observed_b = model_curve("bns", truth_b, corr, times) + rng.normal(0.0, noise, times.size)
    bounds = list(default_bounds("bns"))
    for idx in range(7, 14):
        # with rho = 0 the mean curve carries no kappa2 / rho / kappa2* signal
        bounds[idx] = (truth_b[idx], truth_b[idx])
    initial_b = truth_b.copy()
    initial_b[:7] *= 1.5
    problem = CalibrationProblem(
        model="bns",
        observed=RealizedVarianceSeries(times=times, values=observed_b, window=10),
        corr=corr,
        initial=initial_b,
        bounds=bounds,
    )
    res_b = fit(problem)
    arpe_b = error_metrics(observed_b, model_curve("bns", res_b.params, corr, times)).arpe

    elapsed = time.monotonic() - start
    ok = (
        res_h.converged and res_h.sse <= 10.0 * floor and arpe_h <= 1e-3
        and res_b.converged and res_b.sse <= 10.0 * floor and arpe_b <= 1e-3
        and elapsed < 30.0
    )
    _report(
        7,
        ok,
        f"heston sse {res_h.sse:.2e} arpe {arpe_h:.2e}; "
        f"bns sse {res_b.sse:.2e} arpe {arpe_b:.2e} "
        f"(sse tol {10.0 * floor:.2e}, arpe tol 1e-3) in {elapsed:.1f}s (< 30s)",
    )
    # Pinned fits: a change to the LM loop, its Jacobian points or the model
    # curves that moves them fails here. Their last digits follow the BLAS and
    # SIMD kernels (the Heston SSE moved 3e-9 relative across OpenBLAS core
    # types), hence rtol 1e-7.
    assert (res_h.iterations, res_b.iterations) == (7, 6)
    np.testing.assert_allclose(
        [res_h.sse, res_b.sse], [2.4383971731395537e-15, 3.014964697124836e-15], rtol=1e-7
    )
    np.testing.assert_allclose(
        res_h.params,
        [1.3091795416874987, 1.9522204911820291, 5.585811828005547,
         0.04209911974842037, 0.08955804388928847, 0.0656692557187523,
         0.10943679646407195, 0.024368412440127385, 0.10130883232267394],
        rtol=1e-7,
    )
    np.testing.assert_allclose(
        res_b.params,
        [2.005614899655912, 0.09903278140819466, 0.031057859441666898,
         0.08778576007180564, 0.04881787294015462, 0.08258703540339911,
         0.059538961970571444, *truth_b[7:]],
        rtol=1e-7,
    )


def test_criterion_08_error_metric_fixture_and_identities():
    metrics = error_metrics([2.0, 2.0, 2.0], [2.1, 1.9, 2.3])
    printed = (
        f"{metrics.aae:.4f}", f"{metrics.rmse:.4f}",
        f"{metrics.arpe:.4f}", f"{metrics.ape:.4f}",
    )
    fixture_ok = printed == ("0.1667", "0.1915", "0.0833", "0.0833")

    rng = np.random.default_rng(1008)
    identity_ok = True
    for _ in range(50):
        obs = rng.uniform(0.5, 2.0, 12)
        fitted = obs + rng.normal(0.0, 0.3, 12)
        m = error_metrics(obs, fitted)
        identity_ok = identity_ok and m.aae <= m.rmse + 1e-15

    zeros = error_metrics([1.0, 2.0], [1.0, 2.0])
    zero_ok = zeros.rmse == zeros.ape == zeros.aae == zeros.arpe == 0.0
    _report(
        8,
        fixture_ok and identity_ok and zero_ok,
        f"fixture {printed} vs ('0.1667', '0.1915', '0.0833', '0.0833'); "
        f"AAE<=RMSE on 50 draws: {identity_ok}; zero residual -> zeros: {zero_ok}",
    )


def test_criterion_09_window_determinant_factorization():
    start = time.monotonic()
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(20):
        mix = rng.normal(0.0, 1.0, (3, 3)) + 2.0 * np.eye(3)
        returns = rng.normal(0.0, 0.01, (60, 3)) @ mix.T
        series = rolling_determinants(returns, window=10)
        for w in range(series.n_windows):
            block = returns[w * 10 : (w + 1) * 10]
            variances = block.var(ddof=1, axis=0) * 252.0
            corr_det = float(np.linalg.det(np.corrcoef(block.T)))
            factored = corr_det * variances.prod()
            worst = max(worst, abs(series.values[w] - factored) / abs(factored))
    elapsed = time.monotonic() - start
    _report(
        9,
        worst <= 1e-10,
        f"max rel gap {worst:.3e} (tol 1e-10) over 120 windows in {elapsed:.2f}s",
    )


GROUPS = (
    ("KO", "AAPL", "TSLA"),
    ("GOOGL", "MSFT", "META"),
    ("JPM", "NVDA", "AMZN"),
)


def test_criterion_10_reference_dataset_reproduction():
    dataset = os.environ.get(
        "GENVARSWAP_DATASET",
        os.path.join(os.path.dirname(__file__), "..", "data", "close_2021_2024.csv"),
    )
    if not os.path.exists(dataset):
        pytest.skip("reference 2021-2024 close dataset not supplied (non-blocking)")

    series = load_prices(dataset)
    returns = log_returns(series)
    cumulative = np.cumsum(returns, axis=0)
    stats = {s.ticker: s for s in summary_stats(cumulative, series.tickers)}
    nvda_gap = abs(stats["NVDA"].variance - 0.7287)

    orderings = []
    for group in GROUPS:
        idx = [series.tickers.index(t) for t in group]
        sub_returns = returns[:, idx]
        observed = rolling_determinants(sub_returns, window=10)
        from genvarswap.marketdata import estimate_correlation

        corr = estimate_correlation(sub_returns)
        results = {}
        for model in ("heston", "bns"):
            problem = CalibrationProblem(
                model=model,
                observed=observed,
                corr=corr,
                initial=initial_guess(model, observed, corr),
                bounds=default_bounds(model),
            )
            results[model] = fit(problem)
        orderings.append(results["bns"].metrics.rmse < results["heston"].metrics.rmse)

    _report(
        10,
        nvda_gap <= 1e-3 and all(orderings),
        f"NVDA cumulative-return variance gap {nvda_gap:.2e} (tol 1e-3); "
        f"BNS RMSE < Heston RMSE per group: {orderings}",
    )
