"""Confirm both pricing formulas against path simulation.

Simulates the variance processes (CIR full-truncation Euler for Heston,
exact-in-law Gamma-OU jumps and decay for BNS), averages the covariance
determinant along each path (for BNS, integrated exactly between jumps),
and compares the Monte Carlo mean with the closed-form expected leg. Identical seeds give identical estimates
regardless of thread count or block size.
"""

import os

import numpy as np

from genvarswap import (
    BnsAssetParams,
    BnsPortfolioParams,
    HestonAssetParams,
    HestonPortfolio,
    SimConfig,
    bns_realized_variance_mc,
    expected_realized_variance,
    expected_realized_variance_bns,
    heston_realized_variance_mc,
    validate_correlation,
)

THREADS = os.cpu_count() or 1

corr = validate_correlation(np.full((3, 3), 0.3) + 0.7 * np.eye(3))
cfg = SimConfig(n_paths=20_000, dt=0.002, horizon=1.0, seed=42)

heston = HestonPortfolio(
    assets=(
        HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=0.3),
        HestonAssetParams(k=1.0, theta2=0.05, sigma0_2=0.06, gamma=0.2),
        HestonAssetParams(k=3.0, theta2=0.07, sigma0_2=0.05, gamma=0.35),
    ),
    corr=corr,
)
est = heston_realized_variance_mc(heston, cfg, threads=THREADS)
closed = expected_realized_variance(cfg.horizon, heston)
z = (est.mean - closed) / est.std_error
print(f"Heston  mc {est.mean:.6e} +/- {est.std_error:.2e}   closed {closed:.6e}   z {z:+.2f}")

bns = BnsPortfolioParams(
    assets=(
        BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004, rho=-0.3),
        BnsAssetParams(sigma0_2=0.06, kappa1=0.07, kappa2=0.006, rho=-0.2),
        BnsAssetParams(sigma0_2=0.05, kappa1=0.06, kappa2=0.005, rho=-0.4),
    ),
    lambda_=2.0,
    kappa2_star=0.01,
)
est = bns_realized_variance_mc(bns, corr, cfg, threads=THREADS)
closed = expected_realized_variance_bns(cfg.horizon, bns, corr)
z = (est.mean - closed) / est.std_error
print(f"BNS     mc {est.mean:.6e} +/- {est.std_error:.2e}   closed {closed:.6e}   z {z:+.2f}")

# Same seed, different threading: bit-identical estimate.
again = bns_realized_variance_mc(bns, corr, cfg, threads=1)
print(f"thread-count invariance: {again.mean == est.mean}")
