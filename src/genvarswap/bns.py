"""Semi-analytic multivariate variance-swap pricing under BNS dynamics.

Each asset's variance is a non-Gaussian OU process driven by an independent
Levy subordinator Z^i with shared decay rate lambda, so

    E[sigma_t^2]   = e^{-lambda t}(sigma_0^2 - kappa1) + kappa1
    Var[sigma_t^2] = (kappa2 / 2)(1 - e^{-2 lambda t})

with kappa1/kappa2 the first two cumulants of Z_1. Expected volatility has
no closed form; the second-order Taylor (Brockhaus-Long) approximation

    E[sigma_t] ~ sqrt(E[sigma_t^2]) - Var[sigma_t^2] / (8 E[sigma_t^2]^{3/2})

is used, with error bounded by mu3 / (16 E[sigma_t^2]^{5/2}) where mu3 is
the third central moment of sigma_t^2.

The expected realized generalized variance of an n-asset portfolio takes
the expectation of the determinant-lemma expansion of |Sigma_2| term by
term. The rank-one jump term contributes through the inverse-correlation
entries delta_ij:

    E[sigma_R^2] = (|C|/T) [ E_all + lambda kappa2* (
        sum_i delta_ii rho_i^2 E_{-i}
        + sum_{i<j} 2 delta_ij rho_i rho_j E_{ij} ) ],

where E_all and E_{-i} integrate products of expected variances over all
assets and over all assets but i. They are exact: the exponential-affine
product kernel of ``heston`` expands them over subsets of assets. E_{ij}
replaces the variances of assets i and j by their expected volatilities and
is evaluated by adaptive quadrature (absolute tolerance 1e-12 by default)
with reported error estimates. For n = 3 these are the paper's E_0..E_6
(``compute_e_terms``): E_0 = E_all, E_1..E_3 = E_{-1}..E_{-3} and
E_4..E_6 = E_{12}, E_{13}, E_{23} (1-based).

A note on the volatility correction: with Var[sigma_t^2] written out, the
correction kappa2 (1 - e^{-2 lambda t}) / (16 E^{3/2}) equals
Var / (8 E^{3/2}) identically, since (1/2)/8 = 1/16. ``var_i_coefficient``
is exposed for compatibility with the coefficient-16 reading of that
specialized formula (which halves the correction); the default 8 follows the
Brockhaus-Long expansion.

All functions are pure; quadrature is re-entrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .core import BnsAssetParams, BnsPortfolioParams, CorrelationMatrix, SwapContract
from .errors import (
    DegenerateVariance,
    DimensionMismatch,
    MissingSubordinatorSpec,
    QuadratureFailure,
    WrongAssetCount,
)
from .heston import _affine_product_integral, _check_maturity, _check_time, price_swap

__all__ = [
    "BnsETerms",
    "VolApprox",
    "expected_variance_bns",
    "variance_of_variance_bns",
    "third_central_moment_bns",
    "expected_vol_bns",
    "compute_e_terms",
    "expected_realized_variance_bns",
    "price_swap_bns",
]

class VolApprox(NamedTuple):
    """Brockhaus-Long volatility approximation and its optional error bound."""

    value: float
    error_bound: float | None


@dataclass(frozen=True)
class BnsETerms:
    """The seven integrals E_0..E_6 over [0, T].

    E_0..E_3 are exact; E_4..E_6 are adaptive quadratures whose reported
    absolute error estimates are carried alongside.
    """

    e0: float
    e1: float
    e2: float
    e3: float
    e4: float
    e5: float
    e6: float
    e4_error: float
    e5_error: float
    e6_error: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise QuadratureFailure(f"E-term field {f.name} is not finite")


def expected_variance_bns(t, a: BnsAssetParams, lambda_: float):
    """E[sigma_t^2] = e^{-lambda t}(sigma_0^2 - kappa1) + kappa1."""
    t = _check_time(t)
    out = np.exp(-lambda_ * t) * (a.sigma0_2 - a.kappa1) + a.kappa1
    return out if out.ndim else float(out)


def variance_of_variance_bns(t, a: BnsAssetParams, lambda_: float):
    """Var[sigma_t^2] = (kappa2 / 2)(1 - e^{-2 lambda t})."""
    t = _check_time(t)
    out = 0.5 * a.kappa2 * (1.0 - np.exp(-2.0 * lambda_ * t))
    return out if out.ndim else float(out)


def third_central_moment_bns(t, a: BnsAssetParams, lambda_: float):
    """mu3 of sigma_t^2, from the subordinator's third cumulant.

    The m-th cumulant of the OU state at time t is
    kappa_m(Z_1) (1 - e^{-m lambda t}) / m. kappa3 comes from the asset's
    subordinator spec when present, otherwise from the moment-matched
    Gamma-OU law (kappa3 = 1.5 kappa2^2 / kappa1); kappa2 = 0 gives zero.
    """
    t = _check_time(t)
    if a.subordinator is not None:
        kappa3 = a.subordinator.kappa3
    elif a.kappa2 == 0.0:
        kappa3 = 0.0
    elif a.kappa1 > 0.0:
        kappa3 = 1.5 * a.kappa2**2 / a.kappa1
    else:
        raise MissingSubordinatorSpec(
            "kappa1 = 0 with kappa2 > 0: third cumulant is not derivable, "
            "provide an explicit subordinator spec"
        )
    out = kappa3 * (1.0 - np.exp(-3.0 * lambda_ * t)) / 3.0
    return out if out.ndim else float(out)


def expected_vol_bns(
    t,
    a: BnsAssetParams,
    lambda_: float,
    mu3: float | None = None,
    var_i_coefficient: float = 8.0,
):
    """Brockhaus-Long approximation of E[sigma_t].

    Returns ``VolApprox(value, error_bound)``. The error bound
    mu3 / (16 E[sigma_t^2]^{5/2}) is filled only when the caller supplies
    mu3 (the subordinator family is a simulation choice, not a pricing
    input); otherwise it is None. See the module docstring for the
    ``var_i_coefficient`` compatibility flag.
    """
    ev = expected_variance_bns(t, a, lambda_)
    if np.any(np.asarray(ev) <= 0.0):
        raise DegenerateVariance("E[sigma_t^2] <= 0 under the supplied parameters")
    var = variance_of_variance_bns(t, a, lambda_)
    value = np.sqrt(ev) - var / (var_i_coefficient * ev**1.5)
    bound = None
    if mu3 is not None:
        bound = mu3 / (16.0 * ev**2.5)
        bound = bound if np.ndim(bound) else float(bound)
    return VolApprox(value if np.ndim(value) else float(value), bound)


def _mean_variance_terms(p: BnsPortfolioParams, keep) -> tuple[list, list, list]:
    """(d, c, k) of E[(sigma_t^i)^2] = d_i e^{-k_i t} + c_i for the assets in ``keep``."""
    assets = [p.assets[i] for i in keep]
    return (
        [a.sigma0_2 - a.kappa1 for a in assets],
        [a.kappa1 for a in assets],
        [p.lambda_] * len(assets),
    )


def _e_cross(T, p: BnsPortfolioParams, i: int, j: int, tol: float, var_i_coefficient: float):
    """integral_0^T E[sigma^i] E[sigma^j] prod_{l != i, j} E[(sigma^l)^2] dt.

    Adaptive quadrature for each maturity in ``T``; returns the values and
    the absolute error estimates, both shaped like ``T``.
    """
    lam = p.lambda_
    squared = [(a.sigma0_2 - a.kappa1, a.kappa1) for l, a in enumerate(p.assets) if l not in (i, j)]
    vols = [
        (a.sigma0_2 - a.kappa1, a.kappa1, 0.5 * a.kappa2)
        for a in (p.assets[i], p.assets[j])
    ]

    def integrand(t: float) -> float:
        decay = math.exp(-lam * t)
        growth = 1.0 - math.exp(-2.0 * lam * t)
        out = 1.0
        for d, c in squared:
            out *= decay * d + c
        for d, c, half_kappa2 in vols:
            e = decay * d + c
            out *= math.sqrt(e) - half_kappa2 * growth / (var_i_coefficient * e**1.5)
        return out

    values, errors = [], []
    for T_k in np.ravel(T):
        result = quad(integrand, 0.0, float(T_k), epsabs=tol, epsrel=tol, limit=200, full_output=1)
        if len(result) > 3:
            raise QuadratureFailure(f"cross term ({i}, {j}) quadrature failed: {result[3]}")
        values.append(result[0])
        errors.append(result[1])
    return np.reshape(values, np.shape(T)), np.reshape(errors, np.shape(T))


def compute_e_terms(
    T: float,
    p: BnsPortfolioParams,
    tol: float = 1e-12,
    var_i_coefficient: float = 8.0,
) -> BnsETerms:
    """The paper's seven integrals E_0..E_6 over [0, T] for three assets.

    E_0..E_3 use the exact exponential-affine product kernel; E_4..E_6 use
    adaptive quadrature at absolute tolerance ``tol`` with reported error
    estimates.
    """
    if p.n != 3:
        raise WrongAssetCount(f"E_0..E_6 are defined for exactly 3 assets, got {p.n}")
    T = float(_check_maturity(T))

    def product(*keep):
        return float(_affine_product_integral(T, *_mean_variance_terms(p, keep)))

    e4, e5, e6 = (
        [float(x) for x in _e_cross(T, p, i, j, tol, var_i_coefficient)]
        for i, j in ((0, 1), (0, 2), (1, 2))
    )
    return BnsETerms(
        e0=product(0, 1, 2),
        e1=product(1, 2),
        e2=product(0, 2),
        e3=product(0, 1),
        e4=e4[0],
        e5=e5[0],
        e6=e6[0],
        e4_error=e4[1],
        e5_error=e5[1],
        e6_error=e6[1],
    )


def expected_realized_variance_bns(
    T,
    p: BnsPortfolioParams,
    corr: CorrelationMatrix,
    tol: float = 1e-12,
    var_i_coefficient: float = 8.0,
):
    """E[sigma_R^2] over [0, T] for a BNS portfolio of any asset count.

    Accepts scalar or array T. Cross-term quadratures are skipped when their
    coefficients vanish exactly (kappa2* = 0 or the relevant rho product is
    zero), which makes the common rho = 0 calibration path fully closed-form.
    """
    if p.n != corr.n:
        raise DimensionMismatch(f"{p.n} assets vs {corr.n}x{corr.n} correlation")
    delta = corr.inverse()
    T = _check_maturity(T)

    n = p.n
    bracket = _affine_product_integral(T, *_mean_variance_terms(p, range(n)))
    lam_k2 = p.lambda_ * p.kappa2_star
    if lam_k2 != 0.0:
        rho = p.rho
        inner = 0.0
        for i in range(n):
            coeff = delta[i, i] * rho[i] ** 2
            if coeff != 0.0:
                others = [l for l in range(n) if l != i]
                inner = inner + coeff * _affine_product_integral(
                    T, *_mean_variance_terms(p, others)
                )
        for i, j in combinations(range(n), 2):
            coeff = 2.0 * delta[j, i] * rho[j] * rho[i]
            if coeff != 0.0:
                inner = inner + coeff * _e_cross(T, p, i, j, tol, var_i_coefficient)[0]
        bracket = bracket + lam_k2 * inner
    out = corr.det_c * bracket / T
    return out if out.ndim else float(out)


def price_swap_bns(ev_realized: float, contract: SwapContract) -> float:
    """Discounted swap value; same contract arithmetic as the Heston pricer."""
    return price_swap(ev_realized, contract)
