"""Closed-form multivariate variance-swap pricing under Heston dynamics.

Each asset's variance follows an independent square-root process, so
E[sigma_t^2] = e^{-k t}(sigma_0^2 - theta^2) + theta^2 and the expected
generalized variance factorizes through |Sigma_1| = |C| prod (sigma_t^i)^2.
The expected realized generalized variance over [0, T] is

    E[sigma_R^2] = (|C| / T) * integral_0^T prod_i E[(sigma_t^i)^2] dt

for any asset count n. The time integral is one exponential-affine product,
integral_0^T prod_i (d_i e^{-k_i t} + c_i) dt, which expands over the 2^n
subsets S of assets: each contributes prod_{i in S} d_i prod_{i not in S} c_i
times (1 - e^{-a T})/a with a = sum_{i in S} k_i, or times T when a = 0.
The BNS closed forms reuse the same kernel.

Time arguments accept scalars or arrays (broadcast elementwise); all
functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CorrelationMatrix, HestonAssetParams, SwapContract
from .errors import (
    DimensionMismatch,
    NegativeTime,
    NonPositiveMaturity,
    QuadratureFailure,
)

__all__ = [
    "HestonPortfolio",
    "expected_variance",
    "expected_product",
    "expected_realized_variance",
    "expected_realized_variance_quad",
    "price_swap",
]


@dataclass(frozen=True, eq=False)
class HestonPortfolio:
    """Per-asset square-root variance parameters plus the return correlation."""

    assets: tuple[HestonAssetParams, ...]
    corr: CorrelationMatrix

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        if len(self.assets) != self.corr.n:
            raise DimensionMismatch(
                f"{len(self.assets)} assets vs {self.corr.n}x{self.corr.n} correlation"
            )

    @property
    def n(self) -> int:
        return len(self.assets)

    def to_dict(self) -> dict:
        return {
            "assets": [a.to_dict() for a in self.assets],
            "correlation": self.corr.to_dict()["c"],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HestonPortfolio":
        from .core import validate_correlation

        return cls(
            assets=tuple(HestonAssetParams.from_dict(a) for a in d["assets"]),
            corr=validate_correlation(np.asarray(d["correlation"], dtype=float)),
        )


def _check_time(t, name: str = "t"):
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise NegativeTime(f"{name} must be >= 0 (not NaN)")
    return t


def _check_maturity(T):
    T = np.asarray(T, dtype=float)
    if not np.all((T > 0.0) & np.isfinite(T)):
        raise NonPositiveMaturity("maturity must be finite and > 0")
    return T


def expected_variance(t, p: HestonAssetParams):
    """E[sigma_t^2] = e^{-k t}(sigma_0^2 - theta^2) + theta^2 (gamma-free)."""
    t = _check_time(t)
    return np.exp(-p.k * t) * (p.sigma0_2 - p.theta2) + p.theta2


def expected_product(t, portfolio: HestonPortfolio):
    """prod_i E[(sigma_t^i)^2], the integrand of the expected realized variance."""
    t = _check_time(t)
    out = np.prod([expected_variance(t, a) for a in portfolio.assets], axis=0)
    return out if out.ndim else float(out)


def _affine_product_integral(T, d, c, k):
    """integral_0^T prod_i (d_i e^{-k_i t} + c_i) dt, vectorised over T.

    Multiplying the factors out one at a time expands the product over the
    subsets S of indices, sum_S prod_{i in S} d_i prod_{i not in S} c_i
    e^{-a_S t} with a_S = sum_{i in S} k_i. Terms that share a rate are
    merged as they appear, so an equal-rate family (every BNS rate is a
    multiple of lambda) keeps n + 1 terms instead of 2^n.
    """
    terms = {0.0: 1.0}
    for d_i, c_i, k_i in zip(d, c, k):
        grown: dict[float, float] = {}
        for rate, coeff in terms.items():
            grown[rate] = grown.get(rate, 0.0) + coeff * c_i
            grown[rate + k_i] = grown.get(rate + k_i, 0.0) + coeff * d_i
        terms = grown
    total = 0.0
    for rate, coeff in terms.items():
        if rate == 0.0:
            total = total + coeff * T
        else:
            total = total + coeff * (1.0 - np.exp(-rate * T)) / rate
    return total


def expected_realized_variance(T, portfolio: HestonPortfolio):
    """E[sigma_R^2] = (|C|/T) integral_0^T prod_i E[(sigma_t^i)^2] dt, in closed form.

    Any asset count; ``expected_realized_variance_quad`` is the quadrature
    cross-check.
    """
    T = _check_maturity(T)
    integral = _affine_product_integral(
        T,
        [a.sigma0_2 - a.theta2 for a in portfolio.assets],
        [a.theta2 for a in portfolio.assets],
        [a.k for a in portfolio.assets],
    )
    out = portfolio.corr.det_c * integral / T
    return out if out.ndim else float(out)


def expected_realized_variance_quad(
    T: float, portfolio: HestonPortfolio, tol: float = 1e-12
) -> float:
    """Quadrature route for E[sigma_R^2], valid for any asset count n.

    Integrates |C| prod_i E[(sigma_t^i)^2] over [0, T] adaptively and divides
    by T. Shares no code with the closed form, which it agrees with to the
    quadrature tolerance.
    """
    from scipy.integrate import quad  # a test oracle: keep scipy off the import path

    T = float(_check_maturity(T))

    def integrand(t: float) -> float:
        out = 1.0
        for a in portfolio.assets:
            out *= math.exp(-a.k * t) * (a.sigma0_2 - a.theta2) + a.theta2
        return out

    result = quad(integrand, 0.0, T, epsabs=tol, epsrel=tol, limit=200, full_output=1)
    if len(result) > 3:
        raise QuadratureFailure(f"realized-variance quadrature failed: {result[3]}")
    value = result[0]
    return portfolio.corr.det_c * value / T


def price_swap(ev_realized: float, contract: SwapContract) -> float:
    """Discounted swap value: notional * e^{-r T} (E[sigma_R^2] - k_var)."""
    discount = math.exp(-contract.r * contract.maturity)
    return contract.notional * discount * (float(ev_realized) - contract.k_var)
