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
Heston passes per-asset rates and keeps all 2^n terms, for one parameter
set or a stack alike. The BNS closed forms reuse the same kernel with one
shared rate lambda, where the subsets of one size merge into one term.

Time arguments accept scalars or arrays (broadcast elementwise); all
functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CorrelationMatrix, HestonAssetParams, SwapContract, _as_floats, _exp, _real_matrix,
    _require_finite, validate_correlation,
)
from .errors import (
    DimensionMismatch,
    NegativeTime,
    NonPositiveMaturity,
    NumericalError,
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
        return cls(
            assets=tuple(HestonAssetParams.from_dict(a) for a in d["assets"]),
            corr=validate_correlation(_real_matrix("correlation", d["correlation"])),
        )


def _check_time(t):
    t = _as_floats("t", t)
    if not np.all(t >= 0.0):
        raise NegativeTime("t must be >= 0 (not NaN)")
    return t


def _check_maturity(T):
    T = _as_floats("maturity", T)
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


def _affine_product_integral(T, d, c, k=None, *, rate=None):
    """integral_0^T prod_i (d_i e^{-k_i t} + c_i) dt, vectorised over T.

    Multiplying the factors out one at a time expands the product over the
    subsets S of indices, sum_S prod_{i in S} d_i prod_{i not in S} c_i
    e^{-a_S t} with a_S = sum_{i in S} k_i. With per-factor rates ``k``
    every subset is its own term, 2^n of them. With one shared ``rate``
    instead (every BNS rate is lambda), a_S depends only on |S|, and the
    subsets of one size merge as they appear: n + 1 terms.

    Each d_i, c_i and rate may also be an array over parameter sets that
    broadcasts against T; array rates must be > 0. Which terms merge
    depends on the call alone, never on the rates' values, so each set
    gets the value of its own call.
    """
    terms = [(0.0, 1.0)]  # (rate, coefficient), the empty subset first
    for i, (d_i, c_i) in enumerate(zip(d, c)):
        k_i = rate if k is None else k[i]
        terms = [t for a, coeff in terms for t in ((a, coeff * c_i), (a + k_i, coeff * d_i))]
        if k is None:  # the subsets of one size share a rate: merge them, in order
            terms[1:-1] = [(a, x + y) for (a, x), (_, y) in zip(terms[1::2], terms[2::2])]
    total = terms[0][1] * T
    for a, coeff in terms[1:]:
        total = total + coeff * -np.expm1(-a * T) / a
    return total


def expected_realized_variance(T, portfolio: HestonPortfolio):
    """E[sigma_R^2] = (|C|/T) integral_0^T prod_i E[(sigma_t^i)^2] dt, in closed form.

    Any asset count; ``expected_realized_variance_quad`` is the quadrature
    cross-check.
    """
    columns = np.array([[a.k, a.theta2, a.sigma0_2] for a in portfolio.assets]).T[:, None, :]
    out = _expected_realized_variance_sets(T, *columns, portfolio.corr)[0]
    return out if out.ndim else float(out)


def _expected_realized_variance_sets(T, k, theta2, sigma0_2, corr: CorrelationMatrix) -> np.ndarray:
    """``expected_realized_variance`` for P parameter sets at once, shaped ``(P, *T.shape)``.

    ``k``, ``theta2`` and ``sigma0_2`` hold one row of n per set, already
    validated. All sets go in one kernel call with per-factor rates, which
    merges no terms, so every value is that of its own call bit for bit.
    """
    T = _check_maturity(T)
    shape = (-1,) + (1,) * T.ndim
    columns = ([x.reshape(shape) for x in c.T] for c in (sigma0_2 - theta2, theta2, k))
    return corr.det_c * _affine_product_integral(T, *columns) / T


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
    """Discounted swap value: notional * e^{-r T} (E[sigma_R^2] - k_var).

    ``ev_realized`` must be finite. Raises ``NumericalError`` where the
    discount factor or the value is not finite.
    """
    ev_realized = _require_finite("ev_realized", ev_realized)
    discount = _exp(-contract.r * contract.maturity)
    value = contract.notional * discount * (ev_realized - contract.k_var)
    if not math.isfinite(value):
        raise NumericalError(
            f"swap value {value} is not finite (discount factor e^(-r T) = {discount:.6g} "
            f"at r = {contract.r}, T = {contract.maturity})"
        )
    return value
