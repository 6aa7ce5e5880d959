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
        from .core import _real_matrix, validate_correlation

        return cls(
            assets=tuple(HestonAssetParams.from_dict(a) for a in d["assets"]),
            corr=validate_correlation(_real_matrix("correlation", d["correlation"])),
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

    Each d_i, c_i and k_i may also be an array over parameter sets that
    broadcasts against T; array rates must be > 0. Terms then merge where
    their rates are equal in every set, so each set gets the value of its
    own call whenever its equal rates are equal in all sets, as BNS rates
    are (multiples of each set's own lambda).
    """
    terms = {0.0: (0.0, 1.0)}  # rate key -> (rate, coefficient)
    for d_i, c_i, k_i in zip(d, c, k):
        grown: dict = {}
        for rate, coeff in terms.values():
            for new_rate, part in ((rate, coeff * c_i), (rate + k_i, coeff * d_i)):
                key = new_rate.tobytes() if isinstance(new_rate, np.ndarray) else new_rate
                grown[key] = (new_rate, (grown[key][1] if key in grown else 0.0) + part)
        terms = grown
    total = 0.0
    for key, (rate, coeff) in terms.items():
        if key == 0.0:
            total = total + coeff * T
        else:
            total = total + coeff * -np.expm1(-rate * T) / rate
    return total


def expected_realized_variance(T, portfolio: HestonPortfolio):
    """E[sigma_R^2] = (|C|/T) integral_0^T prod_i E[(sigma_t^i)^2] dt, in closed form.

    Any asset count; ``expected_realized_variance_quad`` is the quadrature
    cross-check.
    """
    columns = np.array([[a.k, a.theta2, a.sigma0_2] for a in portfolio.assets]).T[:, None, :]
    out = _expected_realized_variance_sets(T, *columns, portfolio.corr)[0]
    return out if out.ndim else float(out)


def _coinciding_rates(k: np.ndarray) -> list[np.ndarray]:
    """The rows of k grouped by which of their subset rates sum_{i in S} k_i are equal.

    The rates are summed in ascending asset order, as
    ``_affine_product_integral`` forms them. Each row's pattern labels
    every subset by the first subset with its rate (a stable sort puts
    equal rates in subset order); rows with the same labels form a group.
    """
    rates = np.zeros((len(k), 1))
    for column in k.T:
        rates = np.concatenate((rates, rates + column[:, None]), axis=1)
    order = np.argsort(rates, axis=1, kind="stable")
    ranked = np.take_along_axis(rates, order, axis=1)
    starts = np.ones(rates.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    runs = np.maximum.accumulate(np.where(starts, np.arange(rates.shape[1]), 0), axis=1)
    labels = np.empty_like(order)
    np.put_along_axis(labels, order, np.take_along_axis(order, runs, axis=1), axis=1)
    groups: dict = {}
    for row, pattern in enumerate(labels):
        groups.setdefault(pattern.tobytes(), []).append(row)
    return [np.array(rows) for rows in groups.values()]


def _expected_realized_variance_sets(T, k, theta2, sigma0_2, corr: CorrelationMatrix) -> np.ndarray:
    """``expected_realized_variance`` for P parameter sets at once, shaped ``(P, *T.shape)``.

    ``k``, ``theta2`` and ``sigma0_2`` hold one row of n per set, already
    validated. The kernel merges the terms whose rates are equal in every
    set of a call, so the sets go in one call per group whose subset rates
    coincide in the same places (``_coinciding_rates``): each set's terms
    then merge, and add up, as in a call of its own, and every value is
    that of its own call bit for bit.
    """
    T = _check_maturity(T)
    columns = (sigma0_2 - theta2, theta2, k)
    if len(k) == 1:  # one set as floats, which the kernel multiplies out faster than arrays
        integral = _affine_product_integral(T, *(c[0].tolist() for c in columns))
        return (corr.det_c * integral / T)[None]
    shape = (-1,) + (1,) * T.ndim
    out = np.empty((len(k), *T.shape))
    for rows in _coinciding_rates(k):
        integral = _affine_product_integral(
            T, *([x.reshape(shape) for x in c[rows].T] for c in columns)
        )
        out[rows] = corr.det_c * integral / T
    return out


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

    Raises ``NumericalError`` where the discount factor or the value is not finite.
    """
    try:
        discount = math.exp(-contract.r * contract.maturity)
    except OverflowError:
        discount = math.inf
    value = contract.notional * discount * (float(ev_realized) - contract.k_var)
    if not math.isfinite(value):
        raise NumericalError(
            f"swap value {value} is not finite (discount factor e^(-r T) = {discount:.6g} "
            f"at r = {contract.r}, T = {contract.maturity})"
        )
    return value
