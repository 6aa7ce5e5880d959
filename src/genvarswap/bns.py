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
product kernel of ``heston`` expands them over subsets of assets, which
share the rate lambda, so the subsets of one size make one term. E_{ij}
replaces the variances of assets i and j by their expected volatilities. A
parameter set whose whole jump part is provably below 2^-56 of its smallest
E_all (``_jump_bound``) keeps E_all's bits without it, and so integrates no
term of it. E_{-i} enters only through its coefficient lambda kappa2*
delta_ii rho_i^2, so it is integrated only for an asset whose coefficient
survives in some set. The pairs of the other sets with a nonzero
coefficient are integrated together over all maturities in one vectorised
pass (``quad``) of the 15-point Gauss-Kronrod rule (QUADPACK's qk15): the
sorted maturities split [0, max T] into panels, cumulative panel sums give
every maturity, and |K15 - G7| is the reported error estimate. Failing
panels are split until each maturity's error is within max(tol, tol |value|)
(tol = 1e-12 by default). The same kernel prices many parameter sets at
once, as the calibration Jacobian needs. The sets come as columns, one row
per set (``_one_set`` turns a portfolio into a stack of one): E_all and each
E_{-i} still needed are one kernel call over all sets, as they are given,
and the cross terms of every (set, pair) row share one pass, which
evaluates each rate, E[sigma^2] and E[sigma] factor the sets share once
per node. For n = 3 these are the paper's E_0..E_6
(``compute_e_terms``, which integrates every one): E_0 = E_all,
E_1..E_3 = E_{-1}..E_{-3} and E_4..E_6 = E_{12}, E_{13}, E_{23} (1-based).

A note on the volatility correction: with Var[sigma_t^2] written out, the
correction kappa2 (1 - e^{-2 lambda t}) / (16 E^{3/2}) equals
Var / (8 E^{3/2}) identically, since (1/2)/8 = 1/16. ``var_i_coefficient``
is exposed for compatibility with the coefficient-16 reading of that
specialized formula (which halves the correction); the default 8 follows the
Brockhaus-Long expansion. It must be finite and > 0, as must lambda and
the quadrature ``tol``, and ``mu3`` finite and >= 0: ``core``'s rules
check each, with their ``ValidationError`` messages.

All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import (
    BnsAssetParams, BnsPortfolioParams, CorrelationMatrix, SwapContract, _as_floats, _check_field,
    _jump_law, _require_nonnegative, _require_positive,
)
from .errors import DegenerateVariance, DimensionMismatch, QuadratureFailure, WrongAssetCount
from .genvar import _jump_weights
from .heston import _affine_product_integral, _check_maturity, _check_time, _finite_realized_variance, price_swap

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

    E_0..E_3 are exact; E_4..E_6 come from the vectorised Gauss-Kronrod
    pass, with its absolute error estimates |K15 - G7| carried alongside.
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
    """E[sigma_t^2] = e^{-lambda t}(sigma_0^2 - kappa1) + kappa1, for a finite lambda > 0."""
    t = _check_time(t)
    lambda_ = _check_field("lambda", lambda_)
    out = np.exp(-lambda_ * t) * (a.sigma0_2 - a.kappa1) + a.kappa1
    return out if out.ndim else float(out)


def _ou_cumulant(t, kappa_m: float, m: int, lambda_: float):
    """The m-th cumulant of the OU state sigma_t^2: kappa_m(Z_1) (1 - e^{-m lambda t}) / m."""
    t = _check_time(t)
    lambda_ = _check_field("lambda", lambda_)
    out = kappa_m * -np.expm1(-m * lambda_ * t) / m
    return out if out.ndim else float(out)


def variance_of_variance_bns(t, a: BnsAssetParams, lambda_: float):
    """Var[sigma_t^2] = (kappa2 / 2)(1 - e^{-2 lambda t})."""
    return _ou_cumulant(t, a.kappa2, 2, lambda_)


def third_central_moment_bns(t, a: BnsAssetParams, lambda_: float):
    """mu3 of sigma_t^2, kappa3 (1 - e^{-3 lambda t}) / 3.

    kappa3 is the third cumulant of the subordinator law ``core._jump_law``
    decides, zero for the drift of kappa2 = 0; kappa1 = 0 < kappa2 has no
    law and raises ``MissingSubordinatorSpec``.
    """
    law = _jump_law(a)
    return _ou_cumulant(t, 0.0 if law is None else law.kappa3, 3, lambda_)


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
    input); otherwise it is None. mu3 must be finite and >= 0, as the third
    cumulant of a subordinator-driven OU state is. See the module docstring
    for the ``var_i_coefficient`` compatibility flag.
    """
    _require_positive("var_i_coefficient", var_i_coefficient)
    if mu3 is not None:  # scalar, or an array following t: its extremes carry the rule
        mu3 = _as_floats("mu3", mu3)
        for extreme in (np.min(mu3), np.max(mu3)):
            _require_nonnegative("mu3", extreme)
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


def _per_set(values, T) -> np.ndarray:
    """One value per parameter set, shaped to broadcast against ``T``."""
    return np.reshape(values, (len(values),) + (1,) * np.ndim(T))


def _one_set(p: BnsPortfolioParams) -> tuple:
    """One portfolio as a stack of one set: lambda, sigma0_2, kappa1, kappa2, rho, kappa2_star.

    lambda and kappa2_star are shaped (1,), the per-asset columns (1, n).
    """
    per_asset = np.array([[a.sigma0_2, a.kappa1, a.kappa2, a.rho] for a in p.assets]).T[:, None, :]
    return (np.array([p.lambda_]), *per_asset, np.array([p.kappa2_star]))


def _mean_variance_products(T, lam, sigma0_2, kappa1) -> tuple:
    """E_all of each set, shaped ``(P, *T.shape)``, and a function of i giving E_{-i} alike.

    Each integrates prod_l E[(sigma^l)^2] over [0, T] in closed form, over
    all assets or all but asset i, with E[(sigma^l)^2] = d_l e^{-lambda t}
    + c_l taken per set from ``lam`` (P,) and ``sigma0_2``, ``kappa1``
    (P, n). All P sets go through one kernel call as they are given, whose
    arithmetic is elementwise, so each set gets the bits of its own call.
    E_all is integrated here, each E_{-i} only when asked for, so a caller
    whose coefficient of E_{-i} is zero in every set skips its kernel call.
    """
    n = sigma0_2.shape[1]
    d = [_per_set(sigma0_2[:, i] - kappa1[:, i], T) for i in range(n)]
    c = [_per_set(kappa1[:, i], T) for i in range(n)]
    rate = _per_set(lam, T)

    def product(keep):
        return _affine_product_integral(T, [d[i] for i in keep], [c[i] for i in keep], rate=rate)

    return product(range(n)), lambda i: product([l for l in range(n) if l != i])


# QUADPACK qk15 on [-1, 1] (Piessens et al., 1983): the 15 Kronrod nodes and
# weights, and the weights of the embedded 7-point Gauss rule (zero at the
# Kronrod-only nodes).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)
_NODES = np.concatenate((np.negative(_XGK[:-1]), _XGK[::-1]))
_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_KRONROD_MINUS_GAUSS = _KRONROD - np.concatenate((_WG[:-1], _WG[::-1]))
# A failing panel is split at its quarter points, two bisection levels per
# round. Limits: refinement rounds, and panels per maturity or interval (as
# quad's subinterval limit of 200).
_QUARTERS = np.array([0.25, 0.5, 0.75])
_MAX_ROUNDS = 20
_MAX_PANELS_PER_MATURITY = 200
# A panel is split above this share of its error budget. The margin exceeds
# the relative rounding of the cumulative sums (N eps for N panels) up to
# about 10^9 panels.
_SPLIT_SHARE = 1.0 - 1e-6


def quad(f, T, tol: float, labels):
    """integral_0^T f(t) dt for every row of ``f`` and every maturity in ``T`` at once.

    ``f`` maps an array of times to the values of all rows, shaped
    ``(len(labels), *times.shape)``. The sorted unique maturities are the
    breakpoints of panels [0, t_1], [t_1, t_2], ...; QUADPACK's G7/K15 rule
    gives each panel's value (K15) and error (|K15 - G7|), and cumulative
    sums give each maturity. While some maturity's error exceeds
    max(tol, tol |value|), the accept rule of scipy's
    ``quad(epsabs=tol, epsrel=tol)``, the panels over their share of that
    budget are split in four and all panels integrated again. Past the
    limits, or with no panel left to split (a non-finite integrand), it
    raises ``QuadratureFailure`` naming the label of the worst row. Returns
    the values and the absolute error estimates, shaped
    ``(len(labels), *T.shape)``.

    The name is scipy's, whose place it takes here: the benchmark's
    ``bns.quad_calls`` counter wraps ``genvarswap.bns.quad`` and counts one
    call per vectorised quadrature.
    """
    T = np.asarray(T, dtype=float)
    ts, where = np.unique(T.ravel(), return_inverse=True)
    edges = np.concatenate(([0.0], ts))
    for rounds in range(_MAX_ROUNDS + 1):
        widths = edges[1:] - edges[:-1]
        half = 0.5 * widths
        values = f((edges[:-1] + half)[:, None] + half[:, None] * _NODES)
        panel_values = half * (values @ _KRONROD)
        panel_errors = half * np.abs(values @ _KRONROD_MINUS_GAUSS)
        last = edges.searchsorted(ts) - 1
        value = panel_values.cumsum(axis=1)[:, last]
        error = panel_errors.cumsum(axis=1)[:, last]
        allowed = np.maximum(tol, tol * np.abs(value))
        if (error <= allowed).all():
            shape = (len(labels), *T.shape)
            return value[:, where].reshape(shape), error[:, where].reshape(shape)
        # A panel's budget is its width times the smallest allowed error per
        # unit time of the maturities at or after its end. With every panel
        # within its budget, every maturity is within max(tol, tol |value|),
        # and the split share leaves room for rounding. So while a maturity
        # is over, some panel is over its split share, unless an error is
        # not finite.
        per_time = np.minimum.accumulate((allowed / ts)[:, ::-1], axis=1)[:, ::-1]
        budget = widths * per_time[:, ts.searchsorted(edges[1:])]
        split = (panel_errors > _SPLIT_SHARE * budget).any(axis=0)
        too_many = edges.size + _QUARTERS.size * split.sum() > _MAX_PANELS_PER_MATURITY * ts.size
        if rounds == _MAX_ROUNDS or too_many or not split.any():
            worst = labels[int(np.argmax(np.max(error / allowed, axis=1)))]
            raise QuadratureFailure(
                f"{worst} did not reach tolerance {tol:g} within "
                f"{edges.size - 1} panels after {rounds} rounds"
            )
        quarters = edges[:-1][split, None] + widths[split, None] * _QUARTERS
        edges = np.sort(np.concatenate((edges, quarters.ravel())))


def quad_intervals(f, widths: np.ndarray, tol: float, label: str) -> np.ndarray:
    """integral_0^{widths[k]} f(k, s) ds for every interval k, each refined on its own.

    ``f(k, s)`` is the integrand, >= 0, of intervals ``k`` (shape (m,)) at
    times ``s`` (shape (15, m)). A panel of the G7/K15 rule of ``quad`` is
    accepted when |K15 - G7| <= tol K15 and split in four otherwise; each
    interval starts as one. No panel is shared and every sum is elementwise,
    so each interval's value, within tol relative, does not depend on the
    others. Past the limits of ``quad`` it raises ``QuadratureFailure``.
    """
    owner, lo, width = np.arange(widths.size), np.zeros(widths.size), widths
    panels, totals = np.ones(widths.size, dtype=int), np.zeros(widths.size)
    for rounds in range(_MAX_ROUNDS + 1):
        half = 0.5 * width
        values = f(owner, lo + half + half * _NODES[:, None])
        kronrod = half * sum(w * row for w, row in zip(_KRONROD, values))
        gap = half * abs(sum(w * row for w, row in zip(_KRONROD_MINUS_GAUSS, values)))
        done = gap <= tol * kronrod
        np.add.at(totals, owner[done], kronrod[done])
        if done.all():
            return totals
        owner, lo, width = owner[~done], lo[~done], 0.25 * width[~done]
        panels += 3 * np.bincount(owner, minlength=widths.size)
        if rounds == _MAX_ROUNDS or panels.max() > _MAX_PANELS_PER_MATURITY:
            raise QuadratureFailure(f"{label} did not reach tolerance {tol:g} in {panels.max()} panels")
        lo = (lo + width * np.arange(4)[:, None]).T.ravel()
        owner, width = np.repeat(owner, 4), np.repeat(width, 4)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of a 2-D array (compared bit for bit) and each row's index among them."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, index = np.unique(rows, return_index=True, return_inverse=True)
    return first, index


def _cross_terms(
    T, lam, sigma0_2, kappa1, kappa2, row_set, pairs, tol: float, var_i_coefficient: float
):
    """integral_0^T E[sigma^i] E[sigma^j] prod_{l != i, j} E[(sigma^l)^2] dt for each row.

    Row r is the pair ``pairs[r]`` = (i, j) of set ``row_set[r]``, whose
    columns are ``lam`` (P,) and ``sigma0_2``, ``kappa1``, ``kappa2`` (P, n).
    One ``quad`` pass integrates all rows over every maturity. Stacked sets,
    as a Jacobian's, share most factors, so each shared factor is evaluated
    once per node: e^{-lambda t} and 1 - e^{-2 lambda t} per distinct
    lambda, E[(sigma^l)^2] per distinct (lambda, sigma_0^2 - kappa1, kappa1)
    of any (set, asset), and the Brockhaus-Long E[sigma^i] per distinct
    (lambda, sigma_0^2 - kappa1, kappa1, kappa2) of an asset of some pair;
    only those must keep E[sigma^2] > 0. Rows with the same factors are
    integrated once. Keys compare bit for bit, and each row's product is
    gathered from the factors with the operations of a row on its own, so
    no row's value depends on the others. Returns the values and the
    absolute error estimates, shaped ``(len(pairs), *T.shape)``.
    """
    row_set = np.asarray(row_set)
    n = sigma0_2.shape[1]
    # cell s * n + l, asset l of set s: (lambda, sigma_0^2 - kappa1, kappa1, kappa2)
    cells = np.column_stack(
        (np.repeat(lam, n), (sigma0_2 - kappa1).ravel(), kappa1.ravel(), kappa2.ravel())
    )
    mean_cells, cell_mean = _distinct(cells[:, :3])
    means = cells[mean_cells]
    rate_means, mean_rate = _distinct(means[:, :1])
    pair_cells = (row_set[:, None] * n + np.array(pairs)).ravel()
    vol_pairs, pair_vol = _distinct(cells[pair_cells])
    vol_cells = pair_cells[vol_pairs]
    vol_mean = cell_mean[vol_cells]
    vol_rate = mean_rate[vol_mean]
    others = np.array([[l for l in range(n) if l not in pair] for pair in pairs], dtype=int)
    # a row is its factors: the E[sigma^2] of its other assets, then the E[sigma] of its pair
    factors = np.column_stack((cell_mean[row_set[:, None] * n + others], pair_vol.reshape(-1, 2)))
    distinct_rows, row_distinct = _distinct(factors)
    row_factors = factors[distinct_rows]
    row_others, first, second = row_factors[:, :-2], row_factors[:, -2], row_factors[:, -1]
    rate = means[rate_means, :1, None]
    d, c = means[:, 1, None, None], means[:, 2, None, None]
    half_kappa2 = 0.5 * cells[vol_cells, 3, None, None]

    def integrand(t):
        ev = np.exp(-rate * t)[mean_rate] * d + c
        vol_ev = ev[vol_mean]
        if vol_ev.min() <= 0.0:
            raise DegenerateVariance("E[sigma_t^2] <= 0 under the supplied parameters")
        root = np.sqrt(vol_ev)
        growth = -np.expm1(-2.0 * rate * t)[vol_rate]
        vol = root - half_kappa2 * growth / (var_i_coefficient * vol_ev * root)
        return ev[row_others].prod(axis=1) * vol[first] * vol[second]

    labels = [f"cross term ({i}, {j})" for i, j in pairs]
    values, errors = quad(integrand, T, tol, [labels[r] for r in distinct_rows])
    return values[row_distinct], errors[row_distinct]


def compute_e_terms(
    T: float,
    p: BnsPortfolioParams,
    tol: float = 1e-12,
    var_i_coefficient: float = 8.0,
) -> BnsETerms:
    """The paper's seven integrals E_0..E_6 over [0, T] for three assets.

    E_0..E_3 use the exact exponential-affine product kernel; E_4..E_6 come
    from one Gauss-Kronrod pass over the three pairs, each within
    max(tol, tol |value|) by its reported error estimate. ``tol`` must be
    finite and > 0.
    """
    if p.n != 3:
        raise WrongAssetCount(f"E_0..E_6 are defined for exactly 3 assets, got {p.n}")
    T = float(_check_maturity(T))
    tol = _require_positive("quadrature tolerance", tol)
    _require_positive("var_i_coefficient", var_i_coefficient)
    lam, sigma0_2, kappa1, kappa2, _, _ = _one_set(p)
    pairs = [(0, 1), (0, 2), (1, 2)]
    with np.errstate(all="ignore"):  # a term past the float range fails BnsETerms' own check
        e_all, e_without = _mean_variance_products(T, lam, sigma0_2, kappa1)
        cross, errors = _cross_terms(
            T, lam, sigma0_2, kappa1, kappa2, [0] * 3, pairs, tol, var_i_coefficient
        )
        # in field order: e0, e1..e3, e4..e6, e4_error..e6_error
        return BnsETerms(*map(float, [e_all[0], *(e_without(i)[0] for i in range(3)), *cross, *errors]))


def expected_realized_variance_bns(
    T,
    p: BnsPortfolioParams,
    corr: CorrelationMatrix,
    tol: float = 1e-12,
    var_i_coefficient: float = 8.0,
):
    """E[sigma_R^2] over [0, T] for a BNS portfolio of any asset count.

    Accepts scalar or array T. The cross terms are integrated, in one pass,
    only when some cross coefficient is nonzero (kappa2* > 0 and two nonzero
    rho) and the jump part can reach E_all's last bit, which makes the
    common rho = 0 calibration path, and a start at rho ~ -1e-10, fully
    closed-form. ``tol`` must be finite and > 0. Raises ``NumericalError``
    where a value leaves the float range.
    """
    out = _expected_realized_variance_sets(T, *_one_set(p), corr, tol, var_i_coefficient)[0]
    return _finite_realized_variance(out)


def _jump_bound(t_max, lam, sigma0_2, kappa1, kappa2, coeff, var_i_coefficient) -> np.ndarray:
    """J of each set: |sum_i c_ii E_{-i} + sum_{i<j} c_ij E_{ij}| <= J for every T <= t_max.

    ``coeff`` holds each set's (P, n, n) upper-triangular coefficients c.
    Per asset l, with H_l = max(sigma_0^2, kappa1), L_l = min(sigma_0^2,
    E[sigma^2](t_max)) and a_l = 1 + (kappa2 / 2) / (var_i_coefficient L_l^2),

        J = t_max prod_l H_l (sum_i |c_ii| / H_i
                              + sum_{i<j} |c_ij| a_i a_j / sqrt(H_i H_j)).

    An L_l of 0 gives an inf or NaN J, which no comparison passes; the
    caller's ``np.errstate`` keeps it from warning.
    """
    high = np.maximum(sigma0_2, kappa1)
    low = np.minimum(sigma0_2, np.exp(-lam[:, None] * t_max) * (sigma0_2 - kappa1) + kappa1)
    vol = (1.0 + 0.5 * kappa2 / (var_i_coefficient * low * low)) / np.sqrt(high)
    terms = np.abs(coeff) * vol[:, :, None] * vol[:, None, :]
    diagonal = np.arange(coeff.shape[1])
    terms[:, diagonal, diagonal] = np.abs(coeff[:, diagonal, diagonal]) / high
    return t_max * high.prod(axis=1) * terms.sum(axis=(1, 2))


def _expected_realized_variance_sets(
    T, lam, sigma0_2, kappa1, kappa2, rho, kappa2_star, corr: CorrelationMatrix,
    tol: float = 1e-12, var_i_coefficient: float = 8.0,
) -> np.ndarray:
    """``expected_realized_variance_bns`` for P parameter sets at once, shaped ``(P, *T.shape)``.

    Each set is one row of the columns: ``lam`` and ``kappa2_star`` (P,),
    ``sigma0_2``, ``kappa1``, ``kappa2`` and ``rho`` (P, n), already
    validated. The cross terms of all sets are integrated in one ``quad``
    pass whose rows are the (set, pair) combinations whose term can reach
    the bracket's last bit. The rows share the pass's panels: when one
    set's rows force a refinement, every row is integrated on the finer
    panels, so a value may differ from the set's own call, each within
    max(tol, tol |value|). Otherwise every value is that of its own call.
    The determinant-lemma coefficients of all sets are one (P, n, n) array
    built from ``_jump_weights``: E_{-i} takes its diagonal, and the cross
    rows are the nonzero entries of its strict upper triangle. E_{-i} is
    integrated only when some set's diagonal coefficient c_ii is nonzero
    after the test below; otherwise every set would add the +0 of
    ``np.where``, and inner, which starts at +0 and only ever adds, is never
    -0, so adding +0 leaves its bits. A skipped E_{-i} raises no overflow
    warning either.

    A set's coefficients are zeroed, as for lambda kappa2* = 0, when its
    whole jump part cannot reach its bracket's last bit: lambda kappa2* J <
    2^-56 min_t E_all, with J from ``_jump_bound`` at the largest maturity.
    Such a set integrates no cross term, and its value keeps the bits of
    the full sum, because
    - E[sigma_l^2] moves monotonically from sigma_0^2 to kappa1, so
      L_l <= E[sigma_l^2](t) <= H_l on [0, max T];
    - the Brockhaus-Long value has |E[sigma_l]| <= sqrt(E[sigma_l^2]) a_l,
      since its growth factor 1 - e^{-2 lambda t} is below 1;
    - every computed E_{ij} sums K15 panel values whose weights are
      positive and add up to the panel width, so |E_{ij}| <= T sup|integrand|
      on any panels, and E_{-i} <= T prod_{l != i} H_l;
    - so |lambda kappa2* inner| <= lambda kappa2* J. The factor 2^-56 leaves
      a margin of 2 for rounding and stays below a quarter of E_all's
      spacing, so E_all plus the jump part rounds back to E_all.
    A skipped set raises no ``QuadratureFailure`` from a term it cannot
    use. A value past the float range comes back as inf or NaN, with no
    numpy warning.
    """
    n = corr.n
    if sigma0_2.shape[1] != n:
        raise DimensionMismatch(f"{sigma0_2.shape[1]} assets vs {n}x{n} correlation")
    weights = _jump_weights(corr)  # raises SingularCorrelation for a singular C, jump terms or not
    T = _check_maturity(T)
    tol = _require_positive("quadrature tolerance", tol)
    _require_positive("var_i_coefficient", var_i_coefficient)

    with np.errstate(all="ignore"):  # a value past the float range comes back as inf or NaN
        bracket, e_without = _mean_variance_products(T, lam, sigma0_2, kappa1)
        inner = np.zeros_like(bracket)
        lam_k2 = lam * kappa2_star
        # coeff[s, i, j]: (1 or 2) delta_ij rho_j rho_i of set s for i <= j, none where the
        # jump part cannot reach the bracket's last bit
        coeff = weights * rho[:, None, :] * rho[:, :, None]
        coeff[lam_k2 == 0.0] = 0.0
        if coeff.any():
            bound = _jump_bound(T.max(), lam, sigma0_2, kappa1, kappa2, coeff, var_i_coefficient)
            coeff[lam_k2 * bound < 2.0**-56 * bracket.reshape(len(lam), -1).min(axis=1)] = 0.0
        for i in range(n):  # E_{-i} only where some set's coefficient survives
            if coeff[:, i, i].any():
                own = _per_set(coeff[:, i, i], T)
                inner = inner + np.where(own != 0.0, own * e_without(i), 0.0)
        row_set, first, second = np.nonzero(np.triu(coeff, 1))  # in (set, i, j) order
        if row_set.size:
            pairs = list(zip(first.tolist(), second.tolist()))
            values, _ = _cross_terms(
                T, lam, sigma0_2, kappa1, kappa2, row_set, pairs, tol, var_i_coefficient
            )
            # row by row in stack order, as inner[s] = inner[s] + coeff * value
            np.add.at(inner, row_set, _per_set(coeff[row_set, first, second], T) * values)
        bracket = bracket + _per_set(lam_k2, T) * inner
        return corr.det_c * bracket / T


def price_swap_bns(ev_realized: float, contract: SwapContract) -> float:
    """Discounted swap value; same contract arithmetic as the Heston pricer."""
    return price_swap(ev_realized, contract)
