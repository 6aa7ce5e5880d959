"""Nonlinear least-squares calibration to a realized-variance series.

The observed series is fitted by the model curve t -> E[sigma_R^2] over
[0, t] (Heston or BNS closed forms). The optimizer is Levenberg-Marquardt
with a central-difference Jacobian (relative step 1e-6) on internally
transformed parameters: log for one-sided bounds, logit for boxed ones, so
every trial point respects the bounds. A parameter with lo == hi is frozen.
Convergence is declared when max(|gradient|) < 1e-10 or the relative SSE
decrease of an accepted step falls below 1e-12, within at most 500
iterations; non-convergence is reported through the ``converged`` flag, not
an exception. The correlation matrix is estimated from data and held fixed
during the fit.

Identifiability caveat: a flat (near-stationary) Heston curve only pins the
product theta_1^2 theta_2^2 theta_3^2 |C|, so judge fits by curve quality
(SSE, metrics) unless the data has strong transients.

Error metrics follow the usual definitions: RMSE = sqrt(sum e^2 / n),
AAE = sum |e| / n, ARPE = (1/n) sum |e_i| / observed_i and
APE = AAE / mean(observed); points with observed value zero are skipped in
ARPE (counted in ``skipped``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    BnsAssetParams,
    BnsPortfolioParams,
    CorrelationMatrix,
    HestonAssetParams,
    LeverageSignWarning,
)
from .errors import (
    LengthMismatch,
    SingularNormalEquations,
    ValidationError,
    ZeroObserved,
)
from .heston import HestonPortfolio, expected_realized_variance
from .bns import expected_realized_variance_bns
from .marketdata import RealizedVarianceSeries

__all__ = [
    "HESTON_PARAM_NAMES",
    "BNS_PARAM_NAMES",
    "CalibrationProblem",
    "CalibrationResult",
    "ErrorMetrics",
    "param_names",
    "default_bounds",
    "subordinator_initial_guess",
    "initial_guess",
    "model_curve",
    "fit",
    "error_metrics",
]

HESTON_PARAM_NAMES = (
    "k_1", "k_2", "k_3",
    "theta2_1", "theta2_2", "theta2_3",
    "sigma0_2_1", "sigma0_2_2", "sigma0_2_3",
)

BNS_PARAM_NAMES = (
    "lambda",
    "sigma0_2_1", "sigma0_2_2", "sigma0_2_3",
    "kappa1_1", "kappa1_2", "kappa1_3",
    "kappa2_1", "kappa2_2", "kappa2_3",
    "rho_1", "rho_2", "rho_3",
    "kappa2_star",
)

_MAX_ITERATIONS = 500
_GRADIENT_TOL = 1e-10
_SSE_REL_TOL = 1e-12
_JACOBIAN_REL_STEP = 1e-6


def param_names(model: str) -> tuple[str, ...]:
    if model == "heston":
        return HESTON_PARAM_NAMES
    if model == "bns":
        return BNS_PARAM_NAMES
    raise ValidationError(f"unknown model {model!r}, expected 'heston' or 'bns'")


def default_bounds(model: str) -> tuple[tuple[float, float], ...]:
    """Loose positivity/box bounds; tighten or freeze (lo == hi) as needed."""
    inf = math.inf
    if model == "heston":
        return ((1e-4, 100.0),) * 3 + ((1e-10, 10.0),) * 6
    if model == "bns":
        return (
            ((1e-4, 100.0),)
            + ((1e-10, 10.0),) * 3
            + ((0.0, 10.0),) * 3
            + ((0.0, 10.0),) * 3
            + ((-inf, 0.0),) * 3
            + ((0.0, 100.0),)
        )
    raise ValidationError(f"unknown model {model!r}")


@dataclass(frozen=True)
class ErrorMetrics:
    """The four goodness-of-fit metrics; ``skipped`` counts zero-observed points."""

    rmse: float
    ape: float
    aae: float
    arpe: float
    skipped: int = 0

    def to_dict(self) -> dict:
        return {"rmse": self.rmse, "ape": self.ape, "aae": self.aae, "arpe": self.arpe}


@dataclass(frozen=True, eq=False)
class CalibrationProblem:
    """Model choice, observations, fixed correlation, start point and bounds."""

    model: str
    observed: RealizedVarianceSeries
    corr: CorrelationMatrix
    initial: np.ndarray
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        names = param_names(self.model)
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (len(names),):
            raise ValidationError(
                f"{self.model} needs {len(names)} parameters "
                f"({', '.join(names)}), got shape {initial.shape}"
            )
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != len(names):
            raise ValidationError(f"need {len(names)} bounds, got {len(bounds)}")
        for name, x, (lo, hi) in zip(names, initial, bounds):
            if lo > hi:
                raise ValidationError(f"{name}: bound lo {lo} > hi {hi}")
            if not lo <= x <= hi:
                raise ValidationError(f"{name}: initial {x} outside [{lo}, {hi}]")
        if self.observed.values.size == 0:
            raise ValidationError("observed series is empty")
        initial.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Fitted parameters with fit diagnostics.

    ``covariance_of_estimates`` is the Gauss-Newton approximation
    sse/(m - p) (J^T J)^-1 in original parameter coordinates, zero on
    frozen rows/columns.
    """

    params: np.ndarray
    sse: float
    iterations: int
    converged: bool
    covariance_of_estimates: np.ndarray
    metrics: ErrorMetrics

    def to_dict(self) -> dict:
        return {
            "params": self.params.tolist(),
            "sse": self.sse,
            "iterations": self.iterations,
            "converged": self.converged,
            "covariance_of_estimates": self.covariance_of_estimates.tolist(),
            "metrics": self.metrics.to_dict(),
        }


def model_curve(model: str, params, corr: CorrelationMatrix, times) -> np.ndarray:
    """E[sigma_R^2] over [0, t_i] for each t_i, under the given model.

    Parameter vector layouts are ``HESTON_PARAM_NAMES`` (gamma is excluded:
    it never enters the closed form) and ``BNS_PARAM_NAMES``. Sign-convention
    warnings for trial rho > 0 are suppressed here; judge signs on the fitted
    result.
    """
    names = param_names(model)
    params = np.asarray(params, dtype=float)
    if params.shape != (len(names),):
        raise ValidationError(f"{model} needs {len(names)} parameters")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(np.diff(times) <= 0.0):
        raise ValidationError("times must be nonempty and strictly increasing")

    if model == "heston":
        assets = tuple(
            HestonAssetParams(k=params[i], theta2=params[3 + i], sigma0_2=params[6 + i], gamma=1.0)
            for i in range(3)
        )
        out = expected_realized_variance(times, HestonPortfolio(assets=assets, corr=corr))
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeverageSignWarning)
            assets = tuple(
                BnsAssetParams(
                    sigma0_2=params[1 + i],
                    kappa1=params[4 + i],
                    kappa2=params[7 + i],
                    rho=params[10 + i],
                )
                for i in range(3)
            )
        portfolio = BnsPortfolioParams(assets=assets, lambda_=params[0], kappa2_star=params[13])
        out = expected_realized_variance_bns(times, portfolio, corr)
    return np.atleast_1d(np.asarray(out, dtype=float))


def error_metrics(observed, fitted) -> ErrorMetrics:
    """RMSE, APE, AAE and ARPE between two equal-length vectors."""
    obs = np.asarray(observed, dtype=float).ravel()
    fit = np.asarray(fitted, dtype=float).ravel()
    if obs.size != fit.size:
        raise LengthMismatch(f"observed has {obs.size} points, fitted has {fit.size}")
    if obs.size == 0:
        raise LengthMismatch("need at least one point")
    err = fit - obs
    rmse = float(np.sqrt(np.mean(err**2)))
    aae = float(np.mean(np.abs(err)))
    nonzero = obs != 0.0
    skipped = int(np.count_nonzero(~nonzero))
    if not np.any(nonzero):
        raise ZeroObserved("all observed values are zero; ARPE/APE undefined")
    mean_obs = float(np.mean(obs))
    if mean_obs == 0.0:
        raise ZeroObserved("observed values average to zero; APE undefined")
    arpe = float(np.mean(np.abs(err[nonzero]) / obs[nonzero]))
    return ErrorMetrics(rmse=rmse, ape=aae / mean_obs, aae=aae, arpe=arpe, skipped=skipped)


# bounded-parameter transforms

def _interior(x: float, lo: float, hi: float) -> float:
    """Nudge a start value strictly inside an open interval."""
    if math.isfinite(lo) and math.isfinite(hi):
        pad = 1e-10 * (hi - lo)
        return min(max(x, lo + pad), hi - pad)
    if math.isfinite(lo) and x <= lo:
        return lo + 1e-10 * max(1.0, abs(lo))
    if math.isfinite(hi) and x >= hi:
        return hi - 1e-10 * max(1.0, abs(hi))
    return x


def _to_internal(x: float, lo: float, hi: float) -> float:
    if not math.isfinite(lo) and not math.isfinite(hi):
        return x
    if not math.isfinite(hi):
        return math.log(x - lo)
    if not math.isfinite(lo):
        return math.log(hi - x)
    u = (x - lo) / (hi - lo)
    u = min(max(u, 1e-15), 1.0 - 1e-15)
    return math.log(u / (1.0 - u))


def _from_internal(z: float, lo: float, hi: float) -> float:
    if not math.isfinite(lo) and not math.isfinite(hi):
        return z
    if not math.isfinite(hi):
        return lo + math.exp(z)
    if not math.isfinite(lo):
        return hi - math.exp(z)
    try:
        u = 1.0 / (1.0 + math.exp(-z))  # the logistic function, as scipy's expit
    except OverflowError:  # z < -709.78: e^-z overflows, the logistic value underflows to 0
        u = 0.0
    return lo + (hi - lo) * u


def fit(problem: CalibrationProblem) -> CalibrationResult:
    """Levenberg-Marquardt minimization of the curve-fit SSE.

    Returns the best point found with ``converged`` reporting whether the
    gradient / SSE-change criterion was met within 500 iterations; the SSE
    never exceeds the initial point's.
    """
    obs = problem.observed.values
    times = problem.observed.times
    full = problem.initial.copy()
    free = [j for j, (lo, hi) in enumerate(problem.bounds) if lo < hi]
    bounds = problem.bounds

    def assemble(z: np.ndarray) -> np.ndarray:
        x = full.copy()
        for idx, j in enumerate(free):
            x[j] = _from_internal(float(z[idx]), *bounds[j])
        return x

    def residual(z: np.ndarray) -> np.ndarray:
        return model_curve(problem.model, assemble(z), problem.corr, times) - obs

    z = np.array(
        [_to_internal(_interior(full[j], *bounds[j]), *bounds[j]) for j in free]
    )
    r = residual(z)
    if not np.all(np.isfinite(r)):
        raise SingularNormalEquations("objective is not finite at the initial point")
    sse = float(r @ r)
    n_free = len(free)
    converged = False
    iterations = 0
    mu = None

    while iterations < _MAX_ITERATIONS and n_free:
        iterations += 1
        jac = np.empty((obs.size, n_free))
        for idx in range(n_free):
            h = _JACOBIAN_REL_STEP * max(1.0, abs(float(z[idx])))
            step = np.zeros(n_free)
            step[idx] = h
            jac[:, idx] = (residual(z + step) - residual(z - step)) / (2.0 * h)
        if not np.all(np.isfinite(jac)):
            raise SingularNormalEquations("Jacobian is not finite")
        grad = 2.0 * jac.T @ r
        if float(np.max(np.abs(grad))) < _GRADIENT_TOL:
            converged = True
            break
        jtj = jac.T @ jac
        damping = np.diag(np.maximum(np.diag(jtj), 1e-12))
        if mu is None:
            mu = 1e-3
        accepted = False
        for _ in range(60):
            try:
                delta = np.linalg.solve(jtj + mu * damping, -0.5 * grad)
            except np.linalg.LinAlgError:
                delta = None
            if delta is None or not np.all(np.isfinite(delta)):
                mu *= 10.0
                if mu > 1e16:
                    raise SingularNormalEquations(
                        "damped normal equations produced no finite step"
                    )
                continue
            z_try = z + delta
            r_try = residual(z_try)
            sse_try = float(r_try @ r_try) if np.all(np.isfinite(r_try)) else math.inf
            if sse_try < sse:
                z, r = z_try, r_try
                improvement = sse - sse_try
                sse = sse_try
                mu = max(mu * 0.3, 1e-12)
                accepted = True
                if improvement <= _SSE_REL_TOL * max(sse, 1e-300):
                    converged = True
                break
            mu *= 10.0
            if mu > 1e16:
                break
        if converged or not accepted:
            # not accepted: no downhill step at maximum damping; return the
            # best point with converged still False
            break
    if not n_free:
        converged = True

    params = assemble(z)
    fitted = model_curve(problem.model, params, problem.corr, times)
    covariance = _gauss_newton_covariance(problem, params, free, sse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics = error_metrics(obs, fitted)
    params.setflags(write=False)
    covariance.setflags(write=False)
    return CalibrationResult(
        params=params,
        sse=sse,
        iterations=iterations,
        converged=converged,
        covariance_of_estimates=covariance,
        metrics=metrics,
    )


def _gauss_newton_covariance(
    problem: CalibrationProblem, params: np.ndarray, free: list[int], sse: float
) -> np.ndarray:
    """sse/(m - p) (J^T J)^+ in original coordinates, zero for frozen params."""
    obs = problem.observed.values
    times = problem.observed.times
    p = params.size
    cov = np.zeros((p, p))
    if not free:
        return cov
    jac = np.empty((obs.size, len(free)))
    for idx, j in enumerate(free):
        lo, hi = problem.bounds[j]
        h = _JACOBIAN_REL_STEP * max(1.0, abs(float(params[j])))
        if math.isfinite(lo):
            h = min(h, 0.5 * (params[j] - lo)) if params[j] > lo else h
        if math.isfinite(hi):
            h = min(h, 0.5 * (hi - params[j])) if params[j] < hi else h
        if h <= 0.0:
            jac[:, idx] = 0.0
            continue
        up = params.copy()
        down = params.copy()
        up[j] += h
        down[j] -= h
        jac[:, idx] = (
            model_curve(problem.model, up, problem.corr, times)
            - model_curve(problem.model, down, problem.corr, times)
        ) / (2.0 * h)
    dof = max(obs.size - len(free), 1)
    cov_free = (sse / dof) * np.linalg.pinv(jac.T @ jac)
    # pinv of an ill-conditioned J^T J is symmetric only up to round-off
    cov_free = 0.5 * (cov_free + cov_free.T)
    for a, ja in enumerate(free):
        for b, jb in enumerate(free):
            cov[ja, jb] = cov_free[a, b]
    return cov


def subordinator_initial_guess(values) -> tuple[float, float]:
    """Rough (kappa1, kappa2) start from positive increments of a series."""
    values = np.asarray(values, dtype=float)
    increments = np.diff(values)
    positive = increments[increments > 0.0]
    if positive.size == 0:
        level = abs(float(np.mean(values))) or 1e-4
        return level, level**2
    kappa1 = float(np.mean(positive))
    kappa2 = float(np.var(positive, ddof=1)) if positive.size > 1 else kappa1**2
    return kappa1, max(kappa2, 1e-12)


def initial_guess(model: str, observed: RealizedVarianceSeries, corr: CorrelationMatrix) -> np.ndarray:
    """Crude but always-feasible start vector for ``fit``."""
    level = max(float(np.mean(observed.values)), 1e-12)
    det_c = max(corr.det_c, 1e-6)
    per_asset = (level / det_c) ** (1.0 / 3.0)
    if model == "heston":
        return np.array([2.0] * 3 + [per_asset] * 3 + [per_asset] * 3)
    if model == "bns":
        _, k2 = subordinator_initial_guess(observed.values)
        k2 = max(min(k2, 9.0), 1e-10)
        return np.array(
            [2.0] + [per_asset] * 3 + [per_asset] * 3 + [k2] * 3 + [0.0] * 3 + [0.0]
        )
    raise ValidationError(f"unknown model {model!r}")
