"""Nonlinear least-squares calibration to a realized-variance series.

The observed series is fitted by the model curve t -> E[sigma_R^2] over
[0, t] (Heston or BNS closed forms). The optimizer is Levenberg-Marquardt
with a central-difference Jacobian (relative step 1e-6) on internally
transformed parameters: log for one-sided bounds, logit for boxed ones, so
every trial point respects the bounds. A parameter with lo == hi is frozen.
Each Jacobian, and the one behind the covariance, stacks its 2 n_free
perturbed points into one ``model_curve`` call; a Jacobian point transforms
only its own perturbed coordinate again. The stack is validated once, by
columns, with the rules the parameter objects read from ``core``'s field
table, and its columns go to the closed forms without a parameter object
per point. For Heston the stack is one closed-form kernel call; for BNS
it is one quadrature pass over the cross terms of all points, which
evaluates each factor the points share once. The stacked curves are those
of single calls unless some point forces a finer quadrature (then within
its tolerance), so fits do not depend on the stacking.
``fit`` has one exit rule, spelled out in its docstring: the gradient test
max(|gradient|) < 1e-10, the SSE-decrease test (an accepted step that lowers
the SSE by at most 1e-12 relative), the damping ceiling mu > 1e16 (a stall
with ``converged`` False, or ``SingularNormalEquations`` when no finite
step exists) and the 500-iteration cap. Non-convergence is reported through
the ``converged`` flag, not an exception. The correlation matrix is
estimated from data and held fixed during the fit.

One table per model (``_LAYOUTS``) lays out the parameter vector: the
names, default bounds, start vector and ``model_curve``'s unpacking all come
from it, for the n of the correlation. The fit itself takes three assets
only (``WrongAssetCount`` otherwise): the gradient test above is absolute,
while |Sigma| scales as variance^n.

Identifiability caveat: a flat (near-stationary) Heston curve only pins the
product theta_1^2 theta_2^2 theta_3^2 |C|, so judge fits by curve quality
(SSE, metrics) unless the data has strong transients.

The default BNS start never moves kappa2_i, rho_i or kappa2*. ``initial_guess``
puts rho_i and kappa2* at 0, which the bounds nudge to -1e-10 and 1e-8. There
the jump part, the only place kappa2_i enters, is about 1e-26 of E_all and
below its last bit, so the curve does not depend on these seven entries: their
Jacobian columns are exactly zero and the fit ends at their start values (as
does a leveraged curve with rho ~ -0.3 and kappa2* = 0.01). A start with a
visible jump part (``--init``) is needed to fit them. A fitted kappa2_i can
then be the start's tiny guess, under which ``bns_realized_variance_mc``
refuses the model for its expected jump count.

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

from . import bns, heston
from .core import CorrelationMatrix, _as_float, _as_floats, _check_field, _exp
from .errors import (
    LengthMismatch,
    SingularNormalEquations,
    ValidationError,
    WrongAssetCount,
    ZeroObserved,
)
# Neither closed form is called here; perfbench/tracing.py wraps both at these names.
from .heston import expected_realized_variance  # noqa: F401
from .bns import expected_realized_variance_bns  # noqa: F401
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

_MAX_ITERATIONS = 500
_GRADIENT_TOL = 1e-10
_SSE_REL_TOL = 1e-12
_JACOBIAN_REL_STEP = 1e-6

# The asset count ``fit`` takes: its absolute gradient test only suits |Sigma| at this scale.
_FIT_ASSETS = 3

# Each model's parameter vector, in order: (field, one entry per asset?,
# default bounds, start). A per-asset field takes the entries field_1 ..
# field_n. A start is a number, "level" for (mean observed / |C|)^(1/n) or
# "jumps" for the kappa2 guess of ``subordinator_initial_guess``. Heston's
# gamma is left out: it never enters the closed form.
_LAYOUTS = {
    "heston": (
        ("k", True, (1e-4, 100.0), 2.0),
        ("theta2", True, (1e-10, 10.0), "level"),
        ("sigma0_2", True, (1e-10, 10.0), "level"),
    ),
    "bns": (
        ("lambda", False, (1e-4, 100.0), 2.0),
        ("sigma0_2", True, (1e-10, 10.0), "level"),
        ("kappa1", True, (0.0, 10.0), "level"),
        ("kappa2", True, (0.0, 10.0), "jumps"),
        ("rho", True, (-math.inf, 0.0), 0.0),
        ("kappa2_star", False, (0.0, 100.0), 0.0),
    ),
}
# The stacked closed forms, each taking the columns in ``_LAYOUTS`` order.
_CURVES = {
    "heston": heston._expected_realized_variance_sets,
    "bns": bns._expected_realized_variance_sets,
}


def _entries(model: str, n: int) -> list[tuple[str, tuple[float, float], float | str]]:
    """(name, default bounds, start) of each entry of the model's vector for n assets."""
    if not isinstance(model, str) or model not in _LAYOUTS:
        raise ValidationError(f"unknown model {model!r}, expected 'heston' or 'bns'")
    return [
        (f"{field}_{i}" if per_asset else field, bounds, start)
        for field, per_asset, bounds, start in _LAYOUTS[model]
        for i in (range(1, n + 1) if per_asset else [None])
    ]


def _columns(model: str, params: np.ndarray, n: int) -> list[np.ndarray]:
    """A (P, p) stack as its ``_LAYOUTS`` columns: (P, n) per per-asset field, (P,) per shared.

    Every entry is checked by its field's rule in ``core._FIELD_RULES``,
    the table the parameter objects read, asset by asset and then the
    shared fields, so a bad entry raises the ``ValidationError`` the object
    would raise. The minimum and maximum of a column carry its check for
    every row (a NaN into both). No warning is raised for a rho > 0.
    """
    columns, per_asset, shared, at = [], [], [], 0
    for field, each, _, _ in _LAYOUTS[model]:
        columns.append(params[:, at:at + n] if each else params[:, at])
        (per_asset if each else shared).append((field, at))
        at += n if each else 1
    extremes = [params.min(axis=0), params.max(axis=0)] if len(params) > 1 else params
    extremes = [values.tolist() for values in extremes]
    for field, j in [(field, j + i) for i in range(n) for field, j in per_asset] + shared:
        for values in extremes:
            _check_field(field, values[j])
    return columns


def param_names(model: str) -> tuple[str, ...]:
    return tuple(name for name, _, _ in _entries(model, _FIT_ASSETS))


def default_bounds(model: str) -> tuple[tuple[float, float], ...]:
    """Loose positivity/box bounds; tighten or freeze (lo == hi) as needed."""
    return tuple(bounds for _, bounds, _ in _entries(model, _FIT_ASSETS))


HESTON_PARAM_NAMES = param_names("heston")
BNS_PARAM_NAMES = param_names("bns")


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
        if self.corr.n != _FIT_ASSETS:
            raise WrongAssetCount(
                f"calibration takes {_FIT_ASSETS} assets, got {self.corr.n}: its stopping "
                f"test max|gradient| < {_GRADIENT_TOL:g} is absolute, and |Sigma| scales "
                "as variance^n"
            )
        names = [name for name, _, _ in _entries(self.model, self.corr.n)]
        initial = _as_floats("initial", self.initial)
        if initial.shape != (len(names),):
            raise ValidationError(
                f"{self.model} needs {len(names)} parameters "
                f"({', '.join(names)}), got shape {initial.shape}"
            )
        bounds = tuple((_as_float("bounds", lo), _as_float("bounds", hi)) for lo, hi in self.bounds)
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

    The parameter vector is laid out as in ``_LAYOUTS`` for ``corr.n``
    assets; at three assets that is ``HESTON_PARAM_NAMES`` or
    ``BNS_PARAM_NAMES``. ``params`` is one vector, giving one curve, or P
    vectors stacked as (P, p), giving the P curves as (P, len(times)).
    The stack is checked once, column by column, by the rules and with
    the ``ValidationError`` field names of the parameter objects, and its
    columns go to the closed forms as they are; no object is built per
    row. Heston rows make one closed-form kernel call. BNS rows make one pass
    of the BNS kernel: E_all and E_{-i} once per distinct (lambda,
    sigma0^2 - kappa1, kappa1), and the cross terms of all rows in one
    quadrature, where each rate, E[sigma^2] and E[sigma] factor the rows
    share is evaluated once per node. Each stacked curve equals its row's
    own curve bit for bit unless another row forces a finer quadrature,
    and then differs from it within the quadrature tolerance. A trial
    rho > 0 raises no sign-convention warning; judge signs on the fitted
    result.
    """
    n = corr.n
    size = len(_entries(model, n))
    params = _as_floats("params", params)
    if params.ndim not in (1, 2) or params.shape[-1] != size:
        raise ValidationError(f"{model} needs {size} parameters for {n} assets")
    times = _as_floats("times", times)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0.0):
        raise ValidationError("times must be a nonempty, strictly increasing 1-D array")

    curves = _CURVES[model](times, *_columns(model, np.atleast_2d(params), n), corr)
    return curves[0] if params.ndim == 1 else curves


def error_metrics(observed, fitted) -> ErrorMetrics:
    """RMSE, APE, AAE and ARPE between two equal-length vectors."""
    obs = _as_floats("observed", observed).ravel()
    fit = _as_floats("fitted", fitted).ravel()
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
    """The inverse of ``_to_internal``; a one-sided bound's e^z past the float range gives +-inf."""
    if not math.isfinite(lo) and not math.isfinite(hi):
        return z
    if not math.isfinite(hi):
        return lo + _exp(z)
    if not math.isfinite(lo):
        return hi - _exp(z)
    return lo + (hi - lo) * (1.0 / (1.0 + _exp(-z)))  # the logistic function, as scipy's expit


def _assemble(full: np.ndarray, free: list[int], bounds, z: np.ndarray) -> np.ndarray:
    """``full`` with each free entry ``free[k]`` taken from the internal coordinate z_k."""
    x = full.copy()
    for k, j in enumerate(free):
        x[j] = _from_internal(float(z[k]), *bounds[j])
    return x


def _jacobian_points(full: np.ndarray, free: list[int], bounds, z: np.ndarray, h: np.ndarray):
    """``_assemble`` at z + h_k e_k and at z - h_k e_k for every k, as two (len(h), p) stacks.

    Each point transforms only its own coordinate k again. Its other
    coordinates are those of z + 0.0 or z - 0.0: z itself, except that
    z + 0.0 turns -0.0 into 0.0.
    """
    up = np.tile(_assemble(full, free, bounds, z + 0.0), (len(free), 1))
    down = np.tile(_assemble(full, free, bounds, z), (len(free), 1))
    for k, j in enumerate(free):
        up[k, j] = _from_internal(float(z[k] + h[k]), *bounds[j])
        down[k, j] = _from_internal(float(z[k] - h[k]), *bounds[j])
    return up, down


def fit(problem: CalibrationProblem) -> CalibrationResult:
    """Levenberg-Marquardt minimization of the curve-fit SSE.

    Returns the best point found; its SSE never exceeds the initial point's,
    and its curve, computed once, gives the metrics. The one exit rule:
    ``converged`` is True once max(|gradient|) < 1e-10 or an accepted step
    lowers the SSE by at most 1e-12 of the new SSE. The damping mu grows x10
    until a step lowers the SSE; past mu = 1e16 the fit stops at the best
    point with ``converged`` False, or raises ``SingularNormalEquations``
    if no finite step exists. After 500 iterations ``converged`` is False.
    """
    obs = problem.observed.values
    times = problem.observed.times
    full = problem.initial.copy()
    free = [j for j, (lo, hi) in enumerate(problem.bounds) if lo < hi]
    bounds = problem.bounds

    def evaluate(x: np.ndarray):
        """The model curve at x, its residual and its SSE (inf if not finite)."""
        curve = model_curve(problem.model, x, problem.corr, times)
        r = curve - obs
        return curve, r, float(r @ r) if np.all(np.isfinite(r)) else math.inf

    z = np.array(
        [_to_internal(_interior(full[j], *bounds[j]), *bounds[j]) for j in free]
    )
    curve, r, sse = evaluate(_assemble(full, free, bounds, z))
    if not np.all(np.isfinite(r)):
        raise SingularNormalEquations("objective is not finite at the initial point")
    converged = not free
    iterations = 0
    mu = 1e-3

    while not converged and iterations < _MAX_ITERATIONS:
        iterations += 1
        h = np.array([_JACOBIAN_REL_STEP * max(1.0, abs(float(x))) for x in z])
        jac = _central_differences(problem, *_jacobian_points(full, free, bounds, z, h), h, obs)
        if not np.all(np.isfinite(jac)):
            raise SingularNormalEquations("Jacobian is not finite")
        grad = 2.0 * jac.T @ r
        if float(np.max(np.abs(grad))) < _GRADIENT_TOL:
            converged = True
            break
        jtj = jac.T @ jac
        damping = np.diag(np.maximum(np.diag(jtj), 1e-12))
        # mu >= 1e-12 here, so the ceiling ends this search within 29 tries
        while mu <= 1e16:
            try:
                delta = np.linalg.solve(jtj + mu * damping, -0.5 * grad)
            except np.linalg.LinAlgError:
                delta = None
            stepped = delta is not None and np.all(np.isfinite(delta))
            if stepped:
                z_try = z + delta
                x_try = _assemble(full, free, bounds, z_try)
                # a step past e^z's float range has no point to evaluate: rejected, as an inf SSE
                if np.all(np.isfinite(x_try)):
                    curve_try, r_try, sse_try = evaluate(x_try)
                    if sse_try < sse:
                        break
            mu *= 10.0
        else:
            if not stepped:
                raise SingularNormalEquations("damped normal equations produced no finite step")
            break  # no downhill step at the ceiling: stall at the best point
        converged = sse - sse_try <= _SSE_REL_TOL * max(sse_try, 1e-300)
        z, curve, r, sse = z_try, curve_try, r_try, sse_try
        mu = max(mu * 0.3, 1e-12)

    params = _assemble(full, free, bounds, z)
    covariance = _gauss_newton_covariance(problem, params, free, sse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics = error_metrics(obs, curve)
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


def _central_differences(problem: CalibrationProblem, up, down, h, offset) -> np.ndarray:
    """((f(up_k) - offset) - (f(down_k) - offset)) / (2 h_k) as the columns k of an (m, len(h)) array.

    f is the model curve at the observation times; the up and down points
    of every column go to ``model_curve`` as one stack.
    """
    curves = model_curve(
        problem.model, np.concatenate((up, down)), problem.corr, problem.observed.times
    )
    k = len(h)
    jac = np.empty((curves.shape[1], k))
    jac[:] = (((curves[:k] - offset) - (curves[k:] - offset)) / (2.0 * h)[:, None]).T
    return jac


def _gauss_newton_covariance(
    problem: CalibrationProblem, params: np.ndarray, free: list[int], sse: float
) -> np.ndarray:
    """sse/(m - p) (J^T J)^+ in original coordinates, zero for frozen params.

    Each column differences the model curve over [x - down, x + up]: a
    central step h inside the bounds, shrunk to half the distance to a
    bound, or a one-sided step h into the box for a parameter on a bound.
    """
    obs = problem.observed.values
    p = params.size
    cov = np.zeros((p, p))
    if not free:
        return cov
    ups, downs = np.zeros(len(free)), np.zeros(len(free))
    for idx, j in enumerate(free):
        lo, hi = problem.bounds[j]
        x = float(params[j])
        h = _JACOBIAN_REL_STEP * max(1.0, abs(x))
        if math.isfinite(lo) and x > lo:
            h = min(h, 0.5 * (x - lo))
        if math.isfinite(hi) and x < hi:
            h = min(h, 0.5 * (hi - x))
        ups[idx] = h if x < hi else 0.0
        downs[idx] = h if x > lo else 0.0
    spans = ups + downs
    moved = np.flatnonzero(spans)
    up, down = np.tile(params, (2, moved.size, 1))
    moved_rows = np.arange(moved.size), np.asarray(free)[moved]
    up[moved_rows] += ups[moved]
    down[moved_rows] -= downs[moved]
    jac = np.zeros((obs.size, len(free)))
    if moved.size:
        jac[:, moved] = _central_differences(problem, up, down, spans[moved] / 2.0, 0.0)
    dof = max(obs.size - len(free), 1)
    cov_free = (sse / dof) * np.linalg.pinv(jac.T @ jac)
    # pinv of an ill-conditioned J^T J is symmetric only up to round-off
    cov[np.ix_(free, free)] = 0.5 * (cov_free + cov_free.T)
    return cov


def subordinator_initial_guess(values) -> tuple[float, float]:
    """Rough (kappa1, kappa2) start from positive increments of a series."""
    values = _as_floats("values", values)
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
    _, k2 = subordinator_initial_guess(observed.values)
    starts = {"level": (level / det_c) ** (1.0 / corr.n), "jumps": max(min(k2, 9.0), 1e-10)}
    return np.array([
        starts[start] if isinstance(start, str) else start
        for _, _, start in _entries(model, corr.n)
    ])
