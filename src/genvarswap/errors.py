"""Exception hierarchy shared by all modules.

Two broad families matter to callers (and to the CLI exit-code mapping):
``ValidationError`` for rejected inputs and ``NumericalError`` for
computations that could not be completed to tolerance.
"""

from __future__ import annotations


class GenvarswapError(ValueError):
    """Base class for every error raised by this package."""


class ValidationError(GenvarswapError):
    """Input rejected before any computation was attempted."""


class NumericalError(GenvarswapError):
    """A numerical routine failed to meet its contract."""


# correlation / parameter validation

class NotSymmetric(ValidationError):
    """Correlation matrix is not square/symmetric."""


class BadDiagonal(ValidationError):
    """Correlation matrix diagonal is not identically one."""


class NotPositiveSemiDefinite(ValidationError):
    """Correlation matrix has an eigenvalue below the rounding floor."""


class SingularCorrelation(ValidationError):
    """|C| is below 1e-12, so the inverse entries are unavailable."""


class DimensionMismatch(ValidationError):
    """Vector/matrix dimensions disagree."""


# pricing

class NegativeTime(ValidationError):
    """A time argument was negative or NaN."""


class NonPositiveMaturity(ValidationError):
    """A maturity argument was zero, negative or not finite."""


class WrongAssetCount(ValidationError):
    """A three-asset routine got another asset count.

    ``compute_e_terms`` (the paper's three-asset E_0..E_6) and
    ``CalibrationProblem``, whose absolute stopping test suits three assets
    only, raise it.
    """


class DegenerateVariance(NumericalError):
    """E[sigma_t^2] <= 0; impossible under valid parameters, checked defensively."""


class QuadratureFailure(NumericalError):
    """A quadrature did not reach the requested tolerance.

    Raised when the Gauss-Kronrod pass of the BNS cross terms would need
    more refinement rounds or panels than its limits allow or meets a
    non-finite integrand, when the Heston quadrature cross-check fails,
    and for a non-finite E-term.
    """


# simulation

class InvalidConfig(ValidationError):
    """A configuration field has the wrong type, or a simulation setting violates an invariant."""


class MissingSubordinatorSpec(ValidationError):
    """A subordinator law is required but absent and not derivable."""


# market data

class ParseError(ValidationError):
    """Malformed input file; the message names the offending row/column."""


class NonPositivePrice(ValidationError):
    """A closing price was zero or negative."""


class UnsortedDates(ValidationError):
    """Price dates are not strictly increasing."""


class TooShort(ValidationError):
    """Too few observations for the requested statistic."""


class TooFewRows(ValidationError):
    """Fewer return rows than the estimator needs."""


class WindowTooSmall(ValidationError):
    """Covariance window shorter than n+1 observations."""


class DegenerateColumn(ValidationError):
    """A return column has zero sample variance."""


class NegativeDeterminant(NumericalError):
    """A window's covariance determinant is negative beyond rounding level."""


# calibration

class LengthMismatch(ValidationError):
    """Observed and fitted vectors differ in length (or are empty)."""


class ZeroObserved(ValidationError):
    """Relative error metrics are undefined: observed values are all zero."""


class SingularNormalEquations(NumericalError):
    """Damped normal equations produced no finite step."""
