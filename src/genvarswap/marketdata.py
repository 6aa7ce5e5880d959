"""Price ingestion, log returns, rolling covariance determinants, statistics.

Input is a CSV with header ``date,<ticker1>,<ticker2>,...`` and ISO-8601
dates; rows with any blank cell are dropped and counted. Returns are
log(S_{t+1}/S_t). The realized generalized variance series takes, for each
window of returns, the unbiased sample covariance (divisor window - 1)
annualized by a per-entry factor (252 by default) and then its determinant;
note the determinant therefore scales by 252^n. Windows are non-overlapping
by default with a rolling alternative.

Output formats: the realized series as CSV ``t,value`` and summary
statistics as CSV ``ticker,mean,variance,kurtosis``. ``_read_rows`` and
``_write_rows`` are the one CSV reader and writer, here and in the CLI:
UTF-8 (an input may start with a byte-order mark) in ``csv``'s default
dialect.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

import numpy as np

from .core import CorrelationMatrix, _require_finite, _whole_number, validate_correlation
from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    InvalidConfig,
    NegativeDeterminant,
    NonPositivePrice,
    NumericalError,
    ParseError,
    TooFewRows,
    TooShort,
    UnsortedDates,
    ValidationError,
    WindowTooSmall,
)

__all__ = [
    "PriceSeries",
    "RealizedVarianceSeries",
    "AssetSummary",
    "load_prices",
    "log_returns",
    "rolling_determinants",
    "estimate_correlation",
    "summary_stats",
    "realized_to_csv",
    "load_realized_csv",
    "summary_to_csv",
]

# Sample covariance matrices are Gram matrices, so any negative determinant
# is rounding noise; values in (-1e-18, 0) are clamped to zero and counted.
_DET_CLAMP_FLOOR = -1e-18


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Aligned closing prices: one row per date, one column per ticker."""

    dates: tuple[datetime.date, ...]
    tickers: tuple[str, ...]
    closes: np.ndarray
    dropped_rows: int = 0

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=float)
        closes.setflags(write=False)
        object.__setattr__(self, "closes", closes)


@dataclass(frozen=True, eq=False)
class RealizedVarianceSeries:
    """Windowed covariance determinants (variance^n units) on a year-fraction grid.

    ``times`` are window-end indices mapped to year fractions; ``clamped``
    counts values lifted from rounding-level negatives to zero.
    """

    times: np.ndarray
    values: np.ndarray
    window: int
    clamped: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ParseError("times and values must be matching vectors")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_windows(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AssetSummary:
    """Per-asset sample moments; ``degenerate`` flags a constant column."""

    ticker: str
    mean: float
    variance: float
    excess_kurtosis: float
    degenerate: bool = False


def _read_rows(path) -> list[list[str]]:
    """The rows of a CSV file read as UTF-8, a leading byte-order mark skipped.

    Other bytes raise ``ParseError`` naming the file.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: unreadable CSV ({exc})") from None


def _write_rows(path, rows) -> None:
    """Write ``rows`` to ``path`` as UTF-8 CSV in ``csv.writer``'s default dialect."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def load_prices(path) -> PriceSeries:
    """Read and validate a closing-price CSV.

    Blank cells drop the whole row (counted in ``dropped_rows``); malformed
    numbers or dates raise ``ParseError`` naming the row and column, and
    nonpositive prices raise ``NonPositivePrice``.
    """
    rows = _read_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2 or header[0].lower() != "date":
        raise ParseError(f"{path}: header must be 'date,<ticker1>,...', got {header}")
    tickers = tuple(header[1:])

    dates: list[datetime.date] = []
    closes: list[list[float]] = []
    dropped = 0
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}"
            )
        if any(cell.strip() == "" for cell in row):
            dropped += 1
            continue
        try:
            day = datetime.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"{path}: row {row_no} column 1: bad date {row[0]!r}") from None
        prices = []
        for col_no, cell in enumerate(row[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no} column {col_no}: bad number {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise ParseError(f"{path}: row {row_no} column {col_no}: non-finite price")
            if value <= 0.0:
                raise NonPositivePrice(
                    f"{path}: row {row_no} column {col_no}: price {value} must be > 0"
                )
            prices.append(value)
        dates.append(day)
        closes.append(prices)

    if not dates:
        raise ParseError(f"{path}: no usable data rows")
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise UnsortedDates(f"{path}: dates not strictly increasing at {cur}")
    return PriceSeries(
        dates=tuple(dates),
        tickers=tickers,
        closes=np.array(closes),
        dropped_rows=dropped,
    )


def log_returns(ps: PriceSeries) -> np.ndarray:
    """(T-1) x n matrix of log(S_{t+1} / S_t)."""
    if len(ps.dates) < 2:
        raise TooShort(f"need at least 2 dates for returns, got {len(ps.dates)}")
    return np.diff(np.log(ps.closes), axis=0)


def rolling_determinants(
    returns: np.ndarray,
    window: int = 10,
    annualization: int = 252,
    rolling: bool = False,
) -> RealizedVarianceSeries:
    """Determinant of the annualized sample covariance, window by window.

    Windows advance by ``window`` rows (blocked, the default) or by one row
    (``rolling=True``). Each needs at least n+1 observations so the sample
    covariance of n assets can be nonsingular. ``window`` must be a whole
    number, ``rolling`` a bool and ``annualization`` (periods per year)
    finite and >= 1. A window whose determinant is not finite raises
    ``NumericalError``.
    """
    window = _whole_number("window", window)
    if not isinstance(rolling, (bool, np.bool_)):
        raise InvalidConfig(f"rolling must be a bool, got {rolling!r}")
    annualization = _require_finite("annualization", annualization)
    if not annualization >= 1:
        raise ValidationError(f"annualization must be >= 1 period per year, got {annualization}")
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise TooFewRows(f"returns must be 2-d, got shape {returns.shape}")
    m, n = returns.shape
    if window < n + 1:
        raise WindowTooSmall(f"window {window} < n+1 = {n + 1} observations")
    if m < window:
        raise TooFewRows(f"{m} return rows < window {window}")

    step = 1 if rolling else window
    starts = range(0, m - window + 1, step)
    times = np.empty(len(starts))
    values = np.empty(len(starts))
    clamped = 0
    for idx, start in enumerate(starts):
        block = returns[start : start + window]
        with np.errstate(over="ignore", invalid="ignore"):
            cov = np.cov(block.T, ddof=1) * annualization
            det = float(np.linalg.det(np.atleast_2d(cov)))
        if not math.isfinite(det):
            raise NumericalError(f"window ending at row {start + window} has determinant {det}")
        if _DET_CLAMP_FLOOR < det < 0.0:
            det = 0.0
            clamped += 1
        elif det < 0.0:
            raise NegativeDeterminant(
                f"window ending at row {start + window} produced determinant {det}, "
                "far below rounding level for a Gram matrix"
            )
        times[idx] = (start + window) / annualization
        values[idx] = det
    return RealizedVarianceSeries(times=times, values=values, window=window, clamped=clamped)


def estimate_correlation(returns: np.ndarray) -> CorrelationMatrix:
    """Sample Pearson correlation of the full return sample, validated."""
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise TooFewRows(f"returns must be 2-d, got shape {returns.shape}")
    m, n = returns.shape
    if m < n + 1:
        raise TooFewRows(f"{m} return rows < n+1 = {n + 1}")
    variances = np.var(returns, axis=0, ddof=1)
    for i, v in enumerate(variances):
        if v == 0.0:
            raise DegenerateColumn(f"column {i + 1} has zero sample variance")
    c = np.corrcoef(returns.T)
    c = np.clip(0.5 * (c + c.T), -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return validate_correlation(c)


def _excess_kurtosis(col: np.ndarray) -> float:
    """Bias-corrected sample excess kurtosis G2 of one column.

    G2 = (m^2 - 1) m4 / m2^2 - 3 (m - 1)^2, over (m - 2)(m - 3), with m2 and
    m4 the central moments about the mean: scipy's
    ``stats.kurtosis(fisher=True, bias=False)`` in its order of operations,
    NaN where m2 is below rounding of the mean, as there.
    """
    m = col.size
    mean = np.mean(col)
    sq = (col - mean) ** 2
    m2 = np.mean(sq)
    m4 = np.mean(sq**2)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return float("nan")
    g2 = 1.0 / (m - 2) / (m - 3) * ((m**2 - 1.0) * m4 / m2**2.0 - 3 * (m - 1) ** 2.0)
    return float(g2 + 3.0 - 3)  # scipy's Pearson-then-Fisher round trip, digit for digit


def summary_stats(matrix: np.ndarray, tickers=None) -> tuple[AssetSummary, ...]:
    """Sample mean, unbiased variance and excess kurtosis per column.

    Kurtosis uses the Fisher (excess) convention with the small-sample bias
    correction. A constant column is returned with variance 0, NaN kurtosis
    and ``degenerate=True`` rather than raising.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, np.newaxis]
    m, n = matrix.shape
    if m < 4:
        raise TooShort(f"kurtosis needs at least 4 rows, got {m}")
    if tickers is None:
        tickers = [f"asset_{i + 1}" for i in range(n)]
    if len(tickers) != n:
        raise DimensionMismatch(f"{len(tickers)} tickers for {n} columns")

    out = []
    for i in range(n):
        col = matrix[:, i]
        variance = float(np.var(col, ddof=1))
        degenerate = variance == 0.0
        out.append(
            AssetSummary(
                ticker=str(tickers[i]),
                mean=float(np.mean(col)),
                variance=variance,
                excess_kurtosis=float("nan") if degenerate else _excess_kurtosis(col),
                degenerate=degenerate,
            )
        )
    return tuple(out)


def realized_to_csv(series: RealizedVarianceSeries, path) -> None:
    rows = ([f"{t:.12g}", f"{v:.17g}"] for t, v in zip(series.times, series.values))
    _write_rows(path, [["t", "value"], *rows])


def load_realized_csv(path) -> RealizedVarianceSeries:
    """Read a ``t,value`` CSV back; the window length is not recoverable.

    Times must be finite, > 0 and strictly increasing, and values, being
    determinants of covariance matrices, must not be negative. A NaN or
    +inf value is read as it is; a fit then reports a numerical failure.
    """
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["t", "value"]:
        raise ParseError(f"{path}: expected header 't,value'")
    times = []
    values = []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"{path}: row {row_no} must have 2 fields")
        try:
            t, value = float(row[0]), float(row[1])
        except ValueError:
            raise ParseError(f"{path}: row {row_no}: bad number") from None
        if not (math.isfinite(t) and t > (times[-1] if times else 0.0)):
            raise ParseError(
                f"{path}: row {row_no}: time {t!r} must be finite, > 0 and above the previous row's"
            )
        if value < 0.0:
            raise ParseError(f"{path}: row {row_no}: value {value!r} is negative")
        times.append(t)
        values.append(value)
    if not times:
        raise ParseError(f"{path}: no data rows")
    return RealizedVarianceSeries(
        times=np.array(times), values=np.array(values), window=0
    )


def summary_to_csv(summaries, path) -> None:
    rows = (
        [s.ticker, f"{s.mean:.12g}", f"{s.variance:.12g}", f"{s.excess_kurtosis:.12g}"]
        for s in summaries
    )
    _write_rows(path, [["ticker", "mean", "variance", "kurtosis"], *rows])
