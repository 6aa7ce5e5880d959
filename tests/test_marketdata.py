"""Price loading, return/covariance estimation, and CSV round trips."""

import math

import numpy as np
import pytest

from genvarswap import (
    RealizedVarianceSeries,
    estimate_correlation,
    load_prices,
    log_returns,
    rolling_determinants,
    summary_stats,
)
from genvarswap.errors import (
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
from genvarswap.marketdata import (
    load_realized_csv,
    realized_to_csv,
    summary_to_csv,
)


def write_prices(tmp_path, body, name="prices.csv"):
    target = tmp_path / name
    target.write_text("date,AAA,BBB\n" + body)
    return target


class TestLoadPrices:
    def test_happy_path(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-04,100,50\n2021-01-05,101,51\n2021-01-06,99,52\n")
        ps = load_prices(path)
        assert len(ps.dates) == 3
        assert ps.tickers == ("AAA", "BBB")
        assert ps.dropped_rows == 0
        np.testing.assert_array_equal(ps.closes[0], [100.0, 50.0])

    def test_blank_cell_drops_row(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-04,100,50\n2021-01-05,,51\n2021-01-06,99,52\n")
        ps = load_prices(path)
        assert ps.dropped_rows == 1
        assert len(ps.dates) == 2
        np.testing.assert_array_equal(ps.closes[:, 0], [100.0, 99.0])

    def test_nonpositive_price_names_row(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-04,100,50\n2021-01-05,-5,51\n")
        with pytest.raises(NonPositivePrice, match="row 3"):
            load_prices(path)

    def test_bad_number_names_row_and_column(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-04,100,abc\n")
        with pytest.raises(ParseError, match="row 2 column 3"):
            load_prices(path)

    def test_bad_date_rejected(self, tmp_path):
        path = write_prices(tmp_path, "04/01/2021,100,50\n")
        with pytest.raises(ParseError, match="row 2"):
            load_prices(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-04,100\n")
        with pytest.raises(ParseError, match="row 2"):
            load_prices(path)

    def test_unsorted_dates_rejected(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-05,100,50\n2021-01-04,101,51\n")
        with pytest.raises(UnsortedDates):
            load_prices(path)

    def test_missing_header_rejected(self, tmp_path):
        target = tmp_path / "prices.csv"
        target.write_text("AAA,BBB\n100,50\n")
        with pytest.raises(ParseError):
            load_prices(target)

    def test_field_over_the_csv_size_limit_names_file(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-04,100," + "5" * 200_000 + "\n")
        with pytest.raises(ParseError, match="prices.csv: unreadable CSV"):
            load_prices(path)


class TestLogReturns:
    def test_constant_prices_give_zero(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-04,100,50\n2021-01-05,100,50\n")
        np.testing.assert_array_equal(log_returns(load_prices(path)), np.zeros((1, 2)))

    def test_e_fold_gives_one(self, tmp_path):
        path = write_prices(
            tmp_path, f"2021-01-04,100,100\n2021-01-05,{100 * math.e!r},{100 * math.e!r}\n"
        )
        np.testing.assert_allclose(log_returns(load_prices(path)), 1.0, rtol=1e-15)

    def test_known_values(self, tmp_path):
        path = write_prices(
            tmp_path, "2021-01-04,100,100\n2021-01-05,110,110\n2021-01-06,99,99\n"
        )
        returns = log_returns(load_prices(path))
        np.testing.assert_allclose(returns[0], 0.09531017980432486, rtol=1e-14)
        np.testing.assert_allclose(returns[1], -0.10536051565782628, rtol=1e-14)

    def test_too_short(self, tmp_path):
        path = write_prices(tmp_path, "2021-01-04,100,50\n")
        with pytest.raises(TooShort):
            log_returns(load_prices(path))


class TestRollingDeterminants:
    def test_identical_columns_give_zero(self):
        col = np.random.default_rng(61).standard_normal(10)
        returns = np.column_stack([col, col, col])
        series = rolling_determinants(returns, window=10)
        assert series.n_windows == 1
        assert series.values[0] == 0.0

    def test_hand_computed_two_asset_window(self):
        # centered rows (1,1), (-1,0), (0,-1): sample covariance
        # [[2,1],[1,2]] / 2, so determinant 3 * 0.5^2 before annualization
        returns = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        series = rolling_determinants(returns, window=3, annualization=1)
        assert series.values[0] == pytest.approx(3.0 * 0.25, rel=1e-14)
        assert series.times[0] == pytest.approx(3.0)
        annualized = rolling_determinants(returns, window=3, annualization=252)
        assert annualized.values[0] == pytest.approx(0.75 * 252.0**2, rel=1e-14)

    def test_determinants_nonnegative(self):
        rng = np.random.default_rng(67)
        returns = rng.standard_normal((120, 3)) * 0.01
        series = rolling_determinants(returns, window=10)
        assert np.all(series.values >= 0.0)

    def test_blocked_window_count_and_times(self):
        returns = np.random.default_rng(71).standard_normal((104, 3)) * 0.01
        series = rolling_determinants(returns, window=10, annualization=252)
        assert series.n_windows == 10
        np.testing.assert_allclose(series.times, (np.arange(10) * 10 + 10) / 252.0)

    def test_rolling_mode_advances_by_one(self):
        returns = np.random.default_rng(73).standard_normal((30, 3)) * 0.01
        series = rolling_determinants(returns, window=10, rolling=True)
        assert series.n_windows == 21

    def test_column_reorder_invariance(self):
        rng = np.random.default_rng(79)
        returns = rng.standard_normal((40, 3)) * 0.01
        base = rolling_determinants(returns, window=10)
        permuted = rolling_determinants(returns[:, [2, 0, 1]], window=10)
        np.testing.assert_allclose(permuted.values, base.values, rtol=1e-10)

    def test_price_scale_invariance(self, tmp_path):
        rng = np.random.default_rng(83)
        prices = 100.0 * np.exp(np.cumsum(rng.standard_normal((40, 2)) * 0.01, axis=0))
        rows = ["date,AAA,BBB"]
        day = np.datetime64("2021-01-04")
        for row in prices:
            rows.append(f"{day},{float(row[0])!r},{float(row[1])!r}")
            day += np.timedelta64(1, "D")
        base_file = tmp_path / "base.csv"
        base_file.write_text("\n".join(rows) + "\n")
        scaled_rows = ["date,AAA,BBB"]
        day = np.datetime64("2021-01-04")
        for row in prices:
            scaled_rows.append(f"{day},{float(7.0 * row[0])!r},{float(0.1 * row[1])!r}")
            day += np.timedelta64(1, "D")
        scaled_file = tmp_path / "scaled.csv"
        scaled_file.write_text("\n".join(scaled_rows) + "\n")
        base = rolling_determinants(log_returns(load_prices(base_file)), window=10)
        scaled = rolling_determinants(log_returns(load_prices(scaled_file)), window=10)
        np.testing.assert_allclose(scaled.values, base.values, rtol=1e-9)

    def test_window_determinant_factorizes(self):
        # |cov| = |C_w| v_1 v_2 v_3 on sample quantities
        rng = np.random.default_rng(89)
        returns = rng.standard_normal((10, 3)) * 0.01
        series = rolling_determinants(returns, window=10, annualization=252)
        corr_w = np.corrcoef(returns.T)
        variances = np.var(returns, axis=0, ddof=1) * 252.0
        factorized = float(np.linalg.det(corr_w)) * float(np.prod(variances))
        assert series.values[0] == pytest.approx(factorized, rel=1e-10)

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            rolling_determinants(np.zeros((20, 3)), window=3)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            rolling_determinants(np.zeros((5, 3)) + np.eye(5, 3), window=10)

    @pytest.mark.parametrize("annualization", [0, -252, math.nan])
    def test_annualization_below_one_rejected(self, annualization):
        returns = np.random.default_rng(3).normal(0.0, 0.01, (30, 3))
        with pytest.raises(ValidationError, match="annualization"):
            rolling_determinants(returns, window=10, annualization=annualization)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(window=10.5), "window must be an integer, got 10.5"),
            (dict(window="10"), "window must be a number, got '10'"),
            (dict(window=True), "window must be a number, got True"),
            (dict(window=10, rolling="no"), "rolling must be a bool, got 'no'"),
        ],
        ids=["fractional-window", "text-window", "bool-window", "text-rolling"],
    )
    def test_window_and_rolling_read_as_their_types(self, kwargs, message):
        returns = np.random.default_rng(3).normal(0.0, 0.01, (30, 3))
        with pytest.raises(InvalidConfig) as info:
            rolling_determinants(returns, **kwargs)
        assert str(info.value) == message

    def test_determinant_below_rounding_level_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "det", lambda a: -1.0)
        returns = np.random.default_rng(3).normal(0.0, 0.01, (30, 3))
        with pytest.raises(NegativeDeterminant, match="row 10"):
            rolling_determinants(returns, window=10)
        assert issubclass(NegativeDeterminant, NumericalError)


class TestEstimateCorrelation:
    def test_perfectly_anti_aligned_columns(self):
        col = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        corr = estimate_correlation(np.column_stack([col, -col]))
        assert corr.c[0, 1] == pytest.approx(-1.0)
        assert corr.det_c == 0.0

    def test_column_against_itself(self):
        col = np.array([0.3, -0.1, 0.4, 0.0, -0.2])
        corr = estimate_correlation(np.column_stack([col, col]))
        assert corr.c[0, 1] == pytest.approx(1.0)

    def test_recovers_population_correlation(self):
        rng = np.random.default_rng(97)
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        draws = rng.multivariate_normal(np.zeros(2), cov, size=100000)
        corr = estimate_correlation(draws)
        assert abs(corr.c[0, 1] - 0.7) < 0.01

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            estimate_correlation(np.ones((3, 3)))

    def test_one_dimensional_returns(self):
        with pytest.raises(TooFewRows, match="returns must be 2-d"):
            estimate_correlation(np.ones(10))

    def test_degenerate_column(self):
        rng = np.random.default_rng(101)
        returns = rng.standard_normal((20, 3))
        returns[:, 1] = 0.5
        with pytest.raises(DegenerateColumn):
            estimate_correlation(returns)


class TestSummaryStats:
    def test_normal_sample_moments(self):
        rng = np.random.default_rng(103)
        draws = rng.standard_normal((1000000, 1))
        (summary,) = summary_stats(draws, tickers=["X"])
        assert abs(summary.mean) < 0.02
        assert abs(summary.variance - 1.0) < 0.02
        assert abs(summary.excess_kurtosis) < 0.02
        assert not summary.degenerate

    def test_kurtosis_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(107)
        for rows in (4, 5, 17, 250, 4001):
            matrix = rng.standard_t(5, (rows, 3)) * (0.01, 1.0, 300.0) + (0.0, 50.0, -7.0)
            for i, summary in enumerate(summary_stats(matrix)):
                reference = stats.kurtosis(matrix[:, i], fisher=True, bias=False)
                assert summary.excess_kurtosis == pytest.approx(reference, rel=1e-14, abs=1e-14)

    def test_constant_column_flagged(self):
        matrix = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        constant, moving = summary_stats(matrix)
        assert constant.degenerate
        assert constant.variance == 0.0
        assert math.isnan(constant.excess_kurtosis)
        assert not moving.degenerate

    def test_too_short(self):
        with pytest.raises(TooShort):
            summary_stats(np.ones((3, 2)))

    def test_ticker_count_must_match_the_columns(self):
        matrix = np.random.default_rng(109).standard_normal((10, 3))
        with pytest.raises(DimensionMismatch, match="2 tickers for 3 columns"):
            summary_stats(matrix, ["a", "b"])


class TestCsvRoundTrips:
    def test_realized_series_round_trip(self, tmp_path):
        series = RealizedVarianceSeries(
            times=np.array([0.1, 0.2, 0.3]),
            values=np.array([1e-4, 2e-4, 1.5e-4]),
            window=10,
        )
        target = tmp_path / "realized.csv"
        realized_to_csv(series, target)
        again = load_realized_csv(target)
        np.testing.assert_allclose(again.times, series.times, rtol=1e-12)
        np.testing.assert_array_equal(again.values, series.values)

    def test_load_realized_rejects_bad_header(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("time,det\n0.1,1e-4\n")
        with pytest.raises(ParseError):
            load_realized_csv(target)

    def test_load_realized_rejects_bad_number(self, tmp_path):
        target = tmp_path / "bad.csv"
        for rows, row in (
            ("0.1,oops\n", 2),
            ("0.1,1e-4\n0.2,-1e-6\n", 3),
            ("0.1,1e-4\n0.2,-inf\n", 3),
            ("0,1e-4\n", 2),
            ("-0.1,1e-4\n", 2),
            ("0.1,1e-4\n0.3,1e-4\n0.2,1e-4\n", 4),
            ("0.1,1e-4\n0.1,1e-4\n", 3),
            ("0.1,1e-4\nnan,1e-4\n", 3),
            ("0.1,1e-4\ninf,1e-4\n", 3),
        ):
            target.write_text("t,value\n" + rows)
            with pytest.raises(ParseError, match=f"bad.csv: row {row}"):
                load_realized_csv(target)

    def test_load_realized_keeps_non_finite_values(self, tmp_path):
        target = tmp_path / "realized.csv"
        target.write_text("t,value\n0.1,nan\n0.2,inf\n0.3,-0.0\n")
        values = load_realized_csv(target).values
        assert np.isnan(values[0]) and values[1] == np.inf and values[2] == 0.0

    def test_summary_csv_header(self, tmp_path):
        summaries = summary_stats(np.random.default_rng(107).standard_normal((50, 2)))
        target = tmp_path / "summary.csv"
        summary_to_csv(summaries, target)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "ticker,mean,variance,kurtosis"
        assert len(lines) == 3
