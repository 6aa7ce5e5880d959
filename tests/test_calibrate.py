"""Error metrics, model curves, and the Levenberg-Marquardt fit."""

import math
import warnings

import numpy as np
import pytest

from genvarswap import (
    CalibrationProblem,
    HestonAssetParams,
    HestonPortfolio,
    RealizedVarianceSeries,
    error_metrics,
    fit,
    model_curve,
    validate_correlation,
)
from genvarswap.bns import expected_realized_variance_bns
from genvarswap.calibrate import (
    BNS_PARAM_NAMES,
    HESTON_PARAM_NAMES,
    _from_internal,
    default_bounds,
    initial_guess,
    param_names,
    subordinator_initial_guess,
)
from genvarswap.core import BnsAssetParams, BnsPortfolioParams, LeverageSignWarning
from genvarswap.errors import LengthMismatch, ValidationError, ZeroObserved
from genvarswap.heston import expected_realized_variance_quad

CORR = validate_correlation(np.full((3, 3), 0.3) + 0.7 * np.eye(3))


def series(times, values):
    return RealizedVarianceSeries(
        times=np.asarray(times, dtype=float), values=np.asarray(values, dtype=float), window=0
    )


HESTON_TRUTH = np.array([1.0, 3.0, 6.0, 0.05, 0.08, 0.06, 0.10, 0.03, 0.09])


def heston_series(times, noise=0.0, seed=0):
    values = model_curve("heston", HESTON_TRUTH, CORR, times)
    if noise:
        values = values + np.random.default_rng(seed).normal(0.0, noise, values.size)
    return series(times, values)


class TestErrorMetrics:
    def test_hand_computed_values(self):
        m = error_metrics([1.0, 2.0, 3.0], [1.1, 1.9, 3.3])
        assert m.aae == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert m.rmse == pytest.approx(0.1914854215512676, rel=1e-14)
        assert m.arpe == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert m.ape == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert f"{m.aae:.4f}" == "0.1667"
        assert f"{m.rmse:.4f}" == "0.1915"
        assert f"{m.arpe:.4f}" == "0.0833"
        assert f"{m.ape:.4f}" == "0.0833"

    def test_single_point(self):
        m = error_metrics([2.0], [1.0])
        assert m.rmse == 1.0
        assert m.aae == 1.0
        assert m.arpe == 0.5
        assert m.ape == 0.5

    def test_perfect_fit_gives_zeros(self):
        m = error_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (m.rmse, m.ape, m.aae, m.arpe) == (0.0, 0.0, 0.0, 0.0)

    def test_aae_never_exceeds_rmse(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            n = rng.integers(1, 30)
            obs = rng.uniform(0.5, 2.0, n)
            fitted = obs + rng.normal(0.0, 0.3, n)
            m = error_metrics(obs, fitted)
            assert m.aae <= m.rmse + 1e-15

    def test_zero_observed_points_skipped(self):
        m = error_metrics([2.0, 0.0], [1.0, 0.5])
        assert m.skipped == 1
        assert m.arpe == 0.5

    def test_all_zero_observed_rejected(self):
        with pytest.raises(ZeroObserved):
            error_metrics([0.0, 0.0], [1.0, 1.0])

    def test_zero_mean_observed_rejected(self):
        with pytest.raises(ZeroObserved):
            error_metrics([1.0, -1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            error_metrics([1.0, 2.0], [1.0])


class TestModelCurve:
    def test_heston_stationary_constant(self):
        params = np.array([2.0, 2.0, 2.0, 0.05, 0.08, 0.06, 0.05, 0.08, 0.06])
        times = np.linspace(0.1, 2.0, 8)
        curve = model_curve("heston", params, CORR, times)
        np.testing.assert_allclose(curve, CORR.det_c * 0.05 * 0.08 * 0.06, rtol=1e-13)

    def test_bns_stationary_zero_rho_constant(self):
        params = np.array(
            [2.0, 0.05, 0.08, 0.06, 0.05, 0.08, 0.06, 0.004, 0.006, 0.005, 0.0, 0.0, 0.0, 0.0]
        )
        times = np.linspace(0.1, 2.0, 8)
        curve = model_curve("bns", params, CORR, times)
        np.testing.assert_allclose(curve, CORR.det_c * 0.05 * 0.08 * 0.06, rtol=1e-13)

    def test_heston_matches_per_point_quadrature(self):
        times = np.array([0.25, 0.75, 1.5])
        curve = model_curve("heston", HESTON_TRUTH, CORR, times)
        assets = tuple(
            HestonAssetParams(
                k=HESTON_TRUTH[i], theta2=HESTON_TRUTH[3 + i], sigma0_2=HESTON_TRUTH[6 + i],
                gamma=1.0,
            )
            for i in range(3)
        )
        pf = HestonPortfolio(assets=assets, corr=CORR)
        for t, value in zip(times, curve):
            assert value == pytest.approx(expected_realized_variance_quad(t, pf), rel=1e-10)

    def test_bns_matches_per_point_pricing_call(self):
        params = np.array(
            [2.0, 0.04, 0.06, 0.05, 0.05, 0.07, 0.06, 0.004, 0.006, 0.005,
             -0.4, -0.25, -0.6, 0.02]
        )
        times = np.array([0.5, 1.0, 2.0])
        curve = model_curve("bns", params, CORR, times)
        assets = tuple(
            BnsAssetParams(
                sigma0_2=params[1 + i], kappa1=params[4 + i], kappa2=params[7 + i],
                rho=params[10 + i],
            )
            for i in range(3)
        )
        p = BnsPortfolioParams(assets=assets, lambda_=params[0], kappa2_star=params[13])
        for t, value in zip(times, curve):
            assert value == pytest.approx(
                expected_realized_variance_bns(float(t), p, CORR), rel=1e-12
            )

    def test_positive_rho_trial_does_not_warn(self):
        params = np.array(
            [2.0, 0.04, 0.06, 0.05, 0.05, 0.07, 0.06, 0.004, 0.006, 0.005,
             0.2, 0.1, 0.3, 0.02]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", LeverageSignWarning)
            model_curve("bns", params, CORR, np.array([1.0]))

    def test_wrong_parameter_count(self):
        with pytest.raises(ValidationError):
            model_curve("heston", np.ones(8), CORR, np.array([1.0]))
        with pytest.raises(ValidationError):
            model_curve("bns", np.ones(9), CORR, np.array([1.0]))

    def test_bad_times(self):
        with pytest.raises(ValidationError):
            model_curve("heston", HESTON_TRUTH, CORR, np.array([1.0, 0.5]))


class TestParamTables:
    def test_names_and_bounds_align(self):
        assert param_names("heston") == HESTON_PARAM_NAMES
        assert param_names("bns") == BNS_PARAM_NAMES
        assert len(default_bounds("heston")) == 9
        assert len(default_bounds("bns")) == 14
        with pytest.raises(ValidationError):
            param_names("garch")

    def test_bounded_transform_matches_scipy_expit(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(109)
        zs = np.concatenate([rng.normal(0.0, 8.0, 2000), [-709.0, -709.79, -746.0, -1e308, 800.0]])
        for z in zs:
            assert _from_internal(float(z), 0.1, 3.0) == 0.1 + 2.9 * float(special.expit(z))
        assert _from_internal(-1e308, 0.1, 3.0) == 0.1

    def test_problem_validation(self):
        obs = heston_series(np.linspace(0.1, 1.0, 5))
        with pytest.raises(ValidationError):
            CalibrationProblem(
                model="heston", observed=obs, corr=CORR,
                initial=np.ones(8), bounds=default_bounds("heston"),
            )
        bad_bounds = (((2.0, 1.0),) + default_bounds("heston")[1:])
        with pytest.raises(ValidationError):
            CalibrationProblem(
                model="heston", observed=obs, corr=CORR,
                initial=HESTON_TRUTH, bounds=bad_bounds,
            )
        with pytest.raises(ValidationError):
            CalibrationProblem(
                model="heston", observed=obs, corr=CORR,
                initial=np.full(9, 1e6), bounds=default_bounds("heston"),
            )


class TestFit:
    def test_start_at_truth_converges_immediately(self):
        obs = heston_series(np.linspace(0.05, 2.0, 40))
        problem = CalibrationProblem(
            model="heston", observed=obs, corr=CORR,
            initial=HESTON_TRUTH, bounds=default_bounds("heston"),
        )
        result = fit(problem)
        assert result.converged
        assert result.iterations <= 2
        assert result.sse < 1e-25

    def test_heston_round_trip_with_noise(self):
        noise = 1e-8
        times = np.linspace(0.05, 2.0, 40)
        obs = heston_series(times, noise=noise, seed=1)
        problem = CalibrationProblem(
            model="heston", observed=obs, corr=CORR,
            initial=HESTON_TRUTH * 1.5, bounds=default_bounds("heston"),
        )
        result = fit(problem)
        assert result.converged
        assert result.sse <= 10.0 * times.size * noise**2
        assert result.metrics.arpe <= 1e-3

    def test_bns_round_trip_zero_rho(self):
        noise = 1e-8
        truth = np.array(
            [2.0, 0.10, 0.03, 0.09, 0.05, 0.08, 0.06, 0.004, 0.006, 0.005, 0.0, 0.0, 0.0, 0.0]
        )
        times = np.linspace(0.05, 2.0, 25)
        values = model_curve("bns", truth, CORR, times)
        values = values + np.random.default_rng(2).normal(0.0, noise, values.size)
        # kappa2, rho and kappa2* do not enter the rho=0 curve: freeze them
        bounds = list(default_bounds("bns"))
        for j in range(7, 10):
            bounds[j] = (truth[j], truth[j])
        for j in range(10, 14):
            bounds[j] = (0.0, 0.0)
        init = truth.copy()
        init[:7] *= 1.5
        problem = CalibrationProblem(
            model="bns", observed=series(times, values), corr=CORR,
            initial=init, bounds=tuple(bounds),
        )
        result = fit(problem)
        assert result.converged
        assert result.sse <= 10.0 * times.size * noise**2
        assert result.metrics.arpe <= 1e-3

    def test_constant_series_recovers_theta_product(self):
        constant = 1.8e-4
        obs = series(np.linspace(0.1, 1.0, 10), np.full(10, constant))
        start = initial_guess("heston", obs, CORR)
        problem = CalibrationProblem(
            model="heston", observed=obs, corr=CORR,
            initial=start, bounds=default_bounds("heston"),
        )
        result = fit(problem)
        assert result.converged
        theta_product = float(np.prod(result.params[3:6]))
        assert abs(theta_product - constant / CORR.det_c) < 1e-8

    def test_all_frozen_parameters(self):
        obs = heston_series(np.linspace(0.1, 1.0, 5))
        bounds = tuple((x, x) for x in HESTON_TRUTH)
        problem = CalibrationProblem(
            model="heston", observed=obs, corr=CORR, initial=HESTON_TRUTH, bounds=bounds
        )
        result = fit(problem)
        assert result.converged
        assert result.iterations == 0
        np.testing.assert_array_equal(result.params, HESTON_TRUTH)
        np.testing.assert_array_equal(result.covariance_of_estimates, np.zeros((9, 9)))

    def test_sse_never_exceeds_initial(self):
        times = np.linspace(0.05, 2.0, 15)
        obs = heston_series(times, noise=1e-6, seed=3)
        init = HESTON_TRUTH * 1.8
        problem = CalibrationProblem(
            model="heston", observed=obs, corr=CORR,
            initial=init, bounds=default_bounds("heston"),
        )
        start_residual = model_curve("heston", init, CORR, times) - obs.values
        start_sse = float(start_residual @ start_residual)
        result = fit(problem)
        assert result.sse <= start_sse

    def test_covariance_shape_and_symmetry(self):
        times = np.linspace(0.05, 2.0, 20)
        obs = heston_series(times, noise=1e-7, seed=4)
        problem = CalibrationProblem(
            model="heston", observed=obs, corr=CORR,
            initial=HESTON_TRUTH * 1.2, bounds=default_bounds("heston"),
        )
        result = fit(problem)
        cov = result.covariance_of_estimates
        assert cov.shape == (9, 9)
        np.testing.assert_allclose(cov, cov.T, atol=1e-20)
        assert np.all(np.diag(cov) >= -1e-20)

    def test_result_round_trip(self):
        obs = heston_series(np.linspace(0.1, 1.0, 5))
        problem = CalibrationProblem(
            model="heston", observed=obs, corr=CORR,
            initial=HESTON_TRUTH, bounds=default_bounds("heston"),
        )
        d = fit(problem).to_dict()
        assert set(d) == {
            "params", "sse", "iterations", "converged",
            "covariance_of_estimates", "metrics",
        }
        assert set(d["metrics"]) == {"rmse", "ape", "aae", "arpe"}


class TestInitialGuess:
    def test_heston_guess_is_feasible(self):
        obs = heston_series(np.linspace(0.1, 1.0, 8))
        start = initial_guess("heston", obs, CORR)
        for x, (lo, hi) in zip(start, default_bounds("heston")):
            assert lo <= x <= hi

    def test_bns_guess_is_feasible(self):
        obs = heston_series(np.linspace(0.1, 1.0, 8))
        start = initial_guess("bns", obs, CORR)
        for x, (lo, hi) in zip(start, default_bounds("bns")):
            assert lo <= x <= hi

    def test_subordinator_guess_from_increments(self):
        k1, k2 = subordinator_initial_guess([1.0, 1.2, 1.1, 1.5, 1.4, 1.9])
        assert k1 > 0.0
        assert k2 >= 1e-12

    def test_subordinator_guess_fallback(self):
        k1, k2 = subordinator_initial_guess([2.0, 1.5, 1.0])
        assert k1 > 0.0
        assert k2 > 0.0
