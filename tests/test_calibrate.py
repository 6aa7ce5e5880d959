"""Error metrics, model curves, and the Levenberg-Marquardt fit."""

import collections
import math
import warnings

import numpy as np
import pytest
from conftest import CountedTimes

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
from genvarswap import bns, calibrate, heston
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
from genvarswap.errors import (
    DegenerateVariance,
    LengthMismatch,
    QuadratureFailure,
    SingularNormalEquations,
    ValidationError,
    WrongAssetCount,
    ZeroObserved,
)
from genvarswap.heston import expected_realized_variance, expected_realized_variance_quad

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


BNS_LEVERAGED = np.array(
    [2.0, 0.04, 0.06, 0.05, 0.05, 0.07, 0.06, 0.004, 0.006, 0.005, -0.4, -0.25, -0.6, 0.02]
)
STACK_TIMES = np.linspace(0.04, 2.0, 50)


def near(base, count, seed):
    """``count`` parameter vectors within 5 % of ``base``, the first one ``base`` itself."""
    rows = base * (1.0 + np.random.default_rng(seed).uniform(-0.05, 0.05, (count, base.size)))
    rows[0] = base
    return rows


def heston_stack(count):
    rows = near(HESTON_TRUTH, count, seed=count)
    rows[1::3, 0:3] = 2.0  # equal rates within a set, as at the flat start
    return rows


def bns_stack(count):
    rows = near(BNS_LEVERAGED, count, seed=count)
    rows[1::4, 10:13] = 0.0  # rho = 0: no cross term
    rows[2::4, 13] = 0.0  # kappa2* = 0: no jump term at all
    rows[3::4, 11] = 0.0  # one rho = 0: one cross term left
    rows[::2, 0] = BNS_LEVERAGED[0]  # equal lambda across sets
    return rows


def count_integrand_calls(monkeypatch):
    """Patch ``bns.quad`` to record each integrand evaluation in the list it returns."""
    calls = []
    quad = bns.quad

    def counting(f, *args):
        return quad(lambda t: calls.append(t.shape) or f(t), *args)

    monkeypatch.setattr(bns, "quad", counting)
    return calls


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
        for times in (np.array([1.0, 0.5]), 1.0, np.ones((2, 2))):
            with pytest.raises(ValidationError):
                model_curve("heston", HESTON_TRUTH, CORR, times)


def jacobian_stack(n):
    """A BNS Jacobian's 2p points at ``layout_vector("bns", n)``, plus duplicate and rho = 0 rows.

    kappa2 of asset 1 is 0 and frozen there; the points come from
    ``calibrate._jacobian_points`` under the default bounds, so the lambda
    rows carry their own rates.
    """
    x = layout_vector("bns", n)
    x[1 + 2 * n] = 0.0
    bounds = [bounds for _, bounds, _ in calibrate._entries("bns", n)]
    bounds[1 + 2 * n] = (0.0, 0.0)
    free = [j for j, (lo, hi) in enumerate(bounds) if lo < hi]
    z = np.array([calibrate._to_internal(x[j], *bounds[j]) for j in free])
    up, down = calibrate._jacobian_points(x, free, bounds, z, 1e-6 * np.maximum(1.0, np.abs(z)))
    no_rho, one_rho = up[:2].copy(), up[2:4].copy()
    no_rho[:, 1 + 3 * n:1 + 4 * n] = 0.0  # no cross term
    one_rho[:, 1 + 3 * n] = 0.0  # the pairs of asset 1 drop out
    return np.concatenate((up, down, up[:3], no_rho, one_rho))


class TestStackedCurves:
    @pytest.mark.parametrize("count", [1, 2, 28])
    @pytest.mark.parametrize("model, stack", [("heston", heston_stack), ("bns", bns_stack)])
    def test_rows_equal_single_curves(self, model, stack, count):
        rows = stack(count)
        curves = model_curve(model, rows, CORR, STACK_TIMES)
        assert curves.shape == (count, STACK_TIMES.size)
        for row, curve in zip(rows, curves):
            np.testing.assert_array_equal(curve, model_curve(model, row, CORR, STACK_TIMES))

    @pytest.mark.parametrize("refine", [False, True], ids=["maturity-panels", "one-row-refines"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jacobian_stack_rows_equal_single_curves(self, n, refine, monkeypatch):
        """Bit for bit on the maturity panels; within tol where one row forces a refinement."""
        corr = equicorrelation(n)
        rows = jacobian_stack(n)
        if refine:
            stiff = rows[0].copy()
            stiff[0] = 300.0  # e^{-300 t} needs finer panels than the maturity grid
            rows = np.concatenate((rows, [stiff]))
        singles = [model_curve("bns", row, corr, STACK_TIMES) for row in rows]
        calls = count_integrand_calls(monkeypatch)
        curves = model_curve("bns", rows, corr, STACK_TIMES)
        assert (len(calls) > 1) == refine
        tol = 1e-12
        for curve, single in zip(curves, singles):
            if refine:
                assert np.all(np.abs(curve - single) <= np.maximum(tol, tol * np.abs(single)))
            else:
                assert curve.tobytes() == single.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_copies_of_one_portfolio_share_every_factor(self, n, monkeypatch):
        """Per node, 28 copies evaluate one e^{-lambda t} and one e^{-2 lambda t} - 1,
        at most n E[sigma^2] (the integrand's one add, d e^{-lambda t} + c), at
        most n E[sigma] (its one sqrt) and one row per pair."""
        per_node = []
        quad = bns.quad

        def counting(f, *args):
            def counted(t):
                times = t.view(CountedTimes)
                times.counts = collections.Counter()
                values = np.asarray(f(times))
                per_node.append({name: size / t.size for name, size in times.counts.items()})
                per_node[-1]["rows"] = len(values)
                return values

            return quad(counted, *args)

        monkeypatch.setattr(bns, "quad", counting)
        corr = equicorrelation(n)
        x = layout_vector("bns", n)
        curves = model_curve("bns", np.tile(x, (28, 1)), corr, STACK_TIMES)
        assert per_node
        for counts in per_node:
            assert counts["exp"] == counts["expm1"] == 1
            assert counts["add"] <= n and counts["sqrt"] <= n
            assert counts["rows"] == n * (n - 1) // 2
        for curve in curves:
            np.testing.assert_array_equal(curve, model_curve("bns", x, corr, STACK_TIMES))

    def test_bns_stack_makes_one_quadrature_pass(self, monkeypatch):
        passes = []
        quad = bns.quad
        monkeypatch.setattr(bns, "quad", lambda *args: passes.append(len(args[3])) or quad(*args))
        model_curve("bns", bns_stack(28), CORR, STACK_TIMES)
        # of the 28 sets 7 keep all 3 pairs, 7 (one rho = 0) keep 1, and the 14 with
        # rho = 0 or kappa2* = 0 keep none
        assert passes == [7 * 3 + 7 * 1]

    def test_one_refining_set_moves_every_row_within_tolerance(self, monkeypatch):
        stiff = BNS_LEVERAGED.copy()
        stiff[0] = 90.0  # e^{-90 t} needs finer panels than the maturity grid
        rows = np.array([BNS_LEVERAGED, stiff, BNS_LEVERAGED * 1.01])
        calls = count_integrand_calls(monkeypatch)
        singles, evaluations = [], []
        for row in rows:
            calls.clear()
            singles.append(model_curve("bns", row, CORR, STACK_TIMES))
            evaluations.append(len(calls))
        # a calm set alone passes on the maturity grid; the stiff one refines
        assert evaluations[0] == evaluations[2] == 1 < evaluations[1]
        calls.clear()
        curves = model_curve("bns", rows, CORR, STACK_TIMES)
        assert len(calls) == evaluations[1]
        tol = 1e-12
        for curve, single in zip(curves, singles):
            assert np.all(np.abs(curve - single) <= np.maximum(tol, tol * np.abs(single)))
        assert not np.array_equal(curves[0], singles[0])  # the refinement reached the calm rows

    @pytest.mark.parametrize(
        "model, changes, error",
        [
            ("heston", {0: -1.0}, ValidationError),  # k < 0
            ("bns", {7: -1e-3}, ValidationError),  # kappa2 < 0
            # sigma0^2 of a leveraged asset decays to 0 within the horizon
            ("bns", {0: 90.0, 1: 1e-300, 4: 0.0}, DegenerateVariance),
            # the volatility correction overflows: no panel converges
            ("bns", {7: 1e308}, QuadratureFailure),
        ],
        ids=["heston-negative-k", "bns-negative-kappa2", "bns-vanishing-variance",
             "bns-overflowing-integrand"],
    )
    def test_one_bad_set_raises_its_own_error(self, model, changes, error):
        rows = near(HESTON_TRUTH if model == "heston" else BNS_LEVERAGED, 3, seed=1)
        for column, value in changes.items():
            rows[1, column] = value
        times = np.linspace(0.5, 10.0, 20)
        with np.errstate(all="ignore"):
            with pytest.raises(error):
                model_curve(model, rows[1], CORR, times)
            with pytest.raises(error):
                model_curve(model, rows, CORR, times)

    def test_stack_shape_checked(self):
        with pytest.raises(ValidationError):
            model_curve("bns", np.ones((2, 9)), CORR, np.array([1.0]))
        with pytest.raises(ValidationError):
            model_curve("heston", np.ones((2, 2, 9)), CORR, np.array([1.0]))


def own_heston_call(row, corr, times):
    """A Heston row's curve as one closed-form kernel call on its own floats."""
    k, theta2, sigma0_2 = (np.asarray(row, dtype=float).reshape(3, -1)).tolist()
    d = [s - t for s, t in zip(sigma0_2, theta2)]
    return corr.det_c * heston._affine_product_integral(times, d, theta2, k) / times


def count_kernel_sets(monkeypatch, module):
    """Patch ``module._affine_product_integral`` to record each call's number of sets."""
    sets = []
    kernel = module._affine_product_integral

    def counting(T, d, c, k=None, *, rate=None):
        sets.append(len(np.atleast_1d(k[0] if rate is None else rate)))
        return kernel(T, d, c, k, rate=rate)

    monkeypatch.setattr(module, "_affine_product_integral", counting)
    return sets


class TestCoincidingRates:
    """Stacked rows keep the bits of their own calls where rates coincide."""

    def test_heston_jacobian_at_the_flat_start(self, monkeypatch):
        observed = heston_series(STACK_TIMES)
        x = initial_guess("heston", observed, CORR)
        assert np.all(x[:3] == 2.0)
        bounds = default_bounds("heston")
        free = list(range(x.size))
        z = np.array([calibrate._to_internal(x[j], *bounds[j]) for j in free])
        h = 1e-6 * np.maximum(1.0, np.abs(z))
        rows = np.concatenate(calibrate._jacobian_points(x, free, bounds, z, h))
        sets = count_kernel_sets(monkeypatch, heston)
        curves = model_curve("heston", rows, CORR, STACK_TIMES)
        # one call for all 18 rows, whether their subset rates coincide or not
        assert sets == [18]
        for row, curve in zip(rows, curves):
            assert curve.tobytes() == own_heston_call(row, CORR, STACK_TIMES).tobytes()
            assert curve.tobytes() == model_curve("heston", row, CORR, STACK_TIMES).tobytes()

    def test_heston_rate_that_is_the_sum_of_two(self):
        base = HESTON_TRUTH.copy()
        base[:3] = 1.0, 2.0, 3.0  # k_1 + k_2 == k_3
        assert base[0] + base[1] == base[2]
        rows = near(base, 6, seed=4)
        rows[3, :3] = 3.0, 2.0, 1.0  # k_1 == k_2 + k_3
        rows[4, :3] = 1.0, 2.0, 3.0
        for row, curve in zip(rows, model_curve("heston", rows, CORR, STACK_TIMES)):
            assert curve.tobytes() == own_heston_call(row, CORR, STACK_TIMES).tobytes()
            assert curve.tobytes() == model_curve("heston", row, CORR, STACK_TIMES).tobytes()

    def test_bns_duplicate_mean_rows_integrated_once(self, monkeypatch):
        """Rows differing only in kappa2, rho or kappa2* share (lambda, sigma0^2 - kappa1, kappa1)."""
        rows = np.tile(BNS_LEVERAGED, (6, 1))
        rows[1, 7] *= 1.5  # kappa2_1
        rows[2, 10:13] = -0.1, 0.0, -0.7  # rho
        rows[3, 13] = 0.0  # kappa2*
        rows[4, 0] = 3.0  # lambda: a second distinct row
        rows[5, 1] *= 1.01  # sigma0^2_1: a third
        singles = [model_curve("bns", row, CORR, STACK_TIMES) for row in rows]
        sets = count_kernel_sets(monkeypatch, bns)
        curves = model_curve("bns", rows, CORR, STACK_TIMES)
        # E_all and the n E_{-i}, each over the 3 distinct rows
        assert sets == [3] * 4
        for curve, single in zip(curves, singles):
            assert curve.tobytes() == single.tobytes()


def object_error(model, row):
    """The ``ValidationError`` message of the parameter objects built from a 3-asset ``row``."""
    names = [name for name, _, _ in calibrate._entries(model, 3)]
    v = dict(zip(names, map(float, row)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeverageSignWarning)
            if model == "heston":
                for i in (1, 2, 3):
                    HestonAssetParams(
                        k=v[f"k_{i}"], theta2=v[f"theta2_{i}"], sigma0_2=v[f"sigma0_2_{i}"],
                        gamma=1.0,
                    )
            else:
                assets = [
                    BnsAssetParams(
                        sigma0_2=v[f"sigma0_2_{i}"], kappa1=v[f"kappa1_{i}"],
                        kappa2=v[f"kappa2_{i}"], rho=v[f"rho_{i}"],
                    )
                    for i in (1, 2, 3)
                ]
                BnsPortfolioParams(assets=assets, lambda_=v["lambda"], kappa2_star=v["kappa2_star"])
    except ValidationError as exc:
        return str(exc)
    return None


NON_FINITE = [math.nan, math.inf, -math.inf]
BAD_VALUES = {
    "k": [0.0, -0.0, -1e-300, -1.0, *NON_FINITE],
    "theta2": [0.0, -0.0, -1e-300, *NON_FINITE],
    "sigma0_2": [0.0, -1e-300, -1.0, *NON_FINITE],
    "lambda": [0.0, -0.0, -2.0, *NON_FINITE],
    "kappa1": [-1e-300, -1.0, *NON_FINITE],
    "kappa2": [-1e-300, -1.0, *NON_FINITE],
    "rho": NON_FINITE,
    "kappa2_star": [-1e-300, -0.5, *NON_FINITE],
}


class TestStackValidation:
    """A stack is checked by the parameter objects' rules, with their messages."""

    TIMES = np.array([0.5, 1.0, 2.0])

    def raised(self, model, params):
        with pytest.raises(ValidationError) as info:
            model_curve(model, params, CORR, self.TIMES)
        return str(info.value)

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_each_bad_entry_raises_the_objects_error(self, model):
        base = HESTON_TRUTH if model == "heston" else BNS_LEVERAGED
        fields = [
            field for field, per_asset, _, _ in calibrate._LAYOUTS[model]
            for _ in range(3 if per_asset else 1)
        ]
        for column, field in enumerate(fields):
            for bad in BAD_VALUES[field]:
                rows = near(base, 3, seed=2)
                rows[1, column] = bad
                expected = object_error(model, rows[1])
                assert expected is not None and expected.startswith(f"{field} must be"), expected
                assert self.raised(model, rows[1]) == expected, (column, bad)
                assert self.raised(model, rows) == expected, (column, bad)

    @pytest.mark.parametrize(
        "model, changes, field",
        [
            ("heston", {1: -1.0, 3: -1.0}, "theta2"),  # theta2_1 comes before k_2
            ("bns", {13: -1.0, 5: -1.0}, "kappa1"),  # assets before kappa2*
            ("bns", {0: 0.0, 12: math.nan}, "rho"),  # and before lambda
        ],
    )
    def test_first_bad_entry_in_the_objects_order(self, model, changes, field):
        rows = near(HESTON_TRUTH if model == "heston" else BNS_LEVERAGED, 3, seed=2)
        for column, value in changes.items():
            rows[2, column] = value
        expected = object_error(model, rows[2])
        assert expected.startswith(f"{field} must be")
        assert self.raised(model, rows[2]) == expected
        assert self.raised(model, rows) == expected

    def test_positive_rho_passes_without_a_warning(self):
        rows = near(BNS_LEVERAGED, 3, seed=2)
        rows[:, 10:13] = np.abs(rows[:, 10:13])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curves = model_curve("bns", rows, CORR, self.TIMES)
            single = model_curve("bns", rows[1], CORR, self.TIMES)
        assert np.all(np.isfinite(curves))
        assert single.tobytes() == curves[1].tobytes()


def batched_problem(model):
    times = np.linspace(0.05, 2.0, 20)
    truth = HESTON_TRUTH if model == "heston" else BNS_LEVERAGED
    values = model_curve(model, truth, CORR, times)
    values = values + np.random.default_rng(6).normal(0.0, 1e-7, values.size)
    return CalibrationProblem(
        model=model, observed=series(times, values), corr=CORR,
        initial=truth * 1.2, bounds=default_bounds(model),
    )


class TestBatchedJacobian:
    @pytest.mark.parametrize("reference", ["per-row curves", "column by column"])
    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_fit_equals_unbatched_fit(self, model, reference, monkeypatch):
        """Stacking changes no bit: not against one curve per row, nor against the
        C-ordered Jacobian filled one central difference at a time."""
        problem = batched_problem(model)
        stacked = fit(problem)
        single = calibrate.model_curve

        def per_row(model, params, corr, times):
            if np.ndim(params) == 1:
                return single(model, params, corr, times)
            return np.array([single(model, row, corr, times) for row in params])

        def column_by_column(problem, up, down, h, offset):
            jac = np.empty((problem.observed.values.size, len(h)))
            for k in range(len(h)):
                up_k, down_k = (
                    single(problem.model, x, problem.corr, problem.observed.times) - offset
                    for x in (up[k], down[k])
                )
                jac[:, k] = (up_k - down_k) / (2.0 * h[k])
            return jac

        if reference == "per-row curves":
            monkeypatch.setattr(calibrate, "model_curve", per_row)
        else:
            monkeypatch.setattr(calibrate, "_central_differences", column_by_column)
        looped = fit(problem)
        assert stacked.iterations == looped.iterations > 1
        assert stacked.converged == looped.converged
        assert stacked.sse == looped.sse
        np.testing.assert_array_equal(stacked.params, looped.params)
        np.testing.assert_array_equal(
            stacked.covariance_of_estimates, looped.covariance_of_estimates
        )
        assert stacked.metrics == looped.metrics

    def test_points_equal_assembled_perturbations_bit_for_bit(self):
        """Each point is the whole vector assembled at z +- h_k e_k, for the log
        (either side), logit, unbounded and frozen transforms, and at z = -0.0 on
        an unbounded entry, which z + 0.0 turns into 0.0."""
        bounds = [
            (1e-4, math.inf), (-math.inf, 0.0), (0.0, 10.0), (-math.inf, math.inf), (0.3, 0.3),
            (-math.inf, math.inf),
        ]
        full = np.array([2.0, -0.25, 0.05, 1.5, 0.3, -0.0])
        free = [j for j, (lo, hi) in enumerate(bounds) if lo < hi]
        z = np.array([calibrate._to_internal(full[j], *bounds[j]) for j in free])
        assert math.copysign(1.0, z[-1]) == -1.0
        h = 1e-6 * np.maximum(1.0, np.abs(z))
        up, down = calibrate._jacobian_points(full, free, bounds, z, h)
        for k, step in enumerate(np.diag(h)):
            assert up[k].tobytes() == calibrate._assemble(full, free, bounds, z + step).tobytes()
            assert down[k].tobytes() == calibrate._assemble(full, free, bounds, z - step).tobytes()

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_one_model_curve_call_per_jacobian(self, model, monkeypatch):
        shapes = []
        single = calibrate.model_curve

        def spy(model, params, corr, times):
            shapes.append(np.shape(params))
            return single(model, params, corr, times)

        monkeypatch.setattr(calibrate, "model_curve", spy)
        result = fit(batched_problem(model))
        p = len(param_names(model))
        stacks = [shape for shape in shapes if len(shape) == 2]
        # one per LM iteration, and one for the covariance
        assert stacks == [(2 * p, p)] * (result.iterations + 1)

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_no_single_row_point_is_evaluated_twice(self, model, monkeypatch):
        """The accepted point's curve is kept for the metrics, not computed again."""
        rows = []
        single = calibrate.model_curve

        def spy(model, params, corr, times):
            if np.ndim(params) == 1:
                rows.append(tuple(np.asarray(params, dtype=float)))
            return single(model, params, corr, times)

        monkeypatch.setattr(calibrate, "model_curve", spy)
        result = fit(batched_problem(model))
        assert result.iterations > 1
        assert len(set(rows)) == len(rows)


class TestParamTables:
    def test_names_and_bounds_align(self):
        assert param_names("heston") == HESTON_PARAM_NAMES == (
            "k_1", "k_2", "k_3",
            "theta2_1", "theta2_2", "theta2_3",
            "sigma0_2_1", "sigma0_2_2", "sigma0_2_3",
        )
        assert param_names("bns") == BNS_PARAM_NAMES == (
            "lambda",
            "sigma0_2_1", "sigma0_2_2", "sigma0_2_3",
            "kappa1_1", "kappa1_2", "kappa1_3",
            "kappa2_1", "kappa2_2", "kappa2_3",
            "rho_1", "rho_2", "rho_3",
            "kappa2_star",
        )
        assert default_bounds("heston") == ((1e-4, 100.0),) * 3 + ((1e-10, 10.0),) * 6
        assert default_bounds("bns") == (
            ((1e-4, 100.0),) + ((1e-10, 10.0),) * 3 + ((0.0, 10.0),) * 6
            + ((-math.inf, 0.0),) * 3 + ((0.0, 100.0),)
        )
        for lookup in (param_names, default_bounds):
            with pytest.raises(ValidationError):
                lookup("garch")

    def test_bounded_transform_matches_scipy_expit(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(109)
        zs = np.concatenate([rng.normal(0.0, 8.0, 2000), [-709.0, -709.79, -746.0, -1e308, 800.0]])
        for z in zs:
            assert _from_internal(float(z), 0.1, 3.0) == 0.1 + 2.9 * float(special.expit(z))
        assert _from_internal(-1e308, 0.1, 3.0) == 0.1

    def test_one_sided_transform_past_exp_range_is_the_infinite_end(self):
        """e^710 overflows math.exp; a one-sided coordinate there maps to +-inf, no OverflowError."""
        assert _from_internal(710.0, 0.0, math.inf) == math.inf
        assert _from_internal(710.0, -math.inf, 0.0) == -math.inf

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


# each field's value for asset i (1-based); shared fields take i = 0
LAYOUT_VALUES = {
    "k": lambda i: 0.5 + 0.7 * i,
    "theta2": lambda i: 0.04 + 0.005 * i,
    "sigma0_2": lambda i: 0.09 - 0.004 * i,
    "lambda": lambda i: 1.5,
    "kappa1": lambda i: 0.03 + 0.002 * i,
    "kappa2": lambda i: 0.002 + 0.0005 * i,
    "rho": lambda i: -0.2 - 0.05 * i,
    "kappa2_star": lambda i: 0.02,
}


def layout_vector(model, n):
    """A parameter vector for n assets built entry by entry from the layout table."""
    return np.array([
        LAYOUT_VALUES[field](i)
        for field, per_asset, _, _ in calibrate._LAYOUTS[model]
        for i in (range(1, n + 1) if per_asset else [0])
    ])


def layout_portfolio(model, n, corr, scale=1.0):
    """The portfolio of ``layout_vector(model, n) * scale``, built field by field."""
    def v(field, i=0):
        return scale * LAYOUT_VALUES[field](i)

    if model == "heston":
        assets = tuple(
            HestonAssetParams(k=v("k", i), theta2=v("theta2", i), sigma0_2=v("sigma0_2", i),
                              gamma=1.0)
            for i in range(1, n + 1)
        )
        return HestonPortfolio(assets=assets, corr=corr)
    assets = tuple(
        BnsAssetParams(sigma0_2=v("sigma0_2", i), kappa1=v("kappa1", i), kappa2=v("kappa2", i),
                       rho=v("rho", i))
        for i in range(1, n + 1)
    )
    return BnsPortfolioParams(assets=assets, lambda_=v("lambda"), kappa2_star=v("kappa2_star"))


def closed_form(model, portfolio, corr, times):
    if model == "heston":
        return expected_realized_variance(times, portfolio)
    return expected_realized_variance_bns(times, portfolio, corr)


def equicorrelation(n):
    return validate_correlation(np.full((n, n), 0.3) + 0.7 * np.eye(n))


class TestLayoutForAnyN:
    TIMES = np.linspace(0.1, 3.0, 12)

    @pytest.mark.parametrize("n", [2, 4, 9])
    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_curve_is_the_closed_form_of_the_built_portfolio(self, model, n):
        corr = equicorrelation(n)
        x = layout_vector(model, n)
        assert x.size == len(calibrate._entries(model, n))
        expected = closed_form(model, layout_portfolio(model, n, corr), corr, self.TIMES)
        np.testing.assert_array_equal(model_curve(model, x, corr, self.TIMES), expected)

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_three_asset_stack_rows_are_closed_forms(self, model):
        x = layout_vector(model, 3)
        curves = model_curve(model, np.stack([x, x * 1.1]), CORR, self.TIMES)
        for curve, scale in zip(curves, (1.0, 1.1)):
            expected = closed_form(model, layout_portfolio(model, 3, CORR, scale), CORR, self.TIMES)
            np.testing.assert_array_equal(curve, expected)

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_four_asset_start_fits_the_table(self, model):
        corr = equicorrelation(4)
        entries = calibrate._entries(model, 4)
        obs = heston_series(np.linspace(0.1, 1.0, 8))
        start = initial_guess(model, obs, corr)
        assert start.shape == (len(entries),)
        for x, (_, (lo, hi), _) in zip(start, entries):
            assert lo <= x <= hi
        # the four starting variances reproduce the observed level through |C|
        sigma0_2 = [x for x, (name, _, _) in zip(start, entries) if name.startswith("sigma0_2_")]
        assert len(sigma0_2) == 4
        assert np.prod(sigma0_2) * corr.det_c == pytest.approx(np.mean(obs.values), rel=1e-12)

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_problem_takes_three_assets_only(self, model):
        corr = equicorrelation(4)
        obs = heston_series(np.linspace(0.1, 1.0, 8))
        with pytest.raises(WrongAssetCount, match="absolute"):
            CalibrationProblem(
                model=model, observed=obs, corr=corr,
                initial=initial_guess(model, obs, corr),
                bounds=[b for _, b, _ in calibrate._entries(model, 4)],
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

    def test_no_downhill_step_at_the_damping_ceiling_stalls(self, monkeypatch):
        problem = batched_problem("heston")
        obs = problem.observed.values
        single = calibrate.model_curve
        rows = []

        def uphill(model, params, corr, times):
            curve = single(model, params, corr, times)
            if np.ndim(params) == 2:
                return curve
            rows.append(params)
            return curve if len(rows) == 1 else curve + 1.0  # every trial step raises the SSE

        monkeypatch.setattr(calibrate, "model_curve", uphill)
        result = fit(problem)
        start = single("heston", rows[0], CORR, problem.observed.times)
        assert not result.converged
        assert result.iterations == 1
        assert len(rows) == 1 + 20  # the start, then mu = 1e-3 grown x10 past 1e16
        np.testing.assert_array_equal(result.params, rows[0])
        assert result.sse == float((start - obs) @ (start - obs))
        assert result.metrics == error_metrics(obs, start)

    def test_no_finite_step_at_the_damping_ceiling_raises(self, monkeypatch):
        def no_step(a, b):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(calibrate.np.linalg, "solve", no_step)
        with pytest.raises(SingularNormalEquations, match="no finite step"):
            fit(batched_problem("heston"))

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

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_covariance_steps_stay_in_the_box_at_every_bound(self, model, monkeypatch):
        """A parameter on a finite bound of its field is differenced one-sidedly, into the box.

        A full step past the bound used to leave the model's domain (theta2 = 1e-10 gave
        ``theta2 must be > 0``). rho has no finite lower bound.
        """
        problem = batched_problem(model)
        truth = HESTON_TRUTH if model == "heston" else BNS_LEVERAGED
        lows, highs = np.array(problem.bounds).T
        stacks = []
        curve = calibrate.model_curve
        monkeypatch.setattr(
            calibrate, "model_curve",
            lambda m, x, *rest: stacks.append(np.atleast_2d(x)) or curve(m, x, *rest),
        )
        checked = 0
        for index, (lo, hi) in enumerate(problem.bounds):
            for bound in (b for b in (lo, hi) if math.isfinite(b)):
                params = truth.copy()
                params[index] = bound
                stacks.clear()
                cov = calibrate._gauss_newton_covariance(
                    problem, params, list(range(truth.size)), 1.0
                )
                assert np.all(np.isfinite(cov))
                points = np.concatenate(stacks)
                assert np.all((points >= lows) & (points <= highs))
                assert np.any(points[:, index] != bound)
                checked += 1
        assert checked == np.isfinite(lows).sum() + np.isfinite(highs).sum()

    def test_one_sided_column_is_the_derivative(self, monkeypatch):
        """At theta2_1 = 1e-10, its lower bound, the Jacobian column is the curve's slope."""
        problem = batched_problem("heston")
        params = HESTON_TRUTH.copy()
        params[3] = 1e-10
        columns = []
        differences = calibrate._central_differences
        monkeypatch.setattr(
            calibrate, "_central_differences",
            lambda *args: columns.append(differences(*args)) or columns[-1],
        )
        calibrate._gauss_newton_covariance(problem, params, list(range(9)), 1.0)
        # the mean curve is linear in theta2_1, so any two points give its slope
        times = problem.observed.times
        moved = params.copy()
        moved[3] = 0.05
        slope = (model_curve("heston", moved, CORR, times)
                 - model_curve("heston", params, CORR, times)) / (moved[3] - params[3])
        np.testing.assert_allclose(columns[0][:, 3], slope, rtol=1e-7)

    def test_step_past_exp_range_is_a_rejected_step(self, monkeypatch):
        """A first step to z = log(k_1 - lo) + 800 assembles k_1 = inf: SSE inf, damping x10."""
        bounds = ((1e-4, math.inf),) + default_bounds("heston")[1:]
        problem = CalibrationProblem(
            model="heston", observed=heston_series(np.linspace(0.05, 2.0, 20)), corr=CORR,
            initial=HESTON_TRUTH * 1.5, bounds=bounds,
        )
        solve, systems = np.linalg.solve, []

        def far_first_step(a, b):
            systems.append(a)
            step = solve(a, b)
            if len(systems) == 1:
                step[0] = 800.0
            return step

        monkeypatch.setattr(np.linalg, "solve", far_first_step)
        result = fit(problem)
        assert len(systems) >= 2
        assert np.all(np.diag(systems[1]) > np.diag(systems[0]))  # mu grew after the rejection
        assert np.all(np.isfinite(result.params)) and math.isfinite(result.sse)
        start = model_curve("heston", HESTON_TRUTH * 1.5, CORR, problem.observed.times)
        assert result.sse < float(np.sum((start - problem.observed.values) ** 2))

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
