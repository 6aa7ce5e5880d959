"""BNS closed forms: OU moments, volatility approximation, E-terms, pricing."""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from conftest import random_correlation
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from genvarswap import (
    BnsAssetParams,
    BnsPortfolioParams,
    GammaOuSpec,
    SimConfig,
    SwapContract,
    compute_e_terms,
    expected_realized_variance_bns,
    expected_variance_bns,
    expected_vol_bns,
    price_swap,
    price_swap_bns,
    simulate_bns,
    validate_correlation,
    variance_of_variance_bns,
)
from genvarswap import bns
from genvarswap.bns import third_central_moment_bns
from genvarswap.genvar import _jump_weights
from genvarswap.errors import (
    DegenerateVariance,
    DimensionMismatch,
    MissingSubordinatorSpec,
    NegativeTime,
    NonPositiveMaturity,
    QuadratureFailure,
    SingularCorrelation,
    ValidationError,
    WrongAssetCount,
)


def make_portfolio(
    sigma0_2s=(0.04, 0.06, 0.05),
    kappa1s=(0.05, 0.07, 0.06),
    kappa2s=(0.004, 0.006, 0.005),
    rhos=(0.0, 0.0, 0.0),
    lambda_=2.0,
    kappa2_star=0.0,
):
    assets = tuple(
        BnsAssetParams(sigma0_2=s, kappa1=k1, kappa2=k2, rho=r)
        for s, k1, k2, r in zip(sigma0_2s, kappa1s, kappa2s, rhos)
    )
    return BnsPortfolioParams(assets=assets, lambda_=lambda_, kappa2_star=kappa2_star)


def stationary_portfolio(kappa1s=(0.05, 0.07, 0.06), **kwargs):
    return make_portfolio(sigma0_2s=kappa1s, kappa1s=kappa1s, **kwargs)


CORR = validate_correlation(np.full((3, 3), 0.3) + 0.7 * np.eye(3))


class TestOuMoments:
    def test_initial_condition(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.06, kappa2=0.01)
        assert expected_variance_bns(0.0, a, lambda_=1.0) == 0.04

    def test_stationary_start(self):
        a = BnsAssetParams(sigma0_2=0.06, kappa1=0.06, kappa2=0.01)
        t = np.linspace(0.0, 4.0, 9)
        np.testing.assert_array_equal(expected_variance_bns(t, a, 1.0), np.full(9, 0.06))

    def test_expected_variance_known_value(self):
        # lambda=1, sigma0^2=0.04, kappa1=0.06, t=1: 0.06 - 0.02 e^{-1}
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.06, kappa2=0.01)
        assert expected_variance_bns(1.0, a, 1.0) == pytest.approx(
            0.05264241117657115, rel=1e-15
        )

    def test_variance_of_variance_endpoints(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.06, kappa2=0.01)
        assert variance_of_variance_bns(0.0, a, 2.0) == 0.0
        assert variance_of_variance_bns(1e9, a, 2.0) == pytest.approx(0.005, rel=1e-12)

    def test_variance_of_variance_known_value(self):
        # lambda=2, kappa2=0.01, t=0.25: 0.005 (1 - e^{-1})
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.06, kappa2=0.01)
        assert variance_of_variance_bns(0.25, a, 2.0) == pytest.approx(
            0.0031606027941427884, rel=1e-15
        )

    @pytest.mark.parametrize("t", [1e-12, 1e-10, 1e-8, 1e-6])
    def test_variance_of_variance_keeps_its_digits_at_short_times(self, t):
        # (kappa2 / 2)(1 - e^{-2 lambda t}) = kappa2 lambda t (1 - lambda t + ...), lambda = 2
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.06, kappa2=0.01)
        series = 0.01 * 2.0 * t * (1.0 - 2.0 * t + 8.0 / 3.0 * t**2)
        assert variance_of_variance_bns(t, a, 2.0) == pytest.approx(series, rel=1e-14, abs=0.0)

    def test_negative_time_rejected(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.06, kappa2=0.01)
        for t in (-1.0, math.nan):
            with pytest.raises(NegativeTime):
                expected_variance_bns(t, a, 1.0)
            with pytest.raises(NegativeTime):
                variance_of_variance_bns(t, a, 1.0)


    @pytest.mark.parametrize("lambda_", [math.nan, -1.0, 0.0, math.inf])
    @pytest.mark.parametrize(
        "moment",
        [expected_variance_bns, variance_of_variance_bns, third_central_moment_bns,
         lambda t, a, lambda_: expected_vol_bns(t, a, lambda_)],
        ids=["expected_variance", "variance_of_variance", "third_central_moment", "expected_vol"],
    )
    def test_lambda_rule(self, moment, lambda_):
        """lambda = -1 once gave a negative Var[sigma_t^2], NaN a NaN."""
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.06, kappa2=0.01)
        with pytest.raises(ValidationError, match="lambda must be finite and > 0"):
            moment(1.0, a, lambda_)


class TestThirdCentralMoment:
    def test_from_explicit_subordinator(self):
        spec = GammaOuSpec(a=2.0, b=20.0)
        a = BnsAssetParams(
            sigma0_2=0.04, kappa1=spec.kappa1, kappa2=spec.kappa2, subordinator=spec
        )
        t, lam = 0.7, 1.5
        expected = spec.kappa3 * (1.0 - math.exp(-3.0 * lam * t)) / 3.0
        assert third_central_moment_bns(t, a, lam) == pytest.approx(expected, rel=1e-14)

    def test_moment_matched_default(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004)
        kappa3 = 1.5 * 0.004**2 / 0.05
        expected = kappa3 * (1.0 - math.exp(-3.0 * 2.0 * 0.5)) / 3.0
        assert third_central_moment_bns(0.5, a, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_deterministic_subordinator_gives_zero(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.0)
        assert third_central_moment_bns(1.0, a, 2.0) == 0.0

    def test_underdetermined_law_rejected(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.0, kappa2=0.01)
        with pytest.raises(MissingSubordinatorSpec, match="no jump law"):
            third_central_moment_bns(1.0, a, 2.0)


class TestExpectedVol:
    def test_zero_kappa2_is_exact_sqrt(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.06, kappa2=0.0)
        approx = expected_vol_bns(0.8, a, 1.5)
        assert approx.value == math.sqrt(expected_variance_bns(0.8, a, 1.5))
        assert approx.error_bound is None

    def test_known_stationary_value(self):
        # sigma0^2 = kappa1 = 0.04, kappa2 = 0.001, t large:
        # 0.2 - 0.0005 / (8 * 0.008) = 0.1921875
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.04, kappa2=0.001)
        approx = expected_vol_bns(1e9, a, 1.0)
        assert approx.value == pytest.approx(0.1921875, rel=1e-12)

    def test_never_exceeds_sqrt_of_expected_variance(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            a = BnsAssetParams(
                sigma0_2=rng.uniform(0.01, 0.2),
                kappa1=rng.uniform(0.01, 0.2),
                kappa2=rng.uniform(0.0, 0.01),
            )
            t = rng.uniform(0.0, 3.0)
            lam = rng.uniform(0.5, 4.0)
            assert expected_vol_bns(t, a, lam).value <= math.sqrt(
                expected_variance_bns(t, a, lam)
            )

    def test_error_bound_filled_when_mu3_given(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004)
        mu3 = third_central_moment_bns(0.5, a, 2.0)
        approx = expected_vol_bns(0.5, a, 2.0, mu3=mu3)
        ev = expected_variance_bns(0.5, a, 2.0)
        assert approx.error_bound == pytest.approx(mu3 / (16.0 * ev**2.5), rel=1e-14)

    @pytest.mark.parametrize("mu3", [-5.0, math.nan, math.inf, np.array([0.001, -1e-300])])
    def test_mu3_rule(self, mu3):
        """A subordinator's third cumulant is >= 0, so mu3 is; -5 once gave a negative bound."""
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004)
        with pytest.raises(ValidationError, match="mu3 must be finite and >= 0"):
            expected_vol_bns(np.array([0.5, 1.0]), a, 2.0, mu3=mu3)

    def test_error_bound_follows_an_array_of_times(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004)
        t = np.array([0.5, 1.0])
        approx = expected_vol_bns(t, a, 2.0, mu3=third_central_moment_bns(t, a, 2.0))
        single = expected_vol_bns(1.0, a, 2.0, mu3=third_central_moment_bns(1.0, a, 2.0))
        assert approx.error_bound[1] == single.error_bound

    def test_coefficient_sixteen_halves_the_correction(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004)
        ev = expected_variance_bns(0.5, a, 2.0)
        v8 = expected_vol_bns(0.5, a, 2.0).value
        v16 = expected_vol_bns(0.5, a, 2.0, var_i_coefficient=16.0).value
        assert math.sqrt(ev) - v16 == pytest.approx(0.5 * (math.sqrt(ev) - v8), rel=1e-12)

    def test_underflowed_variance_rejected(self):
        a = BnsAssetParams(sigma0_2=0.04, kappa1=0.0, kappa2=0.0)
        with pytest.raises(DegenerateVariance):
            expected_vol_bns(1e6, a, 1.0)

    def test_approximation_matches_simulated_mean_within_budget(self):
        # the documented error bound must cover |MC mean of sigma_t - approx|
        p = make_portfolio(kappa2s=(0.002, 0.003, 0.0025))
        cfg = SimConfig(n_paths=20000, dt=0.01, horizon=0.5, seed=101)
        ensemble = simulate_bns(p, cfg)
        vols = np.sqrt(ensemble.variance_paths[:, -1, :])
        for i, a in enumerate(p.assets):
            mu3 = third_central_moment_bns(0.5, a, p.lambda_)
            approx = expected_vol_bns(0.5, a, p.lambda_, mu3=mu3)
            mc = float(np.mean(vols[:, i]))
            se = float(np.std(vols[:, i], ddof=1)) / math.sqrt(cfg.n_paths)
            assert abs(mc - approx.value) <= approx.error_bound + 3.0 * se


class TestETerms:
    def test_stationary_exact_terms(self):
        k1, k2, k3 = 0.05, 0.07, 0.06
        p = stationary_portfolio(kappa1s=(k1, k2, k3), kappa2s=(0.0, 0.0, 0.0))
        T = 1.7
        terms = compute_e_terms(T, p)
        assert terms.e0 == pytest.approx(T * k1 * k2 * k3, rel=1e-13)
        assert terms.e1 == pytest.approx(T * k3 * k2, rel=1e-13)
        assert terms.e2 == pytest.approx(T * k3 * k1, rel=1e-13)
        assert terms.e3 == pytest.approx(T * k2 * k1, rel=1e-13)

    def test_stationary_no_jump_cross_terms(self):
        k1, k2, k3 = 0.05, 0.07, 0.06
        p = stationary_portfolio(kappa1s=(k1, k2, k3), kappa2s=(0.0, 0.0, 0.0))
        T = 1.3
        terms = compute_e_terms(T, p)
        assert terms.e4 == pytest.approx(T * k3 * math.sqrt(k2) * math.sqrt(k1), rel=1e-11)
        assert terms.e5 == pytest.approx(T * k2 * math.sqrt(k3) * math.sqrt(k1), rel=1e-11)
        assert terms.e6 == pytest.approx(T * k1 * math.sqrt(k3) * math.sqrt(k2), rel=1e-11)

    def test_exact_terms_match_quadrature_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            p = make_portfolio(
                sigma0_2s=tuple(rng.uniform(0.01, 0.2, 3)),
                kappa1s=tuple(rng.uniform(0.01, 0.2, 3)),
                lambda_=rng.uniform(0.5, 4.0),
            )
            T = rng.uniform(0.1, 2.5)

            def ev(t, a):
                return math.exp(-p.lambda_ * t) * (a.sigma0_2 - a.kappa1) + a.kappa1

            terms = compute_e_terms(T, p)
            pairs = {
                "e0": lambda t: ev(t, p.assets[0]) * ev(t, p.assets[1]) * ev(t, p.assets[2]),
                "e1": lambda t: ev(t, p.assets[2]) * ev(t, p.assets[1]),
                "e2": lambda t: ev(t, p.assets[2]) * ev(t, p.assets[0]),
                "e3": lambda t: ev(t, p.assets[1]) * ev(t, p.assets[0]),
            }
            for name, integrand in pairs.items():
                oracle, _ = quad(integrand, 0.0, T, epsabs=1e-13, epsrel=1e-13, limit=200)
                assert getattr(terms, name) == pytest.approx(oracle, rel=1e-10), name

    def test_cross_terms_match_independent_integrand(self):
        p = make_portfolio()
        T = 1.1
        lam = p.lambda_
        terms = compute_e_terms(T, p)
        layouts = {"e4": (2, 1, 0), "e5": (1, 2, 0), "e6": (0, 2, 1)}

        def ev(t, a):
            return math.exp(-lam * t) * (a.sigma0_2 - a.kappa1) + a.kappa1

        def vol(t, a):
            e = ev(t, a)
            v = 0.5 * a.kappa2 * (1.0 - math.exp(-2.0 * lam * t))
            return math.sqrt(e) - v / (8.0 * e**1.5)

        for name, (sq, va, vb) in layouts.items():
            oracle, _ = quad(
                lambda t: ev(t, p.assets[sq]) * vol(t, p.assets[va]) * vol(t, p.assets[vb]),
                0.0,
                T,
                epsabs=1e-13,
                epsrel=1e-13,
                limit=200,
            )
            assert getattr(terms, name) == pytest.approx(oracle, rel=1e-9), name

    def test_error_estimates_reported(self):
        terms = compute_e_terms(1.0, make_portfolio(), tol=1e-12)
        for err in (terms.e4_error, terms.e5_error, terms.e6_error):
            assert 0.0 <= err < 1e-10

    def test_tolerance_consistency(self):
        p = make_portfolio()
        loose = compute_e_terms(1.0, p, tol=1e-6)
        tight = compute_e_terms(1.0, p, tol=1e-13)
        assert loose.e4 == pytest.approx(tight.e4, abs=1e-7)

    def test_needs_three_assets(self):
        p = make_portfolio(
            sigma0_2s=(0.04, 0.06), kappa1s=(0.05, 0.07), kappa2s=(0.004, 0.006)
        )
        with pytest.raises(WrongAssetCount):
            compute_e_terms(1.0, p)

    def test_nonpositive_maturity_rejected(self):
        for T in (0.0, math.nan, math.inf):
            with pytest.raises(NonPositiveMaturity):
                compute_e_terms(T, make_portfolio())


class TestExpectedRealizedVariance:
    def test_zero_rho_is_determinant_term_only(self):
        p = make_portfolio()
        for T in (0.25, 1.0, 3.0):
            terms = compute_e_terms(T, p)
            assert expected_realized_variance_bns(T, p, CORR) == pytest.approx(
                CORR.det_c * terms.e0 / T, rel=1e-14
            )

    def test_zero_kappa2_star_ignores_rho(self):
        p = make_portfolio(rhos=(-0.3, -0.2, -0.5), kappa2_star=0.0)
        terms = compute_e_terms(1.0, p)
        assert expected_realized_variance_bns(1.0, p, CORR) == pytest.approx(
            CORR.det_c * terms.e0, rel=1e-14
        )

    def test_stationary_zero_rho_constant(self):
        k = (0.05, 0.07, 0.06)
        p = stationary_portfolio(kappa1s=k)
        expected = CORR.det_c * k[0] * k[1] * k[2]
        for T in (0.1, 1.0, 5.0):
            assert expected_realized_variance_bns(T, p, CORR) == pytest.approx(
                expected, rel=1e-13
            )

    def test_general_case_matches_manual_composition(self):
        p = make_portfolio(rhos=(-0.4, -0.25, -0.6), kappa2_star=0.02)
        T = 0.9
        terms = compute_e_terms(T, p)
        delta = CORR.inverse()
        rho = p.rho
        inner = (
            delta[0, 0] * rho[0] ** 2 * terms.e1
            + delta[1, 1] * rho[1] ** 2 * terms.e2
            + delta[2, 2] * rho[2] ** 2 * terms.e3
            + 2.0 * delta[1, 0] * rho[1] * rho[0] * terms.e4
            + 2.0 * delta[2, 0] * rho[2] * rho[0] * terms.e5
            + 2.0 * delta[2, 1] * rho[2] * rho[1] * terms.e6
        )
        manual = CORR.det_c * (terms.e0 + p.lambda_ * p.kappa2_star * inner) / T
        assert expected_realized_variance_bns(T, p, CORR) == pytest.approx(manual, rel=1e-12)

    def test_array_maturities_match_scalar(self):
        p = make_portfolio(rhos=(-0.4, -0.25, -0.6), kappa2_star=0.02)
        T = np.array([0.5, 1.0, 2.0])
        out = expected_realized_variance_bns(T, p, CORR)
        assert out.shape == (3,)
        for T_i, value in zip(T, out):
            assert value == pytest.approx(
                expected_realized_variance_bns(float(T_i), p, CORR), rel=1e-14
            )

    def test_jump_term_sign(self):
        # negative common-jump loadings with positive inverse-correlation
        # diagonal raise the expected generalized variance
        p0 = make_portfolio(kappa2_star=0.0, rhos=(-0.4, -0.25, -0.6))
        p1 = make_portfolio(kappa2_star=0.02, rhos=(-0.4, -0.25, -0.6))
        base = expected_realized_variance_bns(1.0, p0, validate_correlation(np.eye(3)))
        jumped = expected_realized_variance_bns(1.0, p1, validate_correlation(np.eye(3)))
        assert jumped > base

    def test_errors(self):
        p = make_portfolio()
        # with and without the integrated cross terms
        jumps = make_portfolio(rhos=(-0.3, -0.2, -0.4), kappa2_star=0.01)
        for T in (0.0, math.nan, math.inf, -math.inf, np.array([1.0, math.nan])):
            for portfolio in (p, jumps):
                with pytest.raises(NonPositiveMaturity):
                    expected_realized_variance_bns(T, portfolio, CORR)
        with pytest.raises(DimensionMismatch):
            expected_realized_variance_bns(
                1.0, p, validate_correlation(np.eye(2))
            )
        singular = validate_correlation(np.ones((3, 3)))
        with pytest.raises(SingularCorrelation):
            expected_realized_variance_bns(1.0, p, singular)


def realized_variance_oracle(T, p, corr):
    """Quadrature of E|Sigma_2| over [0, T], divided by T, for any asset count.

    The integrand takes the expectation of the determinant-lemma expansion
    term by term from the per-asset moments, sharing no code with the closed
    form's integrals.
    """
    n = p.n
    weight = corr.delta * np.outer(p.rho, p.rho)

    def integrand(t):
        ev = [expected_variance_bns(t, a, p.lambda_) for a in p.assets]

        def vol(i):
            return expected_vol_bns(t, p.assets[i], p.lambda_).value

        jump = 0.0
        for i in range(n):
            for j in range(n):
                if weight[i, j] == 0.0:
                    continue
                mixed = 1.0 if i == j else vol(i) * vol(j)
                rest = math.prod(ev[l] for l in range(n) if l not in (i, j))
                jump += weight[i, j] * mixed * rest
        return math.prod(ev) + p.lambda_ * p.kappa2_star * jump

    value, _ = quad(integrand, 0.0, T, epsabs=1e-14, epsrel=1e-13, limit=200)
    return corr.det_c * value / T


class TestAnyAssetCount:
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_closed_form_matches_quadrature(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            p = make_portfolio(
                sigma0_2s=rng.uniform(0.01, 0.2, n),
                kappa1s=rng.uniform(0.01, 0.2, n),
                kappa2s=rng.uniform(0.0, 0.01, n),
                rhos=rng.uniform(-0.8, -0.05, n),
                lambda_=rng.uniform(0.5, 4.0),
                kappa2_star=rng.uniform(0.005, 0.05),
            )
            corr = random_correlation(rng, n)
            T = rng.uniform(0.1, 3.0)
            assert expected_realized_variance_bns(T, p, corr) == pytest.approx(
                realized_variance_oracle(T, p, corr), rel=1e-10
            )

    def test_three_assets_match_oracle(self):
        p = make_portfolio(rhos=(-0.4, -0.25, -0.6), kappa2_star=0.02)
        assert expected_realized_variance_bns(1.3, p, CORR) == pytest.approx(
            realized_variance_oracle(1.3, p, CORR), rel=1e-10
        )


def cross_term_oracle(T, p, i, j):
    """Scalar quad of E[sigma^i] E[sigma^j] prod_{l != i, j} E[(sigma^l)^2] over [0, T]."""

    def integrand(t):
        out = 1.0
        for l, a in enumerate(p.assets):
            e = math.exp(-p.lambda_ * t) * (a.sigma0_2 - a.kappa1) + a.kappa1
            if l in (i, j):
                v = 0.5 * a.kappa2 * (1.0 - math.exp(-2.0 * p.lambda_ * t))
                out *= math.sqrt(e) - v / (8.0 * e**1.5)
            else:
                out *= e
        return out

    value, _ = quad(integrand, 0.0, T, epsabs=0.0, epsrel=1e-13, limit=400)
    return value


def random_portfolio(rng, n, lambda_):
    return make_portfolio(
        sigma0_2s=rng.uniform(0.01, 0.2, n),
        kappa1s=rng.uniform(0.01, 0.2, n),
        kappa2s=rng.uniform(0.001, 0.01, n),
        rhos=rng.uniform(-0.8, -0.05, n),
        lambda_=lambda_,
        kappa2_star=rng.uniform(0.005, 0.05),
    )


PAIRS_3 = [(0, 1), (0, 2), (1, 2)]


def cross_terms(T, p, pairs, tol):
    """``bns._cross_terms`` of the pairs of one portfolio, passed as its columns."""
    lam, sigma0_2, kappa1, kappa2, _, _ = bns._one_set(p)
    return bns._cross_terms(T, lam, sigma0_2, kappa1, kappa2, [0] * len(pairs), pairs, tol, 8.0)


def within_budget(values, errors, tol):
    return np.all(errors <= np.maximum(tol, tol * np.abs(values)))


class TestCrossTerms:
    @pytest.mark.parametrize("lambda_", [0.3, 2.0, 20.0, 90.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_scalar_quadrature(self, n, lambda_):
        rng = np.random.default_rng(int(10 * n + lambda_))
        p = random_portfolio(rng, n, lambda_)
        T = np.array([0.03, 0.4, 2.0, 10.0])
        pairs = list(combinations(range(n), 2))
        values, errors = cross_terms(T, p, pairs, 1e-12)
        assert values.shape == errors.shape == (len(pairs), T.size)
        assert within_budget(values, errors, 1e-12)
        for k, (i, j) in enumerate(pairs):
            for m, T_m in enumerate(T):
                oracle = cross_term_oracle(T_m, p, i, j)
                assert values[k, m] == pytest.approx(oracle, rel=2e-13), (i, j, T_m)

    def test_unsorted_duplicate_and_2d_maturities(self):
        p = random_portfolio(np.random.default_rng(5), 3, 2.0)
        T = np.array([[1.5, 0.2, 1.5], [0.7, 0.2, 3.0]])
        values, errors = cross_terms(T, p, PAIRS_3, 1e-12)
        assert values.shape == errors.shape == (3, 2, 3)
        np.testing.assert_array_equal(values[:, 0, 0], values[:, 0, 2])
        np.testing.assert_array_equal(values[:, 0, 1], values[:, 1, 1])
        for idx in np.ndindex(T.shape):
            scalar, scalar_errors = cross_terms(T[idx], p, PAIRS_3, 1e-12)
            assert scalar.shape == (3,)
            np.testing.assert_allclose(values[(slice(None), *idx)], scalar, rtol=1e-14)
            assert within_budget(scalar, scalar_errors, 1e-12)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12, 1e-14])
    def test_reported_errors_within_tolerance(self, tol):
        p = random_portfolio(np.random.default_rng(8), 3, 20.0)
        T = np.linspace(0.05, 5.0, 25)
        values, errors = cross_terms(T, p, PAIRS_3, tol)
        assert within_budget(values, errors, tol)
        exact, _ = cross_terms(T, p, PAIRS_3, 1e-14)
        assert np.all(np.abs(values - exact) <= errors + 1e-15 * np.abs(exact))

    def test_forced_nonconvergence_raises(self):
        p = random_portfolio(np.random.default_rng(9), 3, 2.0)
        with pytest.raises(QuadratureFailure, match=r"cross term \(\d, \d\)"):
            cross_terms(np.array([0.5, 1.0]), p, PAIRS_3, 1e-300)
        with pytest.raises(QuadratureFailure):
            compute_e_terms(1.0, p, tol=1e-300)

    def test_zero_rho_or_kappa2_star_never_integrates(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("cross terms integrated")

        monkeypatch.setattr(bns, "_cross_terms", unreachable)
        T = np.linspace(0.1, 2.0, 5)
        expected_realized_variance_bns(T, make_portfolio(kappa2_star=0.02), CORR)
        expected_realized_variance_bns(
            T, make_portfolio(rhos=(-0.4, -0.25, -0.6), kappa2_star=0.0), CORR
        )
        with pytest.raises(AssertionError, match="integrated"):
            expected_realized_variance_bns(
                T, make_portfolio(rhos=(-0.4, -0.25, -0.6), kappa2_star=0.02), CORR
            )

    def test_non_finite_integrand_raises(self):
        def nan_rows(t):
            return np.full((2, *t.shape), np.nan)

        with pytest.raises(QuadratureFailure, match="row a"):
            bns.quad(nan_rows, np.array([0.5, 1.0]), 1e-12, ["row a", "row b"])

    def test_interval_quadrature(self):
        """quad_intervals integrates each interval, an empty one too, and names a failing one."""
        widths = np.array([0.0, 0.5, 2.0])
        values = bns.quad_intervals(lambda k, s: np.exp(-s), widths, 1e-12, "pair")
        np.testing.assert_allclose(values, -np.expm1(-widths), rtol=1e-14, atol=0.0)

        def one_nan(k, s):
            return np.where(k == 1, np.nan, np.exp(-s))

        with pytest.raises(QuadratureFailure, match="pair"):
            bns.quad_intervals(one_nan, widths, 1e-12, "pair")

    def test_only_nonzero_pairs_integrated(self, monkeypatch):
        seen = []
        cross_terms = bns._cross_terms

        def spy(T, lam, sigma0_2, kappa1, kappa2, row_set, pairs, *args):
            seen.append(list(pairs))
            return cross_terms(T, lam, sigma0_2, kappa1, kappa2, row_set, pairs, *args)

        monkeypatch.setattr(bns, "_cross_terms", spy)
        p = make_portfolio(rhos=(-0.4, 0.0, -0.6), kappa2_star=0.02)
        expected_realized_variance_bns(np.array([0.5, 1.0]), p, CORR)
        assert seen == [[(0, 2)]]

    def test_zero_rho_asset_with_vanishing_variance(self):
        # Asset 1 has rho = 0 and kappa1 = 0, and e^{-lambda t} underflows
        # on [0, 10] at lambda = 90: its E[sigma_t^2] reaches 0, but it only
        # enters squared, so the price stays defined.
        p = make_portfolio(
            sigma0_2s=(0.04, 0.06, 0.05),
            kappa1s=(0.05, 0.0, 0.06),
            rhos=(-0.4, 0.0, -0.6),
            lambda_=90.0,
            kappa2_star=0.02,
        )
        assert expected_variance_bns(10.0, p.assets[1], p.lambda_) == 0.0
        assert expected_realized_variance_bns(10.0, p, CORR) == pytest.approx(
            realized_variance_oracle(10.0, p, CORR), rel=1e-10
        )
        with pytest.raises(DegenerateVariance):
            compute_e_terms(10.0, p)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_invalid_tolerance_rejected(self, tol):
        p = make_portfolio(rhos=(-0.4, -0.25, -0.6), kappa2_star=0.02)
        with pytest.raises(ValidationError, match="tolerance"):
            compute_e_terms(1.0, p, tol=tol)
        with pytest.raises(ValidationError, match="tolerance"):
            expected_realized_variance_bns(1.0, p, CORR, tol=tol)
        with pytest.raises(ValidationError, match="tolerance"):
            expected_realized_variance_bns(1.0, make_portfolio(), CORR, tol=tol)

    @pytest.mark.parametrize("coefficient", [0.0, -8.0, math.nan, math.inf])
    @pytest.mark.parametrize("route", ["expected_vol", "e_terms", "realized_variance"])
    def test_invalid_var_i_coefficient_rejected(self, route, coefficient):
        """Zero divided, a negative one flipped the correction, NaN and inf spoiled or dropped it."""
        p = make_portfolio(rhos=(-0.4, -0.25, -0.6), kappa2_star=0.02)
        call = {
            "expected_vol": lambda: expected_vol_bns(
                0.5, p.assets[0], p.lambda_, var_i_coefficient=coefficient
            ),
            "e_terms": lambda: compute_e_terms(1.0, p, var_i_coefficient=coefficient),
            "realized_variance": lambda: expected_realized_variance_bns(
                1.0, p, CORR, var_i_coefficient=coefficient
            ),
        }[route]
        with pytest.raises(ValidationError, match="var_i_coefficient must be finite and > 0"):
            call()


def jump_coefficients(rho, corr):
    """Each set's (P, n, n) determinant-lemma coefficients (1 or 2) delta_ij rho_i rho_j, i <= j."""
    return _jump_weights(corr) * rho[:, None, :] * rho[:, :, None]


def always_integrated(T, lam, sigma0_2, kappa1, kappa2, rho, kappa2_star, corr):
    """Each set's E[sigma_R^2] with every term whose coefficient is nonzero integrated.

    The assembly of ``bns._expected_realized_variance_sets`` without its
    negligible-jump test, in its order of operations: E_{-i} by i, then the
    cross rows of all sets in one ``_cross_terms`` pass, added in stack order.
    """
    T = np.asarray(T, dtype=float)
    per_set = (len(lam),) + (1,) * T.ndim
    bracket, e_without = bns._mean_variance_products(T, lam, sigma0_2, kappa1)
    lam_k2 = lam * kappa2_star
    coeff = jump_coefficients(rho, corr)
    coeff[lam_k2 == 0.0] = 0.0
    inner = np.zeros_like(bracket)
    for i, e in enumerate(e_without):
        own = coeff[:, i, i].reshape(per_set)
        inner = inner + np.where(own != 0.0, own * e, 0.0)
    row_set, first, second = np.nonzero(np.triu(coeff, 1))
    if row_set.size:
        pairs = list(zip(first.tolist(), second.tolist()))
        values, _ = bns._cross_terms(
            T, lam, sigma0_2, kappa1, kappa2, row_set, pairs, 1e-12, 8.0
        )
        row_coeff = coeff[row_set, first, second].reshape((-1, *per_set[1:]))
        np.add.at(inner, row_set, row_coeff * values)
    return corr.det_c * (bracket + lam_k2.reshape(per_set) * inner) / T


def jump_floor(T, lam, sigma0_2, kappa1, kappa2, rho, corr):
    """The kappa2* of each set whose jump bound lambda kappa2* J is 2^-56 of its smallest E_all."""
    coeff = jump_coefficients(rho, corr)
    bound = bns._jump_bound(np.max(T), lam, sigma0_2, kappa1, kappa2, coeff, 8.0)
    e_all, _ = bns._mean_variance_products(np.asarray(T, dtype=float), lam, sigma0_2, kappa1)
    return 2.0**-56 * e_all.reshape(len(lam), -1).min(axis=1) / (lam * bound)


def spy_cross_terms():
    """A patch of ``bns._cross_terms`` and the list of the row sets it is passed."""
    seen = []
    cross_terms = bns._cross_terms

    def spy(T, lam, sigma0_2, kappa1, kappa2, row_set, *args):
        seen.append(np.asarray(row_set).tolist())
        return cross_terms(T, lam, sigma0_2, kappa1, kappa2, row_set, *args)

    return mock.patch.object(bns, "_cross_terms", spy), seen


class TestNegligibleJumps:
    """A set whose jump part cannot reach E_all's last bit integrates no cross term."""

    TIMES = np.linspace(0.04, 2.0, 50)

    def test_negligible_set_never_integrates(self):
        """rho = -1e-10 and kappa2* = 1e-8, where a BNS fit's start leaves them."""
        patch, seen = spy_cross_terms()
        negligible = make_portfolio(rhos=(-1e-10,) * 3, kappa2_star=1e-8)
        with patch:
            value = expected_realized_variance_bns(self.TIMES, negligible, CORR)
        assert seen == []
        np.testing.assert_array_equal(
            value, expected_realized_variance_bns(self.TIMES, make_portfolio(), CORR)
        )

    def test_floor_decides_which_sets_integrate(self):
        columns = bns._one_set(make_portfolio(rhos=(-0.4, -0.25, -0.6)))[:5]
        floor = jump_floor(self.TIMES, *columns, CORR)
        for factor, reached in [(1.0 - 1e-6, False), (1.0 + 1e-6, True)]:
            patch, seen = spy_cross_terms()
            with patch:
                got = bns._expected_realized_variance_sets(
                    self.TIMES, *columns, factor * floor, CORR
                )
            assert (seen == [[0, 0, 0]]) == reached
            expected = always_integrated(self.TIMES, *columns, factor * floor, CORR)
            assert got.tobytes() == expected.tobytes()

    def test_e_terms_still_integrate(self):
        """E_4..E_6 are outputs of compute_e_terms, however small the jump part."""
        patch, seen = spy_cross_terms()
        with patch:
            terms = compute_e_terms(1.0, make_portfolio(rhos=(-1e-10,) * 3, kappa2_star=1e-8))
        assert seen == [[0, 0, 0]]
        assert min(terms.e4, terms.e5, terms.e6) > 0.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 4]),
        sets=st.integers(1, 28),
        scalar_T=st.booleans(),
    )
    def test_every_set_keeps_the_bits_of_always_integrating(self, seed, n, sets, scalar_T):
        """Jump scales from 1e-30 to 1 and just below or above the floor, against a
        reference that integrates every nonzero coefficient. A set that reaches no
        cross term keeps the reference's bits on any panels. So does every set of a
        stack whose reference pass ran on the maturity panels alone; where the
        reference refined them, an integrated set is within the tolerance."""
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.5, 4.0, sets)
        sigma0_2 = rng.uniform(0.01, 0.2, (sets, n))
        kappa1 = rng.uniform(0.01, 0.2, (sets, n))
        kappa2 = rng.uniform(0.0, 0.01, (sets, n))
        tight = rng.random(sets) < 0.3  # stationary without vol of vol: the bound is attained
        kappa1[tight], kappa2[tight] = sigma0_2[tight], 0.0
        scale = 10.0 ** rng.uniform(-30.0, 0.0, sets)
        split = rng.random(sets)
        rho = -rng.uniform(0.05, 0.8, (sets, n)) * (scale ** ((1.0 - split) / 2.0))[:, None]
        kappa2_star = 0.05 * scale**split
        corr = random_correlation(rng, n) if rng.random() < 0.7 else validate_correlation(np.eye(n))
        T = rng.uniform(0.05, 3.0) if scalar_T else rng.uniform(0.04, 3.0, rng.integers(1, 30))
        mode = rng.integers(0, 4, sets)  # 0, 1: the drawn scale; 2, 3: just below, just above
        floor = jump_floor(T, lam, sigma0_2, kappa1, kappa2, rho, corr)
        near_floor = floor * np.where(mode == 2, 1.0 - 1e-6, 1.0 + 1e-6)
        kappa2_star = np.where(mode < 2, kappa2_star, near_floor)
        columns = (lam, sigma0_2, kappa1, kappa2, rho, kappa2_star)

        for s in range(sets):  # each set on its own
            one = [column[s:s + 1] for column in columns]
            got = bns._expected_realized_variance_sets(T, *one, corr)
            assert got.tobytes() == always_integrated(T, *one, corr).tobytes()

        rounds = []
        quad_pass = bns.quad

        def counting(f, *args):
            return quad_pass(lambda t: rounds.append(1) or f(t), *args)

        with mock.patch.object(bns, "quad", counting):
            expected = always_integrated(T, *columns, corr)
        patch, seen = spy_cross_terms()
        with patch:
            got = bns._expected_realized_variance_sets(T, *columns, corr)
        integrated = set(*seen)  # the sets of the one cross-term pass, if any
        for s in range(sets):
            if len(rounds) <= 1 or s not in integrated:
                assert got[s].tobytes() == expected[s].tobytes()
            else:
                np.testing.assert_allclose(got[s], expected[s], rtol=1e-10, atol=0.0)
        assert integrated <= {s for s in range(sets) if mode[s] != 2}


class TestPriceSwapBns:
    def test_shared_contract_arithmetic(self):
        c = SwapContract(k_var=0.03, r=0.02, maturity=1.0, notional=1.0)
        assert price_swap_bns(0.05, c) == price_swap(0.05, c)
        assert price_swap_bns(0.05, c) == pytest.approx(0.019603973466135106, rel=1e-15)
