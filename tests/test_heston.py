"""Heston closed forms: expected variance, product expansion, realized variance."""

import collections
import math

import numpy as np
import pytest
from conftest import CountedTimes, random_correlation
from scipy.integrate import quad

from genvarswap import (
    HestonAssetParams,
    HestonPortfolio,
    SwapContract,
    expected_product,
    expected_realized_variance,
    expected_variance,
    price_swap,
    validate_correlation,
)
from genvarswap.errors import (
    DimensionMismatch,
    NegativeTime,
    NonPositiveMaturity,
    NumericalError,
)
from genvarswap.heston import (
    _affine_product_integral, _expected_realized_variance_sets, expected_realized_variance_quad,
)


def make_assets(ks=(2.0, 1.0, 3.0), theta2s=(0.09, 0.05, 0.07), sigma0_2s=(0.04, 0.06, 0.05)):
    return tuple(
        HestonAssetParams(k=k, theta2=t2, sigma0_2=s2, gamma=0.3)
        for k, t2, s2 in zip(ks, theta2s, sigma0_2s)
    )


def make_portfolio(off=0.3, **kwargs):
    c = np.full((3, 3), off) + (1.0 - off) * np.eye(3)
    return HestonPortfolio(assets=make_assets(**kwargs), corr=validate_correlation(c))


def product_integral_oracle(T, portfolio):
    """Quadrature of |C| prod_i E[(sigma_t^i)^2] over [0, T], divided by T.

    The integrand is written out from scratch so this route shares no code
    with the closed form under test.
    """

    def integrand(t):
        out = 1.0
        for a in portfolio.assets:
            out *= math.exp(-a.k * t) * (a.sigma0_2 - a.theta2) + a.theta2
        return out

    value, _ = quad(integrand, 0.0, T, epsabs=1e-13, epsrel=1e-13, limit=200)
    return portfolio.corr.det_c * value / T


class TestExpectedVariance:
    def test_initial_condition(self):
        p = HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=0.3)
        assert expected_variance(0.0, p) == 0.04

    def test_stationary_start(self):
        p = HestonAssetParams(k=2.0, theta2=0.07, sigma0_2=0.07, gamma=0.3)
        t = np.linspace(0.0, 5.0, 11)
        np.testing.assert_array_equal(expected_variance(t, p), np.full(11, 0.07))

    def test_known_value(self):
        # k=2, sigma0^2=0.04, theta^2=0.09, t=0.5: 0.09 - 0.05 e^{-1}
        p = HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=0.3)
        assert expected_variance(0.5, p) == pytest.approx(0.07160602794142788, rel=1e-15)

    def test_gamma_free(self):
        a = HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=0.1)
        b = HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=5.0)
        t = np.linspace(0.0, 3.0, 7)
        np.testing.assert_array_equal(expected_variance(t, a), expected_variance(t, b))

    def test_negative_time_rejected(self):
        p = HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=0.3)
        for t in (-0.1, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(NegativeTime):
                expected_variance(t, p)


class TestExpectedProduct:
    def test_stationary_gives_theta_product(self):
        pf = make_portfolio(theta2s=(0.09, 0.05, 0.07), sigma0_2s=(0.09, 0.05, 0.07))
        assert expected_product(1.3, pf) == pytest.approx(0.09 * 0.05 * 0.07, rel=1e-14)

    def test_t_zero_gives_initial_product(self):
        pf = make_portfolio()
        expected = 0.04 * 0.06 * 0.05
        assert expected_product(0.0, pf) == pytest.approx(expected, rel=1e-14)

    def test_matches_direct_product_random(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            pf = make_portfolio(
                ks=tuple(rng.uniform(0.2, 6.0, 3)),
                theta2s=tuple(rng.uniform(0.01, 0.2, 3)),
                sigma0_2s=tuple(rng.uniform(0.01, 0.2, 3)),
            )
            direct = 1.0
            for a in pf.assets:
                direct *= expected_variance(0.7, a)
            assert expected_product(0.7, pf) == pytest.approx(direct, rel=1e-13)

    def test_array_input(self):
        pf = make_portfolio()
        t = np.array([0.0, 0.5, 1.0])
        out = expected_product(t, pf)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(expected_product(0.5, pf), rel=1e-15)

    def test_two_assets_matches_direct_product(self):
        pf2 = HestonPortfolio(
            assets=make_assets()[:2], corr=validate_correlation(np.eye(2))
        )
        t = np.array([0.0, 0.4, 1.0, 3.0])
        direct = expected_variance(t, pf2.assets[0]) * expected_variance(t, pf2.assets[1])
        np.testing.assert_allclose(expected_product(t, pf2), direct, rtol=1e-15)
        assert expected_product(1.0, pf2) == pytest.approx(direct[2], rel=1e-15)


class TestExpectedRealizedVariance:
    def test_stationary_is_constant(self):
        pf = make_portfolio(off=0.3, theta2s=(0.09, 0.05, 0.07), sigma0_2s=(0.09, 0.05, 0.07))
        expected = pf.corr.det_c * 0.09 * 0.05 * 0.07
        for T in (0.1, 1.0, 7.5):
            assert expected_realized_variance(T, pf) == pytest.approx(expected, rel=1e-13)

    def test_singular_correlation_gives_zero(self):
        pf = HestonPortfolio(assets=make_assets(), corr=validate_correlation(np.ones((3, 3))))
        assert expected_realized_variance(1.0, pf) == 0.0

    def test_matches_quadrature_oracle_random(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            pf = make_portfolio(
                off=rng.uniform(-0.4, 0.9),
                ks=tuple(rng.uniform(0.2, 6.0, 3)),
                theta2s=tuple(rng.uniform(0.01, 0.2, 3)),
                sigma0_2s=tuple(rng.uniform(0.01, 0.2, 3)),
            )
            T = rng.uniform(0.05, 3.0)
            assert expected_realized_variance(T, pf) == pytest.approx(
                product_integral_oracle(T, pf), rel=1e-10
            )

    def test_matches_library_quadrature_route(self):
        pf = make_portfolio()
        assert expected_realized_variance(1.7, pf) == pytest.approx(
            expected_realized_variance_quad(1.7, pf), rel=1e-10
        )

    @pytest.mark.parametrize("T", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
    def test_short_maturities_match_library_quadrature(self, T):
        pf = make_portfolio()
        assert expected_realized_variance(T, pf) == pytest.approx(
            expected_realized_variance_quad(T, pf), rel=1e-13, abs=0.0
        )

    def test_long_maturity_limit(self):
        pf = make_portfolio(ks=(1.0, 2.0, 3.0))
        limit = pf.corr.det_c * 0.09 * 0.05 * 0.07
        assert expected_realized_variance(1e8, pf) == pytest.approx(limit, rel=1e-6)

    def test_proportional_to_correlation_determinant(self):
        rng = np.random.default_rng(47)
        assets = make_assets()
        a = random_correlation(rng)
        b = random_correlation(rng)
        ev_a = expected_realized_variance(1.2, HestonPortfolio(assets=assets, corr=a))
        ev_b = expected_realized_variance(1.2, HestonPortfolio(assets=assets, corr=b))
        assert ev_a / a.det_c == pytest.approx(ev_b / b.det_c, rel=1e-12)

    def test_array_maturities(self):
        pf = make_portfolio()
        out = expected_realized_variance(np.array([0.5, 1.0, 2.0]), pf)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(expected_realized_variance(0.5, pf), rel=1e-15)

    def test_nonpositive_maturity_rejected(self):
        pf = make_portfolio()
        for T in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(NonPositiveMaturity):
                expected_realized_variance(T, pf)
            with pytest.raises(NonPositiveMaturity):
                expected_realized_variance_quad(T, pf)
        with pytest.raises(NonPositiveMaturity):
            expected_realized_variance(np.array([1.0, math.inf]), pf)

    def test_overflow_is_a_numerical_failure_without_a_warning(self):
        """theta2_1 = theta2_2 = 1e200 is valid, but the kernel's products leave the float range:
        NumericalError for a portfolio, NaN from the stack behind model_curve, and no numpy
        warning (``filterwarnings`` in pyproject.toml makes one fail the test)."""
        pf = make_portfolio(theta2s=(1e200, 1e200, 0.07))
        with pytest.raises(NumericalError, match=r"E\[sigma_R\^2\] = nan is not finite"):
            expected_realized_variance(np.array([0.5, 1.0]), pf)
        columns = np.array([[a.k, a.theta2, a.sigma0_2] for a in pf.assets]).T[:, None, :]
        assert np.isnan(_expected_realized_variance_sets(1.0, *columns, pf.corr)).all()


class TestProductKernelOverParameterSets:
    """Per-set coefficient arrays give each set the value of its own scalar call."""

    T = np.array([0.3, 1.0, 4.0])
    D = np.array([[0.02, -0.01, 0.03], [0.01, 0.02, -0.02], [-0.03, 0.01, 0.02]])
    C = np.array([[0.05, 0.07, 0.06], [0.09, 0.04, 0.08], [0.06, 0.06, 0.05]])

    def single(self, s, k):
        return _affine_product_integral(self.T, self.D[s], self.C[s], k[s])

    def batched(self, k):
        # factor i as a (set, 1) column, broadcasting against T
        return _affine_product_integral(self.T, *(x.T[:, :, None] for x in (self.D, self.C, k)))

    def test_sets_with_unlike_rates(self):
        k = np.array([[1.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
        batched = self.batched(k)
        assert batched.shape == (3, self.T.size)
        for s in range(3):
            np.testing.assert_allclose(batched[s], self.single(s, k), rtol=1e-13)

    def test_one_rate_per_set_is_exact(self):
        """The BNS layout: every factor of a set decays at that set's lambda, one shared rate."""
        lam = np.array([2.0, 0.7, 2.0])
        d, c = self.D.T[:, :, None], self.C.T[:, :, None]
        batched = _affine_product_integral(self.T, d, c, rate=lam[:, None])
        for s in range(3):
            single = _affine_product_integral(self.T, self.D[s], self.C[s], rate=lam[s])
            np.testing.assert_array_equal(batched[s], single)
            np.testing.assert_allclose(single, self.single(s, np.full((3, 3), lam[s])), rtol=1e-13)

    @staticmethod
    def expm1_terms(n, **rates):
        """The number of e^{-a t} terms, counted by the size of the kernel's expm1 results."""
        T = np.array([0.5, 1.0]).view(CountedTimes)
        T.counts = collections.Counter()
        _affine_product_integral(T, [0.01] * n, [0.05] * n, **rates)
        return T.counts["expm1"] // T.size

    def test_shared_rate_merges_the_subsets_of_one_size(self):
        """n + 1 terms, the rate-0 one times T and n through expm1, not 2^n."""
        assert self.expm1_terms(9, rate=2.0) == 9

    def test_per_factor_rates_never_merge(self):
        """2^n - 1 terms through expm1 even where the subset rates coincide."""
        assert self.expm1_terms(3, k=[2.0, 2.0, 2.0]) == 7
        assert self.expm1_terms(3, k=[1.0, 2.0, 3.0]) == 7


class TestPortfolioType:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            HestonPortfolio(assets=make_assets()[:2], corr=validate_correlation(np.eye(3)))

    def test_round_trip(self):
        pf = make_portfolio()
        again = HestonPortfolio.from_dict(pf.to_dict())
        assert again.assets == pf.assets
        np.testing.assert_array_equal(again.corr.c, pf.corr.c)


class TestPriceSwap:
    def test_at_the_money(self):
        c = SwapContract(k_var=0.05, r=0.03, maturity=1.0, notional=1e6)
        assert price_swap(0.05, c) == 0.0

    def test_no_discounting(self):
        c = SwapContract(k_var=0.03, r=0.0, maturity=2.0, notional=1.0)
        assert price_swap(0.05, c) == pytest.approx(0.02, rel=1e-15)

    def test_known_value(self):
        c = SwapContract(k_var=0.03, r=0.02, maturity=1.0, notional=1.0)
        assert price_swap(0.05, c) == pytest.approx(0.019603973466135106, rel=1e-15)

    @pytest.mark.parametrize("r, notional", [(-1000.0, 1.0), (-70.0, 1e10)])
    def test_overflowing_discount_or_value_is_numerical_error(self, r, notional):
        c = SwapContract(k_var=0.03, r=r, maturity=10.0, notional=notional)
        with pytest.raises(NumericalError, match="not finite"):
            price_swap(0.05, c)

    def test_notional_scaling(self):
        small = SwapContract(k_var=0.03, r=0.02, maturity=1.0, notional=1.0)
        big = SwapContract(k_var=0.03, r=0.02, maturity=1.0, notional=2.5e6)
        assert price_swap(0.05, big) == pytest.approx(2.5e6 * price_swap(0.05, small))


class TestAnyAssetCount:
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_closed_form_matches_quadrature(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            assets = tuple(
                HestonAssetParams(
                    k=rng.uniform(0.2, 6.0),
                    theta2=rng.uniform(0.01, 0.2),
                    sigma0_2=rng.uniform(0.01, 0.2),
                    gamma=0.3,
                )
                for _ in range(n)
            )
            pf = HestonPortfolio(assets=assets, corr=random_correlation(rng, n))
            T = rng.uniform(0.05, 3.0)
            assert expected_realized_variance(T, pf) == pytest.approx(
                expected_realized_variance_quad(T, pf), rel=1e-10
            )

    def test_coinciding_rates(self):
        # k_1 = k_3 and k_1 + k_2 = k_4 give subsets that share a decay rate
        pf = HestonPortfolio(
            assets=make_assets(ks=(1.0, 2.0, 1.0), theta2s=(0.09, 0.05, 0.07),
                               sigma0_2s=(0.04, 0.06, 0.05))
            + (HestonAssetParams(k=3.0, theta2=0.08, sigma0_2=0.11, gamma=0.3),),
            corr=validate_correlation(np.eye(4)),
        )
        for T in (0.3, 1.0, 4.0):
            assert expected_realized_variance(T, pf) == pytest.approx(
                expected_realized_variance_quad(T, pf), rel=1e-10
            )
