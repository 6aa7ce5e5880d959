"""Parameter types, correlation validation, and JSON round trips."""

import math

import numpy as np
import pytest
from conftest import laplace_det, random_correlation

from genvarswap import (
    BnsAssetParams,
    BnsPortfolioParams,
    CorrelationMatrix,
    GammaOuSpec,
    HestonAssetParams,
    LeverageSignWarning,
    SwapContract,
    validate_correlation,
)
from genvarswap.errors import (
    BadDiagonal,
    InvalidConfig,
    NotPositiveSemiDefinite,
    NotSymmetric,
    SingularCorrelation,
    ValidationError,
)


def equicorrelated(n, off):
    return np.full((n, n), off) + (1.0 - off) * np.eye(n)


class TestValidateCorrelation:
    def test_identity(self):
        corr = validate_correlation(np.eye(3))
        assert corr.n == 3
        assert corr.det_c == 1.0
        np.testing.assert_allclose(corr.delta, np.eye(3), atol=1e-14)

    def test_equicorrelated_half_matches_cofactor_oracle(self):
        c = equicorrelated(3, 0.5)
        corr = validate_correlation(c)
        assert corr.det_c == pytest.approx(0.5, rel=1e-14)
        assert corr.det_c == pytest.approx(laplace_det(c), rel=1e-14)

    def test_off_diagonal_above_one_rejected(self):
        c = np.eye(3)
        c[0, 1] = c[1, 0] = 1.2
        with pytest.raises(NotPositiveSemiDefinite):
            validate_correlation(c)

    def test_non_square_rejected(self):
        with pytest.raises(NotSymmetric):
            validate_correlation(np.ones((2, 3)))

    def test_one_by_one_rejected(self):
        with pytest.raises(NotSymmetric):
            validate_correlation(np.array([[1.0]]))

    def test_asymmetric_rejected(self):
        c = np.eye(3)
        c[0, 1] = 0.5
        with pytest.raises(NotSymmetric):
            validate_correlation(c)

    def test_non_finite_rejected(self):
        c = np.eye(3)
        c[0, 1] = c[1, 0] = np.nan
        with pytest.raises(NotSymmetric):
            validate_correlation(c)

    def test_bad_diagonal_rejected(self):
        c = np.eye(3)
        c[2, 2] = 0.9
        with pytest.raises(BadDiagonal):
            validate_correlation(c)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPositiveSemiDefinite):
            validate_correlation(equicorrelated(3, -0.9))

    def test_inverse_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            corr = random_correlation(rng)
            np.testing.assert_allclose(corr.c @ corr.delta, np.eye(3), atol=1e-10)
            np.testing.assert_allclose(corr.delta, corr.delta.T, atol=0.0)

    def test_singular_matrix_has_no_inverse(self):
        corr = validate_correlation(np.ones((3, 3)))
        assert corr.det_c == 0.0
        assert corr.delta is None
        with pytest.raises(SingularCorrelation):
            corr.inverse()

    def test_arrays_read_only(self):
        corr = validate_correlation(equicorrelated(3, 0.3))
        with pytest.raises(ValueError):
            corr.c[0, 1] = 0.0
        with pytest.raises(ValueError):
            corr.delta[0, 1] = 0.0

    def test_round_trip(self):
        corr = validate_correlation(equicorrelated(3, 0.4))
        again = CorrelationMatrix.from_dict(corr.to_dict())
        np.testing.assert_array_equal(again.c, corr.c)
        assert again.det_c == corr.det_c


class TestHestonAssetParams:
    def test_round_trip(self):
        p = HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=0.3)
        assert HestonAssetParams.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize("field", ["k", "theta2", "sigma0_2", "gamma"])
    def test_positivity_enforced(self, field):
        kwargs = dict(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=0.3)
        for bad in (0.0, -1.0, math.nan, math.inf):
            kwargs[field] = bad
            with pytest.raises(ValidationError):
                HestonAssetParams(**kwargs)


class TestGammaOuSpec:
    def test_cumulants(self):
        spec = GammaOuSpec(a=3.0, b=10.0)
        assert spec.kappa1 == pytest.approx(0.3)
        assert spec.kappa2 == pytest.approx(0.06)
        assert spec.kappa3 == pytest.approx(0.018)

    def test_from_cumulants_round_trip(self):
        spec = GammaOuSpec.from_cumulants(0.05, 0.002)
        assert spec.kappa1 == pytest.approx(0.05, rel=1e-14)
        assert spec.kappa2 == pytest.approx(0.002, rel=1e-14)
        # moment-matched Gamma-OU third cumulant: 1.5 kappa2^2 / kappa1
        assert spec.kappa3 == pytest.approx(1.5 * 0.002**2 / 0.05, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GammaOuSpec(a=-1.0, b=1.0)
        with pytest.raises(ValidationError):
            GammaOuSpec(a=1.0, b=0.0)
        with pytest.raises(ValidationError):
            GammaOuSpec.from_cumulants(0.0, 0.01)

    def test_round_trip(self):
        spec = GammaOuSpec(a=2.5, b=40.0)
        assert GammaOuSpec.from_dict(spec.to_dict()) == spec


class TestBnsAssetParams:
    def test_negative_rho_accepted_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.01, rho=-0.3)
            BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.01, rho=0.0)

    def test_positive_rho_warns(self):
        with pytest.warns(LeverageSignWarning):
            BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.01, rho=0.3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BnsAssetParams(sigma0_2=0.0, kappa1=0.05, kappa2=0.01)
        with pytest.raises(ValidationError):
            BnsAssetParams(sigma0_2=0.04, kappa1=-0.05, kappa2=0.01)
        with pytest.raises(ValidationError):
            BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=-0.01)

    def test_round_trip_with_subordinator(self):
        p = BnsAssetParams(
            sigma0_2=0.04,
            kappa1=0.05,
            kappa2=0.01,
            rho=-0.2,
            subordinator=GammaOuSpec(a=0.5, b=10.0),
        )
        assert BnsAssetParams.from_dict(p.to_dict()) == p

    def test_subordinator_must_agree_with_cumulants(self):
        spec = GammaOuSpec(a=0.5, b=10.0)  # kappa1 = 0.05, kappa2 = 0.01
        BnsAssetParams(sigma0_2=0.04, kappa1=0.05 * (1 + 5e-9), kappa2=0.01, subordinator=spec)
        for kappa1, kappa2 in ((0.07, 0.01), (0.05, 0.006), (0.05 * (1 + 2e-8), 0.01), (0.05, 0.0)):
            with pytest.raises(ValidationError, match="subordinator has kappa"):
                BnsAssetParams(sigma0_2=0.04, kappa1=kappa1, kappa2=kappa2, subordinator=spec)
        # kappa1 agrees while b^2 would underflow or overflow: a ValidationError all the same
        for b in (1e-200, 1e200):
            with pytest.raises(ValidationError, match="kappa2"):
                BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.01,
                               subordinator=GammaOuSpec(a=0.05 * b, b=b))

    def test_round_trip_without_subordinator(self):
        p = BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.01)
        d = p.to_dict()
        assert "subordinator" not in d
        assert BnsAssetParams.from_dict(d) == p


class TestBnsPortfolioParams:
    def make(self, **kwargs):
        assets = tuple(
            BnsAssetParams(sigma0_2=0.03 + 0.01 * i, kappa1=0.04, kappa2=0.01, rho=-0.1 * i)
            for i in range(3)
        )
        defaults = dict(assets=assets, lambda_=2.0, kappa2_star=0.05)
        defaults.update(kwargs)
        return BnsPortfolioParams(**defaults)

    def test_properties(self):
        p = self.make()
        assert p.n == 3
        np.testing.assert_array_equal(p.rho, [0.0, -0.1, -0.2])

    def test_lambda_key_in_json(self):
        p = self.make()
        d = p.to_dict()
        assert d["lambda"] == 2.0
        assert BnsPortfolioParams.from_dict(d) == p

    def test_validation(self):
        with pytest.raises(ValidationError):
            self.make(lambda_=0.0)
        with pytest.raises(ValidationError):
            self.make(kappa2_star=-1.0)
        with pytest.raises(ValidationError):
            self.make(assets=())


class TestSwapContract:
    def test_round_trip(self):
        c = SwapContract(k_var=2e-4, r=0.03, maturity=1.5, notional=1e6)
        assert SwapContract.from_dict(c.to_dict()) == c

    def test_validation(self):
        with pytest.raises(ValidationError):
            SwapContract(k_var=1e-4, r=0.03, maturity=0.0, notional=1.0)
        with pytest.raises(ValidationError):
            SwapContract(k_var=math.nan, r=0.03, maturity=1.0, notional=1.0)


class TestFromDictNumbers:
    """JSON documents give numbers only: a string, a bool or null is rejected, not converted."""

    DOCS = {
        HestonAssetParams: {"k": 2.0, "theta2": 0.09, "sigma0_2": 0.04, "gamma": 0.3},
        GammaOuSpec: {"a": 3.0, "b": 10.0},
        BnsAssetParams: {"sigma0_2": 0.04, "kappa1": 0.05, "kappa2": 0.004, "rho": -0.3},
        BnsPortfolioParams: {
            "assets": [{"sigma0_2": 0.04, "kappa1": 0.05, "kappa2": 0.004}],
            "lambda": 2.0,
            "kappa2_star": 0.01,
        },
        SwapContract: {"k_var": 1e-4, "r": 0.02, "maturity": 1.0, "notional": 1000.0},
        CorrelationMatrix: {"c": [[1.0, 0.3], [0.3, 1.0]]},
    }

    @pytest.mark.parametrize("bad", ["2.0", True, np.bool_(False), None, [1.0]])
    @pytest.mark.parametrize("cls", list(DOCS), ids=lambda cls: cls.__name__)
    def test_non_numbers_rejected(self, cls, bad):
        for key, value in self.DOCS[cls].items():
            doc = dict(self.DOCS[cls])
            doc[key] = [[bad, 0.3], [0.3, 1.0]] if key == "c" else bad
            if key == "assets":
                doc[key] = [{**value[0], "kappa1": bad}]
            with pytest.raises(InvalidConfig, match=repr(bad).replace("[", r"\[")):
                cls.from_dict(doc)

    def test_integers_and_numpy_numbers_accepted(self):
        doc = {"k": 2, "theta2": np.float64(0.09), "sigma0_2": 0.04, "gamma": np.int64(1)}
        p = HestonAssetParams.from_dict(doc)
        assert p == HestonAssetParams(k=2.0, theta2=0.09, sigma0_2=0.04, gamma=1.0)
        assert all(type(x) is float for x in (p.k, p.theta2, p.sigma0_2, p.gamma))
