"""Parameter types, correlation validation, and JSON round trips."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import laplace_det, random_correlation
from hypothesis import given
from hypothesis import strategies as st

from genvarswap import (
    BnsAssetParams,
    BnsPortfolioParams,
    CorrelationMatrix,
    GammaOuSpec,
    HestonAssetParams,
    HestonPortfolio,
    LeverageSignWarning,
    SimConfig,
    SwapContract,
    price_swap,
    rolling_determinants,
    validate_correlation,
)
from genvarswap.genvar import InstantaneousVols, det_sigma2
from genvarswap.bns import (
    compute_e_terms,
    expected_realized_variance_bns,
    expected_variance_bns,
    expected_vol_bns,
    third_central_moment_bns,
    variance_of_variance_bns,
)
from genvarswap.calibrate import model_curve
from genvarswap.heston import expected_realized_variance
from genvarswap.errors import (
    BadDiagonal,
    InvalidConfig,
    NonPositiveMaturity,
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


RULE_CORR = validate_correlation(equicorrelated(3, 0.3))
RULE_ASSET = BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.004)
RULE_ROW = [1.0, 3.0, 6.0, 0.05, 0.08, 0.06, 0.10, 0.03, 0.09]
# (entry point, call with the bad value, the message before ", got ...")
RULE_CASES = [
    ("HestonAssetParams.k",
     lambda v: HestonAssetParams(k=v, theta2=0.05, sigma0_2=0.04, gamma=0.3),
     "k must be finite and > 0"),
    ("BnsPortfolioParams.lambda_",
     lambda v: BnsPortfolioParams(assets=(RULE_ASSET,), lambda_=v, kappa2_star=0.01),
     "lambda must be finite and > 0"),
    ("model_curve stack k_2",
     lambda v: model_curve("heston", [RULE_ROW, [RULE_ROW[0], v, *RULE_ROW[2:]]], RULE_CORR, [1.0]),
     "k must be finite and > 0"),
    ("expected_variance_bns lambda_",
     lambda v: expected_variance_bns(1.0, RULE_ASSET, v),
     "lambda must be finite and > 0"),
    ("det_sigma2 lambda_",
     lambda v: det_sigma2(InstantaneousVols(np.full(3, 0.2)), RULE_CORR, [-0.3, 0.0, 0.0], v, 0.01),
     "lambda must be finite and > 0"),
    ("compute_e_terms tol",
     lambda v: compute_e_terms(
         1.0, BnsPortfolioParams(assets=(RULE_ASSET,) * 3, lambda_=2.0, kappa2_star=0.0), tol=v
     ),
     "quadrature tolerance must be finite and > 0"),
]


@pytest.mark.parametrize(
    "bad, shown",
    [(math.nan, "nan"), (-1.0, "-1.0"), (math.inf, "inf"), (10**400, "inf")],
    ids=["nan", "-1.0", "inf", "10**400"],
)
@pytest.mark.parametrize("call, message", [case[1:] for case in RULE_CASES],
                         ids=[case[0] for case in RULE_CASES])
def test_one_rule_whatever_the_shape(call, message, bad, shown):
    """An object field, a stack column and a bare argument read one rule, with one message.

    An integer beyond the float range counts as infinite: no bare OverflowError.
    """
    with pytest.raises(ValidationError) as info:
        call(bad)
    assert str(info.value) == f"{message}, got {shown}"


READ_HESTON = HestonPortfolio(
    (HestonAssetParams(k=2.0, theta2=0.05, sigma0_2=0.04, gamma=0.3),) * 3, RULE_CORR
)
READ_BNS = BnsPortfolioParams(assets=(RULE_ASSET,) * 3, lambda_=2.0, kappa2_star=0.01)
READ_CONTRACT = SwapContract(1e-4, 0.02, 1.0, 1000.0)
READ_RETURNS = np.random.default_rng(7).normal(0.0, 0.01, (30, 3))
# (entry point, call with a caller's value, the exact message): the cases that used to
# be stored, accepted, computed with, or raise a bare TypeError
NON_NUMBER_CASES = [
    ("HestonAssetParams text k",
     lambda: HestonAssetParams(k="2.0", theta2=0.05, sigma0_2=0.04, gamma=0.3),
     "k must be a number, got '2.0'"),
    ("HestonAssetParams bool k",
     lambda: HestonAssetParams(k=True, theta2=0.05, sigma0_2=0.04, gamma=0.3),
     "k must be a number, got True"),
    ("HestonAssetParams null k",
     lambda: HestonAssetParams(k=None, theta2=0.05, sigma0_2=0.04, gamma=0.3),
     "k must be a number, got None"),
    ("SwapContract text k_var", lambda: SwapContract("1e-4", 0.02, 1.0, 1000.0),
     "k_var must be a number, got '1e-4'"),
    ("price_swap text ev", lambda: price_swap("2e-4", READ_CONTRACT),
     "ev_realized must be a number, got '2e-4'"),
    ("expected_variance_bns text lambda_", lambda: expected_variance_bns(1.0, RULE_ASSET, "2.0"),
     "lambda must be a number, got '2.0'"),
    ("compute_e_terms text T", lambda: compute_e_terms("1.0", READ_BNS),
     "maturity must be a number, got '1.0'"),
    ("compute_e_terms text tol", lambda: compute_e_terms(1.0, READ_BNS, tol="1e-12"),
     "quadrature tolerance must be a number, got '1e-12'"),
    ("expected_realized_variance text T", lambda: expected_realized_variance("1.0", READ_HESTON),
     "maturity must be a number, got '1.0'"),
    ("validate_correlation text entries",
     lambda: validate_correlation([["1", "0.3"], ["0.3", "1"]]),
     "correlation must be a number, got '1'"),
    ("model_curve text params",
     lambda: model_curve("heston", ["2.0"] * 3 + ["0.05"] * 6, RULE_CORR, [0.5, 1.0]),
     "params must be a number, got '2.0'"),
    ("model_curve text times",
     lambda: model_curve("heston", RULE_ROW, RULE_CORR, ["0.5", "1.0"]),
     "times must be a number, got '0.5'"),
    ("rolling_determinants text window", lambda: rolling_determinants(READ_RETURNS, window="10"),
     "window must be a number, got '10'"),
    ("rolling_determinants bool window", lambda: rolling_determinants(READ_RETURNS, window=True),
     "window must be a number, got True"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in NON_NUMBER_CASES],
                         ids=[case[0] for case in NON_NUMBER_CASES])
def test_a_non_number_is_named_where_it_enters(call, message):
    with pytest.raises(InvalidConfig) as info:
        call()
    assert str(info.value) == message


def test_a_huge_integer_in_a_time_array_is_an_infinite_maturity():
    with pytest.raises(NonPositiveMaturity, match="maturity must be finite and > 0"):
        expected_realized_variance([1.0, 10**400], READ_HESTON)


def test_objects_store_the_float_their_rule_returns():
    """A caller's 2 and 2.0 build the same object, holding floats."""
    cases = [
        (HestonAssetParams(k=2, theta2=0.05, sigma0_2=0.04, gamma=np.float32(0.5)),
         HestonAssetParams(k=2.0, theta2=0.05, sigma0_2=0.04, gamma=0.5)),
        (GammaOuSpec(a=3, b=np.int64(10)), GammaOuSpec(a=3.0, b=10.0)),
        (BnsAssetParams(sigma0_2=np.array(0.04), kappa1=0.05, kappa2=0, rho=0),
         BnsAssetParams(sigma0_2=0.04, kappa1=0.05, kappa2=0.0, rho=0.0)),
        (BnsPortfolioParams(assets=(RULE_ASSET,), lambda_=2, kappa2_star=0),
         BnsPortfolioParams(assets=(RULE_ASSET,), lambda_=2.0, kappa2_star=0.0)),
        (SwapContract(0, 0, 1, 1000), SwapContract(0.0, 0.0, 1.0, 1000.0)),
    ]
    for built, expected in cases:
        assert built == expected
        numbers = [getattr(built, f.name) for f in dataclasses.fields(built) if f.type == "float"]
        assert numbers and all(type(x) is float for x in numbers)


HESTON_FIELDS = dict(k=2.0, theta2=0.05, sigma0_2=0.04, gamma=0.3)
BNS_FIELDS = dict(sigma0_2=0.04, kappa1=0.05, kappa2=0.004, rho=-0.1)
SWAP_FIELDS = dict(k_var=1e-4, r=0.02, maturity=1.0, notional=1000.0)
SIM_FIELDS = dict(n_paths=8, dt=0.25, horizon=1.0, seed=1, block_size=4)
# (entry point, call with a non-number in place of one numeric argument)
READER_ENTRY_POINTS = [
    *((f"HestonAssetParams {f}", lambda v, f=f: HestonAssetParams(**{**HESTON_FIELDS, f: v}))
      for f in HESTON_FIELDS),
    *((f"BnsAssetParams {f}", lambda v, f=f: BnsAssetParams(**{**BNS_FIELDS, f: v}))
      for f in BNS_FIELDS),
    ("BnsPortfolioParams lambda_",
     lambda v: BnsPortfolioParams(assets=(RULE_ASSET,), lambda_=v, kappa2_star=0.01)),
    ("BnsPortfolioParams kappa2_star",
     lambda v: BnsPortfolioParams(assets=(RULE_ASSET,), lambda_=2.0, kappa2_star=v)),
    *((f"SwapContract {f}", lambda v, f=f: SwapContract(**{**SWAP_FIELDS, f: v}))
      for f in SWAP_FIELDS),
    ("GammaOuSpec a", lambda v: GammaOuSpec(a=v, b=10.0)),
    ("GammaOuSpec b", lambda v: GammaOuSpec(a=3.0, b=v)),
    ("GammaOuSpec.from_cumulants kappa1", lambda v: GammaOuSpec.from_cumulants(v, 0.004)),
    ("GammaOuSpec.from_cumulants kappa2", lambda v: GammaOuSpec.from_cumulants(0.05, v)),
    *((f"SimConfig {f}", lambda v, f=f: SimConfig(**{**SIM_FIELDS, f: v})) for f in SIM_FIELDS),
    ("SimConfig record time", lambda v: SimConfig(**SIM_FIELDS, record_times=(0.0, v))),
    *((f"{moment.__name__} {slot}",
       lambda v, moment=moment, slot=slot: moment(*((v, RULE_ASSET, 2.0) if slot == "t"
                                                     else (1.0, RULE_ASSET, v))))
      for moment in (expected_variance_bns, variance_of_variance_bns, third_central_moment_bns,
                     expected_vol_bns)
      for slot in ("t", "lambda_")),
    ("expected_vol_bns mu3", lambda v: expected_vol_bns(1.0, RULE_ASSET, 2.0, mu3=[v])),
    ("expected_vol_bns var_i_coefficient",
     lambda v: expected_vol_bns(1.0, RULE_ASSET, 2.0, var_i_coefficient=v)),
    ("expected_realized_variance T", lambda v: expected_realized_variance(v, READ_HESTON)),
    ("expected_realized_variance_bns T",
     lambda v: expected_realized_variance_bns(v, READ_BNS, RULE_CORR)),
    ("expected_realized_variance_bns tol",
     lambda v: expected_realized_variance_bns(1.0, READ_BNS, RULE_CORR, tol=v)),
    ("expected_realized_variance_bns var_i_coefficient",
     lambda v: expected_realized_variance_bns(1.0, READ_BNS, RULE_CORR, var_i_coefficient=v)),
    ("compute_e_terms T", lambda v: compute_e_terms(v, READ_BNS)),
    ("compute_e_terms tol", lambda v: compute_e_terms(1.0, READ_BNS, tol=v)),
    ("compute_e_terms var_i_coefficient",
     lambda v: compute_e_terms(1.0, READ_BNS, var_i_coefficient=v)),
    ("validate_correlation c", validate_correlation),
    ("model_curve params", lambda v: model_curve("heston", v, RULE_CORR, [0.5, 1.0])),
    ("model_curve times", lambda v: model_curve("heston", RULE_ROW, RULE_CORR, v)),
    ("price_swap ev_realized", lambda v: price_swap(v, READ_CONTRACT)),
    ("rolling_determinants window", lambda v: rolling_determinants(READ_RETURNS, window=v)),
    ("rolling_determinants annualization",
     lambda v: rolling_determinants(READ_RETURNS, window=10, annualization=v)),
]


@pytest.mark.parametrize("call", [case[1] for case in READER_ENTRY_POINTS],
                         ids=[case[0] for case in READER_ENTRY_POINTS])
@given(value=st.text() | st.booleans() | st.none())
def test_every_entry_point_reads_numbers_only(call, value):
    """Text, a bool or None for a number is an InvalidConfig; a bare TypeError,
    ValueError or OverflowError fails here, since InvalidConfig alone is caught."""
    with pytest.raises(InvalidConfig, match="must be a number, got "):
        call(value)
