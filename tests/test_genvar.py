"""Covariance construction and the determinant-lemma evaluation paths."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import laplace_det, random_correlation

from genvarswap import (
    InstantaneousVols,
    build_sigma1,
    build_sigma2,
    det_sigma1,
    det_sigma2,
    validate_correlation,
)
from genvarswap.errors import DimensionMismatch, SingularCorrelation, ValidationError
from genvarswap.genvar import det_sigma1_values, det_sigma2_values

IDENTITY3 = validate_correlation(np.eye(3))


def corr_with(off12):
    c = np.eye(3)
    c[0, 1] = c[1, 0] = off12
    return validate_correlation(c)


class TestInstantaneousVols:
    def test_rejects_nonpositive_and_nonfinite(self):
        for bad in ([1.0, 0.0, 1.0], [1.0, -2.0, 1.0], [1.0, np.nan, 1.0]):
            with pytest.raises(ValidationError):
                InstantaneousVols(np.array(bad))
        with pytest.raises(ValidationError):
            InstantaneousVols(np.ones((2, 2)))

    def test_copy_is_read_only(self):
        raw = np.array([1.0, 2.0, 3.0])
        vols = InstantaneousVols(raw)
        raw[0] = 99.0
        assert vols.sigma[0] == 1.0
        with pytest.raises(ValueError):
            vols.sigma[0] = 0.0


class TestBuildSigma1:
    def test_unit_vols_identity_corr(self):
        out = build_sigma1(InstantaneousVols(np.ones(3)), IDENTITY3)
        np.testing.assert_array_equal(out, np.eye(3))

    def test_diagonal_case(self):
        out = build_sigma1(InstantaneousVols(np.array([2.0, 3.0, 4.0])), IDENTITY3)
        np.testing.assert_array_equal(out, np.diag([4.0, 9.0, 16.0]))

    def test_off_diagonal_entry(self):
        out = build_sigma1(InstantaneousVols(np.array([1.0, 2.0, 3.0])), corr_with(0.5))
        assert out[0, 1] == pytest.approx(1.0)
        assert out[1, 0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_sigma1(InstantaneousVols(np.ones(2)), IDENTITY3)


class TestDetSigma1:
    def test_identity_corr_product_of_squares(self):
        assert det_sigma1(InstantaneousVols(np.array([1.0, 2.0, 3.0])), IDENTITY3) == 36.0

    def test_equicorrelated_half(self):
        c = validate_correlation(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
        assert det_sigma1(InstantaneousVols(np.ones(3)), c) == pytest.approx(0.5, rel=1e-14)

    def test_singular_correlation_gives_zero(self):
        singular = validate_correlation(np.ones((3, 3)))
        assert det_sigma1(InstantaneousVols(np.array([0.5, 1.5, 2.5])), singular) == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            corr = random_correlation(rng)
            s = rng.uniform(0.1, 2.0, 3)
            alpha = rng.uniform(0.5, 3.0)
            base = det_sigma1(InstantaneousVols(s), corr)
            scaled = det_sigma1(InstantaneousVols(alpha * s), corr)
            assert scaled == pytest.approx(alpha**6 * base, rel=1e-12)


class TestBuildSigma2:
    def test_zero_rho_reduces_to_sigma1(self):
        vols = InstantaneousVols(np.array([1.0, 2.0, 3.0]))
        corr = corr_with(0.5)
        out = build_sigma2(vols, corr, np.zeros(3), lambda_=2.0, var_z1=0.3)
        np.testing.assert_array_equal(out, build_sigma1(vols, corr))

    def test_zero_var_reduces_to_sigma1(self):
        vols = InstantaneousVols(np.array([1.0, 2.0, 3.0]))
        corr = corr_with(0.5)
        out = build_sigma2(vols, corr, -np.ones(3), lambda_=2.0, var_z1=0.0)
        np.testing.assert_array_equal(out, build_sigma1(vols, corr))

    def test_unit_case(self):
        out = build_sigma2(
            InstantaneousVols(np.ones(3)), IDENTITY3, np.ones(3), lambda_=1.0, var_z1=1.0
        )
        np.testing.assert_array_equal(out, np.ones((3, 3)) + np.eye(3))

    def test_validation(self):
        vols = InstantaneousVols(np.ones(3))
        with pytest.raises(DimensionMismatch):
            build_sigma2(vols, IDENTITY3, np.ones(2), 1.0, 1.0)
        with pytest.raises(ValidationError):
            build_sigma2(vols, IDENTITY3, np.ones(3), 0.0, 1.0)
        with pytest.raises(ValidationError):
            build_sigma2(vols, IDENTITY3, np.ones(3), 1.0, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_jump_scale_rejected(self, bad):
        vols = InstantaneousVols(np.ones(3))
        rho = np.array([0.5, -0.3, 0.2])
        calls = (
            lambda lam, var: build_sigma2(vols, IDENTITY3, rho, lam, var),
            lambda lam, var: det_sigma2(vols, IDENTITY3, rho, lam, var),
            lambda lam, var: det_sigma2_values(np.ones((2, 3)), IDENTITY3, rho, lam, var),
        )
        for call in calls:
            with pytest.raises(ValidationError):
                call(bad, 0.1)
            with pytest.raises(ValidationError):
                call(1.0, bad)


class TestDetSigma2:
    def test_zero_rho_equals_det_sigma1(self):
        vols = InstantaneousVols(np.array([0.7, 1.1, 0.4]))
        corr = corr_with(-0.4)
        assert det_sigma2(vols, corr, np.zeros(3), 2.0, 0.5) == pytest.approx(
            det_sigma1(vols, corr), rel=1e-14
        )

    def test_rank_one_update_on_identity(self):
        out = det_sigma2(
            InstantaneousVols(np.ones(3)), IDENTITY3, np.array([1.0, 0.0, 0.0]), 3.0, 1.0
        )
        assert out == pytest.approx(4.0, rel=1e-14)

    def test_matches_cofactor_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            corr = random_correlation(rng)
            vols = InstantaneousVols(rng.uniform(0.1, 2.0, 3))
            rho = rng.normal(0.0, 0.5, 3)
            lam = rng.uniform(0.1, 5.0)
            var = rng.uniform(0.0, 2.0)
            lemma = det_sigma2(vols, corr, rho, lam, var)
            brute = laplace_det(build_sigma2(vols, corr, rho, lam, var))
            assert lemma == pytest.approx(brute, rel=1e-12)

    def test_general_n_path_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            corr = random_correlation(rng, n=4)
            vols = InstantaneousVols(rng.uniform(0.2, 1.5, 4))
            rho = rng.normal(0.0, 0.4, 4)
            lemma = det_sigma2(vols, corr, rho, 1.5, 0.8)
            brute = laplace_det(build_sigma2(vols, corr, rho, 1.5, 0.8))
            assert lemma == pytest.approx(brute, rel=1e-12)

    def test_psd_update_never_decreases_determinant(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            corr = random_correlation(rng)
            vols = InstantaneousVols(rng.uniform(0.1, 2.0, 3))
            rho = rng.normal(0.0, 1.0, 3)
            d2 = det_sigma2(vols, corr, rho, 1.0, rng.uniform(0.0, 3.0))
            assert d2 >= det_sigma1(vols, corr) * (1.0 - 1e-12)

    def test_singular_correlation_raises(self):
        singular = validate_correlation(np.ones((3, 3)))
        with pytest.raises(SingularCorrelation):
            det_sigma2(InstantaneousVols(np.ones(3)), singular, np.ones(3), 1.0, 1.0)


class TestVectorizedValues:
    def test_det_sigma1_values_matches_scalar(self):
        rng = np.random.default_rng(19)
        corr = random_correlation(rng)
        variances = rng.uniform(0.01, 4.0, (40, 7, 3))
        out = det_sigma1_values(variances, corr)
        assert out.shape == (40, 7)
        s = np.sqrt(variances[3, 2])
        assert out[3, 2] == pytest.approx(det_sigma1(InstantaneousVols(s), corr), rel=1e-12)

    def test_det_sigma1_values_into_a_strided_view(self):
        """Into ``out``, on an asset-major stack read through a transposed view, the values
        are the bits of |C| times each row's product of variances taken in asset order."""
        rng = np.random.default_rng(37)
        corr = random_correlation(rng)
        stack = rng.uniform(0.0, 4.0, (6, 3, 50))  # (rows, assets, paths)
        buffer = np.full(400, np.nan)
        out = buffer[:300].reshape(6, 50)
        values = det_sigma1_values(stack.transpose(0, 2, 1), corr, out=out)
        assert values is out
        product = stack[:, 0].copy()
        for i in (1, 2):
            product *= stack[:, i]
        np.testing.assert_array_equal(values, corr.det_c * product)
        np.testing.assert_array_equal(values, det_sigma1_values(stack.transpose(0, 2, 1), corr))
        assert np.isnan(buffer[300:]).all()

    def test_det_sigma2_values_matches_scalar(self):
        rng = np.random.default_rng(23)
        for rho in (
            [-0.4, 0.7, -0.1],
            [0.5, -0.8],
            [0.6, -0.2, -0.3, 0.4],
            [0.6, 0.0, -0.3, 0.0],
            [-0.2, 0.4, 0.1, -0.7, 0.3],
        ):
            rho = np.array(rho)
            n = rho.size
            corr = random_correlation(rng, n=n)
            variances = rng.uniform(0.01, 4.0, (30, n))
            out = det_sigma2_values(variances, corr, rho, 2.0, 0.6)
            for row, value in zip(variances, out):
                scalar = det_sigma2(InstantaneousVols(np.sqrt(row)), corr, rho, 2.0, 0.6)
                assert value == pytest.approx(scalar, rel=1e-12)

    def test_continuous_at_zero_variance(self):
        # floored simulator paths hit v_i = 0; the polynomial form must agree
        # with the determinant of the assembled matrix there
        rng = np.random.default_rng(29)
        cases = [
            (np.array([0.5, -0.3, 0.2]),
             np.array([[0.0, 0.8, 1.2], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])),
            (np.array([0.5, -0.3, 0.2, -0.6]),
             np.array([[0.0, 0.8, 1.2, 0.3], [0.5, 0.0, 0.9, 0.0], [0.7, 0.4, 1.1, 0.0],
                       [0.0, 0.0, 0.0, 0.6], [0.0, 0.0, 0.0, 0.0]])),
        ]
        for rho, v in cases:
            corr = random_correlation(rng, n=rho.size)
            out = det_sigma2_values(v, corr, rho, 1.5, 0.7)
            for row, value in zip(v, out):
                s = np.sqrt(row)
                matrix = np.outer(s, s) * corr.c + 1.5 * 0.7 * np.outer(rho, rho)
                assert value == pytest.approx(laplace_det(matrix), abs=1e-12)

    def test_zero_jump_shortcut(self):
        rng = np.random.default_rng(31)
        corr = random_correlation(rng)
        v = rng.uniform(0.01, 1.0, (5, 3))
        np.testing.assert_array_equal(
            det_sigma2_values(v, corr, np.zeros(3), 1.0, 1.0),
            det_sigma1_values(v, corr),
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            det_sigma1_values(np.ones((4, 2)), IDENTITY3)
        with pytest.raises(DimensionMismatch):
            det_sigma2_values(np.ones((4, 3)), IDENTITY3, np.ones(2), 1.0, 1.0)


def reference_det_sigma2_values(variances, corr, rho, lambda_, var_z1):
    """The quadratic form of ``det_sigma2_values`` with one temporary per operation.

    base = prod_l v_l; u_i = ((rho_i s_a) s_b)... over l != i; bracket =
    ((0 + t_1) + t_2)... over the pairs i <= j, t = ((c delta_ij) u_i) u_j;
    result = |C| (base + (lambda Var) bracket).
    """
    n = corr.n
    delta = corr.inverse()
    base = np.prod(variances, axis=-1)
    if var_z1 == 0.0 or not np.any(rho):
        return corr.det_c * base
    sigma = [np.sqrt(variances[..., l]) for l in range(n)]
    jumping = np.flatnonzero(rho)
    u = {i: math.prod((sigma[l] for l in range(n) if l != i), start=rho[i]) for i in jumping}
    bracket = sum(
        (1.0 if i == j else 2.0) * delta[i, j] * u[i] * u[j]
        for i in jumping for j in jumping if i <= j
    )
    return corr.det_c * (base + lambda_ * var_z1 * bracket)


def assert_same_bits(value, expected):
    assert type(value) is type(expected)
    assert np.shape(value) == np.shape(expected)
    assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


class TestScratchKernel:
    """det_sigma2_values keeps the reference's arithmetic, on any thread."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_reference_arithmetic(self, n):
        rng = np.random.default_rng(100 + n)
        corr = random_correlation(rng, n=n)
        rhos = (
            rng.uniform(-0.8, 0.8, n),
            np.where(np.arange(n) % 2 == 1, 0.0, rng.uniform(-0.8, 0.8, n)),
            np.eye(n)[n - 1] * -0.5,
            np.zeros(n),
        )
        # asset-major rows read as (rows, paths, assets): strided views, as the Heston step
        # loop hands each of its (assets, paths) rows over transposed
        plane = rng.lognormal(-3.0, 1.0, (17, n, 23))
        plane[3, 0, :5] = 0.0
        plane[4, :, 7] = 0.0
        views = plane.transpose(0, 2, 1)
        contiguous = np.ascontiguousarray(views)
        for rho in rhos:
            for var in (0.6, 0.0):
                for v in (views, contiguous, contiguous[5, 2], contiguous[:0]):
                    assert_same_bits(
                        det_sigma2_values(v, corr, rho, 1.7, var),
                        reference_det_sigma2_values(v, corr, rho, 1.7, var),
                    )
                # slices of changing row count in turn: no call depends on the one before
                t0 = 0
                for rows in (5, 1, 8, 3):
                    tile = views[t0:t0 + rows]
                    assert_same_bits(
                        det_sigma2_values(tile, corr, rho, 1.7, var),
                        reference_det_sigma2_values(tile, corr, rho, 1.7, var),
                    )
                    t0 += rows

    def test_results_are_fresh_arrays(self):
        rng = np.random.default_rng(41)
        corr = random_correlation(rng, n=3)
        rho = np.array([0.4, -0.3, 0.2])
        first_input, second_input = rng.uniform(0.01, 1.0, (2, 6, 4, 3))
        first = det_sigma2_values(first_input, corr, rho, 2.0, 0.5)
        kept = first.copy()
        second = det_sigma2_values(second_input, corr, rho, 2.0, 0.5)
        np.testing.assert_array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert_same_bits(second, reference_det_sigma2_values(second_input, corr, rho, 2.0, 0.5))

    def test_threads_at_once_keep_their_own_scratch(self):
        rng = np.random.default_rng(43)
        corr = random_correlation(rng, n=4)
        rho = np.array([0.4, -0.3, 0.0, 0.6])
        tiles = [rng.lognormal(-3.0, 1.0, (rows, 512, 4)) for rows in (1, 9, 4, 13, 2, 7)]
        expected = [reference_det_sigma2_values(t, corr, rho, 2.0, 0.5) for t in tiles]
        start = threading.Barrier(3, timeout=30)

        def work(offset):
            start.wait()
            mine = tiles[offset::3]
            return [det_sigma2_values(t, corr, rho, 2.0, 0.5) for _ in range(20) for t in mine]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                results = list(pool.map(work, range(3)))
        finally:
            sys.setswitchinterval(interval)
        for offset, values in enumerate(results):
            for value, reference in zip(values, expected[offset::3] * 20):
                assert_same_bits(value, reference)
