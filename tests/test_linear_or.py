"""Or-linked regression null: F-test vs pseudoinverse refit oracle."""

import numpy as np
import pytest

import oracles
from pwreject.distributions import RngStream
from pwreject.models import linear_or as lo
from pwreject.testing import pointwise_test


def make_data(seed=0, n=30, b1=1.0, b2=0.0, b0=0.0):
    g = RngStream(seed).generator
    x = g.standard_normal((n, 2))
    y = b0 + b1 * x[:, 0] + b2 * x[:, 1] + g.standard_normal(n)
    return lo.RegressionData(x[:, 0], x[:, 1], y)


def oracle_point_p(data, b1t, b2t):
    """Independent F-test: pseudoinverse fits plus quadrature-oracle CDF."""
    design = np.column_stack([np.ones(data.n), data.x1, data.x2])
    beta = np.linalg.pinv(design) @ data.y
    rss_alt = float(np.sum((data.y - design @ beta) ** 2))
    z = data.y - b1t * data.x1 - b2t * data.x2
    rss_null = float(np.sum((z - z.mean()) ** 2))
    f = (rss_null - rss_alt) / 2.0 / (rss_alt / (data.n - 3))
    return 1.0 - oracles.f_cdf_quad(max(f, 0.0), 2, data.n - 3)


class TestPointPValue:
    def test_matches_pseudoinverse_oracle(self):
        data = make_data()
        for b1t, b2t in [(0.0, 0.0), (0.8, 0.0), (0.0, 0.4), (1.2, -0.3)]:
            assert lo.f_point_p_value(data, b1t, b2t) == pytest.approx(
                oracle_point_p(data, b1t, b2t), abs=1e-8
            )

    def test_noiseless_exact_point(self):
        g = RngStream(3).generator
        x = g.standard_normal((10, 2))
        data = lo.RegressionData(x[:, 0], x[:, 1], 2.0 * x[:, 0] + 3.0 * x[:, 1])
        # RSS_alt = 0 and the tested point is wrong: p-value 0.
        assert lo.f_point_p_value(data, 1.0, 1.0) == 0.0
        # Tested point is exactly right: restricted model also fits, p = 1.
        assert lo.f_point_p_value(data, 2.0, 3.0) == 1.0

    def test_rank_deficient_design(self):
        x = np.arange(6.0)
        data = lo.RegressionData(x, 2.0 * x, x + 1.0)
        with pytest.raises(np.linalg.LinAlgError):
            lo.ols3_fit(data)


class TestBoundaryPoints:
    def test_layout(self):
        fit = lo.ols3_fit(make_data())
        pts = lo.boundary_test_points(fit, 4)
        assert len(pts) == 8
        b1, b2 = fit.coefficients[1], fit.coefficients[2]
        assert pts[0] == (pytest.approx(2 * b1 / 5), 0.0)
        assert pts[-1] == (0.0, pytest.approx(2 * b2 * 4 / 5))
        # Each point sits on exactly one boundary axis.
        for p1, p2 in pts:
            assert (p1 == 0.0) != (p2 == 0.0)


class TestOrNullTest:
    def test_max_p_matches_explicit_scan(self):
        # The vectorized min-RSS shortcut must match the generic engine run
        # over the per-point p-values of every boundary test point.
        for seed in range(25):
            data = make_data(seed=seed, n=12, b1=0.8, b2=0.6)
            fit = lo.ols3_fit(data)
            if fit.coefficients[1] <= 0 or fit.coefficients[2] <= 0:
                continue
            dec = lo.or_null_test(data, 0.05, 7)
            ref = pointwise_test(
                lambda point: lo.f_point_p_value(data, *point, fit),
                lo.boundary_test_points(fit, 7), lo.NULL_SPEC, 0.05,
            )
            assert dec.max_p == pytest.approx(ref.max_p, abs=1e-12)
            assert dec.reject == ref.reject
            assert dec.alpha_prime_used == ref.alpha_prime_used
            assert dec.n_points == ref.n_points == 14

    def test_alpha_prime_value(self):
        dec = lo.or_null_test(make_data(), 0.05, 3)
        # d1 = d0 = 2 with boundary: alpha' = 1 - F_chi2_2(chi2q(0.90, 1))
        # = exp(-chi2q(0.90, 1) / 2), frozen from mpmath.
        assert dec.alpha_prime_used == pytest.approx(0.25852271228708035, abs=1e-9)

    def test_mle_inside_null_fails_to_reject(self):
        data = make_data(seed=1, b1=-1.0, b2=0.5)
        fit = lo.ols3_fit(data)
        assert fit.coefficients[1] <= 0 or fit.coefficients[2] <= 0
        dec = lo.or_null_test(data, 0.05, 5)
        assert not dec.reject and dec.max_p == 1.0 and dec.n_points == 0

    def test_alpha_one_rejects_even_inside_null(self):
        data = make_data(seed=1, b1=-1.0, b2=0.5)
        assert lo.or_null_test(data, 1.0, 5).reject

    def test_m_prime_validation(self):
        with pytest.raises(ValueError):
            lo.or_null_test(make_data(), 0.05, 0)

    def test_data_validation(self):
        with pytest.raises(ValueError):
            lo.RegressionData([1, 2, 3], [1, 2, 3], [1, 2, 3])
        with pytest.raises(ValueError):
            lo.RegressionData([1, 2, 3, 4], [1, 2, 3], [1, 2, 3, 4])
