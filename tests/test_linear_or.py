"""Or-linked regression null: F-test vs pseudoinverse refit oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import references
from pwreject import simulation
from pwreject.distributions import RngStream
from pwreject.models import linear_or as lo
from pwreject.testing import decide, p_value, pointwise_test


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
            assert references.f_point_p_value(data, b1t, b2t) == pytest.approx(
                oracle_point_p(data, b1t, b2t), abs=1e-8
            )

    def test_noiseless_exact_point(self):
        g = RngStream(3).generator
        x = g.standard_normal((10, 2))
        data = lo.RegressionData(x[:, 0], x[:, 1], 2.0 * x[:, 0] + 3.0 * x[:, 1])
        # RSS_alt = 0 and the tested point is wrong: p-value 0.
        assert references.f_point_p_value(data, 1.0, 1.0) == 0.0
        # Tested point is exactly right: restricted model also fits, p = 1.
        assert references.f_point_p_value(data, 2.0, 3.0) == 1.0

    def test_rank_deficient_design(self):
        x = np.arange(6.0)
        data = lo.RegressionData(x, 2.0 * x, x + 1.0)
        with pytest.raises(np.linalg.LinAlgError):
            lo.ols3_fit(data)

    @pytest.mark.parametrize("value", [0.0, 1.0, 0.1, -3.7])
    def test_constant_column_is_collinear_with_the_intercept(self, value):
        x = np.arange(6.0)
        for x1, x2 in ((np.full(6, value), x), (x, np.full(6, value))):
            with pytest.raises(np.linalg.LinAlgError):
                lo.ols3_fit(lo.RegressionData(x1, x2, x * x))


class TestBoundaryPoints:
    def test_layout(self):
        fit = lo.ols3_fit(make_data())
        pts = references.boundary_test_points(fit, 4)
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
                lambda point: references.f_point_p_value(data, *point, fit),
                references.boundary_test_points(fit, 7), lo.NULL_SPEC, 0.05,
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
        # alpha = 1 used to be the degenerate level alpha' = 1, which
        # rejected even inside the null; it is refused now.
        data = make_data(seed=1, b1=-1.0, b2=0.5)
        with pytest.raises(ValueError, match=r"must lie in \(0, 0.5\), got 1.0"):
            lo.or_null_test(data, 1.0, 5)

    def test_m_prime_validation(self):
        with pytest.raises(ValueError):
            lo.or_null_test(make_data(), 0.05, 0)

    def test_data_validation(self):
        with pytest.raises(ValueError):
            lo.RegressionData([1, 2, 3], [1, 2, 3], [1, 2, 3])
        with pytest.raises(ValueError):
            lo.RegressionData([1, 2, 3, 4], [1, 2, 3], [1, 2, 3, 4])


def regression_stack(seed, count, n, b1=1.0, b2=0.0, b0=0.0):
    """(x1, x2, y) of ``count`` datasets, each row drawn as make_data draws one."""
    g = RngStream(seed).generator
    x = g.standard_normal((count, n, 2))
    x1, x2 = x[:, :, 0], x[:, :, 1]
    return x1, x2, b0 + b1 * x1 + b2 * x2 + g.standard_normal((count, n))


# The closed-form fit and the boundary arms round differently from the
# lstsq reference by a few ULPs.  Over 32,000 table1 replicates (four
# truths, two seeds) the largest difference in max p was 9.8e-14 relative
# (where p > 1e-3) and 2.1e-14 absolute, and no decision flipped.
P_RTOL = 1e-10


def reference_decision(data, alpha, m_prime):
    """pointwise_test over the boundary points with the lstsq p-values.

    An MLE inside the null is decided over the continuum: max p = 1 over no
    listed points.
    """
    fit = lo.ols3_fit(data)
    if fit.coefficients[1] <= 0.0 or fit.coefficients[2] <= 0.0:
        return decide(1.0, lo.NULL_SPEC, alpha, 0)
    return pointwise_test(
        lambda point: references.f_point_p_value(data, *point, fit),
        references.boundary_test_points(fit, m_prime), lo.NULL_SPEC, alpha,
    )


def batch_max_p(x1, x2, y, m_prime):
    """The max p of each row of a stack: the F survival function at its statistic."""
    f_stat, _ = lo._statistic_rows(x1, x2, y, m_prime)
    return np.array([p_value(f, lo.NULL_SPEC, y.shape[1] - 3) for f in f_stat.tolist()])


def assert_batch_matches_reference(x1, x2, y, alpha, m_prime):
    """decide_batch and the batch max p against the reference; returns (rejects, max p).

    Each row must also equal the one-row call ``or_null_test`` on that
    dataset alone, bit for bit.
    """
    rejects = lo.decide_batch(x1, x2, y, alpha, m_prime)
    max_p = batch_max_p(x1, x2, y, m_prime)
    datasets = [lo.RegressionData(*row) for row in zip(x1, x2, y)]
    want = [reference_decision(d, alpha, m_prime) for d in datasets]
    assert rejects.dtype == np.dtype(bool) and rejects.shape == (len(y),)
    assert rejects.tolist() == [d.reject for d in want]
    assert max_p.tolist() == pytest.approx([d.max_p for d in want], rel=P_RTOL, abs=1e-12)
    one_row = [lo.or_null_test(d, alpha, m_prime) for d in datasets]
    assert [(d.reject, d.max_p) for d in one_row] == list(zip(rejects.tolist(), max_p.tolist()))
    return rejects, max_p


class TestDecideBatch:
    @pytest.mark.parametrize("n", [4, 5, 10, 100])
    @pytest.mark.parametrize("m_prime", [1, 5, 50])
    def test_matches_or_null_test(self, n, m_prime):
        outcomes, inside = set(), set()
        for b1, b2 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            x1, x2, y = regression_stack(n + m_prime, 30, n, b1, b2, b0=0.5)
            for alpha in (0.05, 0.2):
                rejects, _ = assert_batch_matches_reference(x1, x2, y, alpha, m_prime)
                outcomes.update(rejects.tolist())
            fits = [lo.ols3_fit(lo.RegressionData(*row)).coefficients for row in zip(x1, x2, y)]
            inside.update("b1" for c in fits if c[1] <= 0.0)
            inside.update("b2" for c in fits if c[2] <= 0.0)
        assert outcomes == {True, False}
        assert inside == {"b1", "b2"}

    def test_rows_inside_the_null_get_p_one(self):
        x1, x2, y = regression_stack(2, 40, 8, b1=-1.0, b2=1.0)
        x1[20:], x2[20:] = x2[20:].copy(), x1[20:].copy()  # b2 <= 0 in the second half
        _, max_p = assert_batch_matches_reference(x1, x2, y, 0.05, 5)
        _, outside = lo._statistic_rows(x1, x2, y, 5)
        fits = [lo.ols3_fit(lo.RegressionData(*row)).coefficients for row in zip(x1, x2, y)]
        for c, p, out in zip(fits, max_p, outside):
            assert (p == 1.0) == (c[1] <= 0.0 or c[2] <= 0.0) == (not out)
        assert (max_p == 1.0).sum() > 30
        # or_null_test lists no test points for those rows, 2 m' for the others.
        n_points = [lo.or_null_test(lo.RegressionData(*row), 0.05, 5).n_points
                    for row in zip(x1, x2, y)]
        assert n_points == [10 * out for out in outside.tolist()]

    def test_noiseless_rows(self):
        # Integer columns with dyadic means: the closed form fits exactly,
        # so rss_alt == 0 and _f_p gives 0 outside the null; rows whose
        # exact MLE sits inside the null get p = 1.
        x1 = np.array([1.0, -1.0, 2.0, -2.0, 0.0, 3.0, -3.0, 0.0])
        x2 = np.array([0.0, 1.0, 1.0, -1.0, -1.0, 2.0, 0.0, -2.0])
        truths = ((2.0, 3.0), (0.5, 0.25), (2.0, -1.0), (-1.0, 0.5), (0.0, 1.0))
        y = np.array([1.0 + b1 * x1 + b2 * x2 for b1, b2 in truths])
        stack = (np.tile(x1, (len(truths), 1)), np.tile(x2, (len(truths), 1)), y)
        rss_alt = lo._ols3_rows(*stack)[2]
        assert rss_alt.tolist() == [0.0] * len(truths)
        for m_prime in (1, 5):
            rejects, max_p = assert_batch_matches_reference(*stack, 0.05, m_prime)
            assert max_p.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
            assert rejects.tolist() == [True, True, False, False, False]

    def test_alpha_one_rejects_every_row(self):
        # alpha = 1 used to reject every row; the batch refuses it now.
        x1, x2, y = regression_stack(4, 20, 6, b1=-1.0, b2=1.0)
        with pytest.raises(ValueError, match=r"must lie in \(0, 0.5\), got 1.0"):
            lo.decide_batch(x1, x2, y, 1.0, 3)

    def test_ill_posed_row_is_fitted_by_ols3_fit(self):
        # x2 is x1 plus 1e-5 noise: rank 3, but outside the closed form's
        # conditioning bound, so that row's p equals the scalar bit for bit.
        x1, x2, y = regression_stack(6, 3, 12, b1=1.0, b2=1.0)
        x2[1] = x1[1] + 1e-5 * x2[1]
        b1, b2, rss = lo._ols3_rows(x1, x2, y)[:3]
        fit = lo.ols3_fit(lo.RegressionData(x1[1], x2[1], y[1]))
        assert (b1[1], b2[1], rss[1]) == (fit.coefficients[1], fit.coefficients[2], fit.rss)
        _, max_p = assert_batch_matches_reference(x1, x2, y, 0.05, 5)
        assert max_p[1] == lo.or_null_test(lo.RegressionData(x1[1], x2[1], y[1]), 0.05, 5).max_p

    @pytest.mark.parametrize("case", ["collinear", "constant-x1", "constant-x2"])
    def test_rank_deficient_row_raises(self, case):
        x1, x2, y = regression_stack(7, 4, 6)
        if case == "collinear":
            x2[2] = 2.0 * x1[2]
        elif case == "constant-x1":
            x1[2] = 0.1
        else:
            x2[2] = -3.0
        with pytest.raises(np.linalg.LinAlgError):
            lo.ols3_fit(lo.RegressionData(x1[2], x2[2], y[2]))
        with pytest.raises(np.linalg.LinAlgError):
            lo.decide_batch(x1, x2, y, 0.05, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_raise(self, bad):
        for which in range(3):
            arrays = list(regression_stack(8, 3, 5))
            arrays[which][1, 2] = bad
            with pytest.raises(ValueError):
                lo.RegressionData(*(a[1] for a in arrays))
            with pytest.raises(ValueError, match="finite"):
                lo.decide_batch(*arrays, 0.05, 5)

    def test_validation(self):
        x1, x2, y = regression_stack(0, 2, 5)
        for args in (
            (x1, x2, y[:, :4], 0.05, 5),
            (x1[0], x2[0], y[0], 0.05, 5),
            (x1[:, :3], x2[:, :3], y[:, :3], 0.05, 5),
            (x1, x2, y, 0.05, 0),
            (x1, x2, y, 0.5, 5),
            (x1, x2, y, 0.0, 5),
        ):
            with pytest.raises(ValueError):
                lo.decide_batch(*args)
        assert lo.decide_batch(x1[:0], x2[:0], y[:0], 0.05, 5).tolist() == []

    def test_peak_holds_a_few_statistic_arrays(self):
        # Each arm's RSS_null - RSS_alt is a quadratic form of a few sums,
        # so a full-scale table1 block, which fits five of its (B, m) or
        # (B, 3 n) arrays in _BLOCK_FLOATS, peaks below one block of
        # _BLOCK_FLOATS floats.
        for n, m in ((5, 10), (100, 10), (5, 100), (100, 100)):
            cfg = simulation.ExperimentConfig("or_null", "power", (1.0, 0.5), n, 10, m, 0)
            x1, x2, y = regression_stack(4, simulation._block_length(cfg), n, b2=0.5)
            lo.decide_batch(x1, x2, y, 0.05, m // 2)
            tracemalloc.start()
            try:
                lo.decide_batch(x1, x2, y, 0.05, m // 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < simulation._BLOCK_FLOATS * 8

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 8),
        n=st.integers(4, 60),
        b1=st.floats(-0.5, 1.5),
        b2=st.floats(-0.5, 1.5),
        b0=st.floats(-5.0, 5.0),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
        m_prime=st.integers(1, 60),
    )
    def test_matches_or_null_test_hypothesis(self, seed, count, n, b1, b2, b0, alpha, m_prime):
        x1, x2, y = regression_stack(seed, count, n, b1, b2, b0)
        assert_batch_matches_reference(x1, x2, y, alpha, m_prime)
