"""Interval-null normal-mean model: closed form vs dense-grid oracle."""

import math

import numpy as np
import pytest

import references
from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.distributions import RngStream, t_cdf
from pwreject.models import normal_mean as nm


def sample(seed=0, n=20, mu=0.0):
    return nm.UnivariateSample(mu + RngStream(seed).generator.standard_normal(n))


class TestPValue:
    def test_matches_direct_formula(self):
        s = sample()
        stat = abs(s.mean - 0.3) / (s.sd / math.sqrt(s.n))
        assert nm.t_p_value(s, 0.3) == pytest.approx(
            2.0 * (1.0 - t_cdf(stat, s.n - 1)), abs=1e-14
        )

    def test_p_is_one_at_mean(self):
        s = sample()
        assert nm.t_p_value(s, s.mean) == pytest.approx(1.0)

    def test_degenerate_sample(self):
        s = nm.UnivariateSample([1.0, 1.0, 1.0])
        with pytest.raises(nm.DegenerateSampleError):
            nm.t_p_value(s, 0.0)


class TestIntervalTest:
    def test_closed_form_matches_dense_grid(self):
        # The continuum decision must agree with an explicit fine grid of
        # simple nulls, each tested at alpha' = 2 * alpha.
        for seed in range(40):
            s = sample(seed=seed, n=12, mu=1.1)
            dec = nm.interval_null_test(s, 0.0, 1.0, 0.05)
            grid = np.linspace(0.0, 1.0, 2001)
            grid_max_p = max(nm.t_p_value(s, float(m)) for m in grid)
            # The grid undershoots the continuum maximum by at most the
            # p-value change across half a grid cell.
            assert grid_max_p <= dec.max_p + 1e-12
            assert dec.max_p == pytest.approx(grid_max_p, abs=5e-3)
            if abs(grid_max_p - 0.1) > 1e-2:
                assert dec.reject == (grid_max_p <= 2 * 0.05)

    def test_mean_inside_never_rejects(self):
        s = sample(mu=0.5)
        assert 0.0 <= s.mean <= 1.0
        dec = nm.interval_null_test(s, 0.0, 1.0, 0.05)
        assert dec.max_p == 1.0 and not dec.reject

    def test_halfwidth_characterization(self):
        # Reject iff the sample mean clears the interval endpoint by more
        # than t_{1-alpha, n-1} * s / sqrt(n).
        for seed in range(30):
            s = sample(seed=100 + seed, n=8, mu=1.4)
            h = references.reject_region_halfwidth(s, 0.05)
            dec = nm.interval_null_test(s, 0.0, 1.0, 0.05)
            outside = s.mean < 0.0 - h or s.mean > 1.0 + h
            assert dec.reject == outside

    def test_point_interval(self):
        s = sample()
        dec = nm.interval_null_test(s, 0.2, 0.2, 0.05)
        assert dec.max_p == pytest.approx(nm.t_p_value(s, 0.2))

    def test_bad_endpoints(self):
        with pytest.raises(ValueError):
            nm.interval_null_test(sample(), 1.0, 0.0, 0.05)

    @pytest.mark.parametrize("fn", [nm.interval_null_test, nm.bonferroni_interval_test])
    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_endpoint_refused(self, fn, a, b):
        # A nan b used to give max p = nan, and a nan a a test against b alone.
        with pytest.raises(ValueError, match="interval endpoints must not be nan"):
            fn(sample(), a, b, 0.05)

    @pytest.mark.parametrize("fn", [nm.interval_null_test, nm.bonferroni_interval_test])
    def test_infinite_endpoint_is_a_half_line_null(self, fn):
        s = sample(mu=0.8)
        for (a, b), (far_a, far_b) in (((-math.inf, 0.5), (-1e9, 0.5)),
                                       ((1.5, math.inf), (1.5, 1e9))):
            dec = fn(s, a, b, 0.05)
            assert dec.max_p == fn(s, far_a, far_b, 0.05).max_p and 0.0 < dec.max_p < 1.0

    def test_alpha_range(self):
        # alpha' = 2 * alpha exactly inside (0, 1/2); alpha = 1, once the
        # degenerate limit alpha' = 1, is refused like anything else.
        s = sample()
        assert nm.interval_null_test(s, 0.0, 1.0, 0.05).alpha_prime_used == 0.1
        for alpha in (2.0, -1.0, 0.0, 0.5, 0.7, 1.0):
            with pytest.raises(ValueError, match="significance level must lie in"):
                nm.interval_null_test(s, 0.0, 1.0, alpha)

    def test_alpha_message_states_the_legal_set(self):
        with pytest.raises(ValueError) as err:
            nm.interval_null_test(sample(), 0.0, 1.0, 0.7)
        assert str(err.value) == "significance level must lie in (0, 0.5), got 0.7"

    def test_alpha_prime_comes_from_alpha_prime(self):
        # The test decides through decide, with alpha' from the null geometry.
        for alpha in (0.01, 0.05, 0.1, 0.3):
            for mu in (0.5, 1.4, -0.6):
                dec = nm.interval_null_test(sample(mu=mu), 0.0, 1.0, alpha)
                assert dec.alpha_prime_used == alpha_prime(alpha, NullSpec(1, 1, has_boundary=True))
                assert dec.reject == (dec.max_p <= dec.alpha_prime_used)


class TestSampleIsolation:
    @staticmethod
    def results(s):
        return (nm.interval_null_test(s, 0.0, 1.0, 0.05), nm.bonferroni_interval_test(s, 0.0, 1.0, 0.05),
                nm.t_p_value(s, 0.4), references.reject_region_halfwidth(s, 0.05))

    def test_caller_array_changes_do_not_leak(self):
        src = 1.3 + RngStream(4).generator.standard_normal(9)
        s = nm.UnivariateSample(src)
        before = self.results(s)
        src[:] = 100.0
        assert self.results(s) == before
        assert before == self.results(nm.UnivariateSample(s.values))
        src[:] = -3.0
        assert self.results(nm.UnivariateSample(1.3 + RngStream(4).generator.standard_normal(9))) == before

    def test_values_are_read_only(self):
        s = sample()
        with pytest.raises(ValueError):
            s.values[0] = 1.0

    def test_statistics_are_computed_once(self):
        s = sample(n=11)
        self.results(s)
        # Cached on first use, with the values the direct reductions give.
        assert vars(s)["mean"] == float(s.values.mean())
        assert vars(s)["sd"] == float(s.values.std(ddof=1))
        with pytest.raises(AttributeError):
            s.mean = 0.0


class TestBonferroni:
    def test_one_sided_split(self):
        s = sample(mu=2.0)
        se = s.sd / math.sqrt(s.n)
        p_low = t_cdf((s.mean - 0.0) / se, s.n - 1)
        p_high = 1.0 - t_cdf((s.mean - 1.0) / se, s.n - 1)
        dec = nm.bonferroni_interval_test(s, 0.0, 1.0, 0.05)
        assert dec.max_p == pytest.approx(min(p_low, p_high), abs=1e-14)
        assert dec.alpha_prime_used == 0.025
        assert dec.reject == (dec.max_p <= 0.025)

    def test_more_conservative_than_pointwise(self):
        # Bonferroni can never reject when the pointwise test does not.
        hits = 0
        for seed in range(200):
            s = sample(seed=seed, n=10, mu=1.3)
            pw = nm.interval_null_test(s, 0.0, 1.0, 0.05).reject
            bf = nm.bonferroni_interval_test(s, 0.0, 1.0, 0.05).reject
            assert not (bf and not pw)
            hits += pw
        assert hits > 0  # the comparison actually exercised rejections

    def test_alpha_range(self):
        # alpha = 1 used to give the cut 0.5 and is refused now; alpha = 2
        # used to give the cut 1.0 and alpha = -1 the cut -0.5.
        s = sample()
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\), got 1.0"):
            nm.bonferroni_interval_test(s, 0.0, 1.0, 1.0)
        for alpha in (2.0, -1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="significance level must lie in"):
                nm.bonferroni_interval_test(s, 0.0, 1.0, alpha)
