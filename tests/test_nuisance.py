"""Nuisance-parameter regression: closed-form intervals vs grid-scan oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from pwreject.distributions import RngStream, chi2_quantile, f_quantile
from pwreject import simulation
from pwreject.models import nuisance as nu
from pwreject.regions import Region1D
from pwreject.testing import pointwise_test


def make_data(seed=0, n=30, psi=1.0, phi=2.0, sigma=1.0):
    g = RngStream(seed).generator
    x = g.standard_normal(n)
    y = psi * phi * x + psi * phi * phi + sigma * g.standard_normal(n)
    return nu.XYData(x, y)


class TestFits:
    def test_psi_phi_roundtrip_noiseless(self):
        data = make_data(sigma=0.0, psi=1.3, phi=-0.7)
        psi_hat, phi_hat = references.fit_psi_phi(data)
        assert psi_hat == pytest.approx(1.3, abs=1e-9)
        assert phi_hat == pytest.approx(-0.7, abs=1e-9)

    def test_reparameterization_consistency(self):
        data = make_data(seed=5)
        b0, b1, _ = references.ols_line_fit(data)
        psi_hat, phi_hat = references.fit_psi_phi(data)
        assert psi_hat * phi_hat == pytest.approx(b1, abs=1e-10)
        assert psi_hat * phi_hat**2 == pytest.approx(b0, abs=1e-10)

    def test_degenerate_covariate(self):
        with pytest.raises(nu.DegenerateFitError):
            references.ols_line_fit(nu.XYData([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]))


class TestFStat:
    def test_direct_formula(self):
        data = make_data(seed=2, n=10)
        _, _, rss_alt = references.ols_line_fit(data)
        pred = 1.1 * 1.9 * data.x + 1.1 * 1.9**2
        rss_null = float(np.sum((data.y - pred) ** 2))
        expect = (rss_null - rss_alt) / 2.0 / (rss_alt / (data.n - 2))
        assert references.f_stat(data, 1.1, 1.9) == pytest.approx(expect, abs=1e-10)

    def test_noiseless_exact_null(self):
        data = make_data(sigma=0.0)
        assert references.f_stat(data, 1.0, 2.0) == 0.0
        assert references.f_stat_p_value(data, 1.0, 2.0) == 1.0
        assert references.f_stat_p_value(data, 2.0, 2.0) == 0.0
        # y = 2.5 + 2x fits its line exactly, rss_alt == 0: F is 0 on the
        # line, (psi, phi) = (1.6, 1.25), and infinite off it, with p = 0.
        exact = nu.XYData([0.0, 1.0, 2.0, 3.0], [2.5, 4.5, 6.5, 8.5])
        assert references.ols_line_fit(exact)[2] == 0.0
        assert references.f_stat(exact, 1.6, 1.25) == 0.0
        assert references.f_stat(exact, 1.0, 2.0) == math.inf
        assert references.f_stat_p_value(exact, 1.0, 2.0) == 0.0
        assert nu.psi_pointwise_test(exact, 1.0, 0.05, 100).max_p == 0.0
        assert nu.psi_lrt_test(exact, 1.0, 0.05, 100).max_p == 0.0


class TestProxyGrid:
    def test_midpoint_layout(self):
        grid = nu.proxy_phi_grid(2.0, 25, 4, 5.0)  # w = 1
        assert grid == pytest.approx([1.25, 1.75, 2.25, 2.75])
        assert len(nu.proxy_phi_grid(0.0, 4, 100, 10.0)) == 100

    def test_symmetric_about_phi_hat(self):
        grid = nu.proxy_phi_grid(3.0, 10, 7, 5.0)
        assert grid.mean() == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -5.0])
    def test_window_width_must_be_positive_and_finite(self, width):
        # A nan or infinite width used to give an empty region.
        match = "proxy window width must be positive and finite"
        with pytest.raises(ValueError, match=match):
            nu.proxy_phi_grid(2.0, 25, 4, width)
        with pytest.raises(ValueError, match=match):
            nu.psi_region_F(make_data(), 0.05, 50, width)


def scalar_interval(y, g, thr):
    """Reference acceptance interval for one regressor row by the quadratic
    formula in scalar arithmetic: (lo, hi), "all", or None when empty."""
    a = float(np.sum(g * g))
    b = float(np.sum(y * g))
    c = float(np.sum(y * y))
    if a == 0.0:
        return "all" if c <= thr else None
    disc = b * b - a * (c - thr)
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return (b - root) / a, (b + root) / a


def regressor_rows(data, phis):
    return np.array([phi_t * data.x + phi_t * phi_t for phi_t in phis])


def endpoints(y, g, thr):
    """nu._endpoints of one dataset's regressor rows ``g`` (m, n), for that row."""
    a = np.sum(g * g, axis=1)[None]
    b = np.sum(y * g, axis=1)[None]
    whole_line, lo, hi, curved = nu._endpoints(a, b, np.array([np.sum(y * y)]), np.array([thr]))
    return whole_line[0], lo[0], hi[0], curved[0]


def endpoint_region(y, g, thr):
    """The Region1D that a region of one dataset builds from its endpoints."""
    whole_line, lo, hi, curved = endpoints(y, g, thr)
    if whole_line:
        return Region1D([(-math.inf, math.inf)])
    return Region1D(zip(lo[curved], hi[curved]))


class TestAcceptanceInterval:
    def test_endpoints_match_grid_scan(self):
        data = make_data(seed=3, n=15)
        _, _, rss_alt = references.ols_line_fit(data)
        thr = rss_alt * (1.0 + 2.0 * f_quantile(0.8535, 2, data.n - 2) / (data.n - 2))
        _, phi_hat = references.fit_psi_phi(data)
        phis = (phi_hat - 0.2, phi_hat, phi_hat + 0.2)
        for g in regressor_rows(data, phis):
            whole_line, lo, hi, curved = endpoints(data.y, g[None, :], thr)
            assert not whole_line and curved.tolist() == [True]
            lo, hi = lo[0], hi[0]
            assert (lo, hi) == scalar_interval(data.y, g, thr)
            # Independent scan of the quadratic RSS over a fine psi grid.
            psis = np.linspace(lo - 1.0, hi + 1.0, 2000)
            rss = ((data.y[None, :] - np.outer(psis, g)) ** 2).sum(axis=1)
            accepted = psis[rss <= thr]
            step = psis[1] - psis[0]
            assert accepted.min() == pytest.approx(lo, abs=2 * step)
            assert accepted.max() == pytest.approx(hi, abs=2 * step)

    def test_flat_rss_cases(self):
        data = nu.XYData([1.0, -0.5, 0.25], [0.1, -0.1, 0.0])
        # phi_t = 0 zeroes the regressor: acceptance is all-or-nothing.
        flat = regressor_rows(data, [0.0])
        assert endpoint_region(data.y, flat, 1e9) == Region1D([(-math.inf, math.inf)])
        assert not endpoint_region(data.y, flat, 1e-9)
        # Next to a curved row, a flat row that accepts everything swamps
        # it and one that accepts nothing leaves it unchanged.
        mixed = regressor_rows(data, [0.0, 1.0])
        assert endpoint_region(data.y, mixed, 1e9) == Region1D([(-math.inf, math.inf)])
        thr = 0.99 * float(np.sum(data.y**2))  # below the flat row's RSS
        lo_hi = scalar_interval(data.y, mixed[1], thr)
        assert isinstance(lo_hi, tuple)
        assert endpoint_region(data.y, mixed, thr) == Region1D([lo_hi])


class TestRegions:
    def test_contains_truth_on_noiseless_data(self):
        # Odd m puts phi_hat = phi on the midpoint grid; with zero noise the
        # acceptance set at that proxy point is exactly {psi}.
        data = make_data(sigma=0.0, n=40)
        assert nu.psi_region_F(data, 0.05, 51).contains(1.0)
        assert nu.psi_region_LRT(data, 0.05, 51).contains(1.0)

    def test_region_close_to_truth_on_low_noise_data(self):
        data = make_data(sigma=0.01, n=40)
        region = nu.psi_region_F(data, 0.05, 51)
        assert region
        gap = min(min(abs(1.0 - lo), abs(1.0 - hi)) for lo, hi in region)
        assert gap < 0.01 or region.contains(1.0)

    def test_region_is_union_of_per_proxy_intervals(self):
        data = make_data(seed=7, n=12)
        region = nu.psi_region_F(data, 0.05, 9, width_mult=5.0)
        _, _, rss_alt = references.ols_line_fit(data)
        _, phi_hat = references.fit_psi_phi(data)
        thr = rss_alt * (1.0 + 2.0 * f_quantile(
            1.0 - 0.14650006448608417, 2, data.n - 2) / (data.n - 2))
        rows = regressor_rows(data, nu.proxy_phi_grid(phi_hat, data.n, 9, 5.0))
        pieces = [scalar_interval(data.y, g, thr) for g in rows]
        assert "all" not in pieces and None in pieces
        # Merge the per-proxy intervals by hand: sorted, overlapping joined.
        expect = []
        for lo, hi in sorted(p for p in pieces if p is not None):
            if expect and lo <= expect[-1][1]:
                expect[-1] = (expect[-1][0], max(expect[-1][1], hi))
            else:
                expect.append((lo, hi))
        assert region.intervals == tuple(expect)
        # Membership agrees with a direct scan: psi0 is in the region iff
        # some proxy phi_t accepts it.
        lo, hi = region.intervals[0][0], region.intervals[-1][1]
        psis = np.linspace(lo - 0.5, hi + 0.5, 1001)
        psis = psis[np.all(np.abs(psis[:, None] - np.ravel(expect)) > 1e-9, axis=1)]
        rss = ((data.y - psis[:, None, None] * rows) ** 2).sum(axis=2)
        accepted = (rss <= thr).any(axis=1)
        assert accepted.any() and not accepted.all()
        assert [region.contains(p) for p in psis] == accepted.tolist()

    def test_m_validation(self):
        for fn in (nu.psi_region_F, nu.psi_region_LRT):
            with pytest.raises(ValueError):
                fn(make_data(), 0.05, 0)
        for fn in (nu.psi_pointwise_test, nu.psi_lrt_test):
            with pytest.raises(ValueError):
                fn(make_data(), 1.0, 0.05, 0)


class TestPointwiseAndLrtTests:
    def test_max_p_matches_explicit_grid(self):
        # The vectorized min-RSS shortcut must match the generic engine run
        # over the per-proxy p-values.
        for seed in range(15):
            data = make_data(seed=seed, n=10)
            dec = nu.psi_pointwise_test(data, 1.0, 0.05, 20)
            _, phi_hat = references.fit_psi_phi(data)
            _, _, rss_alt = references.ols_line_fit(data)
            ref = pointwise_test(
                lambda phi_t: references.f_stat_p_value(data, 1.0, phi_t, rss_alt),
                nu.proxy_phi_grid(phi_hat, data.n, 20, 10.0), nu.NULL_SPEC, 0.05,
            )
            assert dec.max_p == pytest.approx(ref.max_p, abs=1e-12)
            assert dec.reject == ref.reject
            assert dec.alpha_prime_used == ref.alpha_prime_used
            assert dec.n_points == ref.n_points == 20

    def test_lrt_stat_matches_direct_computation(self):
        data = make_data(seed=9, n=10)
        dec = nu.psi_lrt_test(data, 1.0, 0.05, 20)
        _, phi_hat = references.fit_psi_phi(data)
        _, _, rss_alt = references.ols_line_fit(data)
        rss_min = min(
            float(np.sum((data.y - 1.0 * p * data.x - 1.0 * p * p) ** 2))
            for p in nu.proxy_phi_grid(phi_hat, data.n, 20, 10.0)
        )
        stat = data.n * math.log(rss_min / rss_alt)
        from pwreject.distributions import chi2_cdf, chi2_quantile

        assert dec.max_p == pytest.approx(1.0 - chi2_cdf(stat, 1), abs=1e-12)
        assert dec.reject == (stat >= chi2_quantile(0.95, 1))
        assert dec.reject == (1.0 - chi2_cdf(stat, 1) <= 0.05)

    def test_noiseless_true_null_never_rejects(self):
        # With zero noise RSS_alt = 0, so the decision hinges on the grid
        # containing the exact phi; odd m includes phi_hat = phi exactly.
        data = make_data(sigma=0.0)
        assert not nu.psi_pointwise_test(data, 1.0, 0.05, 51).reject
        assert not nu.psi_lrt_test(data, 1.0, 0.05, 51).reject


ONE_CALL_ARGS = {
    "psi_region_F": (0.05, 50),
    "psi_region_LRT": (0.05, 50),
    "psi_pointwise_test": (1.0, 0.05, 100),
    "psi_lrt_test": (1.0, 0.05, 100),
}


@pytest.mark.parametrize("name", ["psi_region_LRT", "psi_pointwise_test", "psi_lrt_test"])
def test_only_the_F_region_takes_a_window_width(name):
    # psi_region_F takes the width for confreg --width; the others use the
    # default window.
    with pytest.raises(TypeError, match="width_mult"):
        getattr(nu, name)(make_data(), *ONE_CALL_ARGS[name], width_mult=5.0)
    wide = nu.psi_region_F(make_data(), 0.05, 50, width_mult=10.0)
    assert wide != nu.psi_region_F(make_data(), 0.05, 50)


@pytest.mark.parametrize("name", sorted(ONE_CALL_ARGS))
def test_one_ols_fit_per_call(monkeypatch, name):
    # Each per-dataset function fits its data once: one call of the row
    # fit, on the dataset as a one-row stack.
    fit = nu._line_fit_rows
    calls = []

    def counted(x, y):
        calls.append(x.shape)
        return fit(x, y)

    monkeypatch.setattr(nu, "_line_fit_rows", counted)
    getattr(nu, name)(make_data(seed=4), *ONE_CALL_ARGS[name])
    assert calls == [(1, 30)]


class TestLevelsAndDegenerateFits:
    @pytest.mark.parametrize("fn", [nu.psi_region_F, nu.psi_region_LRT])
    def test_regions_refuse_alpha_one(self, fn):
        # A quantile at 1 - alpha has no alpha == 1 limit; the refusal
        # names the level, not the probability 0 the caller never passed.
        for alpha in (1.0, 1.5, 0.0):
            with pytest.raises(ValueError, match=r"significance level must lie in \(0, 1\), got "):
                fn(make_data(), alpha, 50)

    @pytest.mark.parametrize("psi", [math.nan, math.inf, -math.inf])
    def test_non_finite_psi_refused(self, psi):
        # A nan psi0 used to give "fail to reject" with max p 1.0.
        for fn in (nu.psi_pointwise_test, nu.psi_lrt_test):
            with pytest.raises(ValueError, match="psi must be finite"):
                fn(make_data(), psi, 0.05, 100)
        x, y = xy_stack(1, 3, 6)
        for mode in ("test", "coverage"):
            with pytest.raises(ValueError, match="psi must be finite"):
                nu.decide_batch(x, y, mode, 0.05, 10, psi)

    def test_lrt_test_refuses_alpha_one(self):
        with pytest.raises(ValueError, match=r"significance level must lie in \(0, 1\), got 1.0"):
            nu.psi_lrt_test(make_data(), 1.0, 1.0, 100)

    def test_pointwise_test_keeps_alpha_one(self):
        # The pointwise test used to take alpha = 1 and reject; it refuses
        # it now, as the LRT and the regions do.
        with pytest.raises(ValueError, match=r"significance level must lie in \(0, 1\), got 1.0"):
            nu.psi_pointwise_test(make_data(), 1.0, 1.0, 100)

    @pytest.mark.parametrize("mode, methods", [
        ("coverage", ("pointwise",)), ("coverage", ("lrt",)), ("test", ("pointwise", "lrt")),
    ])
    def test_batch_refuses_alpha_one(self, mode, methods):
        # The batch and every one-row call refuse alpha = 1.  The pointwise
        # test used to take it and reject.
        x, y = xy_stack(1, 3, 6)
        match = r"significance level must lie in \(0, 1\), got 1.0"
        with pytest.raises(ValueError, match=match):
            nu.decide_batch(x, y, mode, 1.0, 10, 1.0)
        one_row = {
            ("coverage", "pointwise"): lambda d: nu.psi_region_F(d, 1.0, 10),
            ("coverage", "lrt"): lambda d: nu.psi_region_LRT(d, 1.0, 10),
            ("test", "pointwise"): lambda d: nu.psi_pointwise_test(d, 1.0, 1.0, 10),
            ("test", "lrt"): lambda d: nu.psi_lrt_test(d, 1.0, 1.0, 10),
        }
        for row in range(len(x)):
            data = nu.XYData(x[row], y[row])
            for method in methods:
                with pytest.raises(ValueError, match=match):
                    one_row[mode, method](data)

    @pytest.mark.parametrize("name", sorted(ONE_CALL_ARGS))
    def test_degenerate_fit_messages(self, name):
        constant = nu.XYData([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        singular = nu.XYData([-1.0, 0.0, 1.0], [-2.0, 0.5, 1.5])  # b0_hat == 0
        fn = getattr(nu, name)
        with pytest.raises(nu.DegenerateFitError, match="^covariate is constant$"):
            fn(constant, *ONE_CALL_ARGS[name])
        with pytest.raises(nu.DegenerateFitError,
                           match="^OLS estimates give a singular reparameterization$"):
            fn(singular, *ONE_CALL_ARGS[name])


class TestSingularFit:
    # A constant y, or a line through the origin, fitted with rounding
    # noise: b1_hat or b0_hat is zero up to rounding but not exactly, and a
    # region such as Region1D(intervals=()) used to pass as a result.
    @staticmethod
    def datasets(kind, count=150, n=None):
        """``count`` datasets of the kind; n is drawn from 3 .. 59 unless given."""
        rng = np.random.default_rng(2024)
        for _ in range(count):
            size = n or int(rng.integers(3, 60))
            x = rng.standard_normal(size)
            if kind == "constant y":
                yield nu.XYData(x, np.full(size, rng.uniform(-10.0, 10.0)))
            else:
                x += rng.uniform(-3.0, 3.0)
                yield nu.XYData(x, rng.uniform(0.1, 3.0) * x)

    @pytest.mark.parametrize("kind", ["constant y", "through the origin"])
    def test_per_dataset_functions_raise(self, kind):
        for data in self.datasets(kind):
            for call in (lambda: references.fit_psi_phi(data), lambda: nu.psi_region_F(data, 0.05, 50)):
                with pytest.raises(nu.DegenerateFitError,
                                   match="^OLS estimates give a singular reparameterization$"):
                    call()

    @pytest.mark.parametrize("kind", ["constant y", "through the origin"])
    def test_batch_flags_every_row(self, kind):
        data = list(self.datasets(kind, 40, n=17))
        x, y = np.stack([d.x for d in data]), np.stack([d.y for d in data])
        for mode in ("coverage", "test"):
            hits, flagged = nu.decide_batch(x, y, mode, 0.05, 20, 1.0)
            assert flagged.all() and not any(h.any() for h in hits)

    def test_suite_data_is_far_from_singular(self):
        # Noisy data keeps its fit: the relative test flags nothing here.
        x, y = xy_stack(21, 400, 5)
        _, flagged = nu.decide_batch(x, y, "test", 0.05, 20, 1.0)
        assert not flagged.any()


class TestConstantCovariate:
    # A constant x whose mean does not round back to the value: centring
    # leaves rounding noise, not zeros, and a slope fitted to that noise
    # (5.33 for the first case) used to pass as a fit.
    CASES = [(0.1, 3), (0.1, 7), (0.7, 3), (0.3, 50), (123.456, 5), (-4.1, 7), (2.9, 1000),
             (1e-05, 1000)]

    @staticmethod
    def data(value, n):
        x = np.full(n, value)
        y = [0.3, 1.7, 2.2] if n == 3 else 1.0 + RngStream(n).generator.standard_normal(n)
        assert np.sum((x - x.mean()) ** 2) > 0.0  # not caught by sxx == 0
        return nu.XYData(x, y)

    @pytest.mark.parametrize("value, n", CASES)
    def test_per_dataset_functions_raise(self, value, n):
        data = self.data(value, n)
        calls = [lambda: references.ols_line_fit(data), lambda: references.fit_psi_phi(data)] + [
            lambda name=name: getattr(nu, name)(data, *ONE_CALL_ARGS[name])
            for name in sorted(ONE_CALL_ARGS)]
        for call in calls:
            with pytest.raises(nu.DegenerateFitError, match="^covariate is constant$"):
                call()

    @pytest.mark.parametrize("mode", ["coverage", "test"])
    def test_batch_flags_the_row(self, mode):
        x, y = xy_stack(9, 4, 7)
        x[2] = 0.1
        hits, flagged = nu.decide_batch(x, y, mode, 0.05, 20, 1.0)
        kept, none_flagged = nu.decide_batch(x[[0, 1, 3]], y[[0, 1, 3]], mode, 0.05, 20, 1.0)
        assert flagged.tolist() == [False, False, True, False] and not none_flagged.any()
        assert [h[[0, 1, 3]].tolist() for h in hits] == [h.tolist() for h in kept]
        assert not any(h[2] for h in hits)

    def test_small_but_real_spread_is_fitted(self):
        # Relative spread 1e-10: far above rounding, so the fit stands.
        x = 1.0 + 1e-10 * np.array([-1.0, 0.0, 1.0, 2.0])
        b0, b1, _ = references.ols_line_fit(nu.XYData(x, 3.0 + 2.0 * x))
        assert b1 == pytest.approx(2.0, rel=1e-4)


def xy_stack(seed, count, n, psi=1.0, phi=2.0, sigma=1.0):
    """(x, y) of ``count`` datasets drawn as the harness draws them."""
    g = RngStream(seed).generator
    x = g.standard_normal((count, n))
    y = psi * phi * x + psi * phi * phi + sigma * g.standard_normal((count, n))
    return x, y


SCALAR_DECISIONS = {
    ("coverage", "pointwise"): lambda d, alpha, m, psi: nu.psi_region_F(d, alpha, m).contains(psi),
    ("coverage", "lrt"): lambda d, alpha, m, psi: nu.psi_region_LRT(d, alpha, m).contains(psi),
    ("test", "pointwise"): lambda d, alpha, m, psi: nu.psi_pointwise_test(d, psi, alpha, m).reject,
    ("test", "lrt"): lambda d, alpha, m, psi: nu.psi_lrt_test(d, psi, alpha, m).reject,
}


def reference_decision(data, mode, method, alpha, m, psi):
    """One dataset's result from the per-point F statistics over the explicit proxy grid.

    "pointwise": pointwise_test of H0: psi over the grid with
    f_stat_p_value; a region contains psi where that test does not reject.
    "lrt": n * log(RSS_null / RSS_alt) = n * log(1 + 2F / (n - 2)) at the
    best grid point, against the chi-square cut-off (1 df for the test, 2
    for the region).  A degenerate fit raises DegenerateFitError.
    """
    _, phi_hat = references.fit_psi_phi(data)
    _, _, rss_alt = references.ols_line_fit(data)
    width = nu.REGION_WIDTH if mode == "coverage" else nu.TEST_WIDTH
    grid = nu.proxy_phi_grid(phi_hat, data.n, m, width)
    if method == "pointwise":
        rejects = pointwise_test(
            lambda phi_t: references.f_stat_p_value(data, psi, phi_t, rss_alt), grid, nu.NULL_SPEC, alpha,
        ).reject
        return rejects if mode == "test" else not rejects
    stat = min(data.n * math.log1p(2.0 * references.f_stat(data, psi, phi_t, rss_alt) / (data.n - 2))
               for phi_t in grid)
    if mode == "test":
        return stat >= chi2_quantile(1.0 - alpha, 1)
    return stat <= chi2_quantile(1.0 - alpha, 2)


def assert_batch_matches_reference(x, y, mode, alpha, m, psi):
    """decide_batch against the per-point reference; returns the hits of
    the rows it does not flag.

    The hits must also equal the one-row calls of the per-dataset
    functions on each dataset alone, and a flagged row hits for no method.
    """
    methods = nu.BATCH_METHODS
    row_hits, flag = nu.decide_batch(x, y, mode, alpha, m, psi)
    assert flag.dtype == np.dtype(bool) and flag.shape == (len(x),)
    assert [h.shape for h in row_hits] == [(len(x),)] * len(methods)
    assert not any(h[flag].any() for h in row_hits)
    hits, flagged = [h[~flag] for h in row_hits], int(np.count_nonzero(flag))
    want, one_row = [[] for _ in methods], [[] for _ in methods]
    want_flagged = 0
    for x_row, y_row in zip(x, y):
        data = nu.XYData(x_row, y_row)
        try:
            row = [reference_decision(data, mode, name, alpha, m, psi) for name in methods]
        except nu.DegenerateFitError:
            want_flagged += 1
            for name in methods:
                with pytest.raises(nu.DegenerateFitError):
                    SCALAR_DECISIONS[mode, name](data, alpha, m, psi)
            continue
        for column, value in zip(want, row):
            column.append(value)
        for column, name in zip(one_row, methods):
            column.append(SCALAR_DECISIONS[mode, name](data, alpha, m, psi))
    assert flagged == want_flagged
    assert [h.dtype for h in hits] == [np.dtype(bool)] * len(methods)
    assert [h.tolist() for h in hits] == want
    assert [h.tolist() for h in hits] == one_row
    return hits


class TestDecideBatch:
    @pytest.mark.parametrize("n", [3, 5, 30])
    @pytest.mark.parametrize("mode", ["coverage", "test"])
    def test_matches_scalar_functions(self, n, mode):
        outcomes = set()
        for psi, m in ((0.6, 7), (1.0, 50), (1.4, 100)):
            x, y = xy_stack(n, 40, n)
            for alpha in (0.05, 0.2):
                hits = assert_batch_matches_reference(x, y, mode, alpha, m, psi)
                outcomes.update(np.concatenate(hits).tolist())
        assert outcomes == {True, False}

    def test_statistics_match_per_dataset_bit_for_bit(self):
        # The row fit and grid against ols_line_fit, fit_psi_phi and
        # proxy_phi_grid on each dataset, bit for bit.  The regions'
        # endpoints equal those from the regressors np.outer(grid, x) +
        # grid**2 of each dataset, bit for bit, and the tests' F statistic
        # is the smallest references.f_stat over the grid up to rounding.
        x, y = xy_stack(5, 60, 17)
        flag, b0, b1, _, _, rss_alt = nu._line_fit_rows(x, y)
        assert not flag.any()
        _, regions = nu._statistic_rows(x, y, "coverage", None, 0.05, 9, nu.REGION_WIDTH)
        _, tests = nu._statistic_rows(x, y, "test", 1.2, None, 9, nu.TEST_WIDTH)
        for row, (x_row, y_row) in enumerate(zip(x, y)):
            data = nu.XYData(x_row, y_row)
            assert (b0[row], b1[row], rss_alt[row]) == references.ols_line_fit(data)
            phi_hat = references.fit_psi_phi(data)[1]
            assert b0[row] / b1[row] == phi_hat
            grid = nu.proxy_phi_grid(phi_hat, 17, 9, nu.REGION_WIDTH)
            g = np.outer(grid, x_row) + (grid * grid)[:, None]
            for name in nu.BATCH_METHODS:
                thr = rss_alt[row] * nu._region_rss_factor(name, 0.05, 17)
                want = endpoints(y_row, g, thr)
                got = [v[row] for v in regions[name]]
                assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
            grid = nu.proxy_phi_grid(phi_hat, 17, 9, nu.TEST_WIDTH)
            f_min = min(references.f_stat(data, 1.2, phi_t) for phi_t in grid)
            assert tests["pointwise"][row] == pytest.approx(f_min, rel=1e-12)
            assert tests["lrt"][row] == pytest.approx(f_min * 2.0 / 15, rel=1e-12)

    def test_test_mode_peak_holds_a_few_statistic_arrays(self):
        # The tests read RSS_null - RSS_alt from the fit on (B, m) arrays,
        # five of which a full-scale fig4 block fits in _BLOCK_FLOATS, so
        # the block peaks below two blocks of _BLOCK_FLOATS floats.  That
        # was the bound of the two (B, m, n) regressor tensors.
        for n in (5, 10):
            cfg = simulation.ExperimentConfig("nuisance", "power", (1.0, 2.0), n, 10, 100, 0)
            x, y = xy_stack(4, simulation._block_length(cfg), n)
            nu.decide_batch(x, y, "test", 0.05, 100, 1.0)
            tracemalloc.start()
            try:
                nu.decide_batch(x, y, "test", 0.05, 100, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * simulation._BLOCK_FLOATS * 8

    def test_coverage_peak_fits_the_block_bound(self):
        # Every full-scale fig3 block holds g, one (B, m, n) product of it
        # and a few (B, m) arrays, which _block_length sizes to fit
        # _BLOCK_FLOATS (4 MB).  Blocks sized by g alone peaked at 8.0 to
        # 11.7 MB, from n = 200 down to n = 5.
        sizes = {(kw["n"], kw["m"]) for kw in simulation._suite_configs("fig3", 1.0)}
        for n, m in sorted(sizes):
            cfg = simulation.ExperimentConfig("nuisance", "coverage", (1.0, 2.0), n, 10, m, 0)
            x, y = xy_stack(4, simulation._block_length(cfg), n)
            nu.decide_batch(x, y, "coverage", 0.05, m, 1.0)
            tracemalloc.start()
            try:
                nu.decide_batch(x, y, "coverage", 0.05, m, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= simulation._BLOCK_FLOATS * 8, (n, m)

    def test_membership_at_interval_endpoints(self):
        # psi exactly at an endpoint of the region is inside (closed
        # intervals); one float beyond it is outside unless another
        # interval covers it.
        x, y = xy_stack(11, 8, 6)
        for x_row, y_row in zip(x, y):
            region = nu.psi_region_F(nu.XYData(x_row, y_row), 0.05, 9)
            for lo, hi in region:
                for psi in (lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
                    hits, _ = nu.decide_batch(x_row[None], y_row[None], "coverage", 0.05, 9, psi)
                    assert hits[0][0] == region.contains(psi)

    def test_flat_rows_match_region(self):
        # A zero regressor row (phi_t = 0) accepts every psi or none, alone
        # or next to a curved row.  Membership read from the endpoints, as
        # decide_batch reads it, and the Region1D built from them agree
        # with the union of the per-row intervals of the scalar formula.
        data = nu.XYData([1.0, -0.5, 0.25], [0.1, -0.1, 0.0])
        c = float(np.sum(data.y**2))
        for phis in ([0.0], [0.0, 1.0], [1.0, 0.0, -0.5]):
            g = regressor_rows(data, phis)
            for thr in (1e9, 1e-9, 0.99 * c, c):
                whole_line, lo, hi, curved = endpoints(data.y, g, thr)
                region = endpoint_region(data.y, g, thr)
                pieces = [scalar_interval(data.y, row, thr) for row in g]
                for psi in (-1e8, -0.3, 0.0, 0.1, 0.5, 1e8):
                    want = any(p == "all" or (p is not None and p[0] <= psi <= p[1])
                               for p in pieces)
                    got = whole_line or (curved & (lo <= psi) & (psi <= hi)).any()
                    assert got == region.contains(psi) == want

    @pytest.mark.parametrize("mode", ["coverage", "test"])
    def test_degenerate_rows_are_flagged(self, mode):
        x, y = xy_stack(3, 5, 3)
        x[1] = 1.0                      # constant covariate: sxx == 0
        y[2] = 3.0                      # constant response: b1 == 0
        x[3], y[3] = (-1.0, 0.0, 1.0), (-2.0, 0.5, 1.5)  # b0 == 0
        for row in (1, 2, 3):
            with pytest.raises(nu.DegenerateFitError):
                references.fit_psi_phi(nu.XYData(x[row], y[row]))
        hits = assert_batch_matches_reference(x, y, mode, 0.05, 20, 1.0)
        assert [len(h) for h in hits] == [2, 2]
        kept, flagged = nu.decide_batch(x[[0, 4]], y[[0, 4]], mode, 0.05, 20, 1.0)
        assert not flagged.any()
        assert [h.tolist() for h in kept] == [h.tolist() for h in hits]
        everything, flagged = nu.decide_batch(x[1:4], y[1:4], mode, 0.05, 20, 1.0)
        assert flagged.all() and [h.tolist() for h in everything] == [[False] * 3] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_raise(self, bad):
        for which in (0, 1):
            arrays = list(xy_stack(4, 3, 5))
            arrays[which][1, 2] = bad
            with pytest.raises(ValueError):
                nu.XYData(arrays[0][1], arrays[1][1])
            with pytest.raises(ValueError, match="finite"):
                nu.decide_batch(*arrays, "coverage", 0.05, 10, 1.0)

    def test_validation(self):
        x, y = xy_stack(0, 2, 5)
        for args in (
            (x, y[:, :4], "coverage", 0.05, 10, 1.0),
            (x[0], y[0], "coverage", 0.05, 10, 1.0),
            (x[:, :2], y[:, :2], "coverage", 0.05, 10, 1.0),
            (x, y, "power", 0.05, 10, 1.0),
            (x, y, "test", 0.05, 0, 1.0),
            (x, y, "test", 1.5, 10, 1.0),
        ):
            with pytest.raises(ValueError):
                nu.decide_batch(*args)
        # Both methods of BATCH_METHODS are decided; there is no method list.
        hits, flagged = nu.decide_batch(x, y, "test", 0.05, 10, 1.0)
        assert [h.shape for h in hits] == [(2,)] * len(nu.BATCH_METHODS)
        assert flagged.tolist() == [False, False]
        with pytest.raises(TypeError):
            nu.decide_batch(x, y, "test", nu.BATCH_METHODS, 0.05, 10, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 6),
        n=st.integers(3, 40),
        psi_true=st.floats(0.3, 2.0),
        phi=st.floats(-3.0, 3.0),
        sigma=st.sampled_from([0.1, 1.0, 3.0]),
        mode=st.sampled_from(["coverage", "test"]),
        psi=st.floats(0.0, 2.0),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
        m=st.integers(1, 60),
    )
    def test_matches_scalar_functions_hypothesis(
        self, seed, count, n, psi_true, phi, sigma, mode, psi, alpha, m
    ):
        x, y = xy_stack(seed, count, n, psi_true, phi, sigma)
        assert_batch_matches_reference(x, y, mode, alpha, m, psi)


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("phi", [1.0, 2.0, 3.0])
def test_grid_minimum_tends_to_the_exact_window_minimum(n, phi):
    # The test mode's smallest RSS_null - RSS_alt over the proxy grid is
    # never below the exact minimum over the window phi_hat +- 10/sqrt(n)
    # (tests/oracles.py, in mpmath) beyond rounding, and its largest gap
    # shrinks at least 5-fold as m goes 10 -> 100 -> 1000: by about 10 when
    # the minimum sits at a window end, 100 inside.  At psi = psi0 = 1.
    import oracles

    x, y = xy_stack(1000 + n + int(10 * phi), 40, n, phi=phi)
    half_width = nu.TEST_WIDTH / math.sqrt(n)
    exact = np.array([oracles.nuisance_window_min_excess(xb, yb, 1.0, half_width)
                      for xb, yb in zip(x, y)])
    exact_ratio = exact[:, 0] / exact[:, 1]
    gaps = []
    for m in (10, 100, 1000):
        flag, stat = nu._statistic_rows(x, y, "test", 1.0, 0.05, m, nu.TEST_WIDTH)
        assert not flag.any()
        assert (stat["lrt"] >= exact_ratio * (1.0 - 1e-10)).all()
        gaps.append(np.max(stat["lrt"] - exact_ratio))
    assert gaps[0] > 5.0 * gaps[1] > 25.0 * gaps[2] > 0.0
