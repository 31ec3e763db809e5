"""Nuisance-parameter regression: closed-form intervals vs grid-scan oracle."""

import math

import numpy as np
import pytest

from pwreject.distributions import RngStream, f_quantile
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
        psi_hat, phi_hat = nu.fit_psi_phi(data)
        assert psi_hat == pytest.approx(1.3, abs=1e-9)
        assert phi_hat == pytest.approx(-0.7, abs=1e-9)

    def test_reparameterization_consistency(self):
        data = make_data(seed=5)
        b0, b1, _ = nu.ols_line_fit(data)
        psi_hat, phi_hat = nu.fit_psi_phi(data)
        assert psi_hat * phi_hat == pytest.approx(b1, abs=1e-10)
        assert psi_hat * phi_hat**2 == pytest.approx(b0, abs=1e-10)

    def test_degenerate_covariate(self):
        with pytest.raises(nu.DegenerateFitError):
            nu.ols_line_fit(nu.XYData([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]))


class TestFStat:
    def test_direct_formula(self):
        data = make_data(seed=2, n=10)
        _, _, rss_alt = nu.ols_line_fit(data)
        pred = 1.1 * 1.9 * data.x + 1.1 * 1.9**2
        rss_null = float(np.sum((data.y - pred) ** 2))
        expect = (rss_null - rss_alt) / 2.0 / (rss_alt / (data.n - 2))
        assert nu.f_stat(data, 1.1, 1.9) == pytest.approx(expect, abs=1e-10)

    def test_noiseless_exact_null(self):
        data = make_data(sigma=0.0)
        assert nu.f_stat(data, 1.0, 2.0) == 0.0
        assert nu.f_stat_p_value(data, 1.0, 2.0) == 1.0
        assert nu.f_stat_p_value(data, 2.0, 2.0) == 0.0  # infinite F


class TestProxyGrid:
    def test_midpoint_layout(self):
        grid = nu.proxy_phi_grid(2.0, 25, 4, 5.0)  # w = 1
        assert grid == pytest.approx([1.25, 1.75, 2.25, 2.75])
        assert len(nu.proxy_phi_grid(0.0, 4, 100, 10.0)) == 100

    def test_symmetric_about_phi_hat(self):
        grid = nu.proxy_phi_grid(3.0, 10, 7, 5.0)
        assert grid.mean() == pytest.approx(3.0, abs=1e-12)


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


class TestAcceptanceInterval:
    def test_endpoints_match_grid_scan(self):
        data = make_data(seed=3, n=15)
        _, _, rss_alt = nu.ols_line_fit(data)
        thr = rss_alt * (1.0 + 2.0 * f_quantile(0.8535, 2, data.n - 2) / (data.n - 2))
        _, phi_hat = nu.fit_psi_phi(data)
        phis = (phi_hat - 0.2, phi_hat, phi_hat + 0.2)
        for g in regressor_rows(data, phis):
            region = nu._accepted_psi(data.y, g[None, :], thr)
            assert len(region.intervals) == 1
            lo, hi = region.intervals[0]
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
        everything = nu._accepted_psi(data.y, flat, 1e9)
        assert everything.contains(-1e8) and everything.contains(1e8)
        assert not nu._accepted_psi(data.y, flat, 1e-9)
        # Next to a curved row, a flat row that accepts everything swamps
        # it and one that accepts nothing leaves it unchanged.
        mixed = regressor_rows(data, [0.0, 1.0])
        assert nu._accepted_psi(data.y, mixed, 1e9) == everything
        thr = 0.99 * float(np.sum(data.y**2))  # below the flat row's RSS
        lo_hi = scalar_interval(data.y, mixed[1], thr)
        assert isinstance(lo_hi, tuple)
        assert nu._accepted_psi(data.y, mixed, thr) == Region1D([lo_hi])


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
        _, _, rss_alt = nu.ols_line_fit(data)
        _, phi_hat = nu.fit_psi_phi(data)
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
            _, phi_hat = nu.fit_psi_phi(data)
            _, _, rss_alt = nu.ols_line_fit(data)
            ref = pointwise_test(
                lambda phi_t: nu.f_stat_p_value(data, 1.0, phi_t, rss_alt),
                nu.proxy_phi_grid(phi_hat, data.n, 20, 10.0), nu.NULL_SPEC, 0.05,
            )
            assert dec.max_p == pytest.approx(ref.max_p, abs=1e-12)
            assert dec.reject == ref.reject
            assert dec.alpha_prime_used == ref.alpha_prime_used
            assert dec.n_points == ref.n_points == 20

    def test_lrt_stat_matches_direct_computation(self):
        data = make_data(seed=9, n=10)
        dec = nu.psi_lrt_test(data, 1.0, 0.05, 20)
        _, phi_hat = nu.fit_psi_phi(data)
        _, _, rss_alt = nu.ols_line_fit(data)
        rss_min = min(
            float(np.sum((data.y - 1.0 * p * data.x - 1.0 * p * p) ** 2))
            for p in nu.proxy_phi_grid(phi_hat, data.n, 20, 10.0)
        )
        stat = data.n * math.log(rss_min / rss_alt)
        from pwreject.distributions import chi2_cdf, chi2_quantile

        assert dec.max_p == pytest.approx(1.0 - chi2_cdf(stat, 1), abs=1e-12)
        assert dec.reject == (stat >= chi2_quantile(0.95, 1))

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


@pytest.mark.parametrize("name", sorted(ONE_CALL_ARGS))
def test_one_ols_fit_per_call(monkeypatch, name):
    fit = nu.ols_line_fit
    calls = []

    def counted(data):
        calls.append(data)
        return fit(data)

    monkeypatch.setattr(nu, "ols_line_fit", counted)
    getattr(nu, name)(make_data(seed=4), *ONE_CALL_ARGS[name])
    assert len(calls) == 1
