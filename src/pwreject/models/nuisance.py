"""Nonlinear regression with a nuisance parameter.

Model: y = psi * phi * x + psi * phi**2 + noise, with interest in psi and
nuisance phi.  Simple nulls H0: (psi, phi) = (psi0, phi_t) are tested with
a finite-sample F statistic against the unrestricted OLS line; composite
inference on psi runs over a grid of proxy phi values around phi_hat.

For a fixed phi_t the restricted RSS is quadratic in psi0, so the
acceptance set {psi0 : F <= threshold} is an interval in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import NullSpec, alpha_prime_no_boundary
from pwreject.distributions import chi2_cdf, chi2_quantile, f_cdf, f_quantile
from pwreject.regions import Region1D, union_all
from pwreject.testing import TestDecision

__all__ = [
    "XYData",
    "DegenerateFitError",
    "ols_line_fit",
    "fit_psi_phi",
    "f_stat",
    "f_stat_p_value",
    "proxy_phi_grid",
    "psi_region_F",
    "psi_region_LRT",
    "psi_pointwise_test",
    "psi_lrt_test",
]

# psi of interest (dim 1), phi nuisance (dim 1); sigma^2 is profiled out by
# the F statistic.
NULL_SPEC = NullSpec(d1=2, d0=1, has_boundary=False)


class DegenerateFitError(ValueError):
    """OLS estimates make the (psi, phi) reparameterization singular."""


@dataclass(frozen=True, eq=False)
class XYData:
    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if y.size < 3:
            raise ValueError("need n >= 3 observations")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.y.size


def ols_line_fit(data):
    """Simple-regression OLS: returns (b0_hat, b1_hat, rss_alt)."""
    xbar = data.x.mean()
    ybar = data.y.mean()
    sxx = float(np.sum((data.x - xbar) ** 2))
    if sxx == 0.0:
        raise DegenerateFitError("covariate is constant")
    b1 = float(np.sum((data.x - xbar) * (data.y - ybar)) / sxx)
    b0 = ybar - b1 * xbar
    rss = float(np.sum((data.y - b0 - b1 * data.x) ** 2))
    return b0, b1, rss


def fit_psi_phi(data):
    """MLEs (psi_hat, phi_hat) = (b1_hat**2 / b0_hat, b0_hat / b1_hat)."""
    b0, b1, _ = ols_line_fit(data)
    if b1 == 0.0 or b0 == 0.0:
        raise DegenerateFitError("OLS estimates give a singular reparameterization")
    return b1 * b1 / b0, b0 / b1


def f_stat(data, psi0, phi_t, rss_alt=None):
    """F statistic of the simple null (psi, phi) = (psi0, phi_t)."""
    if rss_alt is None:
        _, _, rss_alt = ols_line_fit(data)
    pred = psi0 * phi_t * data.x + psi0 * phi_t * phi_t
    rss_null = float(np.sum((data.y - pred) ** 2))
    return _f_from_rss(rss_null, rss_alt, data.n)


def _f_from_rss(rss_null, rss_alt, n):
    if rss_alt == 0.0:
        return 0.0 if rss_null == 0.0 else math.inf
    return max(0.0, rss_null - rss_alt) / 2.0 / (rss_alt / (n - 2))


def f_stat_p_value(data, psi0, phi_t, rss_alt=None):
    f = f_stat(data, psi0, phi_t, rss_alt)
    if math.isinf(f):
        return 0.0
    return 1.0 - f_cdf(f, 2, data.n - 2)


def proxy_phi_grid(phi_hat, n, m, width_mult):
    """m midpoints of equal cells spanning phi_hat +- width_mult / sqrt(n)."""
    w = width_mult / math.sqrt(n)
    return phi_hat - w + 2.0 * w * (np.arange(1, m + 1) - 0.5) / m


def _acceptance_interval(data, phi_t, rss_threshold):
    """{psi0 : RSS_null(psi0, phi_t) <= rss_threshold} as a Region1D.

    RSS_null is quadratic in psi0 with curvature sum(g**2) for the
    regressor g = phi_t * x + phi_t**2.
    """
    g = phi_t * data.x + phi_t * phi_t
    a = float(np.sum(g * g))
    b = float(np.sum(data.y * g))
    c = float(np.sum(data.y * data.y))
    if a == 0.0:
        # Flat RSS: either every psi0 is accepted or none.
        if c <= rss_threshold:
            return Region1D([(-math.inf, math.inf)])
        return Region1D.empty()
    disc = b * b - a * (c - rss_threshold)
    if disc < 0.0:
        return Region1D.empty()
    root = math.sqrt(disc)
    return Region1D([((b - root) / a, (b + root) / a)])


def _region_from_threshold(data, m, width_mult, f_threshold):
    _, _, rss_alt = ols_line_fit(data)
    _, phi_hat = fit_psi_phi(data)
    rss_threshold = rss_alt * (1.0 + 2.0 * f_threshold / (data.n - 2))
    grid = proxy_phi_grid(phi_hat, data.n, m, width_mult)
    return union_all(_acceptance_interval(data, phi_t, rss_threshold) for phi_t in grid)


def psi_region_F(data, alpha, m, width_mult=5.0):
    """Pointwise confidence region for psi from the finite-sample F test."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ap = alpha_prime_no_boundary(alpha, NULL_SPEC)
    f_threshold = f_quantile(1.0 - ap, 2, data.n - 2)
    return _region_from_threshold(data, m, width_mult, f_threshold)


def psi_region_LRT(data, alpha, m, width_mult=5.0):
    """Large-sample LRT baseline region over the same proxy grid."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = data.n
    f_threshold = (n - 2) / 2.0 * (math.exp(chi2_quantile(1.0 - alpha, 2) / n) - 1.0)
    return _region_from_threshold(data, m, width_mult, f_threshold)


def _min_f_over_grid(data, psi0, m, width_mult):
    _, _, rss_alt = ols_line_fit(data)
    _, phi_hat = fit_psi_phi(data)
    grid = proxy_phi_grid(phi_hat, data.n, m, width_mult)
    # Vectorized restricted RSS over the grid.
    g = np.outer(grid, data.x) + (grid * grid)[:, None]
    rss_null = np.sum((data.y[None, :] - psi0 * g) ** 2, axis=1)
    return _f_from_rss(float(rss_null.min()), rss_alt, data.n), rss_alt, float(rss_null.min())


def psi_pointwise_test(data, psi0, alpha, m, width_mult=10.0):
    """Test H0: psi = psi0 by pointwise rejection over proxy phi values."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ap = alpha_prime_no_boundary(alpha, NULL_SPEC)
    min_f, _, _ = _min_f_over_grid(data, psi0, m, width_mult)
    max_p = 0.0 if math.isinf(min_f) else 1.0 - f_cdf(min_f, 2, data.n - 2)
    return TestDecision(max_p <= ap, max_p, ap, m)


def psi_lrt_test(data, psi0, alpha, m, width_mult=10.0):
    """LRT baseline: reject when n*log(RSS_null / RSS_alt) clears the
    chi2_{1-alpha, 1} cutoff at every proxy point."""
    if m < 1:
        raise ValueError("m must be >= 1")
    _, rss_alt, min_rss_null = _min_f_over_grid(data, psi0, m, width_mult)
    if rss_alt == 0.0:
        stat = 0.0 if min_rss_null == 0.0 else math.inf
    else:
        # The null family is nested in the line family, so RSS_null >=
        # RSS_alt up to rounding; clamp the statistic at zero.
        ratio = min_rss_null / rss_alt
        stat = data.n * math.log(ratio) if ratio > 1.0 else 0.0
    cutoff = chi2_quantile(1.0 - alpha, 1)
    reject = stat >= cutoff
    max_p = 0.0 if math.isinf(stat) else 1.0 - chi2_cdf(stat, 1)
    return TestDecision(reject, max_p, alpha, m)
