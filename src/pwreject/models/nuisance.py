"""Nonlinear regression with a nuisance parameter.

Model: y = psi * phi * x + psi * phi**2 + noise, with interest in psi and
nuisance phi.  Simple nulls H0: (psi, phi) = (psi0, phi_t) are tested with
a finite-sample F statistic against the unrestricted OLS line; composite
inference on psi runs over a grid of proxy phi values around phi_hat.

For a fixed phi_t the restricted RSS is quadratic in psi0, so the
acceptance set {psi0 : F <= threshold} is an interval in closed form.

:func:`decide_batch` gives the region-contains-psi and reject decisions
of both methods for a whole stack of datasets at once; it is what the
Monte Carlo harness calls, and the per-dataset functions are its reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.distributions import chi2_cdf, chi2_quantile, f_cdf, f_quantile
from pwreject.regions import Region1D
from pwreject.testing import TestDecision, decide, rejections

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
    "decide_batch",
]

# psi of interest (dim 1), phi nuisance (dim 1); sigma^2 is profiled out by
# the F statistic.
NULL_SPEC = NullSpec(d1=2, d0=1, has_boundary=False)
BATCH_METHODS = ("pointwise", "lrt")
# Proxy window half-widths, in units of n**-0.5: regions, then tests.
REGION_WIDTH = 5.0
TEST_WIDTH = 10.0


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
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite (no nan or inf)")
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
    return _psi_phi_from_line(b0, b1)


def _psi_phi_from_line(b0, b1):
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
    return _f_p_value(f_stat(data, psi0, phi_t, rss_alt), data.n)


def _f_p_value(f, n):
    return 0.0 if math.isinf(f) else 1.0 - f_cdf(f, 2, n - 2)


def proxy_phi_grid(phi_hat, n, m, width_mult):
    """m midpoints of equal cells spanning phi_hat +- width_mult / sqrt(n)."""
    w = width_mult / math.sqrt(n)
    return phi_hat - w + 2.0 * w * (np.arange(1, m + 1) - 0.5) / m


def _proxy_regressors(data, m, width_mult):
    """(rss_alt, g) from one OLS fit; g[t] = phi_t * x + phi_t**2 over the grid."""
    if m < 1:
        raise ValueError("m must be >= 1")
    b0, b1, rss_alt = ols_line_fit(data)
    _, phi_hat = _psi_phi_from_line(b0, b1)
    grid = proxy_phi_grid(phi_hat, data.n, m, width_mult)
    return rss_alt, np.outer(grid, data.x) + (grid * grid)[:, None]


def _accepted_psi(y, g, rss_threshold):
    """Region1D of the psi0 with RSS_null(psi0, g[t]) <= rss_threshold for some t.

    RSS_null = a*psi0**2 - 2*b*psi0 + c per row, so a row accepts an
    interval, or (flat, a == 0) every psi0 or none.
    """
    a = np.sum(g * g, axis=1)
    b = np.sum(y * g, axis=1)
    c = float(np.sum(y * y))
    if c <= rss_threshold and not a.all():
        return Region1D([(-math.inf, math.inf)])
    disc = b * b - a * (c - rss_threshold)
    keep = (a != 0.0) & (disc >= 0.0)
    a, b, root = a[keep], b[keep], np.sqrt(disc[keep])
    return Region1D(zip(((b - root) / a).tolist(), ((b + root) / a).tolist()))


def _region_from_threshold(data, m, width_mult, f_threshold):
    rss_alt, g = _proxy_regressors(data, m, width_mult)
    rss_threshold = rss_alt * _rss_factor(f_threshold, data.n)
    return _accepted_psi(data.y, g, rss_threshold)


def _rss_factor(f_threshold, n):
    """RSS_null <= RSS_alt * factor  <=>  F <= f_threshold."""
    return 1.0 + 2.0 * f_threshold / (n - 2)


def _f_threshold_F(alpha, n):
    return f_quantile(1.0 - alpha_prime(alpha, NULL_SPEC), 2, n - 2)


def _f_threshold_LRT(alpha, n):
    return (n - 2) / 2.0 * (math.exp(chi2_quantile(1.0 - alpha, 2) / n) - 1.0)


_REGION_F_THRESHOLDS = {"pointwise": _f_threshold_F, "lrt": _f_threshold_LRT}


def psi_region_F(data, alpha, m, width_mult=REGION_WIDTH):
    """Pointwise confidence region for psi from the finite-sample F test."""
    return _region_from_threshold(data, m, width_mult, _f_threshold_F(alpha, data.n))


def psi_region_LRT(data, alpha, m, width_mult=REGION_WIDTH):
    """Large-sample LRT baseline region over the same proxy grid."""
    return _region_from_threshold(data, m, width_mult, _f_threshold_LRT(alpha, data.n))


def _min_rss_null(data, psi0, m, width_mult):
    rss_alt, g = _proxy_regressors(data, m, width_mult)
    rss_null = np.sum((data.y[None, :] - psi0 * g) ** 2, axis=1)
    return rss_alt, float(rss_null.min())


def psi_pointwise_test(data, psi0, alpha, m, width_mult=TEST_WIDTH):
    """Test H0: psi = psi0 by pointwise rejection over proxy phi values."""
    rss_alt, min_rss_null = _min_rss_null(data, psi0, m, width_mult)
    max_p = _f_p_value(_f_from_rss(min_rss_null, rss_alt, data.n), data.n)
    return decide(max_p, NULL_SPEC, alpha, m)


def psi_lrt_test(data, psi0, alpha, m, width_mult=TEST_WIDTH):
    """LRT baseline: reject when n*log(RSS_null / RSS_alt) clears the
    chi2_{1-alpha, 1} cutoff at every proxy point."""
    rss_alt, min_rss_null = _min_rss_null(data, psi0, m, width_mult)
    stat = _lrt_stat(min_rss_null, rss_alt, data.n)
    reject = stat >= chi2_quantile(1.0 - alpha, 1)
    max_p = 0.0 if math.isinf(stat) else 1.0 - chi2_cdf(stat, 1)
    return TestDecision(reject, max_p, alpha, m)


def _lrt_stat(min_rss_null, rss_alt, n):
    """n * log(RSS_null / RSS_alt), clamped at zero."""
    if rss_alt == 0.0:
        return 0.0 if min_rss_null == 0.0 else math.inf
    # The null family is nested in the line family, so RSS_null >= RSS_alt
    # up to rounding; clamp the statistic at zero.
    ratio = min_rss_null / rss_alt
    return n * math.log(ratio) if ratio > 1.0 else 0.0


def decide_batch(x, y, mode, methods, alpha, m, psi):
    """Decisions of the named nuisance methods on every dataset of a stack.

    ``x`` and ``y`` are (B, n) arrays; row b holds dataset b.  ``methods``
    names any of ``BATCH_METHODS``.  In ``mode`` "coverage" a method's
    entry says whether its region (``psi_region_F`` for "pointwise",
    ``psi_region_LRT`` for "lrt") contains ``psi``; in ``mode`` "test" it
    says whether its test (``psi_pointwise_test``, ``psi_lrt_test``)
    rejects H0: psi = ``psi``.  Each uses the per-dataset function's
    default proxy window and ``m`` proxy points.

    Returns ``(hits, flagged)``: one bool array per method over the
    datasets whose fit is not degenerate (constant x, b1_hat == 0 or
    b0_hat == 0, where the per-dataset functions raise
    :class:`DegenerateFitError`), in row order, and the number of the
    others.  Entry for entry the hits equal the per-dataset results on
    ``XYData(x[b], y[b])``: the fit, the proxy grid, the regressors and
    the RSS sums are axis reductions that round as the per-dataset ones
    do, a region decides membership from its interval endpoints (the
    comparisons ``Region1D.contains`` makes on their union), and the test
    statistics stay per dataset on the scalar ``f_cdf`` and ``math.log``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("x and y must be (B, n) arrays of equal shape")
    n = x.shape[1]
    if n < 3:
        raise ValueError("need n >= 3 observations")
    if mode not in ("coverage", "test"):
        raise ValueError("unknown mode %r" % (mode,))
    unknown = [name for name in methods if name not in BATCH_METHODS]
    if unknown:
        raise ValueError("method %r not available for the nuisance model" % (unknown[0],))
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite (no nan or inf)")
    b0, b1, rss_alt, degenerate = _line_fit_rows(x, y)
    keep = ~degenerate
    x, y, b0, b1, rss_alt = x[keep], y[keep], b0[keep], b1[keep], rss_alt[keep]
    width = REGION_WIDTH if mode == "coverage" else TEST_WIDTH
    grid = proxy_phi_grid((b0 / b1)[:, None], n, m, width)
    g = _regressor_rows(grid, x)
    if mode == "coverage":
        a = np.sum(g * g, axis=2)
        b = np.sum(y[:, None, :] * g, axis=2)
        c = np.sum(y * y, axis=1)
        hits = [
            _contains(psi, a, b, c, rss_alt * _rss_factor(_REGION_F_THRESHOLDS[name](alpha, n), n))
            for name in methods
        ]
    else:
        min_rss_null = np.sum((y[:, None, :] - psi * g) ** 2, axis=2).min(axis=1)
        pairs = list(zip(min_rss_null.tolist(), rss_alt.tolist()))
        hits = []
        for name in methods:
            if name == "pointwise":
                p = [_f_p_value(_f_from_rss(r_null, r_alt, n), n) for r_null, r_alt in pairs]
                hits.append(rejections(p, NULL_SPEC, alpha))
            else:
                cutoff = chi2_quantile(1.0 - alpha, 1)
                stats = [_lrt_stat(r_null, r_alt, n) for r_null, r_alt in pairs]
                hits.append(np.array(stats, dtype=float) >= cutoff)
    return hits, int(np.count_nonzero(degenerate))


def _line_fit_rows(x, y):
    """ols_line_fit on each row: (b0, b1, rss_alt, degenerate) over B rows.

    A degenerate row (sxx == 0, b1 == 0 or b0 == 0) holds nan or inf or a
    zero coefficient, which the caller drops.
    """
    xbar = x.mean(axis=1)
    ybar = y.mean(axis=1)
    dx = x - xbar[:, None]
    sxx = np.sum(dx**2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = np.sum(dx * (y - ybar[:, None]), axis=1) / sxx
        b0 = ybar - b1 * xbar
        rss = np.sum((y - b0[:, None] - b1[:, None] * x) ** 2, axis=1)
    return b0, b1, rss, (sxx == 0.0) | (b1 == 0.0) | (b0 == 0.0)


def _regressor_rows(grid, x):
    """(B, m, n) regressors g[b, t] = grid[b, t] * x[b] + grid[b, t]**2."""
    return grid[:, :, None] * x[:, None, :] + (grid * grid)[:, :, None]


def _contains(psi, a, b, c, rss_threshold):
    """_accepted_psi(y, g, rss_threshold).contains(psi) for each row.

    ``a`` and ``b`` are (B, m), ``c`` and ``rss_threshold`` (B,).  A row
    contains psi when its RSS is flat and at most the threshold next to a
    flat proxy row, or when some curved proxy row's interval holds psi.
    """
    whole_line = (c <= rss_threshold) & (a == 0.0).any(axis=1)
    disc = b * b - a * (c - rss_threshold)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(disc)
        lo = (b - root) / a
        hi = (b + root) / a
    inside = (a != 0.0) & (disc >= 0.0) & (lo <= psi) & (psi <= hi)
    return whole_line | inside.any(axis=1)
