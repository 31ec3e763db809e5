"""Nonlinear regression with a nuisance parameter.

Model: y = psi * phi * x + psi * phi**2 + noise, with interest in psi and
nuisance phi.  Simple nulls H0: (psi, phi) = (psi0, phi_t) are tested with
a finite-sample F statistic against the unrestricted OLS line; composite
inference on psi runs over a grid of proxy phi values around phi_hat.

For a fixed phi_t the restricted RSS is quadratic in psi0, so the
acceptance set {psi0 : F <= threshold} is an interval in closed form.

The statistics are written once, as array functions over (B, n) stacks
of datasets, for both methods at once: the smallest RSS_null - RSS_alt
over the proxy grid for the tests, from a few sums of the OLS line, and
the acceptance intervals for the regions.  :func:`decide_batch` runs them
on a whole stack; it is what the Monte Carlo harness calls.  The
per-dataset tests and regions are one-row calls of them that read their
own method's values.  The tests check them
against :func:`pwreject.testing.pointwise_test` over the proxy grid with a
per-point F-test p-value and a line fit of their own
(``tests/references.py``).

Both tests reject iff their max p is at most their level, ties included:
the F p-value at the smallest F against alpha', and the LRT's chi2_1
p-value of n * log(RSS_null / RSS_alt) (``_lrt_p_value``) against alpha.
Every test and region takes alpha in (0, 1), where both the pointwise
alpha' (the null has no boundary) and the LRT region's chi-square cutoff
exist.
"""

import math
from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import NullSpec, _check_level, alpha_prime
from pwreject.distributions import chi2_cdf, chi2_quantile, f_quantile
from pwreject.regions import Region1D
from pwreject.testing import TestDecision, _excess_ratio, decide, p_value, rejections

__all__ = [
    "XYData",
    "DegenerateFitError",
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
# Floats of the proxy regressors g a region forms at a time (512 KB): as
# many proxy points as fit, and at least one, so that g and one product of
# it (1 MB) stay in a 2 MB per-core L2 cache.  Each a[b, t] and b[b, t] is
# the same sum along n whatever the slice, so the endpoints keep their bits.
_REGRESSOR_FLOATS = 2**16


class DegenerateFitError(ValueError):
    """OLS estimates make the (psi, phi) reparameterization singular."""


# Why a fit is degenerate, keyed by the flag ``_line_fit_rows`` gives its row.
_DEGENERATE = {1: "covariate is constant", 2: "OLS estimates give a singular reparameterization"}
# Centring a constant covariate leaves rounding noise of up to a few eps of
# its magnitude (about 3.1 eps seen for n up to 1e5), not exact zeros.
_CONSTANT_RTOL = 16.0 * np.finfo(float).eps


def _constant_covariate(x, sxx):
    """Whether x, with centred sum of squares sxx, is constant up to rounding.

    True when the root mean square of the centred values is within
    ``_CONSTANT_RTOL`` of the largest |x|; along the last axis of ``x``.
    """
    return np.sqrt(sxx / x.shape[-1]) <= _CONSTANT_RTOL * np.max(np.abs(x), axis=-1)


def _singular_fit(x, y, sxx, b0, b1):
    """Whether the OLS slope b1 or intercept b0 is zero up to rounding.

    Each is compared with ``_CONSTANT_RTOL`` times the largest |y|, the
    size of the rounding in y's centred values and in its mean: b1 through
    the root mean square of b1 * (x - mean x), as when y is constant, and
    b0 after adding |b1| times the largest |x|, which bounds the other
    term of b0 = mean y - b1 * mean x.  Along the last axis of ``x`` and
    ``y``, with ``sxx`` the centred sum of squares of x.
    """
    tol = _CONSTANT_RTOL * np.abs(y).max(axis=-1)
    abs_b1 = np.abs(b1)
    slope_zero = abs_b1 * np.sqrt(sxx / x.shape[-1]) <= tol
    intercept_zero = np.abs(b0) <= tol + _CONSTANT_RTOL * abs_b1 * np.abs(x).max(axis=-1)
    return slope_zero | intercept_zero


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


def proxy_phi_grid(phi_hat, n, m, width_mult):
    """m midpoints of equal cells spanning phi_hat +- width_mult / sqrt(n)."""
    if not 0.0 < width_mult < math.inf:
        raise ValueError("the proxy window width must be positive and finite, got %r"
                         % (width_mult,))
    w = width_mult / math.sqrt(n)
    return phi_hat - w + 2.0 * w * (np.arange(1, m + 1) - 0.5) / m


def psi_region_F(data, alpha, m, width_mult=REGION_WIDTH):
    """Pointwise confidence region for psi from the finite-sample F test."""
    return _region(data, "pointwise", alpha, m, width_mult)


def psi_region_LRT(data, alpha, m):
    """Large-sample LRT baseline region over the default proxy grid."""
    return _region(data, "lrt", alpha, m, REGION_WIDTH)


def _region(data, method, alpha, m, width_mult):
    """The region built from the endpoints of ``data`` as a one-row stack."""
    rows = _one_row(data, "coverage", None, alpha, m, width_mult)
    whole_line, lo, hi, curved = (v[0] for v in rows[method])
    if whole_line:
        return Region1D([(-math.inf, math.inf)])
    return Region1D(zip(lo[curved].tolist(), hi[curved].tolist()))


def psi_pointwise_test(data, psi0, alpha, m):
    """Test H0: psi = psi0 by pointwise rejection over proxy phi values."""
    _check_psi(psi0)
    (f_stat,) = _one_row(data, "test", psi0, alpha, m, TEST_WIDTH)["pointwise"]
    return decide(p_value(f_stat, NULL_SPEC, data.n - 2), NULL_SPEC, alpha, m)


def psi_lrt_test(data, psi0, alpha, m):
    """LRT baseline: reject when the chi2_1 p-value of n*log(RSS_null / RSS_alt)
    is at most alpha at every proxy point."""
    _check_psi(psi0)
    _check_level(alpha)
    (ratio,) = _one_row(data, "test", psi0, alpha, m, TEST_WIDTH)["lrt"]
    return TestDecision(_lrt_p_value(ratio, data.n), alpha, m)


def _check_psi(psi):
    """Refuse a psi that is not a point of the real line."""
    if not math.isfinite(psi):
        raise ValueError("psi must be finite, got %r" % (psi,))


def _one_row(data, *args):
    """``_statistic_rows`` on ``data`` as a one-row stack; a degenerate fit raises."""
    flag, out = _statistic_rows(data.x[None], data.y[None], *args)
    if flag[0]:
        raise DegenerateFitError(_DEGENERATE[flag[0]])
    return out


def _lrt_p_value(ratio, n):
    """The chi2_1 p-value of n * log(RSS_null / RSS_alt), from (RSS_null - RSS_alt) / RSS_alt."""
    return 1.0 - chi2_cdf(n * math.log1p(ratio), 1)


def _region_rss_factor(method, alpha, n):
    """The factor with RSS_null <= RSS_alt * factor  <=>  psi0 is in the method's region."""
    _check_level(alpha)
    if method == "pointwise":
        f_threshold = f_quantile(1.0 - alpha_prime(alpha, NULL_SPEC), 2, n - 2)
    else:
        f_threshold = (n - 2) / 2.0 * (math.exp(chi2_quantile(1.0 - alpha, 2) / n) - 1.0)
    return 1.0 + 2.0 * f_threshold / (n - 2)


def decide_batch(x, y, mode, alpha, m, psi):
    """Decisions of both nuisance methods on every dataset of a stack.

    ``x`` and ``y`` are (B, n) arrays; row b holds dataset b.  The methods
    are ``BATCH_METHODS``, in that order.  In ``mode`` "coverage" a method's
    entry says whether its region (``psi_region_F`` for "pointwise",
    ``psi_region_LRT`` for "lrt") contains ``psi``; in ``mode`` "test" it
    says whether its test (``psi_pointwise_test``, ``psi_lrt_test``)
    rejects H0: psi = ``psi``.  Each uses the per-dataset function's
    default proxy window and ``m`` proxy points.

    Returns ``(hits, flagged)``: one bool array of length B per method of
    ``BATCH_METHODS``, and the bool array of length B that marks the
    datasets whose fit is degenerate (constant x, or b1_hat or b0_hat zero
    up to rounding, where the per-dataset functions raise
    :class:`DegenerateFitError`).  A flagged row hits for no method; on
    every other row b the hits equal the per-dataset results on
    ``XYData(x[b], y[b])``, which are one-row calls of the same
    ``_statistic_rows``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("x and y must be (B, n) arrays of equal shape")
    if x.shape[1] < 3:
        raise ValueError("need n >= 3 observations")
    if mode not in ("coverage", "test"):
        raise ValueError("unknown mode %r" % (mode,))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite (no nan or inf)")
    _check_psi(psi)
    width = REGION_WIDTH if mode == "coverage" else TEST_WIDTH
    flag, rows = _statistic_rows(x, y, mode, psi, alpha, m, width)
    if mode == "coverage":
        hits = [whole_line | (curved & (lo <= psi) & (psi <= hi)).any(axis=1)
                for whole_line, lo, hi, curved in (rows[name] for name in BATCH_METHODS)]
    else:
        n, ap = x.shape[1], alpha_prime(alpha, NULL_SPEC)
        hits = [rejections(rows["pointwise"], p_value, ap, NULL_SPEC, n - 2),
                rejections(rows["lrt"], _lrt_p_value, alpha, n)]
    kept = flag == 0
    return [row_hits & kept for row_hits in hits], ~kept


def _line_fit_rows(x, y):
    """The OLS line of each dataset of a (B, n) stack.

    Returns ``(flag, b0, b1, xbar, sxx, rss_alt)``: the line, the mean and
    centred sum of squares of x and the residual sum of squares, each (B,).
    ``flag`` is 0 for a row whose fit is not degenerate and otherwise keys
    its reason in ``_DEGENERATE``; such a row is fitted as the line 1 + x,
    so that every value stays finite, and what is computed from it means
    nothing.  The fit rounds as ``np.mean`` and ``np.sum`` of one dataset.
    """
    # Sums divided by n round as np.mean and np.sum of one dataset do.
    n = x.shape[1]
    xbar = x.sum(axis=1) / n
    ybar = y.sum(axis=1) / n
    dx = x - xbar[:, None]
    sxx = (dx * dx).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = (dx * (y - ybar[:, None])).sum(axis=1) / sxx
        b0 = ybar - b1 * xbar
    flag = np.where(_constant_covariate(x, sxx), 1,
                    np.where(_singular_fit(x, y, sxx, b0, b1), 2, 0))
    b0, b1 = np.where(flag == 0, b0, 1.0), np.where(flag == 0, b1, 1.0)
    residuals = y - b0[:, None] - b1[:, None] * x
    rss_alt = (residuals * residuals).sum(axis=1)
    return flag, b0, b1, xbar, sxx, rss_alt


def _statistic_rows(x, y, mode, psi0, alpha, m, width_mult):
    """What both methods compute on each dataset of a (B, n) stack.

    Returns ``(flag, out)`` with ``flag`` from ``_line_fit_rows`` and, per
    name in ``BATCH_METHODS``, its values per row; those of a flagged row
    mean nothing.  In ``mode`` "test", for H0: psi = psi0 at the smallest
    RSS_null over the proxy grid: the F statistic for "pointwise" and the
    ratio (RSS_null - RSS_alt) / RSS_alt for "lrt"; alpha is not read.  The
    OLS residuals are orthogonal to 1 and x, so with d = psi0 * phi_t - b1,
    RSS_null - RSS_alt = sxx * d**2 + n * (d * xbar + psi0 * phi_t**2 -
    b0)**2, on (B, m) arrays.  In ``mode`` "coverage": the
    ``_endpoints`` of the method's region at level alpha, with
    RSS_null(psi0, phi_t) = a*psi0**2 - 2*b*psi0 + c at each proxy point,
    from the regressors g = phi_t * x + phi_t**2, formed (B, k, n) for k
    proxy points at a time (``_REGRESSOR_FLOATS``).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    flag, b0, b1, xbar, sxx, rss_alt = _line_fit_rows(x, y)
    n = y.shape[1]
    grid = proxy_phi_grid((b0 / b1)[:, None], n, m, width_mult)
    if mode == "test":
        slope_gap = psi0 * grid - b1[:, None]
        level_gap = slope_gap * xbar[:, None] + psi0 * grid * grid - b0[:, None]
        excess = (sxx[:, None] * slope_gap**2 + n * level_gap**2).min(axis=1)
        ratio = _excess_ratio(excess, rss_alt)
        return flag, {"pointwise": ratio * ((n - 2) / 2.0), "lrt": ratio}
    a, b = np.empty_like(grid), np.empty_like(grid)
    k = max(1, _REGRESSOR_FLOATS // y.size)
    for lo in range(0, m, k):
        cols = grid[:, lo:lo + k]
        g = cols[:, :, None] * x[:, None, :]
        g += (cols * cols)[:, :, None]
        a[:, lo:lo + k] = np.sum(g * g, axis=2)
        b[:, lo:lo + k] = np.sum(y[:, None, :] * g, axis=2)
    c = np.sum(y * y, axis=1)
    return flag, {name: _endpoints(a, b, c, rss_alt * _region_rss_factor(name, alpha, n))
                  for name in BATCH_METHODS}


def _endpoints(a, b, c, rss_threshold):
    """The psi0 with a*psi0**2 - 2*b*psi0 + c <= rss_threshold, per proxy point.

    ``a`` and ``b`` are (B, m), ``c`` and ``rss_threshold`` (B,).  Returns
    ``(whole_line, lo, hi, curved)``.  Row b accepts every psi0 when
    ``whole_line[b]``: its RSS is flat (a == 0) at some proxy point and at
    most the threshold there.  Otherwise it accepts the union of the
    intervals [lo[b, t], hi[b, t]] over the proxy points t with
    ``curved[b, t]`` (a != 0 and real roots); a flat point over the
    threshold accepts nothing.
    """
    whole_line = (c <= rss_threshold) & (a == 0.0).any(axis=1)
    disc = b * b - a * (c - rss_threshold)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(disc)
        lo = (b - root) / a
        hi = (b + root) / a
    return whole_line, lo, hi, (a != 0.0) & (disc >= 0.0)
