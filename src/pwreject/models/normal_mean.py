"""Interval null for a normal mean with unknown variance.

Tests H0: mu in [a, b] by pointwise rejection with two-tailed t-tests.
Over the continuum of test points the procedure collapses to a closed
form: reject when the sample mean falls outside the interval widened by
t_{1-alpha, n-1} * s / sqrt(n) on each side (alpha' = 2 * alpha since the
null is a full-dimensional manifold with boundary, d1 = d0 = 1).  The
Bonferroni baseline splits alpha over the two one-sided tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from pwreject.distributions import t_cdf, t_quantile
from pwreject.testing import TestDecision

__all__ = [
    "UnivariateSample",
    "t_p_value",
    "interval_null_test",
    "bonferroni_interval_test",
]


class DegenerateSampleError(ValueError):
    """Sample standard deviation is zero; the t statistic is undefined."""


@dataclass(frozen=True, eq=False)
class UnivariateSample:
    values: np.ndarray

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need a 1-d sample with at least two values")
        if not np.isfinite(arr).all():
            raise ValueError("sample values must be finite (no nan or inf)")
        object.__setattr__(self, "values", arr)

    @property
    def n(self):
        return self.values.size

    @property
    def mean(self):
        return float(self.values.mean())

    @property
    def sd(self):
        return float(self.values.std(ddof=1))


def t_p_value(sample, mu0):
    """Two-tailed t-test p-value for H0: mu = mu0."""
    se = _standard_error(sample)
    stat = abs(sample.mean - mu0) / se
    return 2.0 * (1.0 - t_cdf(stat, sample.n - 1))


def _standard_error(sample):
    s = sample.sd
    if s == 0.0:
        raise DegenerateSampleError("all sample values are identical")
    return s / math.sqrt(sample.n)


def _max_interval_p(sample, a, b):
    # The continuum max p-value is attained at the null point nearest the mean.
    xbar = sample.mean
    if a <= xbar <= b:
        return 1.0
    nearest = a if xbar < a else b
    return t_p_value(sample, nearest)


def interval_null_test(sample, a, b, alpha):
    """Pointwise-rejection test of H0: mu in [a, b] in closed form."""
    if a > b:
        raise ValueError("interval endpoints out of order: a > b")
    max_p = _max_interval_p(sample, a, b)
    ap = 2.0 * alpha
    return TestDecision(max_p <= ap, max_p, ap, 0)


def bonferroni_interval_test(sample, a, b, alpha):
    """Bonferroni baseline: each one-sided test at level alpha / 2.

    The reported p-value is the smaller one-sided p, compared against
    alpha / 2 with the same tie-rejects convention.
    """
    if a > b:
        raise ValueError("interval endpoints out of order: a > b")
    se = _standard_error(sample)
    xbar = sample.mean
    nu = sample.n - 1
    p_low = t_cdf((xbar - a) / se, nu)  # one-sided H0: mu >= a
    p_high = 1.0 - t_cdf((xbar - b) / se, nu)  # one-sided H0: mu <= b
    p = min(p_low, p_high)
    cut = alpha / 2.0
    return TestDecision(p <= cut, p, cut, 0)


def reject_region_halfwidth(sample, alpha):
    """The closed-form widening t_{1-alpha, n-1} * s / sqrt(n)."""
    return t_quantile(1.0 - alpha, sample.n - 1) * _standard_error(sample)
