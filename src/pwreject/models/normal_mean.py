"""Interval null for a normal mean with unknown variance.

Tests H0: mu in [a, b] by pointwise rejection with two-tailed t-tests.
Over the continuum of test points the procedure collapses to a closed
form: the max p-value is the t-test's at the null point nearest the
sample mean, and :func:`pwreject.testing.decide` compares it with alpha'.
The null is a full-dimensional manifold with boundary (d1 = d0 = 1), so
alpha' = 2 * alpha and alpha must lie in (0, 1/2); the test rejects when
the sample mean falls outside the interval widened by
t_{1-alpha, n-1} * s / sqrt(n) on each side.  The Bonferroni baseline
splits alpha over the two one-sided tests and takes alpha in (0, 1).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import NullSpec, _check_level
from pwreject.distributions import t_cdf
from pwreject.testing import TestDecision, decide

__all__ = [
    "UnivariateSample",
    "t_p_value",
    "interval_null_test",
    "bonferroni_interval_test",
]

NULL_SPEC = NullSpec(d1=1, d0=1, has_boundary=True)


class DegenerateSampleError(ValueError):
    """Sample standard deviation is zero; the t statistic is undefined."""


@dataclass(frozen=True, eq=False)
class UnivariateSample:
    """A 1-d sample of at least two values.

    ``values`` is a private read-only copy of the caller's array, so the
    mean and the standard deviation are computed once, on first use, and
    stay valid.
    """

    values: np.ndarray

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need a 1-d sample with at least two values")
        if not np.isfinite(arr).all():
            raise ValueError("sample values must be finite (no nan or inf)")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self):
        return self.values.size

    @functools.cached_property
    def mean(self):
        return float(self.values.mean())

    @functools.cached_property
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


def _check_interval(a, b):
    """Refuse a nan endpoint or a > b; an infinite endpoint makes a half-line null."""
    if math.isnan(a) or math.isnan(b):
        raise ValueError("interval endpoints must not be nan, got [%r, %r]" % (a, b))
    if a > b:
        raise ValueError("interval endpoints out of order: a > b")


def interval_null_test(sample, a, b, alpha):
    """Pointwise-rejection test of H0: mu in [a, b] in closed form."""
    _check_interval(a, b)
    return decide(_max_interval_p(sample, a, b), NULL_SPEC, alpha, 0)


def bonferroni_interval_test(sample, a, b, alpha):
    """Bonferroni baseline: each one-sided test at level alpha / 2.

    The reported p-value is the smaller one-sided p, compared against
    alpha / 2 with the same tie-rejects convention.
    """
    _check_interval(a, b)
    _check_level(alpha)
    se = _standard_error(sample)
    xbar = sample.mean
    nu = sample.n - 1
    p_low = t_cdf((xbar - a) / se, nu)  # one-sided H0: mu >= a
    p_high = 1.0 - t_cdf((xbar - b) / se, nu)  # one-sided H0: mu <= b
    p = min(p_low, p_high)
    cut = alpha / 2.0
    return TestDecision(p <= cut, p, cut, 0)
