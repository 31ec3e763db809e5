"""Generic pointwise-rejection test engine.

A simple-null tester is any callable ``tester(point) -> p-value`` for
H0: theta = point on a fixed observed dataset.  The composite decision
compares the maximum p-value across test points with the modified level
alpha' (:func:`decide`).  Ties at the threshold reject.  A stack of
statistics whose max p is the survival function :func:`p_value` is
decided as "statistic >= c" (:func:`rejections`, :func:`critical_value`).
"""

import functools
from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import _check_level, alpha_prime
from pwreject.distributions import chi2_cdf, chi2_quantile, f_cdf

__all__ = ["TestDecision", "decide", "rejections", "critical_value", "p_value", "pointwise_test",
           "lrt_decision_subspace"]

# Within this relative distance of c, p_value may round out of order (a few
# ULPs of c for F(2, 17) and F(2, 97)), so the p-value decides there.
_NEAR = 1e-8


@dataclass(frozen=True)
class TestDecision:
    """Outcome of a composite test: reject iff max_p <= alpha_prime_used.

    n_points == 0 marks a closed-form decision over a continuum of test
    points rather than a finite list.  Fields are stored as Python
    ``bool``, ``float`` and ``int`` whatever numpy scalars the caller
    passes, so a decision serializes as JSON.
    """

    reject: bool
    max_p: float
    alpha_prime_used: float
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "reject", bool(self.reject))
        object.__setattr__(self, "max_p", float(self.max_p))
        object.__setattr__(self, "alpha_prime_used", float(self.alpha_prime_used))
        object.__setattr__(self, "n_points", int(self.n_points))


def decide(max_p, spec, alpha, n_points):
    """Reject iff max_p <= alpha' for the null geometry ``spec``."""
    ap = alpha_prime(alpha, spec)
    return TestDecision(max_p <= ap, max_p, ap, n_points)


def p_value(stat, spec, df_den):
    """The chi2_{d1} (``df_den`` None) or F(d1, df_den) survival function at ``stat``."""
    if df_den is None:
        return 1.0 - chi2_cdf(stat, spec.d1)
    return 1.0 - f_cdf(stat, spec.d1, df_den)


@functools.lru_cache(maxsize=256)
def critical_value(alpha, spec, df_den):
    """The statistic c with ``p_value(c) <= alpha'`` where the double below c fails it."""
    ap = alpha_prime(alpha, spec)
    return _least_double(lambda s: p_value(s, spec, df_den) <= ap)


def _least_double(holds):
    """The double x with ``holds(x)`` and not ``holds`` of the double below it,
    by bisection over the bit patterns of [0, inf], which are ordered as the
    doubles are; ``holds`` must fail at 0 and hold at inf."""
    lo, hi = 0, 0x7FF0000000000000  # the bits of 0.0 and of inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(float(np.int64(mid).view(np.float64))) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


def rejections(stat, spec, alpha, df_den):
    """:func:`decide`'s rule at the max p ``p_value(stat)`` over an array of statistics.

    A bool array: ``stat >= critical_value(...)``, with no CDF call except
    for a statistic within ``_NEAR`` of c, which its p-value decides.
    """
    c = critical_value(alpha, spec, df_den)
    reject = stat >= c
    for i in np.flatnonzero(np.abs(stat - c) <= _NEAR * c):
        reject[i] = p_value(stat[i], spec, df_den) <= alpha_prime(alpha, spec)
    return reject


def pointwise_test(tester, points, spec, alpha):
    """Composite test: reject iff every point's p-value is <= alpha'.

    That is the maximum p-value over the test points against alpha'.
    ``points`` may be any iterable; an empty one raises ``ValueError``.
    """
    p_values = list(map(tester, points))
    return decide(max(p_values), spec, alpha, len(p_values))


def lrt_decision_subspace(neg2_log_lambda, spec, alpha):
    """Traditional likelihood ratio test for a boundaryless null region.

    The caller supplies -2 log Lambda(Theta0, Theta1; x); rejection occurs
    at or above the chi2_{1-alpha, d1-d0} critical value, which needs
    alpha in (0, 1).
    """
    _check_level(alpha)
    if spec.has_boundary:
        raise ValueError("the traditional LRT applies only to boundaryless nulls")
    if not neg2_log_lambda >= 0.0:
        raise ValueError("-2 log Lambda must be nonnegative")
    dg = spec.d1 - spec.d0
    p = 1.0 - chi2_cdf(neg2_log_lambda, dg)
    # reject iff the statistic reaches the critical value, i.e. p <= alpha
    reject = neg2_log_lambda >= chi2_quantile(1.0 - alpha, dg)
    return TestDecision(reject, p, alpha, 0)


def _excess_ratio(excess, rss_alt):
    """(RSS_null - RSS_alt) / RSS_alt per element, from the excess RSS_null - RSS_alt >= 0.

    Times df_den / 2 it is the F statistic of two linear restrictions.  A
    zero excess gives 0, a positive one over RSS_alt = 0 gives inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(excess > 0.0, excess / rss_alt, 0.0)
