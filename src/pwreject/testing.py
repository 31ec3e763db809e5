"""Generic pointwise-rejection test engine.

A simple-null tester is any callable ``tester(point) -> p-value`` for
H0: theta = point on a fixed observed dataset.  The composite decision
compares the maximum p-value across test points with the modified level
alpha' (:func:`decide`, which the models call).  Ties at the threshold reject.
"""

from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import _check_level, alpha_prime
from pwreject.distributions import chi2_cdf, chi2_quantile, f_cdf

__all__ = ["TestDecision", "decide", "rejections", "pointwise_test", "lrt_decision_subspace"]


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


def rejections(max_p, spec, alpha):
    """:func:`decide`'s rule over an array of max p-values: a bool array."""
    return np.asarray(max_p, dtype=float) <= alpha_prime(alpha, spec)


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


def _f_test_p_value(rss_null, rss_alt, df_den):
    """p-value of the F test of two linear restrictions, from the restricted
    and the full residual sums of squares.

    F = max(0, RSS_null - RSS_alt) / 2 / (RSS_alt / df_den) against F(2,
    df_den); a perfect full fit gives p = 1 if the restricted one is perfect
    too and p = 0 otherwise.
    """
    if rss_alt == 0.0:
        return 1.0 if rss_null == 0.0 else 0.0
    f = max(0.0, rss_null - rss_alt) / 2.0 / (rss_alt / df_den)
    return 1.0 - f_cdf(f, 2, df_den)
