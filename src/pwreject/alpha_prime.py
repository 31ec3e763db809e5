"""Modified significance level for the pointwise-rejection procedure.

The composite null H0: theta in Theta0 is rejected when every simple null
H0: theta = theta_t is rejected at an inflated level alpha'.  The formula
for alpha' depends on whether the null region is a manifold without
boundary (equality constraints only) or with boundary (an additional
scalar inequality constraint).

alpha' depends only on (alpha, NullSpec), never on the data, so both
formulas are memoized per process: the first call for a given level and
geometry computes it, later calls return the stored value.  A call that
raises is not stored, so an invalid level raises on every call.

A level is legal where its critical value exists: alpha in (0, 1/2) for a
null with a boundary, alpha in (0, 1) for one without.  alpha = 1 is
refused, and so is a level at or below 2**-54, where 1 - alpha rounds to 1.
"""

import functools
import operator
from dataclasses import dataclass

from pwreject.distributions import chi2_cdf, chi2_quantile

__all__ = [
    "NullSpec",
    "alpha_prime",
    "alpha_prime_no_boundary",
    "alpha_prime_with_boundary",
]

_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class NullSpec:
    """Geometry of the null region: ambient dimension d1, null dimension d0,
    and whether the region has a boundary."""

    d1: int
    d0: int
    has_boundary: bool = False

    def __post_init__(self):
        _check_integers(self, "d1", "d0")
        if self.d1 < 1:
            raise ValueError("d1 must be >= 1, got %r" % (self.d1,))
        if not 0 <= self.d0 <= self.d1:
            raise ValueError("d0 must satisfy 0 <= d0 <= d1, got %r" % (self.d0,))
        if not self.has_boundary and self.d0 == self.d1:
            raise ValueError(
                "a full-dimensional null region without boundary admits no test"
            )


@functools.lru_cache(maxsize=128)
def alpha_prime_no_boundary(alpha, spec):
    """alpha' for a null region that is a manifold without boundary.

    Chosen so the chi2_{d1} critical value at level alpha' coincides with
    the chi2_{d1-d0} critical value at level alpha, for alpha in (0, 1).
    """
    _check_level(alpha)
    if spec.has_boundary:
        raise ValueError("spec has a boundary; use alpha_prime_with_boundary")
    if spec.d0 == 0:
        # The quantile and CDF cancel exactly when the null is a point.
        return alpha
    q = chi2_quantile(1.0 - alpha, spec.d1 - spec.d0)
    return 1.0 - chi2_cdf(q, spec.d1)


@functools.lru_cache(maxsize=128)
def alpha_prime_with_boundary(alpha, spec):
    """alpha' for a null region that is a manifold with boundary.

    Solves, in the chi2_{d1} critical value q,

        (F_{chi2_{dg}}(q) + F_{chi2_{dg+1}}(q)) / 2 = 1 - alpha,

    with dg = d1 - d0, then maps q back to alpha'.  When d0 = d1 the first
    term is identically one and the closed form alpha' =
    1 - F_{chi2_{d1}}(chi2_{1-2*alpha, 1}) applies; it is 2 * alpha exactly
    at d1 = 1.  alpha >= 1/2 has no solution.
    """
    _check_level(alpha, 0.5)
    if not spec.has_boundary:
        raise ValueError("spec has no boundary; use alpha_prime_no_boundary")
    if spec.d0 == spec.d1 == 1:
        # The quantile and CDF cancel exactly when the null is an interval.
        return 2.0 * alpha
    if spec.d0 == spec.d1:
        q = chi2_quantile(1.0 - 2.0 * alpha, 1)
        return 1.0 - chi2_cdf(q, spec.d1)
    dg = spec.d1 - spec.d0
    target = 1.0 - alpha

    def balance(q):
        return 0.5 * (chi2_cdf(q, dg) + chi2_cdf(q, dg + 1))

    lo, hi = 0.0, 1.0
    while balance(hi) < target:
        lo = hi
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if balance(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi) and abs(balance(mid) - target) < _RESIDUAL_TOL:
            break
    q = 0.5 * (lo + hi)
    return 1.0 - chi2_cdf(q, spec.d1)


def alpha_prime(alpha, spec):
    """Dispatch on the null-region geometry."""
    if spec.has_boundary:
        return alpha_prime_with_boundary(alpha, spec)
    return alpha_prime_no_boundary(alpha, spec)


def _check_integers(obj, *names):
    """Refuse a named field of ``obj`` that is not an integer to ``operator.index``."""
    for name in names:
        value = getattr(obj, name)
        try:
            operator.index(value)
        except TypeError:
            raise TypeError("%s must be an integer, got %r" % (name, value)) from None


def _check_level(alpha, upper=1.0):
    """Refuse a level outside (0, upper), or at or below 2**-54, where 1 - alpha rounds to 1."""
    if not 0.0 < alpha < upper:
        raise ValueError("significance level must lie in (0, %g), got %r" % (upper, alpha))
    if alpha <= 2.0 ** -54:
        raise ValueError("significance level must lie in (2**-54, %g), got %r" % (upper, alpha))
