"""Special-function kernels, in pure Python.

Scalar regularized incomplete gamma and beta functions.  These back every
CDF in :mod:`pwreject.distributions`.  The split between series and
continued fraction follows the classical recipe: series for the region
where it converges fast, Lentz continued fraction elsewhere.  ``BACKEND``
names the implementation and is exported as ``pwreject.KERNEL_BACKEND``.
"""

import math

__all__ = ["BACKEND", "reg_lower_gamma", "reg_inc_beta"]

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300

BACKEND = "python"


def reg_lower_gamma(s, x):
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s)."""
    if not s > 0.0:
        raise ValueError("shape parameter must be positive, got %r" % (s,))
    if not x >= 0.0:
        raise ValueError("argument must be nonnegative, got %r" % (x,))
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - _gamma_cf(s, x)


def _gamma_series(s, x):
    # sum_{k>=0} x^k / (s (s+1) ... (s+k)), scaled by x^s e^-x / Gamma(s)
    term = 1.0 / s
    total = term
    a = s
    for _ in range(_MAX_ITER):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    log_scale = s * math.log(x) - x - math.lgamma(s)
    return total * math.exp(log_scale)


def _gamma_cf(s, x):
    # Upper tail Q(s, x) by modified Lentz continued fraction.
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    log_scale = s * math.log(x) - x - math.lgamma(s)
    return math.exp(log_scale) * h


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("beta parameters must be positive, got %r, %r" % (a, b))
    if not 0.0 <= x <= 1.0:
        raise ValueError("argument must lie in [0, 1], got %r" % (x,))
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Symmetry switch keeps the continued fraction in its fast-converging zone.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a, b, x):
    # Modified Lentz evaluation of the standard incomplete-beta fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h
