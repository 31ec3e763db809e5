"""Chi-square, F, Student-t CDFs and quantiles, plus seeded RNG streams.

CDFs reduce to the regularized incomplete gamma/beta kernels.  Quantiles
invert the CDFs by bracket doubling followed by bisection; robustness is
preferred over speed since quantile calls are cached and not hot.
"""

import functools

import numpy as np

from pwreject.kernels import reg_inc_beta, reg_lower_gamma

__all__ = [
    "chi2_cdf",
    "chi2_quantile",
    "f_cdf",
    "f_quantile",
    "t_cdf",
    "t_quantile",
    "RngStream",
]

_X_TOL = 1e-13


def _check_df(nu, name="df"):
    if nu < 1:
        raise ValueError("%s must be >= 1, got %r" % (name, nu))


def _check_prob(p):
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie in (0, 1), got %r" % (p,))


def _invert_increasing(fn, p, lo, hi):
    """Solve fn(x) = p for monotone nondecreasing fn on [lo, hi] by bisection."""
    # Bracket by doubling the upper end until fn(hi) >= p.
    while fn(hi) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("failed to bracket quantile")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _X_TOL * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def chi2_cdf(x, nu):
    """CDF of the chi-square distribution with nu degrees of freedom."""
    _check_df(nu)
    if x < 0.0:
        raise ValueError("chi-square argument must be nonnegative, got %r" % (x,))
    return reg_lower_gamma(0.5 * nu, 0.5 * x)


@functools.lru_cache(maxsize=4096)
def chi2_quantile(p, nu):
    """Inverse chi-square CDF."""
    _check_prob(p)
    _check_df(nu)
    return _invert_increasing(lambda x: chi2_cdf(x, nu), p, 0.0, max(1.0, float(nu)))


def f_cdf(x, d_num, d_den):
    """CDF of the F distribution with (d_num, d_den) degrees of freedom."""
    _check_df(d_num, "numerator df")
    _check_df(d_den, "denominator df")
    if x < 0.0:
        raise ValueError("F argument must be nonnegative, got %r" % (x,))
    if x == 0.0:
        return 0.0
    z = d_num * x / (d_num * x + d_den)
    return reg_inc_beta(0.5 * d_num, 0.5 * d_den, z)


@functools.lru_cache(maxsize=4096)
def f_quantile(p, d_num, d_den):
    """Inverse F CDF."""
    _check_prob(p)
    _check_df(d_num, "numerator df")
    _check_df(d_den, "denominator df")
    return _invert_increasing(lambda x: f_cdf(x, d_num, d_den), p, 0.0, 2.0)


def t_cdf(x, nu):
    """CDF of Student's t distribution with nu degrees of freedom."""
    _check_df(nu)
    if x == 0.0:
        return 0.5
    tail = 0.5 * reg_inc_beta(0.5 * nu, 0.5, nu / (nu + x * x))
    return 1.0 - tail if x > 0.0 else tail


@functools.lru_cache(maxsize=4096)
def t_quantile(p, nu):
    """Inverse Student-t CDF."""
    _check_prob(p)
    _check_df(nu)
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, nu)
    return _invert_increasing(lambda x: t_cdf(x, nu), p, 0.0, 2.0)


class RngStream:
    """Seeded random stream, derivable from (master seed, stream index).

    Backed by numpy's PCG64 generator seeded through a SeedSequence with the
    stream index as spawn key, so disjoint indices give statistically
    independent substreams and identical (seed, index) pairs reproduce the
    same draws.  Normal variates use numpy's ziggurat sampler.  A stream is
    single-owner: never share one across concurrent contexts.
    """

    def __init__(self, master_seed, index=0):
        self.master_seed = int(master_seed)
        self.index = int(index)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.index,))
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def standard_normal(self, size=None):
        """i.i.d. N(0, 1) draws (scalar when size is None)."""
        out = self.generator.standard_normal(size)
        return float(out) if size is None else out
