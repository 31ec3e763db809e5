"""Independent numerical oracles for the test suite.

Everything here is deliberately written without touching the package's own
kernels: CDFs come from adaptive Simpson quadrature of the gamma/beta
densities (normalizing constants from math.lgamma), quantiles from plain
bisection over those quadrature CDFs, and high-precision reference values
from mpmath where available.  Agreement between the package and these
oracles is evidence, not circularity.
"""

import math

import mpmath

_EPS = 1e-12


def _simpson(f, a, b, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * _EPS:
        return left + right + (left + right - whole) / 15.0
    return _simpson(f, a, m, fa, flm, fm, left, depth - 1) + _simpson(
        f, m, b, fm, frm, fb, right, depth - 1
    )


def adaptive_quad(f, a, b, depth=50):
    """Adaptive Simpson integral of f over [a, b]."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(f, a, b, fa, fm, fb, whole, depth)


def gamma_cdf_quad(s, x):
    """Regularized lower incomplete gamma P(s, x) by quadrature.

    Valid for s >= 1/2 (every chi-square df >= 1).  The integrable
    singularity at t = 0 for s < 1 is removed by substituting t = u**2.
    """
    if x <= 0.0:
        return 0.0
    lognorm = math.lgamma(s)

    def density(t):
        if t <= 0.0:
            return 0.0 if s > 1.0 else math.exp(-lognorm)
        return math.exp((s - 1.0) * math.log(t) - t - lognorm)

    # Split at the mode to keep the integrand smooth per panel.
    mode = max(s - 1.0, 0.0)
    pieces = sorted({0.0, min(x, max(mode, 1.0)), x})
    total = 0.0
    lo = pieces[0]
    for hi in pieces[1:]:
        if lo == 0.0 and s < 1.0:
            # t = u**2: integrand 2 * u**(2s-1) * exp(-u**2), smooth for s >= 1/2.
            def head(u):
                if u == 0.0:
                    return 2.0 * math.exp(-lognorm) if s == 0.5 else 0.0
                return 2.0 * math.exp(
                    (2.0 * s - 1.0) * math.log(u) - u * u - lognorm
                )

            total += adaptive_quad(head, 0.0, math.sqrt(hi))
        else:
            total += adaptive_quad(density, lo, hi)
        lo = hi
    return min(total, 1.0)


def beta_cdf_quad(a, b, x):
    """Regularized incomplete beta I_x(a, b) by quadrature.

    Valid for a, b >= 1/2; the endpoint singularity at t = 0 for a < 1 is
    removed by the substitution t = u**2 (x < 1 keeps t = 1 out of range
    except through the symmetry flip below).
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if b < 1.0 and x > 0.5:
        # Flip so the singular endpoint (if any) sits at t = 0.
        return 1.0 - beta_cdf_quad(b, a, 1.0 - x)
    lognorm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if t <= 0.0:
            return 0.0 if a > 1.0 else math.exp(-lognorm)
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - lognorm)

    if a < 1.0:
        def head(u):
            if u == 0.0:
                return 2.0 * math.exp(-lognorm) if a == 0.5 else 0.0
            return 2.0 * math.exp(
                (2.0 * a - 1.0) * math.log(u)
                + (b - 1.0) * math.log1p(-u * u)
                - lognorm
            )

        return min(adaptive_quad(head, 0.0, math.sqrt(x)), 1.0)
    return min(adaptive_quad(density, 0.0, x), 1.0)


def quantile_by_bisection(cdf, p, lo=0.0, hi=1.0):
    """Invert a monotone CDF by bracket doubling plus bisection."""
    while cdf(hi) < p:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise ArithmeticError("failed to bracket oracle quantile")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# Quadrature-backed distribution oracles -----------------------------------

def chi2_cdf_quad(x, nu):
    return gamma_cdf_quad(0.5 * nu, 0.5 * x)


def chi2_quantile_quad(p, nu):
    return quantile_by_bisection(lambda x: chi2_cdf_quad(x, nu), p, 0.0, max(1.0, nu))


def f_cdf_quad(x, d1, d2):
    if x <= 0.0:
        return 0.0
    return beta_cdf_quad(0.5 * d1, 0.5 * d2, d1 * x / (d1 * x + d2))


def f_quantile_quad(p, d1, d2):
    return quantile_by_bisection(lambda x: f_cdf_quad(x, d1, d2), p, 0.0, 2.0)


def t_cdf_quad(x, nu):
    if x == 0.0:
        return 0.5
    tail = 0.5 * beta_cdf_quad(0.5 * nu, 0.5, nu / (nu + x * x))
    return 1.0 - tail if x > 0.0 else tail


def t_quantile_quad(p, nu):
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile_quad(1.0 - p, nu)
    return quantile_by_bisection(lambda x: t_cdf_quad(x, nu), p, 0.0, 2.0)


# mpmath high-precision references ------------------------------------------

def mp_reg_lower_gamma(s, x):
    return float(mpmath.gammainc(s, 0, x, regularized=True))


def mp_reg_inc_beta(a, b, x):
    return float(mpmath.betainc(a, b, 0, x, regularized=True))


# Exact rejection rates --------------------------------------------------------

def ball_pointwise_rate(mu, n, alpha, dps=30):
    """Exact rejection rate of the ball pointwise test at theta = (mu, 0, 0, 0, 0).

    The statistic is T + (R - sqrt(n))_+^2 with T ~ chi2_2 and R the norm of
    the scaled head mean, a noncentral chi_3 with lambda = sqrt(n) * mu,
    independent.  The test rejects iff the statistic reaches q, the chi2_5
    quantile at 1 - alpha', which is the root of the boundary equation
    (F_chi2_2(q) + F_chi2_3(q)) / 2 = 1 - alpha.  So

        P = integral of f_R(r) * exp(-(q - (r - sqrt(n))_+^2)_+ / 2) dr,

    with f_R(r) = (r / lambda) * (phi(r - lambda) - phi(r + lambda)).
    Everything, q included, is computed here in mpmath.
    """
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(alpha)

        def chi2_cdf(x, k):
            return mpmath.gammainc(mpmath.mpf(k) / 2, 0, x / 2, regularized=True)

        lo, hi = mpmath.mpf(0), mpmath.mpf(200)
        for _ in range(4 * dps):  # bisection: the balance rises with q
            mid = (lo + hi) / 2
            if (chi2_cdf(mid, 2) + chi2_cdf(mid, 3)) / 2 < 1 - alpha:
                lo = mid
            else:
                hi = mid
        q = (lo + hi) / 2
        root_n = mpmath.sqrt(n)
        lam = root_n * mpmath.mpf(mu)

        def density(r):
            return r / lam * (mpmath.npdf(r - lam) - mpmath.npdf(r + lam))

        def integrand(r):
            head = max(r - root_n, 0) ** 2
            return density(r) * mpmath.exp(-max(q - head, 0) / 2)

        kinks = {root_n, root_n + mpmath.sqrt(q)}
        peak = {max(lam + k, 0) for k in (-10, -3, 0, 3, 10)}
        points = sorted({mpmath.mpf(0)} | kinks | peak) + [mpmath.inf]
        return float(mpmath.quad(integrand, points))
