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


def interval_pointwise_rate(mu, n, alpha, dps=20):
    """Exact rejection rate of the interval pointwise test of H0: mu in [0, 1], sigma = 1.

    With alpha' = 2 alpha, the test rejects iff the sample mean lies below
    a - t s / sqrt(n) or above b + t s / sqrt(n), with [a, b] = [0, 1] and
    t the t_{n-1} quantile at 1 - alpha.  The mean is N(mu, 1 / n) and
    independent of s, with (n - 1) s**2 ~ chi2_{n-1}, so

        P = E over s of Phi(sqrt(n) (a - mu) - t s) + 1 - Phi(sqrt(n) (b - mu) + t s).

    Everything, t included, is computed here in mpmath.
    """
    with mpmath.workdps(dps):
        nu = mpmath.mpf(n - 1)
        alpha = mpmath.mpf(alpha)

        def t_upper(t):  # P(T > t) for t >= 0
            return mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + t * t),
                                  regularized=True) / 2

        lo, hi = mpmath.mpf(0), mpmath.mpf(1000)
        for _ in range(4 * dps):  # bisection: the upper tail falls as t rises
            mid = (lo + hi) / 2
            if t_upper(mid) > alpha:
                lo = mid
            else:
                hi = mid
        t = (lo + hi) / 2
        root_n = mpmath.sqrt(n)
        a, b, mu = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(mu)
        log_norm = (nu / 2) * mpmath.log(2) + mpmath.loggamma(nu / 2)

        def integrand(u):  # u = (n - 1) s**2 ~ chi2_{n-1}
            if u == 0:
                return mpmath.mpf(0)
            s = mpmath.sqrt(u / nu)
            density = mpmath.exp((nu / 2 - 1) * mpmath.log(u) - u / 2 - log_norm)
            return density * (mpmath.ncdf(root_n * (a - mu) - t * s)
                              + 1 - mpmath.ncdf(root_n * (b - mu) + t * s))

        sd = mpmath.sqrt(2 * nu)
        points = sorted({mpmath.mpf(0)} | {max(nu + k * sd, 0) for k in (-10, -3, 0, 3, 10)})
        return float(mpmath.quad(integrand, points + [mpmath.inf]))


def nuisance_window_min_excess(x, y, psi0, half_width, dps=40):
    """Exact minimum of RSS_null - RSS_alt over the nuisance window, and RSS_alt.

    For H0: psi = psi0 on the data (x, y), with its own OLS line (b0, b1)
    in mpmath: with d = psi0 * phi - b1, RSS_null(psi0, phi) - RSS_alt =
    Sxx * d**2 + n * (d * xbar + psi0 * phi**2 - b0)**2, a quartic in phi.
    Its minimum over the window phi_hat +- half_width, phi_hat = b0 / b1,
    lies at a real root of its derivative, a cubic, or at an end.  Returns
    ``(minimum, rss_alt)`` as floats.
    """
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in x]
        y = [mpmath.mpf(float(v)) for v in y]
        n = len(x)
        xbar, ybar = mpmath.fsum(x) / n, mpmath.fsum(y) / n
        sxx = mpmath.fsum((xi - xbar) ** 2 for xi in x)
        b1 = mpmath.fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y)) / sxx
        b0 = ybar - b1 * xbar
        rss_alt = mpmath.fsum((yi - b0 - b1 * xi) ** 2 for xi, yi in zip(x, y))
        psi = mpmath.mpf(psi0)

        def excess(phi):
            d = psi * phi - b1
            return sxx * d * d + n * (d * xbar + psi * phi * phi - b0) ** 2

        # The quartic's coefficients, from d = u1 phi + u0 and the second
        # term's v2 phi**2 + v1 phi + v0.
        u1, u0 = psi, -b1
        v2, v1, v0 = psi, psi * xbar, -b1 * xbar - b0
        f4, f3 = n * v2 * v2, 2 * n * v2 * v1
        f2 = sxx * u1 * u1 + n * (v1 * v1 + 2 * v2 * v0)
        f1 = 2 * sxx * u1 * u0 + 2 * n * v1 * v0
        roots = mpmath.polyroots([4 * f4, 3 * f3, 2 * f2, f1], maxsteps=200, extraprec=2 * dps)
        phi_hat = b0 / b1
        lo, hi = phi_hat - half_width, phi_hat + half_width
        candidates = [lo, hi] + [mpmath.re(r) for r in roots
                                 if abs(mpmath.im(r)) <= mpmath.mpf(10) ** (-dps // 2)
                                 * (1 + abs(r)) and lo < mpmath.re(r) < hi]
        return float(min(excess(phi) for phi in candidates)), float(rss_alt)
