"""Per-point references for the closed-form model tests.

The procedure rejects a composite null iff every simple null theta =
theta_t in Theta0 is rejected at alpha'.  The references below give the
simple-null p-value at one test point, and the test points themselves, so
that :func:`pwreject.testing.pointwise_test` over them is that definition
written out; the tests check every model's closed-form test against it.

Each statistic is written out here: the line and reparameterization fits,
the F statistic, the degenerate-fit tolerance and the projections share no
helper with the code they check.  Only public names of ``pwreject`` are
imported: the distribution functions, the decision rules, ``NullSpec``,
``ols3_fit`` (the lstsq fit the or_null batch falls back to) and
``DegenerateFitError``.
"""

import math

import numpy as np

from pwreject.alpha_prime import NullSpec
from pwreject.distributions import chi2_cdf, chi2_quantile, f_cdf, t_quantile
from pwreject.models.linear_or import ols3_fit
from pwreject.models.nuisance import DegenerateFitError
from pwreject.testing import decide, lrt_decision_subspace

# The boundaryless null {theta4 = theta5 = 0} of the 5-d normal mean: the
# pointwise test at the projection equals the traditional chi2_2 LRT there.
SUBSPACE_SPEC = NullSpec(d1=5, d0=3, has_boundary=False)
# A line fit is degenerate when its covariate, slope or intercept is within
# 16 eps of the data's magnitude, the rounding that centring leaves.
_DEGENERATE_RTOL = 16.0 * np.finfo(float).eps


def _f_statistic(rss_null, rss_alt, df_den):
    """F of two linear restrictions, at least 0; infinite for a perfect full fit
    that the restricted model misses."""
    if rss_alt == 0.0:
        return 0.0 if rss_null == 0.0 else math.inf
    return max(0.0, rss_null - rss_alt) / 2.0 / (rss_alt / df_den)


# alpha' ----------------------------------------------------------------------


def boundary_balance_residual(alpha, spec, ap):
    """Residual of the boundary-case defining equation at a candidate alpha'.

    Uses the convention F_{chi2_0}(.) = 1 when d0 = d1.
    """
    q = chi2_quantile(1.0 - ap, spec.d1)
    dg = spec.d1 - spec.d0
    first = 1.0 if dg == 0 else chi2_cdf(q, dg)
    return 0.5 * (first + chi2_cdf(q, dg + 1)) - (1.0 - alpha)


# normal_mean -----------------------------------------------------------------


def reject_region_halfwidth(sample, alpha):
    """The closed-form widening t_{1-alpha, n-1} * s / sqrt(n)."""
    return t_quantile(1.0 - alpha, sample.n - 1) * (sample.sd / math.sqrt(sample.n))


# linear_or -------------------------------------------------------------------


def f_point_p_value(data, b1t, b2t, fit=None):
    """F-test p-value for the simple null (b1, b2) = (b1t, b2t), intercept free."""
    if fit is None:
        fit = ols3_fit(data)
    z = data.y - b1t * data.x1 - b2t * data.x2
    rss_null = float(np.sum((z - z.mean()) ** 2))
    return 1.0 - f_cdf(_f_statistic(rss_null, fit.rss, data.n - 3), 2, data.n - 3)


def boundary_test_points(fit, m_prime):
    """The 2*m_prime boundary points, j-th at 2*beta_hat*j/(m_prime + 1)."""
    b1, b2 = fit.coefficients[1], fit.coefficients[2]
    fracs = np.arange(1, m_prime + 1) / (m_prime + 1.0)
    points = [(2.0 * b1 * f, 0.0) for f in fracs]
    points += [(0.0, 2.0 * b2 * f) for f in fracs]
    return points


# nuisance --------------------------------------------------------------------


def ols_line_fit(data):
    """Simple-regression OLS: returns (b0_hat, b1_hat, rss_alt)."""
    xbar = data.x.mean()
    ybar = data.y.mean()
    sxx = float(np.sum((data.x - xbar) ** 2))
    if math.sqrt(sxx / data.n) <= _DEGENERATE_RTOL * np.max(np.abs(data.x)):
        raise DegenerateFitError("covariate is constant")
    b1 = float(np.sum((data.x - xbar) * (data.y - ybar)) / sxx)
    b0 = ybar - b1 * xbar
    rss = float(np.sum((data.y - b0 - b1 * data.x) ** 2))
    return b0, b1, rss


def fit_psi_phi(data):
    """MLEs (psi_hat, phi_hat) = (b1_hat**2 / b0_hat, b0_hat / b1_hat).

    b1_hat or b0_hat zero up to rounding raises: b1 through the root mean
    square of b1 * (x - mean x), b0 after adding |b1| times the largest |x|,
    each against the tolerance times the largest |y|.
    """
    b0, b1, _ = ols_line_fit(data)
    sxx = np.sum((data.x - data.x.mean()) ** 2)
    tol = _DEGENERATE_RTOL * np.max(np.abs(data.y))
    if (abs(b1) * math.sqrt(sxx / data.n) <= tol
            or abs(b0) <= tol + _DEGENERATE_RTOL * abs(b1) * np.max(np.abs(data.x))):
        raise DegenerateFitError("OLS estimates give a singular reparameterization")
    return b1 * b1 / b0, b0 / b1


def f_stat(data, psi0, phi_t, rss_alt=None):
    """F statistic of the simple null (psi, phi) = (psi0, phi_t)."""
    if rss_alt is None:
        _, _, rss_alt = ols_line_fit(data)
    pred = psi0 * phi_t * data.x + psi0 * phi_t * phi_t
    rss_null = float(np.sum((data.y - pred) ** 2))
    return _f_statistic(rss_null, rss_alt, data.n - 2)


def f_stat_p_value(data, psi0, phi_t, rss_alt=None):
    return 1.0 - f_cdf(f_stat(data, psi0, phi_t, rss_alt), 2, data.n - 2)


# mvn_ball --------------------------------------------------------------------


def project_to_subspace(ybar):
    """Projection onto {theta4 = theta5 = 0} (no ball constraint)."""
    out = np.array(ybar, dtype=float)
    out[3:] = 0.0
    return out


def project_to_null(ybar):
    """Euclidean projection of a mean vector onto the ball-and-subspace null."""
    out = project_to_subspace(ybar)
    norm = np.linalg.norm(out[:3])
    if norm > 1.0:
        out[:3] /= norm
    return out


def mvn_simple_p_value(sample, theta_t):
    """Exact LRT p-value for H0: theta = theta_t under known I_5 covariance."""
    ybar = sample.rows.mean(axis=0)
    stat = sample.n * float(np.sum((ybar - np.asarray(theta_t)) ** 2))
    return 1.0 - chi2_cdf(stat, ybar.size)


def subspace_neg2_log_lambda(sample):
    """Exact -2 log LRT statistic for the subspace null: n*(ybar4^2 + ybar5^2)."""
    ybar = sample.rows.mean(axis=0)
    return sample.n * float(ybar[3] ** 2 + ybar[4] ** 2)


def subspace_pointwise_test(sample, alpha):
    """Pointwise test of the boundaryless null {theta4 = theta5 = 0}."""
    p = mvn_simple_p_value(sample, project_to_subspace(sample.rows.mean(axis=0)))
    return decide(p, SUBSPACE_SPEC, alpha, 1)


def subspace_lrt_test(sample, alpha):
    """Traditional LRT for the subspace null (exact under known covariance)."""
    return lrt_decision_subspace(subspace_neg2_log_lambda(sample), SUBSPACE_SPEC, alpha)
