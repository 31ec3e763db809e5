"""'Or'-linked null in a three-parameter linear regression.

Model: y = b0 + b1*x1 + b2*x2 + noise.  The null H0: b1 <= 0 or b2 <= 0
is a full-dimensional region with boundary (d1 = d0 = 2), so alpha' =
1 - F_{chi2_2}(chi2_{1-2*alpha, 1}).  Test points sit on the two boundary
half-lines: (b1t, 0) with b1t spread over (0, 2*b1_hat), and (0, b2t)
likewise.  Each simple null is tested with a finite-sample F-test (two
linear restrictions, intercept free, denominator df n - 3).
"""

from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import NullSpec
from pwreject.distributions import f_cdf
from pwreject.testing import decide

__all__ = ["RegressionData", "OlsFit", "ols3_fit", "f_point_p_value", "or_null_test"]

NULL_SPEC = NullSpec(d1=2, d0=2, has_boundary=True)


@dataclass(frozen=True, eq=False)
class RegressionData:
    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray

    def __init__(self, x1, x2, y):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (x1.shape == x2.shape == y.shape) or y.ndim != 1:
            raise ValueError("x1, x2, y must be 1-d arrays of equal length")
        if y.size < 4:
            raise ValueError("need n >= 4 observations")
        if not (np.isfinite(x1).all() and np.isfinite(x2).all() and np.isfinite(y).all()):
            raise ValueError("x1, x2 and y must be finite (no nan or inf)")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.y.size


@dataclass(frozen=True, eq=False)
class OlsFit:
    coefficients: np.ndarray
    fitted: np.ndarray
    rss: float


def ols3_fit(data):
    """Least squares fit of y on (1, x1, x2) via orthogonal decomposition."""
    design = np.column_stack([np.ones(data.n), data.x1, data.x2])
    if np.linalg.matrix_rank(design) < 3:
        raise np.linalg.LinAlgError("design matrix (1, x1, x2) is rank deficient")
    coef, _, _, _ = np.linalg.lstsq(design, data.y, rcond=None)
    fitted = design @ coef
    rss = float(np.sum((data.y - fitted) ** 2))
    return OlsFit(coef, fitted, rss)


def _intercept_only_rss(z):
    return float(np.sum((z - z.mean()) ** 2))


def f_point_p_value(data, b1t, b2t, fit=None):
    """F-test p-value for the simple null (b1, b2) = (b1t, b2t), intercept free."""
    if fit is None:
        fit = ols3_fit(data)
    rss_null = _intercept_only_rss(data.y - b1t * data.x1 - b2t * data.x2)
    return _f_p(rss_null, fit.rss, data.n)


def _f_p(rss_null, rss_alt, n):
    if rss_alt == 0.0:
        return 1.0 if rss_null == 0.0 else 0.0
    f = max(0.0, (rss_null - rss_alt) / 2.0) / (rss_alt / (n - 3))
    return 1.0 - f_cdf(f, 2, n - 3)


def boundary_test_points(fit, m_prime):
    """The 2*m_prime boundary points, j-th at 2*beta_hat*j/(m_prime + 1)."""
    b1, b2 = fit.coefficients[1], fit.coefficients[2]
    fracs = np.arange(1, m_prime + 1) / (m_prime + 1.0)
    points = [(2.0 * b1 * f, 0.0) for f in fracs]
    points += [(0.0, 2.0 * b2 * f) for f in fracs]
    return points


def or_null_test(data, alpha, m_prime):
    """Pointwise-rejection test of H0: b1 <= 0 or b2 <= 0.

    If the OLS estimate already satisfies the null the test trivially
    fails to reject.  Otherwise rejection requires every boundary point's
    p-value to be at most alpha'.  Since the p-value is monotone
    decreasing in the restricted RSS, the maximum p-value is attained at
    the point with the smallest restricted RSS, which is located by cheap
    vectorized algebra before the single CDF evaluation.
    """
    if m_prime < 1:
        raise ValueError("m_prime must be >= 1")
    fit = ols3_fit(data)
    b1, b2 = fit.coefficients[1], fit.coefficients[2]
    if b1 <= 0.0 or b2 <= 0.0:
        # MLE inside the null: the continuum max p-value is 1.
        return decide(1.0, NULL_SPEC, alpha, 0)

    fracs = np.arange(1, m_prime + 1) / (m_prime + 1.0)
    rss_b1 = _rowwise_intercept_rss(data.y - np.outer(2.0 * b1 * fracs, data.x1))
    rss_b2 = _rowwise_intercept_rss(data.y - np.outer(2.0 * b2 * fracs, data.x2))
    min_rss = min(rss_b1.min(), rss_b2.min())
    max_p = _f_p(min_rss, fit.rss, data.n)
    return decide(max_p, NULL_SPEC, alpha, 2 * m_prime)


def _rowwise_intercept_rss(residual_rows):
    # Intercept-only RSS for each row of candidate residuals.
    centered = residual_rows - residual_rows.mean(axis=1, keepdims=True)
    return np.sum(centered**2, axis=1)
