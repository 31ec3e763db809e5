"""'Or'-linked null in a three-parameter linear regression.

Model: y = b0 + b1*x1 + b2*x2 + noise.  The null H0: b1 <= 0 or b2 <= 0
is a full-dimensional region with boundary (d1 = d0 = 2), so alpha' =
1 - F_{chi2_2}(chi2_{1-2*alpha, 1}).  Test points sit on the two boundary
half-lines: (b1t, 0) with b1t spread over (0, 2*b1_hat), and (0, b2t)
likewise.  Each simple null is tested with a finite-sample F-test (two
linear restrictions, intercept free, denominator df n - 3).

The statistic, the smallest F over the boundary points, is written once,
as an array function over (B, n) stacks of datasets, from a few sums per
dataset.  :func:`decide_batch` compares it with its cached critical value
on a whole stack; it is what the Monte Carlo harness calls.
:func:`or_null_test` is a one-row call of it.  The tests check both
against :func:`pwreject.testing.pointwise_test` over the boundary points
with a per-point F-test p-value that fits by ``lstsq``
(``tests/references.py``).
"""

from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.testing import _excess_ratio, decide, p_value, rejections

__all__ = [
    "RegressionData",
    "OlsFit",
    "ols3_fit",
    "or_null_test",
    "decide_batch",
]

NULL_SPEC = NullSpec(d1=2, d0=2, has_boundary=True)
# decide_batch solves a row's normal equations in closed form when the
# Gram matrix G of its design (1, x1, x2) has det(G) > _WELL_POSED *
# trace(G)**3, which bounds the design's condition number by
# _WELL_POSED**-0.5 = 1000; other rows go through ols3_fit.
_WELL_POSED = 1e-6


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
    rss: float


def ols3_fit(data):
    """Least squares fit of y on (1, x1, x2) via orthogonal decomposition."""
    design = np.column_stack([np.ones(data.n), data.x1, data.x2])
    # lstsq's rank counts the singular values above eps * max(M, N) * S1,
    # the tolerance np.linalg.matrix_rank uses.
    coef, _, rank, _ = np.linalg.lstsq(design, data.y, rcond=None)
    if rank < 3:
        raise np.linalg.LinAlgError("design matrix (1, x1, x2) is rank deficient")
    rss = float(np.sum((data.y - design @ coef) ** 2))
    return OlsFit(coef, rss)


def or_null_test(data, alpha, m_prime):
    """Pointwise-rejection test of H0: b1 <= 0 or b2 <= 0.

    If the OLS estimate already satisfies the null the test trivially
    fails to reject.  Otherwise rejection requires every boundary point's
    p-value to be at most alpha'.  Since the p-value is monotone
    decreasing in the restricted RSS, the maximum p-value is attained at
    the point with the smallest restricted RSS, whose F statistic
    ``_statistic_rows`` computes on the dataset as a one-row stack.
    """
    f_stat, outside = _statistic_rows(data.x1[None], data.x2[None], data.y[None], m_prime)
    # An MLE inside the null is decided over the continuum: F = 0, max p = 1.
    max_p = p_value(f_stat[0], NULL_SPEC, data.n - 3)
    return decide(max_p, NULL_SPEC, alpha, 2 * m_prime if outside[0] else 0)


def decide_batch(x1, x2, y, alpha, m_prime):
    """``or_null_test(RegressionData(x1[b], x2[b], y[b]), alpha, m_prime).reject``
    for every row b of a stack, as one bool array.

    ``x1``, ``x2`` and ``y`` are (B, n) arrays; row b holds dataset b.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (x1.shape == x2.shape == y.shape) or y.ndim != 2:
        raise ValueError("x1, x2, y must be (B, n) arrays of equal shape")
    if y.shape[1] < 4:
        raise ValueError("need n >= 4 observations")
    if not (np.isfinite(x1).all() and np.isfinite(x2).all() and np.isfinite(y).all()):
        raise ValueError("x1, x2 and y must be finite (no nan or inf)")
    f_stat, _ = _statistic_rows(x1, x2, y, m_prime)
    ap = alpha_prime(alpha, NULL_SPEC)
    return rejections(f_stat, p_value, ap, NULL_SPEC, y.shape[1] - 3)


def _statistic_rows(x1, x2, y, m_prime):
    """(F, outside) for each row of a (B, n) stack of checked float arrays
    (``RegressionData`` or ``decide_batch`` checks them).

    ``outside`` marks the rows whose MLE lies outside the null; the others
    keep F = 0 (max p 1).  F is the smallest over the 2 m' boundary points.
    RSS_null - RSS_alt at a point beta is the quadratic form of (u, v) =
    b_hat - beta in the centred Gram matrix, s11 * (u + r * v)**2 + e22 *
    v**2 (``_ols3_rows``): two nonnegative terms, with no cancellation.  The
    sums are along the last axis, so a row's F is that of its one-row stack.
    """
    if m_prime < 1:
        raise ValueError("m_prime must be >= 1")
    n = y.shape[1]
    b1, b2, rss_alt, s11, r, e22 = _ols3_rows(x1, x2, y)
    out = (b1 > 0.0) & (b2 > 0.0)
    b1, b2, s11, r, e22 = (v[out, None] for v in (b1, b2, s11, r, e22))
    # Point t of arm 1 is (s_t, 0) and of arm 2 (0, s_t), with s_t = 2 *
    # b_hat * t / (m' + 1) of the arm's own coefficient.
    fracs = np.arange(1, m_prime + 1) / (m_prime + 1.0)
    zeros = np.zeros(m_prime)
    u = b1 - 2.0 * b1 * np.concatenate([fracs, zeros])
    v = b2 - 2.0 * b2 * np.concatenate([zeros, fracs])
    u += r * v
    excess = (s11 * u * u + e22 * v * v).min(axis=1)
    f_stat = np.zeros(len(y))
    f_stat[out] = _excess_ratio(excess, rss_alt[out]) * ((n - 3) / 2.0)
    return f_stat, out


def _ols3_rows(x1, x2, y):
    """(b1, b2, rss, s11, r, e22) of the fit of y on (1, x1, x2), for each row of a (B, n) stack.

    The slopes solve the centred 2 x 2 normal equations by Cramer's rule
    (a few ULPs from ``ols3_fit``'s).  A row whose design is not well posed
    (see ``_WELL_POSED``) is fitted by ``ols3_fit`` instead, which raises
    ``LinAlgError`` if it is rank deficient.  The centred Gram matrix is
    [[1, 0], [r, 1]] diag(s11, e22) [[1, r], [0, 1]], with r = s12 / s11 and
    e22 the sum of squares of x2's centred residual on x1.
    """
    n = y.shape[1]
    m1, m2 = x1.mean(axis=1), x2.mean(axis=1)
    d1, d2 = x1 - m1[:, None], x2 - m2[:, None]
    dy = y - y.mean(axis=1)[:, None]
    s11, s22, s12 = np.sum(d1 * d1, axis=1), np.sum(d2 * d2, axis=1), np.sum(d1 * d2, axis=1)
    s1y, s2y = np.sum(d1 * dy, axis=1), np.sum(d2 * dy, axis=1)
    det = s11 * s22 - s12 * s12
    # det(G) = n * det for the uncentred Gram matrix G of (1, x1, x2).
    trace = n * (1.0 + m1 * m1 + m2 * m2) + s11 + s22
    ill_posed = ~(n * det > _WELL_POSED * trace**3)
    det[ill_posed] = 1.0  # those rows are refitted below
    b1 = (s22 * s1y - s12 * s2y) / det
    b2 = (s11 * s2y - s12 * s1y) / det
    rss = np.sum((dy - b1[:, None] * d1 - b2[:, None] * d2) ** 2, axis=1)
    for row in np.flatnonzero(ill_posed):
        fit = ols3_fit(RegressionData(x1[row], x2[row], y[row]))
        b1[row], b2[row], rss[row] = fit.coefficients[1], fit.coefficients[2], fit.rss
    r = s12 / s11
    e2 = d2 - r[:, None] * d1
    return b1, b2, rss, s11, r, np.sum(e2 * e2, axis=1)
