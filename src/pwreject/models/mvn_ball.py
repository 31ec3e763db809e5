"""Five-dimensional normal mean with a ball-intersect-subspace null.

Data: rows i.i.d. N(theta, I_5).  Null region: theta1^2 + theta2^2 +
theta3^2 <= 1 with theta4 = theta5 = 0, a 3-d manifold with boundary
inside a 5-d parameter space, so alpha' comes from the boundary formula
with d1 = 5, d0 = 3.  The pointwise test uses the single proxy point
obtained by projecting the sample mean onto the null region; the simple
null is tested with the exact known-covariance likelihood ratio (a
chi-square-5 statistic, exact at every n).

Universal-inference baselines (split LRT, cross-fit LRT) and the
boundaryless subspace variant used for the equivalence check with the
traditional LRT live here too.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import NullSpec, alpha_prime_no_boundary, alpha_prime_with_boundary
from pwreject.distributions import chi2_cdf
from pwreject.testing import TestDecision, lrt_decision_subspace

__all__ = [
    "MvnSample",
    "project_to_null",
    "project_to_subspace",
    "mvn_simple_p_value",
    "ball_pointwise_test",
    "split_lrt_test",
    "cross_fit_lrt_test",
    "subspace_pointwise_test",
    "subspace_lrt_test",
]

DIM = 5
BALL_SPEC = NullSpec(d1=5, d0=3, has_boundary=True)
SUBSPACE_SPEC = NullSpec(d1=5, d0=3, has_boundary=False)


@dataclass(frozen=True, eq=False)
class MvnSample:
    """An (n, 5) sample and the statistics every test on it shares.

    ``rows`` is a private read-only copy of the caller's array, so the
    sample mean, its projection onto the null and the split-half means are
    each computed once, on first use, and stay valid.  The arrays they
    return are read-only too.
    """

    rows: np.ndarray

    def __init__(self, rows):
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != DIM:
            raise ValueError("need an (n, 5) array of observations")
        if arr.shape[0] < 1:
            raise ValueError("need at least one observation")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def n(self):
        return self.rows.shape[0]

    @functools.cached_property
    def mean(self):
        return _read_only(self.rows.mean(axis=0))

    @functools.cached_property
    def null_projection(self):
        """The sample mean projected onto the ball-and-subspace null."""
        return _read_only(project_to_null(self.mean))

    @functools.cached_property
    def split_means(self):
        """(n1, mean of the first n1 rows, mean of the rest), n1 = ceil(n / 2)."""
        n = self.n
        if n < 2:
            raise ValueError("need n >= 2 so both splits are nonempty")
        n1 = (n + 1) // 2
        m1 = self.rows[:n1].mean(axis=0)
        m2 = self.rows[n1:].mean(axis=0)
        return n1, _read_only(m1), _read_only(m2)


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def project_to_null(ybar):
    """Euclidean projection of a mean vector onto the ball-and-subspace null."""
    out = np.array(ybar, dtype=float)
    out[3] = 0.0
    out[4] = 0.0
    head_norm = float(np.linalg.norm(out[:3]))
    if head_norm > 1.0:
        out[:3] /= head_norm
    return out


def project_to_subspace(ybar):
    """Projection onto {theta4 = theta5 = 0} (no ball constraint)."""
    out = np.array(ybar, dtype=float)
    out[3] = 0.0
    out[4] = 0.0
    return out


def mvn_simple_p_value(sample, theta_t):
    """Exact LRT p-value for H0: theta = theta_t under known I_5 covariance."""
    stat = sample.n * float(np.sum((sample.mean - np.asarray(theta_t)) ** 2))
    return 1.0 - chi2_cdf(stat, DIM)


def ball_pointwise_test(sample, alpha):
    """Pointwise test of the ball-and-subspace null at the projection point."""
    ap = alpha_prime_with_boundary(alpha, BALL_SPEC)
    p = mvn_simple_p_value(sample, sample.null_projection)
    return TestDecision(p <= ap, p, ap, 1)


def _split_log_ratios(sample, theta_t):
    """(log U1, log U2) of the held-out likelihood ratios at theta_t.

    log U1 = l(theta_hat_2; Y1) - l(theta_t; Y1); constants cancel, leaving
    (n1 / 2) * (||ybar1 - theta_t||^2 - ||ybar1 - theta_hat_2||^2).
    """
    n1, m1, m2 = sample.split_means
    theta_t = np.asarray(theta_t)

    def log_u(held_mean, held_count, est_mean):
        return 0.5 * held_count * (
            float(np.sum((held_mean - theta_t) ** 2))
            - float(np.sum((held_mean - est_mean) ** 2))
        )

    return log_u(m1, n1, m2), log_u(m2, sample.n - n1, m1)


def split_lrt_test(sample, alpha):
    """Universal split LRT at the single projection test point."""
    log_u1, _ = _split_log_ratios(sample, sample.null_projection)
    # U1 > 1/alpha expressed through the e-value's implied p-value 1/U1.
    p = math.exp(-log_u1) if log_u1 > 0.0 else 1.0
    return TestDecision(p < alpha, min(p, 1.0), alpha, 1)


def cross_fit_lrt_test(sample, alpha):
    """Universal cross-fit LRT: (U1 + U2) / 2 compared with 1/alpha."""
    log_u1, log_u2 = _split_log_ratios(sample, sample.null_projection)
    log_avg = np.logaddexp(log_u1, log_u2) - math.log(2.0)
    p = math.exp(-log_avg) if log_avg > 0.0 else 1.0
    return TestDecision(p < alpha, min(p, 1.0), alpha, 1)


def subspace_pointwise_test(sample, alpha):
    """Pointwise test of the boundaryless null {theta4 = theta5 = 0}."""
    ap = alpha_prime_no_boundary(alpha, SUBSPACE_SPEC)
    p = mvn_simple_p_value(sample, project_to_subspace(sample.mean))
    return TestDecision(p <= ap, p, ap, 1)


def subspace_neg2_log_lambda(sample):
    """Exact -2 log LRT statistic for the subspace null: n*(ybar4^2 + ybar5^2)."""
    ybar = sample.mean
    return sample.n * float(ybar[3] ** 2 + ybar[4] ** 2)


def subspace_lrt_test(sample, alpha):
    """Traditional LRT for the subspace null (exact under known covariance)."""
    return lrt_decision_subspace(subspace_neg2_log_lambda(sample), SUBSPACE_SPEC, alpha)
