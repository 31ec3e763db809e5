"""Five-dimensional normal mean with a ball-intersect-subspace null.

Data: rows i.i.d. N(theta, I_5).  Null region: theta1^2 + theta2^2 +
theta3^2 <= 1 with theta4 = theta5 = 0, a 3-d manifold with boundary
inside a 5-d parameter space, so alpha' comes from the boundary formula
with d1 = 5, d0 = 3.  The pointwise test uses the single proxy point
obtained by projecting the sample mean onto the null region; the simple
null is tested with the exact known-covariance likelihood ratio (a
chi-square-5 statistic, exact at every n).

Universal-inference baselines (split LRT, cross-fit LRT) live here too.

Each test's statistic (chi-square, or log E of an e-value E) is written
once, as an array function over a (B, n, 5) stack of samples.
:func:`decide_batch` compares them with cached critical values on a whole
stack; it is what the Monte Carlo harness calls.  Every test rejects iff
its max p is at most its level: the chi-square p-value against alpha', and
the e-value's p-value min(1, 1/E) (``_e_p_value``) against alpha, so
E = 1/alpha rejects, which Markov's inequality allows.  The per-sample
tests are one-row calls of it on ``sample.rows[None]``.  The tests check them
against :func:`pwreject.testing.pointwise_test` with the simple-null
chi-square p-value at a projection of their own; the boundaryless subspace
null, on which the pointwise test equals the traditional LRT, is a fixture
there too (``tests/references.py``).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import NullSpec, _check_level, alpha_prime
from pwreject.testing import TestDecision, decide, p_value, rejections

__all__ = [
    "MvnSample",
    "ball_pointwise_test",
    "split_lrt_test",
    "cross_fit_lrt_test",
    "decide_batch",
]

DIM = 5
BALL_SPEC = NullSpec(d1=5, d0=3, has_boundary=True)
BATCH_METHODS = ("pointwise", "split_lrt", "crossfit_lrt")


@dataclass(frozen=True, eq=False)
class MvnSample:
    """An (n, 5) sample.

    ``rows`` is a private read-only copy of the caller's array, so the
    sample mean is computed once, on first use, and stays valid.  It is
    read-only too.
    """

    rows: np.ndarray

    def __init__(self, rows):
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != DIM:
            raise ValueError("need an (n, 5) array of observations")
        if arr.shape[0] < 1:
            raise ValueError("need at least one observation")
        if not np.isfinite(arr).all():
            raise ValueError("observations must be finite (no nan or inf)")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def n(self):
        return self.rows.shape[0]

    @functools.cached_property
    def mean(self):
        return _read_only(self.rows.mean(axis=0))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def ball_pointwise_test(sample, alpha):
    """Pointwise test of the ball-and-subspace null at the projection point."""
    return decide(p_value(_one_row(sample, "pointwise"), BALL_SPEC, None), BALL_SPEC, alpha, 1)


def split_lrt_test(sample, alpha):
    """Universal split LRT at the single projection test point: U1 >= 1/alpha."""
    return _e_value_test(sample, "split_lrt", alpha)


def cross_fit_lrt_test(sample, alpha):
    """Universal cross-fit LRT: (U1 + U2) / 2 >= 1/alpha."""
    return _e_value_test(sample, "crossfit_lrt", alpha)


def _e_value_test(sample, method, alpha):
    _check_level(alpha)
    return TestDecision(_e_p_value(_one_row(sample, method)), alpha, 1)


def _e_p_value(log_e):
    """The p-value min(1, 1/E) = exp(-log E) of an e-value E, from log E."""
    return math.exp(-log_e) if log_e > 0.0 else 1.0


def _one_row(sample, method):
    return _statistic_rows(sample.rows[None], (method,))[method][0]


def decide_batch(stack, alpha):
    """Reject flags of every ball test on every sample of a stack.

    ``stack`` is a (B, n, 5) array holding B samples, with n >= 2 because
    the split tests need two observations.  The result has one bool array
    of length B per name in ``BATCH_METHODS``, in that order, and entry b
    equals the ``reject`` of the matching per-sample test on
    ``MvnSample(stack[b])``, which reads the same statistics from a one-row
    stack.  ``alpha`` must lie in (0, 1/2), because the batch always runs
    the pointwise test, whose alpha' needs it; ``split_lrt_test`` and
    ``cross_fit_lrt_test`` alone take alpha in (0, 1).
    """
    _check_level(alpha, 0.5)
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[2] != DIM or stack.shape[1] < 2:
        raise ValueError("need a (B, n, 5) stack with n >= 2")
    if not np.isfinite(stack).all():
        raise ValueError("observations must be finite (no nan or inf)")
    stat = _statistic_rows(stack, BATCH_METHODS)
    ap = alpha_prime(alpha, BALL_SPEC)
    return [rejections(stat["pointwise"], p_value, ap, BALL_SPEC, None)] + [
        rejections(stat[m], _e_p_value, alpha) for m in BATCH_METHODS[1:]]


def _statistic_rows(stack, methods):
    """The statistic of each named test on each sample of a (B, n, 5) stack.

    One array per name in ``methods``: the chi-square statistic at the
    projection for "pointwise", and for "split_lrt" and "crossfit_lrt" the
    log of the held-out e-value, E = U1 or (U1 + U2) / 2.  The means, the
    projection and the squared distances are axis reductions, so each
    sample's values do not depend on the stack around it.
    """
    n = stack.shape[1]
    mean = stack.mean(axis=1)
    proj = _project_rows_to_null(mean)
    stat = {}
    if "pointwise" in methods:
        # A mean beyond about 1e154 gives an infinite statistic, which rejects.
        with np.errstate(over="ignore"):
            stat["pointwise"] = n * _sq_norms(mean - proj)
    if any(m != "pointwise" for m in methods):
        log_u1, log_u2 = _split_log_ratio_rows(stack, proj)
        stat["split_lrt"] = log_u1
        stat["crossfit_lrt"] = np.logaddexp(log_u1, log_u2) - math.log(2.0)
    return stat


def _sq_norms(diff):
    """Squared norms along the last axis, summed as np.sum sums one vector."""
    return (diff * diff).sum(axis=-1)


def _project_rows_to_null(means):
    """The projection onto the ball-and-subspace null of each row of a (B, 5) array.

    The tail is zeroed and a head outside the unit ball is scaled onto its
    sphere; heads inside are divided by 1.0, which leaves them unchanged.
    The head norm is a batched matmul, which rounds like ``np.linalg.norm``
    of one row; ``np.sum(h * h, axis=1)`` does not.  Only a head whose
    squared norm overflows is first divided by its largest |component|.
    """
    head = means[:, :3]
    with np.errstate(over="ignore"):
        norm = np.sqrt((head[:, None, :] @ head[:, :, None])[:, 0, 0])
    out = np.zeros_like(means)
    out[:, :3] = head / np.maximum(norm, 1.0)[:, None]
    huge = norm == np.inf
    if huge.any():
        out[huge, :3] = _project_rows_to_null(head[huge] / np.abs(head[huge]).max(axis=1)[:, None])
    return out


def _split_log_ratio_rows(stack, theta_t):
    """(log U1, log U2) of the held-out likelihood ratios, per sample of a (B, n, 5) stack.

    The first n1 = ceil(n / 2) rows and the rest are the two halves, and
    row b of ``theta_t`` is sample b's test point.  log U1 = l(theta_hat_2;
    Y1) - l(theta_t; Y1); constants cancel, leaving (n1 / 2) *
    (||ybar1 - theta_t||^2 - ||ybar1 - theta_hat_2||^2), and U2 likewise.
    """
    n = stack.shape[1]
    if n < 2:
        raise ValueError("need n >= 2 so both splits are nonempty")
    n1 = (n + 1) // 2
    m1 = stack[:, :n1].mean(axis=1)
    m2 = stack[:, n1:].mean(axis=1)
    # (m2 - m1) ** 2 equals (m1 - m2) ** 2 exactly, so one sum serves both.
    to_t1, to_t2, between = _sq_norms(np.array((m1 - theta_t, m2 - theta_t, m1 - m2)))
    log_u1 = 0.5 * n1 * (to_t1 - between)
    log_u2 = 0.5 * (n - n1) * (to_t2 - between)
    return log_u1, log_u2
