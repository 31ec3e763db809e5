"""Generic engine: max-p semantics, tie handling, LRT helper."""

import math

import pytest

from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.distributions import chi2_cdf, chi2_quantile
from pwreject.testing import _least_double, decide, lrt_decision_subspace, pointwise_test
from pwreject.testing import TestDecision as Decision  # alias avoids pytest collection

SPEC = NullSpec(2, 1)


def make_tester(mapping):
    return lambda point: mapping[point]


class TestMaxP:
    def test_returns_maximum(self):
        t = make_tester({"a": 0.01, "b": 0.2, "c": 0.05})
        dec = pointwise_test(t, ["a", "b", "c"], SPEC, 0.05)
        assert dec.max_p == 0.2 and dec.n_points == 3

    def test_empty_points(self):
        with pytest.raises(ValueError):
            pointwise_test(lambda p: 0.5, [], SPEC, 0.05)
        with pytest.raises(ValueError):
            pointwise_test(lambda p: 0.5, (q for q in []), SPEC, 0.05)

    def test_any_iterable(self):
        seen = []

        def tester(q):
            seen.append(q)
            return q / 10.0

        dec = pointwise_test(tester, (q for q in [1, 2, 3]), SPEC, 0.05)
        assert seen == [1, 2, 3]
        assert dec.max_p == 0.3 and dec.n_points == 3 and not dec.reject


class TestPointwise:
    def test_rejects_when_all_small(self):
        ap = alpha_prime(0.05, SPEC)
        t = make_tester({1: ap / 2, 2: ap / 3})
        dec = pointwise_test(t, [1, 2], SPEC, 0.05)
        assert dec.reject and dec.max_p == ap / 2 and dec.n_points == 2
        assert dec.alpha_prime_used == pytest.approx(ap)

    def test_tie_at_threshold_rejects(self):
        ap = alpha_prime(0.05, SPEC)
        dec = pointwise_test(lambda p: ap, [0], SPEC, 0.05)
        assert dec.reject and dec.max_p == ap

    def test_one_large_p_blocks(self):
        ap = alpha_prime(0.05, SPEC)
        dec = pointwise_test(make_tester({1: 0.0, 2: ap * 1.01}), [1, 2], SPEC, 0.05)
        assert not dec.reject

    def test_alpha_one_rejects_everything(self):
        # alpha = 1 used to give alpha' = 1 and reject every dataset; it is
        # refused now.
        with pytest.raises(ValueError, match=r"significance level must lie in \(0, "):
            pointwise_test(lambda p: 1.0, [0], SPEC, 1.0)


class TestDecide:
    @pytest.mark.parametrize("spec", [NullSpec(2, 1), NullSpec(5, 3, has_boundary=True)])
    def test_rejects_exactly_at_alpha_prime(self, spec):
        ap = alpha_prime(0.05, spec)
        at = decide(ap, spec, 0.05, 4)
        assert at.reject and at.max_p == ap and at.alpha_prime_used == ap
        assert at.n_points == 4
        above = decide(math.nextafter(ap, 1.0), spec, 0.05, 4)
        assert not above.reject and above.alpha_prime_used == ap


class TestLrtHelper:
    def test_threshold_and_pvalue(self):
        # The tie sits at the least double whose p-value is at most alpha,
        # and rejects; the double below it does not.  The chi-square
        # quantile lies a few ULPs below that double, where the p-value is
        # above alpha: it rejected there, against its own max p.
        spec = NullSpec(5, 3)
        cut = _least_double(lambda s: 1.0 - chi2_cdf(s, 2) <= 0.05)
        assert cut == pytest.approx(chi2_quantile(0.95, 2), rel=1e-12)
        at = lrt_decision_subspace(cut, spec, 0.05)
        assert at.reject  # ties reject
        assert at.max_p <= 0.05 and at.max_p == pytest.approx(0.05, abs=1e-9)
        below = lrt_decision_subspace(math.nextafter(cut, 0.0), spec, 0.05)
        assert not below.reject and below.max_p > 0.05
        assert not lrt_decision_subspace(cut - 1e-6, spec, 0.05).reject
        quantile = lrt_decision_subspace(chi2_quantile(0.95, 2), spec, 0.05)
        assert quantile.max_p > 0.05 and not quantile.reject
        assert lrt_decision_subspace(0.0, spec, 0.05).max_p == pytest.approx(1.0)

    def test_rejects_boundary_spec_and_negative_stat(self):
        with pytest.raises(ValueError):
            lrt_decision_subspace(1.0, NullSpec(2, 2, has_boundary=True), 0.05)
        with pytest.raises(ValueError):
            lrt_decision_subspace(-0.1, NullSpec(5, 3), 0.05)

    def test_infinite_and_nan_statistics(self):
        # An infinite statistic gave max p = nan, and a nan one "fail to
        # reject, p = nan".
        at_inf = lrt_decision_subspace(math.inf, NullSpec(5, 3), 0.05)
        assert at_inf.reject and at_inf.max_p == 0.0
        with pytest.raises(ValueError, match="must be nonnegative"):
            lrt_decision_subspace(math.nan, NullSpec(5, 3), 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_bad_level_is_named_as_a_level(self, alpha):
        # The message was about the probability 1 - alpha ("got -0.5" at
        # alpha = 1.5), and nan was not refused at all.
        with pytest.raises(ValueError, match=r"significance level must lie in \(0, 1\), got "):
            lrt_decision_subspace(1.0, NullSpec(5, 3), alpha)

    def test_pvalue_matches_chi2(self):
        spec = NullSpec(5, 3)
        stat = 3.3
        assert lrt_decision_subspace(stat, spec, 0.05).max_p == pytest.approx(
            1.0 - chi2_cdf(stat, 2), abs=1e-12
        )


def test_decision_is_frozen():
    # reject is not passed: it is max_p <= alpha_prime_used, ties included.
    dec = Decision(0.1, 0.2, 3)
    assert dec.reject is True
    with pytest.raises(Exception):
        dec.reject = False
    assert Decision(0.2, 0.2, 3).reject
    assert not Decision(math.nextafter(0.2, 1.0), 0.2, 3).reject
    with pytest.raises(TypeError):
        Decision(True, 0.1, 0.2, 3)
