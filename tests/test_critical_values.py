"""Critical values: a stack of statistics is decided as "statistic >= c",
with c the least double at which the one-row test's p-value is at most its
level.

For each cut that the seven suites decide with, c satisfies the predicate
and the double below it does not; next to a cut, where the p-value can
round out of order, the batch rule is the p-value's; no cut the CLI or a
baseline can reach rounds out of order beyond that band; every decision,
from each of the five places that make one, rejects iff its max p is at
most its level, and the batch and the one-row decisions of each model
agree, on every double next to the cut; the rows with a perfect full fit
(RSS_alt = 0) decide as the F test's limits say; and or_null rows refitted
by ``ols3_fit`` decide as the reference does.
"""

import math

import numpy as np
import pytest

from pwreject import simulation
from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.distributions import RngStream, chi2_cdf, chi2_quantile
from pwreject.models import linear_or as lo
from pwreject.models import mvn_ball as mb
from pwreject.models import normal_mean as nm
from pwreject.models import nuisance as nu
from pwreject.testing import TestDecision as Decision  # alias avoids pytest collection
from pwreject.testing import (
    _NEAR, _least_double, critical_value, lrt_decision_subspace, p_value, rejections)

ALPHA = simulation._ALPHA


def sf_key(alpha, spec, df):
    """``critical_value``'s arguments for a pointwise test whose max p is ``p_value``."""
    return p_value, alpha_prime(alpha, spec), spec, df


def e_value_key(alpha):
    return mb._e_p_value, alpha


def lrt_key(alpha, n):
    return nu._lrt_p_value, alpha, n


def suite_cuts():
    """({label: (predicate, c)} of every cut the seven suites decide with,
    {label: critical_value's arguments} of the same cuts).  The predicates
    of the baselines are written out here."""
    cuts, keys = {}, {}

    def cut(label, key, holds=None):
        p, level, *args = keys[label] = key
        cuts[label] = holds or (lambda s: p(s, *args) <= level), critical_value(*key)

    for suite in simulation.SUITE_IDS:
        for kw in simulation._suite_configs(suite, 1.0):
            model, n = kw["model"], kw["n"]
            if model == "ball":
                cut("ball chi2_5", sf_key(ALPHA, mb.BALL_SPEC, None))
                cut("ball log E", e_value_key(ALPHA), lambda t: t > 0.0 and math.exp(-t) <= ALPHA)
            elif model == "or_null":
                cut("or_null F(2, %d)" % (n - 3), sf_key(ALPHA, lo.NULL_SPEC, n - 3))
            elif model == "nuisance" and kw["mode"] != "coverage":
                cut("nuisance F(2, %d)" % (n - 2), sf_key(ALPHA, nu.NULL_SPEC, n - 2))
                cut("nuisance LRT n=%d" % n, lrt_key(ALPHA, n),
                    lambda r, n=n: 1.0 - chi2_cdf(n * math.log1p(r), 1) <= ALPHA)
    return cuts, keys


CUTS, KEYS = suite_cuts()


def neighbours(c):
    """The two doubles below c, c, and the two doubles above it."""
    down, up = math.nextafter(c, 0.0), math.nextafter(c, math.inf)
    return [math.nextafter(down, 0.0), down, c, up, math.nextafter(up, math.inf)]


def test_the_suites_use_the_known_cuts():
    assert sorted(CUTS) == sorted(
        ["ball chi2_5", "ball log E", "nuisance F(2, 3)", "nuisance F(2, 8)",
         "nuisance LRT n=5", "nuisance LRT n=10"]
        + ["or_null F(2, %d)" % df for df in (2, 7, 17, 47, 97)])


@pytest.mark.parametrize("label", sorted(CUTS))
def test_the_predicate_turns_true_at_the_critical_value(label):
    holds, c = CUTS[label]
    assert 0.0 < c < math.inf
    assert holds(c)
    assert not holds(math.nextafter(c, 0.0))


def test_critical_value_is_cached_per_level_geometry_and_df():
    assert critical_value(*sf_key(ALPHA, lo.NULL_SPEC, 7)) is critical_value(
        *sf_key(ALPHA, lo.NULL_SPEC, 7))
    assert critical_value(*sf_key(ALPHA, lo.NULL_SPEC, 7)) != critical_value(
        *sf_key(ALPHA, lo.NULL_SPEC, 8))
    assert critical_value(*sf_key(ALPHA, nu.NULL_SPEC, 7)) != critical_value(
        *sf_key(ALPHA, lo.NULL_SPEC, 7))
    assert critical_value(*e_value_key(ALPHA)) is critical_value(*e_value_key(ALPHA))
    assert critical_value(*e_value_key(ALPHA)) != critical_value(*e_value_key(0.2))
    assert critical_value(*lrt_key(ALPHA, 5)) is critical_value(*lrt_key(ALPHA, 5))
    assert critical_value(*lrt_key(ALPHA, 5)) != critical_value(*lrt_key(ALPHA, 10))
    # critical_value takes the level itself; alpha' refuses a level
    # outside its range, before any cut is sought.
    with pytest.raises(ValueError, match=r"must lie in \(0, 0.5\), got 0.5"):
        sf_key(0.5, lo.NULL_SPEC, 7)


def test_the_tie_rule_moves_the_baseline_cuts_by_a_few_ulps():
    # The e-value tests rejected at 1/E < alpha and the nuisance LRT at
    # n * log1p(ratio) >= the chi-square quantile.  At the suites' level
    # the e-value cut is the same double and the LRT cut within 4 ULPs.
    old_e = _least_double(lambda t: t > 0.0 and math.exp(-t) < ALPHA)
    assert critical_value(*e_value_key(ALPHA)) == old_e
    for n in (3, 5, 10, 30, 100, 1000):
        q = chi2_quantile(1.0 - ALPHA, 1)
        old = _least_double(lambda r: n * math.log1p(r) >= q)
        new = critical_value(*lrt_key(ALPHA, n))
        assert abs(int(np.float64(new).view(np.int64)) - int(np.float64(old).view(np.int64))) <= 4


def around(c, k=2000):
    """Every double within k ULPs of c, as an array."""
    return (np.float64(c).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


def p_value_rejects(stats, p, level, *args):
    """A one-row TestDecision's reject at the max p ``p(stat, *args)`` of each statistic."""
    return [Decision(p(s, *args), level, 1).reject for s in stats]


@pytest.mark.parametrize("label", sorted(KEYS))
def test_the_batch_rule_is_the_p_value_rule_next_to_the_cut(label):
    # Every double within 2000 ULPs of c.  For F(2, 17) and F(2, 97) a few
    # of them, within 9 ULPs of c, round out of order; a stack of
    # statistics is decided there as each one alone, by its p-value.
    key = KEYS[label]
    stats = around(critical_value(*key))
    assert rejections(stats, *key).tolist() == p_value_rejects(stats.tolist(), *key)
    assert rejections(np.array([0.0, math.inf]), *key).tolist() == [False, True]


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_no_cut_the_cli_can_reach_rounds_out_of_order_beyond_the_band(alpha):
    # The CLI takes any n, so any F(2, nu) of or_null (nu = n - 3) and of
    # the nuisance test (nu = n - 2), besides chi2_5 of the ball; from
    # Python, the e-value cut and the nuisance LRT's at any n >= 3 too.
    # At the edges of the band where a p-value decides, c * (1 -+ _NEAR),
    # the p-value clears its level by far more than its rounding, so
    # "stat >= c" and "p <= level" agree on every double beyond the band.
    dfs = list(range(1, 201)) + [10**k for k in range(3, 8)]
    keys = [sf_key(alpha, lo.NULL_SPEC, df) for df in dfs]
    keys += [sf_key(alpha, nu.NULL_SPEC, df) for df in dfs]
    keys += [sf_key(alpha, mb.BALL_SPEC, None), e_value_key(alpha)]
    keys += [lrt_key(alpha, df + 2) for df in dfs]
    for p, level, *args in keys:
        c = critical_value(p, level, *args)
        assert p(c * (1.0 - _NEAR), *args) > level * (1.0 + 1e-12)
        assert p(c * (1.0 + _NEAR), *args) < level * (1.0 - 1e-12)


# Every decision, from each of the five places that make one (decide, the
# e-value tests, the nuisance LRT, Bonferroni and the subspace LRT),
# rejects iff its max p is at most its level, and a model's batch decides
# as its one-row tests, on every double within 2000 ULPs of each cut.  The
# cuts and the p-functions are written out here.

LEVELS = (0.01, 0.05, 0.2)


def least(p, level):
    """The least double s with p(s) <= level."""
    return _least_double(lambda s: p(s) <= level)


def pointwise_cut(alpha, spec, df):
    return least(lambda s: p_value(s, spec, df), alpha_prime(alpha, spec))


def assert_consistent(decisions, batch=None):
    """Each decision's reject is max_p <= alpha_prime_used, and the batch's is the same."""
    rejects = [d.reject for d in decisions]
    assert rejects == [d.max_p <= d.alpha_prime_used for d in decisions]
    assert True in rejects and False in rejects
    if batch is not None:
        assert batch.tolist() == rejects


@pytest.mark.parametrize("alpha", LEVELS)
def test_ball_decisions_next_to_every_cut(alpha, monkeypatch):
    e_cut = least(lambda t: math.exp(-t) if t > 0.0 else 1.0, alpha)
    values = {"pointwise": around(pointwise_cut(alpha, mb.BALL_SPEC, None)),
              "split_lrt": around(e_cut), "crossfit_lrt": around(e_cut)}
    row = [0]

    def patched(stack, methods):
        if len(stack) == 1:
            return {m: values[m][row[0]:row[0] + 1] for m in methods}
        return {m: values[m] for m in methods}

    monkeypatch.setattr(mb, "_statistic_rows", patched)
    stack = np.zeros((len(values["pointwise"]), 2, 5))
    sample = mb.MvnSample(stack[0])
    tests = (mb.ball_pointwise_test, mb.split_lrt_test, mb.cross_fit_lrt_test)
    for column, test in zip(mb.decide_batch(stack, alpha), tests):
        decisions = []
        for row[0] in range(len(stack)):
            decisions.append(test(sample, alpha))
        assert_consistent(decisions, column)


@pytest.mark.parametrize("alpha", LEVELS)
def test_or_null_decisions_next_to_the_cut(alpha, monkeypatch):
    # F(2, 17), whose p-value rounds out of order next to the cut.
    n = 20
    values = around(pointwise_cut(alpha, lo.NULL_SPEC, n - 3))
    row = [0]

    def patched(x1, x2, y, m_prime):
        f = values if len(y) > 1 else values[row[0]:row[0] + 1]
        return f, np.ones(len(f), dtype=bool)

    monkeypatch.setattr(lo, "_statistic_rows", patched)
    x = np.zeros((len(values), n))
    data = lo.RegressionData(x[0], x[0], x[0])
    decisions = []
    for row[0] in range(len(values)):
        decisions.append(lo.or_null_test(data, alpha, 5))
    assert_consistent(decisions, lo.decide_batch(x, x, x, alpha, 5))


@pytest.mark.parametrize("alpha", LEVELS)
def test_nuisance_decisions_next_to_every_cut(alpha, monkeypatch):
    n = 10
    lrt_cut = least(lambda r: 1.0 - chi2_cdf(n * math.log1p(r), 1), alpha)
    values = {"pointwise": around(pointwise_cut(alpha, nu.NULL_SPEC, n - 2)),
              "lrt": around(lrt_cut)}
    row = [0]

    def patched(x, y, *args):
        if len(y) > 1:
            return np.zeros(len(y), dtype=int), values
        return np.zeros(1, dtype=int), {m: v[row[0]:row[0] + 1] for m, v in values.items()}

    monkeypatch.setattr(nu, "_statistic_rows", patched)
    x = np.zeros((len(values["lrt"]), n))
    data = nu.XYData(x[0], x[0])
    hits, _ = nu.decide_batch(x, x, "test", alpha, 100, 1.0)
    for column, test in zip(hits, (nu.psi_pointwise_test, nu.psi_lrt_test)):
        decisions = []
        for row[0] in range(len(x)):
            decisions.append(test(data, 1.0, alpha, 100))
        assert_consistent(decisions, column)


@pytest.mark.parametrize("alpha", LEVELS)
def test_bonferroni_decisions_next_to_the_cut(alpha, monkeypatch):
    # The mean 0.5 lies inside [0, 1]: the lower one-sided p-value is the
    # patched t CDF, the upper one is 1, so the max p runs over the doubles
    # next to alpha / 2.
    sample = nm.UnivariateSample([0.4, 0.6])
    decisions = []
    for q in around(alpha / 2.0):
        monkeypatch.setattr(nm, "t_cdf", lambda t, nu, q=q: q if t > 0.0 else 0.0)
        decisions.append(nm.bonferroni_interval_test(sample, 0.0, 1.0, alpha))
    assert [d.max_p for d in decisions] == around(alpha / 2.0).tolist()
    assert_consistent(decisions)


@pytest.mark.parametrize("alpha", LEVELS)
@pytest.mark.parametrize("spec", [NullSpec(2, 1), NullSpec(5, 3)])
def test_subspace_lrt_decisions_next_to_the_cut(alpha, spec):
    dg = spec.d1 - spec.d0
    stats = around(least(lambda s: 1.0 - chi2_cdf(s, dg), alpha))
    assert_consistent([lrt_decision_subspace(s, spec, alpha) for s in stats])


# Batch and one-row decisions of each model at the cut, on statistics
# patched in where the model computes them.

def test_ball_batch_and_one_row_agree_at_the_cuts(monkeypatch):
    cut = {"pointwise": critical_value(*sf_key(ALPHA, mb.BALL_SPEC, None))}
    cut.update(dict.fromkeys(mb.BATCH_METHODS[1:], critical_value(*e_value_key(ALPHA))))
    values = {m: np.array(neighbours(c)) for m, c in cut.items()}
    row = [0]

    def patched(stack, methods):
        if len(stack) == 1:  # one-row call: the statistic of the current row
            return {m: values[m][row[0]:row[0] + 1] for m in methods}
        return {m: values[m] for m in methods}

    monkeypatch.setattr(mb, "_statistic_rows", patched)
    stack = np.zeros((5, 2, 5))
    batch = mb.decide_batch(stack, ALPHA)
    tests = {"pointwise": mb.ball_pointwise_test, "split_lrt": mb.split_lrt_test,
             "crossfit_lrt": mb.cross_fit_lrt_test}
    for column, method in zip(batch, mb.BATCH_METHODS):
        assert column.tolist() == [False, False, True, True, True]
        one_row = []
        for row[0] in range(5):
            one_row.append(tests[method](mb.MvnSample(stack[0]), ALPHA).reject)
        assert one_row == column.tolist()


def test_or_null_batch_and_one_row_agree_at_the_cuts(monkeypatch):
    # F(2, 17) rounds out of order at c + 2 ULPs and F(2, 97) at c + 1 ULP
    # (p > alpha' there), so the p-values say which of these reject.
    for n in (5, 10, 20, 50, 100):
        values = np.array(neighbours(critical_value(*sf_key(ALPHA, lo.NULL_SPEC, n - 3))))
        row = [0]

        def patched(x1, x2, y, m_prime):
            f = values if len(y) > 1 else values[row[0]:row[0] + 1]
            return f, np.ones(len(f), dtype=bool)

        monkeypatch.setattr(lo, "_statistic_rows", patched)
        x = np.zeros((5, n))
        batch = lo.decide_batch(x, x, x, ALPHA, 5)
        key = sf_key(ALPHA, lo.NULL_SPEC, n - 3)
        assert batch.tolist() == p_value_rejects(values.tolist(), *key)
        assert batch.tolist()[:3] == [False, False, True]
        one_row = []
        for row[0] in range(5):
            one_row.append(lo.or_null_test(lo.RegressionData(x[0], x[0], x[0]), ALPHA, 5).reject)
        assert one_row == batch.tolist()


def test_nuisance_batch_and_one_row_agree_at_the_cuts(monkeypatch):
    for n in (5, 10):
        keys = {"pointwise": sf_key(ALPHA, nu.NULL_SPEC, n - 2), "lrt": lrt_key(ALPHA, n)}
        values = {m: np.array(neighbours(critical_value(*key))) for m, key in keys.items()}
        row = [0]

        def patched(x, y, *args):
            if len(y) > 1:
                return np.zeros(5, dtype=int), values
            return np.zeros(1, dtype=int), {m: v[row[0]:row[0] + 1] for m, v in values.items()}

        monkeypatch.setattr(nu, "_statistic_rows", patched)
        x = np.zeros((5, n))
        hits, flagged = nu.decide_batch(x, x, "test", ALPHA, 100, 1.0)
        assert not flagged.any()
        for column, test in zip(hits, (nu.psi_pointwise_test, nu.psi_lrt_test)):
            assert column.tolist() == [False, False, True, True, True]
            one_row = []
            for row[0] in range(5):
                one_row.append(test(nu.XYData(x[0], x[0]), 1.0, ALPHA, 100).reject)
            assert one_row == column.tolist()


# Perfect full fits: RSS_alt = 0 exactly.

def test_nuisance_perfect_fit_rejects_off_the_null_only():
    # y = 2.5 + 2 x is the null line of (psi, phi) = (1.6, 1.25), which the
    # odd grid holds at phi_hat = 1.25: RSS_null - RSS_alt = 0 = RSS_alt
    # gives F = 0 and max p = 1; psi0 = 1 misses the line, F = inf, max p 0.
    data = nu.XYData([0.0, 1.0, 2.0, 3.0], [2.5, 4.5, 6.5, 8.5])
    assert nu._line_fit_rows(data.x[None], data.y[None])[5].tolist() == [0.0]
    for psi0, reject, max_p in ((1.6, False, 1.0), (1.0, True, 0.0)):
        for test in (nu.psi_pointwise_test, nu.psi_lrt_test):
            dec = test(data, psi0, ALPHA, 51)
            assert (dec.reject, dec.max_p) == (reject, max_p)
        hits, _ = nu.decide_batch(data.x[None], data.y[None], "test", ALPHA, 51, psi0)
        assert [h.tolist() for h in hits] == [[reject], [reject]]


def test_or_null_perfect_fit_outside_the_null_rejects():
    # Integer columns with dyadic means: RSS_alt = 0 exactly.  An MLE
    # outside the null gives F = inf (max p 0), one inside F = 0 (max p 1).
    x1 = np.array([1.0, -1.0, 2.0, -2.0, 0.0, 3.0, -3.0, 0.0])
    x2 = np.array([0.0, 1.0, 1.0, -1.0, -1.0, 2.0, 0.0, -2.0])
    for (b1, b2), reject in (((2.0, 3.0), True), ((-1.0, 0.5), False)):
        data = lo.RegressionData(x1, x2, 1.0 + b1 * x1 + b2 * x2)
        f_stat, _ = lo._statistic_rows(x1[None], x2[None], data.y[None], 5)
        assert f_stat.tolist() == [math.inf if reject else 0.0]
        dec = lo.or_null_test(data, ALPHA, 5)
        assert (dec.reject, dec.max_p) == (reject, 0.0 if reject else 1.0)
        assert lo.decide_batch(x1[None], x2[None], data.y[None], ALPHA, 5).tolist() == [reject]


def test_or_null_rows_refitted_by_ols3_fit_match_the_reference(monkeypatch):
    # Covariates centred far from 0 make the uncentred design ill posed, so
    # every row is refitted by ols3_fit, while the centred Gram matrix of
    # the quadratic form stays well conditioned.  Most rows lie outside the
    # null, with max p between 0 and 1, and decide as the reference does.
    from test_linear_or import assert_batch_matches_reference

    g = RngStream(8).generator
    x1, x2 = 100.0 + g.standard_normal((2, 40, 12))
    y = 1.0 + 0.4 * x1 + 0.4 * x2 + g.standard_normal((40, 12))
    refits = []
    fit = lo.ols3_fit
    monkeypatch.setattr(lo, "ols3_fit", lambda data: refits.append(data) or fit(data))
    _, outside = lo._statistic_rows(x1, x2, y, 5)
    assert len(refits) == 40 and outside.sum() > 20
    monkeypatch.setattr(lo, "ols3_fit", fit)
    for alpha in (0.05, 0.2):
        rejects, max_p = assert_batch_matches_reference(x1, x2, y, alpha, 5)
        assert 0 < rejects.sum() < outside.sum()
        assert ((0.01 < max_p) & (max_p < 0.99)).sum() > 20
