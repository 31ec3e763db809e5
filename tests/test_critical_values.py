"""Critical values: a stack of statistics is decided as "statistic >= c",
with c the double at which the scalar path's own predicate turns true.

For each cut that the seven suites decide with, c satisfies the predicate
and the double below it does not; next to a survival-function cut, where
the p-value can round out of order, the batch rule is the p-value's; no
cut the CLI can reach rounds out of order beyond that band; the batch and
the one-row decisions of each model agree at c and at its neighbours; the
rows with a perfect full fit (RSS_alt = 0) decide as the F test's limits
say; and or_null rows refitted by ``ols3_fit`` decide as the reference
does.
"""

import math

import numpy as np
import pytest

from pwreject import simulation
from pwreject.alpha_prime import alpha_prime
from pwreject.distributions import RngStream, chi2_quantile
from pwreject.models import linear_or as lo
from pwreject.models import mvn_ball as mb
from pwreject.models import nuisance as nu
from pwreject.testing import _NEAR, critical_value, decide, p_value, rejections

ALPHA = simulation._ALPHA


def suite_cuts():
    """({label: (predicate, c)} of every cut the seven suites decide with,
    {label: (spec, df_den)} of those on the survival function)."""
    cuts, sf_keys = {}, {}

    def sf_cut(label, spec, df):
        ap = alpha_prime(ALPHA, spec)
        cuts[label] = (lambda s: p_value(s, spec, df) <= ap), critical_value(ALPHA, spec, df)
        sf_keys[label] = spec, df

    for suite in simulation.SUITE_IDS:
        for kw in simulation._suite_configs(suite, 1.0):
            model, n = kw["model"], kw["n"]
            if model == "ball":
                sf_cut("ball chi2_5", mb.BALL_SPEC, None)
                cuts["ball log E"] = (lambda t: t > 0.0 and math.exp(-t) < ALPHA,
                                      mb._log_e_critical(ALPHA))
            elif model == "or_null":
                sf_cut("or_null F(2, %d)" % (n - 3), lo.NULL_SPEC, n - 3)
            elif model == "nuisance" and kw["mode"] != "coverage":
                sf_cut("nuisance F(2, %d)" % (n - 2), nu.NULL_SPEC, n - 2)
                cutoff = chi2_quantile(1.0 - ALPHA, 1)
                cuts["nuisance LRT n=%d" % n] = (
                    lambda r, n=n: n * math.log1p(r) >= cutoff, nu._lrt_ratio_critical(ALPHA, n))
    return cuts, sf_keys


CUTS, SF_KEYS = suite_cuts()


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
    assert critical_value(ALPHA, lo.NULL_SPEC, 7) is critical_value(ALPHA, lo.NULL_SPEC, 7)
    assert critical_value(ALPHA, lo.NULL_SPEC, 7) != critical_value(ALPHA, lo.NULL_SPEC, 8)
    assert critical_value(ALPHA, nu.NULL_SPEC, 7) != critical_value(ALPHA, lo.NULL_SPEC, 7)
    with pytest.raises(ValueError, match=r"must lie in \(0, 0.5\), got 0.5"):
        critical_value(0.5, lo.NULL_SPEC, 7)


def p_value_rejects(stats, spec, df):
    """decide's reject at the max p ``p_value(stat)`` of each statistic."""
    return [decide(p_value(s, spec, df), spec, ALPHA, 1).reject for s in stats]


@pytest.mark.parametrize("label", sorted(SF_KEYS))
def test_the_batch_rule_is_the_p_value_rule_next_to_the_cut(label):
    # Every double within 2000 ULPs of c.  For F(2, 17) and F(2, 97) a few
    # of them, within 9 ULPs of c, round out of order; a stack of
    # statistics is decided there as each one alone, by its p-value.
    spec, df = SF_KEYS[label]
    c = critical_value(ALPHA, spec, df)
    stats = (np.float64(c).view(np.int64) + np.arange(-2000, 2001)).view(np.float64)
    assert rejections(stats, spec, ALPHA, df).tolist() == p_value_rejects(stats.tolist(), spec, df)
    assert rejections(np.array([0.0, math.inf]), spec, ALPHA, df).tolist() == [False, True]


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_no_cut_the_cli_can_reach_rounds_out_of_order_beyond_the_band(alpha):
    # The CLI takes any n, so any F(2, nu) of or_null (nu = n - 3) and of
    # the nuisance test (nu = n - 2), besides chi2_5 of the ball.  At the
    # edges of the band where a p-value decides, c * (1 -+ _NEAR), the
    # p-value clears alpha' by far more than its rounding, so "stat >= c"
    # and "p <= alpha'" agree on every double beyond the band.
    dfs = list(range(1, 201)) + [10**k for k in range(3, 8)]
    keys = [(lo.NULL_SPEC, df) for df in dfs] + [(nu.NULL_SPEC, df) for df in dfs]
    for spec, df in keys + [(mb.BALL_SPEC, None)]:
        ap = alpha_prime(alpha, spec)
        c = critical_value(alpha, spec, df)
        assert p_value(c * (1.0 - _NEAR), spec, df) > ap * (1.0 + 1e-12)
        assert p_value(c * (1.0 + _NEAR), spec, df) < ap * (1.0 - 1e-12)


# Batch and one-row decisions of each model at the cut, on statistics
# patched in where the model computes them.

def test_ball_batch_and_one_row_agree_at_the_cuts(monkeypatch):
    cut = {"pointwise": critical_value(ALPHA, mb.BALL_SPEC, None)}
    cut.update(dict.fromkeys(mb.BATCH_METHODS[1:], mb._log_e_critical(ALPHA)))
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
        values = np.array(neighbours(critical_value(ALPHA, lo.NULL_SPEC, n - 3)))
        row = [0]

        def patched(x1, x2, y, m_prime):
            f = values if len(y) > 1 else values[row[0]:row[0] + 1]
            return f, np.ones(len(f), dtype=bool)

        monkeypatch.setattr(lo, "_statistic_rows", patched)
        x = np.zeros((5, n))
        batch = lo.decide_batch(x, x, x, ALPHA, 5)
        assert batch.tolist() == p_value_rejects(values.tolist(), lo.NULL_SPEC, n - 3)
        assert batch.tolist()[:3] == [False, False, True]
        one_row = []
        for row[0] in range(5):
            one_row.append(lo.or_null_test(lo.RegressionData(x[0], x[0], x[0]), ALPHA, 5).reject)
        assert one_row == batch.tolist()


def test_nuisance_batch_and_one_row_agree_at_the_cuts(monkeypatch):
    for n in (5, 10):
        values = {"pointwise": np.array(neighbours(critical_value(ALPHA, nu.NULL_SPEC, n - 2))),
                  "lrt": np.array(neighbours(nu._lrt_ratio_critical(ALPHA, n)))}
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
