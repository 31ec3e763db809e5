"""5-d normal with ball-and-subspace null: projections, universal baselines."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from pwreject.distributions import RngStream, chi2_cdf, chi2_quantile
from pwreject.models import mvn_ball as mb
from pwreject.testing import p_value, pointwise_test


def make_sample(seed=0, n=10, theta=(0, 0, 0, 0, 0)):
    g = RngStream(seed).generator
    return mb.MvnSample(np.asarray(theta, float) + g.standard_normal((n, mb.DIM)))


class TestProjection:
    def test_inside_ball_only_tail_zeroed(self):
        ybar = np.array([0.2, -0.3, 0.1, 0.9, -0.4])
        proj = references.project_to_null(ybar)
        assert proj == pytest.approx([0.2, -0.3, 0.1, 0.0, 0.0])

    def test_outside_ball_rescaled_to_sphere(self):
        ybar = np.array([3.0, 0.0, 4.0, 1.0, 1.0])
        proj = references.project_to_null(ybar)
        assert np.linalg.norm(proj[:3]) == pytest.approx(1.0)
        assert proj == pytest.approx([0.6, 0.0, 0.8, 0.0, 0.0])

    def test_projection_minimizes_distance_over_null_grid(self):
        # Grid search over the null region {||head|| <= 1, tail = 0}.
        g = RngStream(17).generator
        axes = np.linspace(-1.0, 1.0, 21)
        grid = [
            np.array([a, b, c, 0.0, 0.0])
            for a, b, c in itertools.product(axes, repeat=3)
            if a * a + b * b + c * c <= 1.0
        ]
        for _ in range(5):
            ybar = 2.0 * g.standard_normal(5)
            proj = references.project_to_null(ybar)
            best = min(float(np.sum((ybar - t) ** 2)) for t in grid)
            ours = float(np.sum((ybar - proj) ** 2))
            assert ours <= best + 1e-6

    def test_subspace_projection(self):
        ybar = np.array([5.0, 1.0, -2.0, 0.3, 0.7])
        assert references.project_to_subspace(ybar) == pytest.approx([5.0, 1.0, -2.0, 0.0, 0.0])


class TestSimplePValue:
    def test_closed_form(self):
        s = make_sample(n=7)
        theta = np.array([0.1, 0.0, -0.2, 0.0, 0.0])
        stat = 7 * float(np.sum((s.rows.mean(axis=0) - theta) ** 2))
        assert references.mvn_simple_p_value(s, theta) == pytest.approx(
            1.0 - chi2_cdf(stat, 5), abs=1e-12
        )


class TestBallTest:
    def test_mean_inside_null_gives_p_one(self):
        s = mb.MvnSample(np.zeros((4, 5)))
        dec = mb.ball_pointwise_test(s, 0.05)
        assert dec.max_p == 1.0 and not dec.reject

    def test_alpha_prime_value(self):
        dec = mb.ball_pointwise_test(make_sample(), 0.05)
        assert dec.alpha_prime_used == pytest.approx(0.2173, abs=5e-4)

    def test_far_mean_rejects(self):
        s = mb.MvnSample(np.tile([5.0, 0, 0, 0, 0], (20, 1)))
        assert mb.ball_pointwise_test(s, 0.05).reject


def direct_log_us(sample, theta_t):
    """(log U1, log U2) from the literal Gaussian log-likelihoods of the two halves."""
    n1 = (sample.n + 1) // 2
    halves = sample.rows[:n1], sample.rows[n1:]

    def loglik(rows, theta):
        return -0.5 * float(np.sum((rows - theta) ** 2))

    theta_t = np.asarray(theta_t, float)
    return tuple(
        loglik(held, other.mean(axis=0)) - loglik(held, theta_t)
        for held, other in (halves, halves[::-1])
    )


def reference_decisions(stack, methods, alpha):
    """Per-sample decisions of the named tests from the per-point references.

    "pointwise": pointwise_test with mvn_simple_p_value at the projection.
    "split_lrt" and "crossfit_lrt": U1 and (U1 + U2) / 2 from the literal
    log-likelihoods, against 1/alpha.
    """
    out = {m: [] for m in methods}
    for rows in stack:
        s = mb.MvnSample(rows)
        proj = references.project_to_null(s.rows.mean(axis=0))
        if "pointwise" in methods:
            out["pointwise"].append(pointwise_test(
                lambda t: references.mvn_simple_p_value(s, t), [proj], mb.BALL_SPEC, alpha).reject)
        if s.n < 2:
            continue
        log_u1, log_u2 = direct_log_us(s, proj)
        log_avg = float(np.logaddexp(log_u1, log_u2)) - math.log(2.0)
        for method, log_e in (("split_lrt", log_u1), ("crossfit_lrt", log_avg)):
            if method in methods:
                out[method].append(log_e > -math.log(alpha))
    return [np.array(out[m], dtype=bool) for m in methods]


class TestUniversalBaselines:
    def test_split_ratio_matches_direct_loglik(self):
        for seed in (0, 1, 2):
            for n in (2, 5, 10, 11):
                s = make_sample(seed=seed, n=n, theta=(1, 0, 0, 0, 0))
                theta_t = references.project_to_null(s.rows.mean(axis=0))
                log_u1, log_u2 = mb._split_log_ratio_rows(s.rows[None], theta_t[None])
                assert (log_u1[0], log_u2[0]) == pytest.approx(direct_log_us(s, theta_t), abs=1e-9)

    def test_split_decision_rule(self):
        s = make_sample(seed=4, n=10, theta=(2.5, 0, 0, 0, 0))
        dec = mb.split_lrt_test(s, 0.05)
        log_u1, _ = direct_log_us(s, references.project_to_null(s.rows.mean(axis=0)))
        assert dec.reject == (log_u1 > math.log(1.0 / 0.05))

    def test_cross_fit_averages_evalues(self):
        s = make_sample(seed=5, n=9, theta=(2.0, 0, 0, 0, 0))
        dec = mb.cross_fit_lrt_test(s, 0.05)
        log_u1, log_u2 = direct_log_us(s, references.project_to_null(s.rows.mean(axis=0)))
        avg = 0.5 * (math.exp(log_u1) + math.exp(log_u2))
        assert dec.reject == (avg > 1.0 / 0.05)

    def test_universal_more_conservative_than_pointwise(self):
        rejections = {"pw": 0, "split": 0}
        for seed in range(300):
            s = make_sample(seed=seed, n=10, theta=(1, 0, 0, 0, 0))
            pw = mb.ball_pointwise_test(s, 0.05).reject
            sp = mb.split_lrt_test(s, 0.05).reject
            rejections["pw"] += pw
            rejections["split"] += sp
        assert rejections["split"] < rejections["pw"]

    @pytest.mark.parametrize("test", [mb.split_lrt_test, mb.cross_fit_lrt_test])
    def test_alpha_range(self, test):
        # alpha = 1 used to be legal; alpha = 2 used to reject every sample.
        s = make_sample(seed=4, n=10, theta=(2.5, 0, 0, 0, 0))
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\), got 1.0"):
            test(s, 1.0)
        for alpha in (2.0, -1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="significance level must lie in"):
                test(s, alpha)


class TestSubspace:
    def test_neg2_log_lambda(self):
        s = make_sample(seed=6, n=8)
        ybar = s.rows.mean(axis=0)
        assert references.subspace_neg2_log_lambda(s) == pytest.approx(
            8 * (ybar[3] ** 2 + ybar[4] ** 2), abs=1e-12
        )

    def test_pointwise_equals_traditional_lrt(self):
        # Equivalence of the pointwise decision at the projection with the
        # chi2_2 LRT; algebraically chi2q(1 - alpha', 5) = chi2q(1 - alpha, 2).
        agree = 0
        for seed in range(500):
            s = make_sample(seed=seed, n=6, theta=(0.3, 0, 0, 0.2, 0))
            a = references.subspace_pointwise_test(s, 0.05).reject
            b = references.subspace_lrt_test(s, 0.05).reject
            agree += a == b
        assert agree == 500

    def test_quantile_identity(self):
        from pwreject.alpha_prime import alpha_prime_no_boundary

        ap = alpha_prime_no_boundary(0.05, references.SUBSPACE_SPEC)
        assert chi2_quantile(1.0 - ap, 5) == pytest.approx(
            chi2_quantile(0.95, 2), abs=1e-8
        )


class TestSampleIsolation:
    def test_caller_array_changes_do_not_leak(self):
        g = RngStream(8).generator
        src = np.asarray([1.2, 0, 0, 0, 0]) + g.standard_normal((12, mb.DIM))
        s = mb.MvnSample(src)
        tests = (mb.ball_pointwise_test, mb.split_lrt_test, mb.cross_fit_lrt_test,
                 references.subspace_pointwise_test, references.subspace_lrt_test)
        before = [t(s, 0.05) for t in tests]
        mean = s.rows.mean(axis=0)
        src[:] = 100.0
        assert np.array_equal(s.rows.mean(axis=0), mean)
        assert [t(s, 0.05) for t in tests] == before
        assert before == [t(mb.MvnSample(s.rows), 0.05) for t in tests]

    def test_statistics_are_read_only(self):
        s = make_sample(n=6)
        with pytest.raises(ValueError):
            s.rows[0] = 1.0
        with pytest.raises(ValueError):
            s.rows += 1.0

    def test_split_needs_two_rows(self):
        s = mb.MvnSample(np.zeros((1, 5)))
        for _ in range(2):
            with pytest.raises(ValueError):
                mb.split_lrt_test(s, 0.05)


def test_sample_validation():
    with pytest.raises(ValueError):
        mb.MvnSample(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        mb.MvnSample(np.zeros((0, 5)))


SCALAR_TESTS = {
    "pointwise": mb.ball_pointwise_test,
    "split_lrt": mb.split_lrt_test,
    "crossfit_lrt": mb.cross_fit_lrt_test,
}


def assert_batch_matches_reference(stack, alpha):
    """decide_batch against the per-point references.

    Every decision must also equal the one-row call of the per-sample test
    on that sample alone.
    """
    methods = mb.BATCH_METHODS
    batch = mb.decide_batch(stack, alpha)
    assert len(batch) == len(methods)
    for got, want, method in zip(batch, reference_decisions(stack, methods, alpha), methods):
        assert got.dtype == bool and got.shape == (len(stack),)
        assert np.array_equal(got, want)
        one_row = [SCALAR_TESTS[method](mb.MvnSample(rows), alpha).reject for rows in stack]
        assert got.tolist() == one_row


def ball_stack(seed, count, n, theta):
    g = RngStream(seed).generator
    return np.asarray(theta, float) + g.standard_normal((count, n, mb.DIM))


class TestDecideBatch:
    @pytest.mark.parametrize("n", [2, 3, 10, 11])
    @pytest.mark.parametrize("theta", [(0.2, 0, 0, 0, 0), (1, 0, 0, 0, 0), (6, -3, 2, 1, 0)])
    def test_matches_scalar_tests(self, n, theta):
        stack = ball_stack(n, 40, n, theta)
        for alpha in (0.01, 0.05, 0.2):
            assert_batch_matches_reference(stack, alpha)

    def test_n_one_pointwise_only(self):
        # One observation: the pointwise test runs; the split tests, and so
        # the batch, need two.
        stack = ball_stack(1, 50, 1, (1, 0, 0, 0, 0))
        (want,) = reference_decisions(stack, ("pointwise",), 0.05)
        got = [mb.ball_pointwise_test(mb.MvnSample(rows), 0.05).reject for rows in stack]
        assert got == want.tolist()
        for method in ("split_lrt", "crossfit_lrt"):
            with pytest.raises(ValueError):
                SCALAR_TESTS[method](mb.MvnSample(stack[0]), 0.05)
        with pytest.raises(ValueError, match="n >= 2"):
            mb.decide_batch(stack, 0.05)

    def test_means_inside_on_and_outside_the_ball(self):
        # Constant rows make each mean exact: head norms 0.5, exactly 1.0
        # (twice) and 5, with and without a tail.
        heads = ([0.5, 0, 0], [1.0, 0, 0], [0.6, 0.0, 0.8], [0, 3.0, 4.0])
        stack = np.array([
            np.tile(head + tail, (4, 1))
            for head in heads
            for tail in ([0.0, 0.0], [0.7, -0.2])
        ])
        assert np.linalg.norm(stack[2, 0, :3]) == 1.0
        assert_batch_matches_reference(stack, 0.05)

    def test_split_decisions_exactly_at_alpha(self):
        # alpha set to each sample's own e-value p-value 1/E: ties reject,
        # as in every other test here.  The test stays valid, because
        # Markov's inequality bounds P(E >= 1/alpha) by alpha under the
        # null.  One float below it does not reject.  The batch also runs
        # the pointwise test, which takes alpha < 1/2.
        stack = ball_stack(7, 30, 9, (2.0, 0, 0, 0, 0))
        for method in ("split_lrt", "crossfit_lrt"):
            column = mb.BATCH_METHODS.index(method)
            for rows in stack:
                p = SCALAR_TESTS[method](mb.MvnSample(rows), 0.05).max_p
                if p == 1.0:
                    continue
                for alpha in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)):
                    want = SCALAR_TESTS[method](mb.MvnSample(rows), alpha).reject
                    assert want == (alpha >= p)
                    if alpha < 0.5:
                        assert mb.decide_batch(rows[None], alpha)[column][0] == want
                    else:
                        with pytest.raises(ValueError, match=r"\(0, 0.5\), got "):
                            mb.decide_batch(rows[None], alpha)

    def test_statistics_match_per_sample_bit_for_bit(self):
        # A sample's statistics do not depend on the stack around it: each
        # row equals the one-row call on that sample alone.  The pointwise
        # p-value at the statistic also equals mvn_simple_p_value at the
        # projection of the sample mean, and each e-value test's p-value
        # is exp(-log E) of its statistic.
        stack = ball_stack(5, 200, 7, (1.0, 0.3, 0, 0.1, 0))
        stat = mb._statistic_rows(stack, mb.BATCH_METHODS)
        for b, rows in enumerate(stack):
            one_row = mb._statistic_rows(rows[None], mb.BATCH_METHODS)
            assert [stat[m][b] for m in mb.BATCH_METHODS] == [one_row[m][0] for m in mb.BATCH_METHODS]
            s = mb.MvnSample(rows)
            assert p_value(stat["pointwise"][b], mb.BALL_SPEC, None) == (
                references.mvn_simple_p_value(s, references.project_to_null(s.rows.mean(axis=0))))
            for m in ("split_lrt", "crossfit_lrt"):
                log_e = stat[m][b]
                assert SCALAR_TESTS[m](s, 0.05).max_p == (math.exp(-log_e) if log_e > 0.0 else 1.0)

    def test_non_contiguous_stack_decides_as_its_c_copy(self, monkeypatch):
        # A stack whose n axis is the contiguous one (a (B, 5, n) buffer
        # seen as (B, n, 5)) sums in another order, under einsum and
        # np.mean alike; decide_batch takes a C copy first, so its
        # statistics and decisions are those of the C stack.
        stack = ball_stack(9, 12, 101, (1.0, 0.2, 0, 0.1, 0))
        view = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert not view.flags.c_contiguous and np.array_equal(view, stack)
        assert not np.array_equal(view.mean(axis=1), stack.mean(axis=1))
        stats = []
        statistic_rows = mb._statistic_rows
        monkeypatch.setattr(mb, "_statistic_rows",
                            lambda *args: stats.append(statistic_rows(*args)) or stats[-1])
        on_view, on_copy = mb.decide_batch(view, 0.05), mb.decide_batch(stack, 0.05)
        assert [h.tolist() for h in on_view] == [h.tolist() for h in on_copy]
        assert [stats[0][m].tolist() for m in mb.BATCH_METHODS] == [
            stats[1][m].tolist() for m in mb.BATCH_METHODS]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_raise(self, bad):
        stack = ball_stack(2, 3, 4, (0, 0, 0, 0, 0))
        stack[1, 2, 3] = bad
        with pytest.raises(ValueError):
            mb.MvnSample(stack[1])
        with pytest.raises(ValueError, match="finite"):
            mb.decide_batch(stack, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            mb.decide_batch(np.zeros((2, 3, 4)), 0.05)
        with pytest.raises(ValueError):
            mb.decide_batch(np.zeros((2, 0, 5)), 0.05)
        # Every method of BATCH_METHODS is decided; there is no method list.
        hits = mb.decide_batch(np.zeros((2, 3, 5)), 0.05)
        assert [h.shape for h in hits] == [(2,)] * len(mb.BATCH_METHODS)
        with pytest.raises(TypeError):
            mb.decide_batch(np.zeros((2, 3, 5)), mb.BATCH_METHODS, 0.05)

    @pytest.mark.parametrize("methods", [("split_lrt",), ("crossfit_lrt",), ("pointwise",)])
    def test_alpha_range(self, methods):
        # The split and cross-fit branch used to reject every sample at alpha = 2.
        # alpha = 1 used to reject every sample; the batch refuses it, and so
        # does each case's scalar test.
        stack = ball_stack(3, 4, 6, (1.0, 0, 0, 0, 0))
        (method,) = methods
        with pytest.raises(ValueError, match=r"must lie in \(0, 0.5\), got 1.0"):
            mb.decide_batch(stack, 1.0)
        for rows in stack:
            with pytest.raises(ValueError, match="significance level must lie in"):
                SCALAR_TESTS[method](mb.MvnSample(rows), 1.0)
        for alpha in (2.0, -1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="significance level must lie in"):
                mb.decide_batch(stack, alpha)

    def test_level_checked_before_the_p_values(self, monkeypatch):
        # The batch runs the pointwise test, so it takes alpha in (0, 1/2).
        # It used to compute every p-value first and refuse 0.7 from alpha'.
        def no_work(*args):
            raise AssertionError("p-values computed before the level check")

        monkeypatch.setattr(mb, "_statistic_rows", no_work)
        with pytest.raises(ValueError) as err:
            mb.decide_batch(ball_stack(3, 4, 6, (1.0, 0, 0, 0, 0)), 0.7)
        assert str(err.value) == "significance level must lie in (0, 0.5), got 0.7"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 6),
        n=st.integers(2, 40),
        head=st.floats(0.0, 4.0),
        tail=st.floats(-1.0, 1.0),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
    )
    def test_matches_scalar_tests_hypothesis(self, seed, count, n, head, tail, alpha):
        stack = ball_stack(seed, count, n, (head, 0.0, 0.0, tail, 0.0))
        assert_batch_matches_reference(stack, alpha)


class TestRowMeans:
    """_row_means is np.mean(axis=1) bit for bit, on every shape the model
    sums: a numpy release that changed einsum's summation order would fail
    here before it moved a suite row."""

    @pytest.mark.parametrize("count, n", [
        (1, 2), (3, 2), (5, 7), (5, 8), (5, 9), (4, 64), (4, 1001),
        (1, 10**4),  # the one-row stack of pwreject test on a 1e4-row file
        (104, 1000),  # a full-scale table2 and fig5 block
    ])
    def test_equals_np_mean_on_the_stack_and_both_halves(self, count, n):
        for scale in (1.0, 1e3):
            stack = ball_stack(n, count, n, (1.0, -0.5, 0.2, 0.0, 3.0)) * scale
            n1 = (n + 1) // 2
            for part in (stack, stack[:, :n1], stack[:, n1:]):
                got = mb._row_means(part)
                assert got.shape == (count, mb.DIM)
                assert np.array_equal(got, part.mean(axis=1))
