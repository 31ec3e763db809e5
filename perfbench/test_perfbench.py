"""Tests of the benchmark's own arithmetic.

Run from the repository root: python3 -m pytest perfbench
"""

import functools
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import (  # noqa: E402
    OpLedger,
    cache_hit_ratio,
    min_samples_for,
    percentile,
    ratio,
    samples_beyond,
    self_times,
)
from tracer import Tracer  # noqa: E402


class Ticks:
    """A clock that returns the next scripted time on each read."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# --- the percentile with ten samples beyond it ---------------------------------

def test_p95_needs_two_hundred_samples():
    assert samples_beyond(199, 0.95) == 9
    assert samples_beyond(200, 0.95) == 10
    assert min_samples_for(0.95) == 200
    assert min_samples_for(0.50) == 20
    assert min_samples_for(0.99) == 1000


def test_nearest_rank_percentile_leaves_the_counted_samples_beyond():
    values = list(range(1, 201))[::-1]
    p95 = percentile(values, 0.95)
    assert p95 == 190
    assert sum(v > p95 for v in values) == samples_beyond(len(values), 0.95)
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([5.0], 0.95) == 5.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


# --- self time of nested spans -------------------------------------------------------

def test_self_time_subtracts_children_and_merges_same_name_reentry():
    # outer 0..10 holds inner 1..4 (which holds leaf 2..3) and inner 5..7;
    # outer re-entering itself at no cost adds no span.
    tr = Tracer(clock=Ticks([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0]))
    leaf = tr.wrap(lambda: None, "leaf")
    inner = tr.wrap(lambda first: leaf() if first else None, "inner")

    def outer_body(depth):
        if depth:
            return outer(depth - 1)
        inner(True)
        inner(False)

    outer = tr.wrap(outer_body, "outer")
    outer(1)

    assert tr.calls("outer") == 1
    assert tr.calls("inner") == 2
    assert tr.self_s("outer") == pytest.approx(10.0 - 3.0 - 2.0)
    assert tr.self_s("inner") == pytest.approx((3.0 - 1.0) + 2.0)
    assert tr.self_s("leaf") == pytest.approx(1.0)
    assert tr.total_s("inner") == pytest.approx(5.0)
    assert tr.pairs == {("inner", "leaf"): 1, ("outer", "inner"): 2}

    offline = self_times(tr.spans)
    by_name = {}
    for span in tr.spans:
        by_name[span[0]] = by_name.get(span[0], 0.0) + offline[span[3]]
    assert by_name == pytest.approx({n: tr.self_s(n) for n in ("outer", "inner", "leaf")})


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("p", 0.0, 10.0, 1, 0, 0),
        ("a", 1.0, 5.0, 2, 1, 0),
        ("b", 4.0, 6.0, 3, 1, 0),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0)


def test_spans_close_when_the_call_raises():
    tr = Tracer(clock=Ticks([0.0, 1.0, 4.0]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap(boom, "boom")()
    assert tr.stack == []
    assert tr.calls("boom") == 1 and tr.total_s("boom") == pytest.approx(3.0)


def test_spans_beyond_keep_are_aggregated_only():
    tr = Tracer(keep=2)
    fn = tr.wrap(lambda: None, "f")
    for _ in range(5):
        fn()
    assert len(tr.spans) == 2 and tr.dropped == 3 and tr.calls("f") == 5


# --- the cache hit ratio ------------------------------------------------------------------

def test_cache_hit_ratio_over_an_interval_of_cache_info_readings():
    @functools.lru_cache(maxsize=None)
    def square(x):
        return x * x

    square(1)
    info = square.cache_info()
    before = (info.hits, info.misses)
    for x in (1, 1, 2, 2, 2):
        square(x)
    info = square.cache_info()
    assert cache_hit_ratio(before, (info.hits, info.misses)) == pytest.approx(4 / 5)


def test_cache_hit_ratio_without_lookups_is_zero():
    assert cache_hit_ratio((7, 3), (7, 3)) == 0.0
    assert ratio(1, 0) == 0.0


# --- how failed_frac counts operations ---------------------------------------------------

def test_failed_ops_count_every_op_of_a_failed_call():
    ledger = OpLedger()
    ledger.record(10, True)
    ledger.record(5, False)
    assert (ledger.attempted, ledger.failed) == (15, 5)
    assert ledger.failed_frac == pytest.approx(1 / 3)


def test_reference_mismatch_fails_every_op():
    ledger = OpLedger()
    ledger.record(10, True)
    ledger.void()
    ledger.record(3, True)
    assert (ledger.attempted, ledger.failed, ledger.failed_frac) == (13, 13, 1.0)


def test_empty_ledger_has_no_failures():
    assert OpLedger().failed_frac == 0.0


def test_phase_counts_raising_and_bad_output_calls_as_failed_ops():
    from run import Phase, run_call

    def raise_it():
        raise RuntimeError("boom")

    def call(label, ops, run, check):
        return types.SimpleNamespace(label=label, ops=ops, run=run, check=check)

    good = call("good", 40, lambda: "ok", lambda r: (r.encode(), [], 2))
    bad = call("bad", 40, lambda: "ok", lambda r: (r.encode(), ["wrong"], 0))
    raising = call("raising", 1, raise_it, lambda r: (b"", [], 0))
    ledger = OpLedger()
    phase = Phase()
    for c in (good, bad, raising):
        result, error = run_call(c)
        phase.record(c, 0.01, result, error, ledger, first=True)
    assert (ledger.attempted, ledger.failed) == (81, 41)
    assert phase.ops_ok == 40 and phase.flagged == 2
    assert len(phase.latencies) == 3
    assert any("RuntimeError: boom" in p for p in phase.problems)


# --- wrappers on the real package ------------------------------------------------------

def _import_package():
    src = os.path.join(os.path.dirname(HERE), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from pwreject import cli, simulation  # noqa: F401  (cli is a traced site)

    return simulation


def test_tracing_records_layers_and_changes_no_output():
    simulation = _import_package()
    from pwreject.models import normal_mean
    from tracer import install

    plain = simulation.run_suite("fig2", 5, 0.0002)
    originals = (simulation.run_suite, normal_mean.interval_null_test,
                 simulation.RngStream.__init__)
    tr = Tracer()
    installed = install(tr)
    try:
        traced = simulation.run_suite("fig2", 5, 0.0002)
    finally:
        installed.uninstall()
    assert traced == plain
    assert installed.missing == []
    assert (simulation.run_suite, normal_mean.interval_null_test,
            simulation.RngStream.__init__) == originals
    assert tr.calls("simulation") == 1  # run_experiment merges into run_suite
    assert tr.calls("distributions.rngstream") == 20
    assert tr.calls("models.interval") == 40
    assert tr.counts["testing.decisions"] == 40
    assert tr.pairs[("simulation", "models.interval")] == 40


def test_suite_checks_catch_a_wrong_margin_and_a_short_count():
    _import_package()
    from workloads import check_suite_rows

    from pwreject import simulation

    rows = simulation.run_suite("table1", 3, 0.0005)
    assert check_suite_rows("table1", 0.0005, rows) == ([], 0)
    bad = [dict(r) for r in rows]
    bad[0]["margin"] = repr(float(bad[0]["margin"]) + 1e-9)
    bad[1]["replicates"] -= 1
    problems, _ = check_suite_rows("table1", 0.0005, bad)
    assert len(problems) == 2
