"""Monte Carlo harness: determinism, aggregation, suite plumbing."""

import math

import pytest

from pwreject.simulation import (
    CSV_COLUMNS,
    ExperimentConfig,
    SUITE_IDS,
    margin_of_error,
    run_experiment,
    run_suite,
)


def config(**overrides):
    base = dict(
        model="interval", mode="type1", truth=(0.0,), n=10, replicates=200,
        alpha=0.05, m=0, master_seed=123, methods=("pointwise", "bonferroni"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMargin:
    def test_formula(self):
        assert margin_of_error(0.3, 400) == pytest.approx(
            1.96 * math.sqrt(0.3 * 0.7 / 400)
        )
        assert margin_of_error(0.0, 100) == 0.0


class TestRunExperiment:
    def test_deterministic(self):
        a = run_experiment(config())
        b = run_experiment(config())
        assert a.rates == b.rates and a.margins == b.margins

    def test_seed_changes_results(self):
        a = run_experiment(config(truth=(1.0,)))
        b = run_experiment(config(truth=(1.0,), master_seed=124))
        assert a.rates != b.rates

    def test_alpha_one_rejects_every_replicate(self):
        for kwargs in (
            dict(model="interval", truth=(0.3,), methods=("pointwise",)),
            dict(model="or_null", truth=(1.0, 0.0), m=10, methods=("pointwise",)),
            dict(model="ball", truth=(0, 0, 0, 0, 0), m=1, methods=("pointwise",)),
        ):
            res = run_experiment(config(alpha=1.0, replicates=50, **kwargs))
            assert res.rates["pointwise"] == 1.0

    def test_margin_uses_effective_count(self):
        res = run_experiment(config(replicates=150))
        rate = res.rates["pointwise"]
        assert res.margins["pointwise"] == pytest.approx(
            margin_of_error(rate, 150 - res.flagged_replicates)
        )

    def test_nuisance_modes(self):
        cov = run_experiment(config(
            model="nuisance", mode="coverage", truth=(1.0, 2.0), n=20,
            m=20, replicates=100, methods=("pointwise", "lrt"),
        ))
        assert 0.5 <= cov.rates["pointwise"] <= 1.0
        pow_ = run_experiment(config(
            model="nuisance", mode="power", truth=(2.0, 2.0), n=20,
            m=20, replicates=100, methods=("pointwise",),
        ))
        assert pow_.rates["pointwise"] > 0.5  # psi0=1 is false here

    def test_validation(self):
        with pytest.raises(ValueError):
            config(model="bogus")
        with pytest.raises(ValueError):
            config(mode="bogus")
        with pytest.raises(ValueError):
            config(replicates=0)
        with pytest.raises(ValueError):
            config(model="or_null", truth=(1.0, 0.0), n=3)
        with pytest.raises(ValueError):
            config(methods=())
        with pytest.raises(ValueError):
            run_experiment(config(methods=("nope",)))

    def test_split_methods_need_two_observations(self):
        # Sample splitting at n = 1 leaves an empty half; the config must
        # refuse it instead of run_experiment crashing mid-run.
        ball = dict(model="ball", truth=(1, 0, 0, 0, 0), m=1, n=1)
        for method in ("split_lrt", "crossfit_lrt"):
            with pytest.raises(ValueError, match=method):
                config(methods=("pointwise", method), **ball)
        res = run_experiment(config(methods=("pointwise",), replicates=20, **ball))
        assert 0.0 <= res.rates["pointwise"] <= 1.0
        res = run_experiment(config(
            methods=("split_lrt", "crossfit_lrt"), replicates=20, **dict(ball, n=2)
        ))
        assert set(res.rates) == {"split_lrt", "crossfit_lrt"}


class TestRunSuite:
    def test_row_schema_and_determinism(self):
        rows1 = run_suite("table1", 7, scale=0.002)
        rows2 = run_suite("table1", 7, scale=0.002)
        assert rows1 == rows2
        assert len(rows1) == 10
        for row in rows1:
            assert tuple(row.keys()) == CSV_COLUMNS

    def test_scale_changes_replicates(self):
        rows = run_suite("table2", 7, scale=0.0005)
        assert all(r["replicates"] == 20 for r in rows)
        assert len(rows) == 5 * 3

    def test_all_suites_have_settings(self):
        for suite in SUITE_IDS:
            rows = run_suite(suite, 1, scale=0.0002)
            assert rows

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            run_suite("nope", 0)
        with pytest.raises(ValueError):
            run_suite("table1", 0, scale=0.0)
        with pytest.raises(ValueError):
            run_suite("table1", 0, scale=1e-9)

    def test_different_seeds_differ(self):
        rows1 = run_suite("fig1", 1, scale=0.01)
        rows2 = run_suite("fig1", 2, scale=0.01)
        assert rows1 != rows2
