"""Monte Carlo harness: determinism, aggregation, suite plumbing."""

import dataclasses
import math

import numpy as np
import pytest

from pwreject import simulation
from pwreject.distributions import RngStream
from pwreject.models import MODELS, linear_or, mvn_ball, nuisance
from pwreject.simulation import (
    CSV_COLUMNS,
    ExperimentConfig,
    SUITE_IDS,
    margin_of_error,
    run_experiment,
    run_suite,
)
from test_distributions import seed_sequence_generator
from test_linear_or import reference_decision
from test_mvn_ball import reference_decisions


def config(**overrides):
    base = dict(
        model="interval", mode="type1", truth=(0.0,), n=10, replicates=200,
        m=0, master_seed=123,
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

    def test_alpha_one_rejects_every_replicate(self, monkeypatch):
        # Every model decides at the harness's level, simulation._ALPHA:
        # each pointwise test refuses alpha = 1 (which used to reject every
        # replicate) with its own legal set.
        monkeypatch.setattr(simulation, "_ALPHA", 1.0)
        for upper, kwargs in (
            ("0.5", dict(model="interval", truth=(0.3,))),
            ("0.5", dict(model="or_null", truth=(1.0, 0.0), m=10)),
            ("0.5", dict(model="ball", truth=(0, 0, 0, 0, 0), m=1)),
            ("1", dict(model="nuisance", truth=(1.0, 2.0), m=10)),
        ):
            with pytest.raises(ValueError) as err:
                run_experiment(config(replicates=50, **kwargs))
            assert str(err.value) == "significance level must lie in (0, %s), got 1.0" % upper

    def test_margin_uses_effective_count(self):
        res = run_experiment(config(replicates=150))
        rate = res.rates["pointwise"]
        assert res.margins["pointwise"] == pytest.approx(
            margin_of_error(rate, 150 - res.flagged_replicates)
        )

    def test_nuisance_modes(self):
        cov = run_experiment(config(
            model="nuisance", mode="coverage", truth=(1.0, 2.0), n=20,
            m=20, replicates=100,
        ))
        assert 0.5 <= cov.rates["pointwise"] <= 1.0
        pow_ = run_experiment(config(
            model="nuisance", mode="power", truth=(2.0, 2.0), n=20,
            m=20, replicates=100,
        ))
        assert pow_.rates["pointwise"] > 0.5  # psi0=1 is false here

    @pytest.mark.parametrize("seed", [2.7, 3.0, "5", None])
    def test_non_integer_seed_refused_at_construction(self, seed):
        with pytest.raises(TypeError, match="master_seed must be an integer"):
            config(master_seed=seed)

    def test_numpy_integer_seed_draws_as_the_int(self):
        a = run_experiment(config(master_seed=np.uint64(123)))
        assert a.rates == run_experiment(config(master_seed=123)).rates

    def test_validation(self):
        with pytest.raises(ValueError):
            config(model="bogus")
        with pytest.raises(ValueError):
            config(mode="bogus")
        with pytest.raises(ValueError):
            config(replicates=0)
        with pytest.raises(ValueError):
            config(model="or_null", truth=(1.0, 0.0), n=3)

    def test_m_must_label_the_test_that_runs(self):
        # or_null runs m / 2 test points per boundary arm; m = 0, 1, 2 and 3
        # all used to run the same 2-point test under different m labels.
        or_null = dict(model="or_null", truth=(1.0, 0.0))
        for m in (-2, 0, 1, 3, 11):
            with pytest.raises(ValueError) as err:
                config(m=m, **or_null)
            assert str(err.value) == "the 'or_null' model needs an even m >= 2, got %d" % m
        assert config(m=2, **or_null).m == 2
        nuisance_kw = dict(model="nuisance", truth=(1.0, 2.0))
        with pytest.raises(ValueError) as err:
            config(m=0, **nuisance_kw)
        assert str(err.value) == "the 'nuisance' model needs m >= 1, got 0"
        assert config(m=1, **nuisance_kw).m == 1
        # interval tests over the continuum and ball at one point; any other
        # m used to run the same test and be written to the CSV m column.
        for m in (-3, 1, 10):
            with pytest.raises(ValueError, match="the 'interval' model needs m = 0, got %d" % m):
                config(m=m, truth=(0.5,))
        assert config(m=0, truth=(0.5,)).m == 0
        ball = dict(model="ball", truth=(1, 0, 0, 0, 0))
        for m in (-3, 0, 2, 10):
            with pytest.raises(ValueError, match="the 'ball' model needs m = 1, got %d" % m):
                config(m=m, **ball)
        assert config(m=1, **ball).m == 1

    @pytest.mark.parametrize("model, truth, m", [
        ("interval", (0.5,), 0),
        ("or_null", (1.0, 0.0), 10),
        ("ball", (1, 0, 0, 0, 0), 1),
    ])
    def test_coverage_mode_needs_the_nuisance_model(self, model, truth, m):
        # Only the nuisance model computes regions; the others reported
        # their rejection rate under the name of a coverage rate.
        with pytest.raises(ValueError, match="mode 'coverage' needs the 'nuisance' model"):
            config(model=model, truth=truth, m=m, mode="coverage")
        config(model=model, truth=truth, m=m, mode="power")

    @pytest.mark.parametrize("model, truth", [
        ("ball", (1.0,)),
        ("interval", (0.0, 5.0)),
        ("or_null", (1.0,)),
        ("nuisance", (1.0, 2.0, 3.0)),
        ("ball", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    ])
    def test_truth_length_must_match_model(self, model, truth):
        # A wrong length used to broadcast (ball) or be cut short (interval).
        with pytest.raises(ValueError, match="truth of length"):
            config(model=model, truth=truth, m=10)

    def test_split_methods_need_two_observations(self):
        # Sample splitting at n = 1 leaves an empty half; the config must
        # refuse it instead of run_experiment crashing mid-run.
        ball = dict(model="ball", truth=(1, 0, 0, 0, 0), m=1, replicates=20)
        with pytest.raises(ValueError, match="n=1 is below the 'ball' model minimum 2"):
            config(n=1, **ball)
        res = run_experiment(config(n=2, **ball))
        assert set(res.rates) == {"pointwise", "split_lrt", "crossfit_lrt"}

    @pytest.mark.parametrize("model, truth, methods", [
        ("interval", (0.0,), ("pointwise", "bonferroni")),
        ("or_null", (1.0, 0.0), ("pointwise",)),
        ("nuisance", (1.0, 2.0), ("pointwise", "lrt")),
        ("ball", (1, 0, 0, 0, 0), ("pointwise", "split_lrt", "crossfit_lrt")),
    ])
    def test_every_setting_runs_all_of_its_models_methods(self, model, truth, methods):
        m = {"interval": 0, "ball": 1}.get(model, 10)
        cfg = config(model=model, truth=truth, m=m, n=6, replicates=5)
        assert cfg.methods == methods
        assert tuple(run_experiment(cfg).rates) == methods

    @pytest.mark.parametrize("keyword, value", [
        ("methods", ("pointwise",)), ("psi0", 1.0), ("alpha", 0.05),
    ])
    def test_methods_and_psi0_are_not_settings(self, keyword, value):
        # Every setting runs all of its model's methods at alpha = 0.05,
        # and the nuisance tests test psi0 = 1.
        with pytest.raises(TypeError, match=keyword):
            config(model="nuisance", truth=(1.0, 2.0), m=10, **{keyword: value})

    @pytest.mark.parametrize("name, kwargs", [
        ("n", dict(n=10.0)),
        ("replicates", dict(replicates=2.5)),
        ("m", dict(model="nuisance", truth=(1.0, 2.0), m=10.5)),
    ])
    def test_non_integer_size_refused_at_construction(self, name, kwargs):
        # These used to construct, and run_experiment then raised a
        # TypeError from deep inside the run.
        with pytest.raises(TypeError, match="%s must be an integer" % name):
            config(**kwargs)


class TestBlocks:
    BALL = dict(model="ball", truth=(1.0, 0.0, 0.0, 0.0, 0.0), m=1)

    def test_ball_block_matches_per_replicate_scalar_tests(self):
        # Each replicate decided on its own by the per-point references
        # (test_mvn_ball.reference_decisions).
        cfg = config(replicates=40, n=6, **self.BALL)
        draws = [simulation._stack([cfg], r, 1)[0][0] for r in range(cfg.replicates)]
        counts = [int(d.sum()) for d in reference_decisions(draws, cfg.methods, 0.05)]
        res = run_experiment(cfg)
        assert [res.rates[m] for m in cfg.methods] == [c / 40 for c in counts]

    NUISANCE = dict(model="nuisance", truth=(1.0, 2.0), n=5, m=10, replicates=10)

    @staticmethod
    def spy_block_sizes(monkeypatch):
        """Record the length of every block the harness decides."""
        sizes = []
        decide = simulation._decide

        def recorded(cfg, columns):
            sizes.append(len(columns[0]))
            return decide(cfg, columns)

        monkeypatch.setattr(simulation, "_decide", recorded)
        return sizes

    @pytest.mark.parametrize("cfg", [
        config(replicates=10, n=4, **BALL),
        config(replicates=10, n=2, **BALL),
        config(replicates=11),
        config(model="or_null", truth=(1.0, 0.5), n=6, m=10, replicates=10),
        config(model="or_null", truth=(1.0, 0.0), n=5, m=100, replicates=11),
        config(mode="coverage", **NUISANCE),
        config(mode="power", **dict(NUISANCE, truth=(1.5, 2.0))),
    ], ids=["ball", "ball-n2", "interval", "or_null", "or_null-m100", "nuisance",
            "nuisance-power"])
    def test_block_length_changes_no_result(self, cfg, monkeypatch):
        per_replicate = block_floats(cfg)
        sizes = self.spy_block_sizes(monkeypatch)
        default = run_experiment(cfg)
        assert sizes == [cfg.replicates]
        # Blocks of one replicate, then of three (not a divisor of R).
        for block in (1, 3):
            monkeypatch.setattr(simulation, "_BLOCK_FLOATS", block * per_replicate)
            sizes.clear()
            res = run_experiment(cfg)
            whole, rest = divmod(cfg.replicates, block)
            assert sizes == [block] * whole + [rest] * (rest > 0)
            assert res.rates == default.rates
            assert res.flagged_replicates == default.flagged_replicates

    def test_nuisance_block_bounds_its_arrays(self, monkeypatch):
        # Every fig3 and fig4 setting at full scale: the block's arrays fit
        # _BLOCK_FLOATS, and one more replicate would not.  They are the
        # (B, m, n) proxy regressors of the regions, one product of them
        # and six (B, m) arrays (fig3), and five (B, m) statistics arrays
        # of the tests (fig4, m = 100 > 2 n).
        kwargs = simulation._suite_configs("fig3", 1.0) + simulation._suite_configs("fig4", 1.0)
        for cfg in (ExperimentConfig(master_seed=0, **kw) for kw in kwargs):
            block = simulation._block_length(cfg)
            floats = cfg.m * (2 * cfg.n + 6) if cfg.mode == "coverage" else 5 * cfg.m
            assert block * floats <= simulation._BLOCK_FLOATS
            assert (block + 1) * floats > simulation._BLOCK_FLOATS
        # The harness hands the batch arrays of that many rows.
        shapes = []
        batch = nuisance.decide_batch

        def recorded(x, y, *args):
            shapes.append(x.shape)
            return batch(x, y, *args)

        monkeypatch.setattr(nuisance, "decide_batch", recorded)
        monkeypatch.setattr(simulation, "_BLOCK_FLOATS", 1000)
        run_experiment(config(mode="power", **dict(self.NUISANCE, n=10, m=100, replicates=5)))
        assert shapes == [(2, 10), (2, 10), (1, 10)]

    def test_or_null_block_matches_per_replicate_scalar_tests(self):
        cfg = config(model="or_null", truth=(0.3, 0.3), n=8, m=20, replicates=60)
        # Each replicate decided on its own by the lstsq reference
        # (test_linear_or.reference_decision).
        rejects = 0
        for r in range(cfg.replicates):
            columns = simulation._stack([cfg], r, 1)
            data = linear_or.RegressionData(*(column[0] for column in columns))
            rejects += reference_decision(data, 0.05, cfg.m // 2).reject
        assert 0 < rejects < cfg.replicates
        assert run_experiment(cfg).rates == {"pointwise": rejects / cfg.replicates}

    def test_or_null_block_bounds_its_arrays(self, monkeypatch):
        # Every table1 setting at full scale: the block's arrays fit
        # _BLOCK_FLOATS, and one more replicate would not.  They are five
        # arrays of the (B, m) statistics over the 2 m' = m boundary points
        # or of the (B, 3 n) draws, whichever is larger (a block at n = 100,
        # m = 100 sized by the (B, n, 5) draws once held a 1048 x 50 x 100
        # residual tensor, 42 MB).
        for kw in simulation._suite_configs("table1", 1.0):
            cfg = ExperimentConfig(master_seed=0, **kw)
            block = simulation._block_length(cfg)
            floats = 5 * max(cfg.m, 3 * cfg.n)
            assert block * floats <= simulation._BLOCK_FLOATS < (block + 1) * floats
        # The harness hands the batch arrays of that many rows.
        shapes = []
        batch = linear_or.decide_batch

        def recorded(x1, x2, y, *args):
            shapes.append((x1.shape, x2.shape, y.shape))
            return batch(x1, x2, y, *args)

        monkeypatch.setattr(linear_or, "decide_batch", recorded)
        monkeypatch.setattr(simulation, "_BLOCK_FLOATS", 1000)
        run_experiment(config(model="or_null", truth=(1.0, 0.0), n=10, m=100, replicates=5))
        assert shapes == [((2, 10),) * 3, ((2, 10),) * 3, ((1, 10),) * 3]

    def test_flagged_replicate_counts_for_no_method(self, monkeypatch):
        # Every other replicate is flagged; of the rest, method 0 hits every
        # one and method 1 none.  A flagged replicate leaves the
        # denominator, so it must also leave method 0's numerator (the rate
        # was 10/5 = 2.0 when it did not).
        def flag_every_other(x, y, *args):
            flagged = np.arange(len(x)) % 2 == 1
            return [~flagged, np.zeros(len(x), dtype=bool)], flagged

        monkeypatch.setattr(nuisance, "decide_batch", flag_every_other)
        res = run_experiment(config(mode="coverage", **self.NUISANCE))
        assert res.flagged_replicates == 5
        assert res.rates == {"pointwise": 1.0, "lrt": 0.0}
        assert res.margins["pointwise"] == 0.0

    def test_all_replicates_flagged_raises(self, monkeypatch):
        # With no replicate left to count, no rate exists.
        def flag_all(x, y, *args):
            return [np.zeros(len(x), dtype=bool)] * 2, np.ones(len(x), dtype=bool)

        monkeypatch.setattr(nuisance, "decide_batch", flag_all)
        with pytest.raises(RuntimeError, match="all replicates were flagged as degenerate"):
            run_experiment(config(mode="coverage", **self.NUISANCE))


def block_floats(cfg):
    """Floats per replicate that _block_length fits in _BLOCK_FLOATS: two
    (m, n) regressor tensors and six m-point arrays for the nuisance
    regions; five arrays of the larger of the draws of the data columns and
    the m test-point statistics for the nuisance tests and or_null; the
    (n, 5) draws otherwise."""
    if cfg.mode == "coverage":
        return cfg.m * (2 * cfg.n + 6)
    if cfg.model in ("nuisance", "or_null"):
        return 5 * max(len(MODELS[cfg.model].columns) * cfg.n, cfg.m)
    return cfg.n * mvn_ball.DIM


def rows_setting_by_setting(suite, master_seed, scale):
    """run_suite's rows, built from run_experiment on each setting alone."""
    return [row for cfg in simulation._suite_settings(suite, master_seed, scale)
            for row in simulation._suite_rows(suite, run_experiment(cfg))]


def group(suite, scale, n, master_seed=5):
    """The configs of a suite's settings at sample size n: one decision key."""
    configs = [cfg for cfg in simulation._suite_settings(suite, master_seed, scale) if cfg.n == n]
    assert len({simulation._decision_key(cfg) for cfg in configs}) == 1
    return configs


class TestGroups:
    @pytest.mark.parametrize("suite", SUITE_IDS)
    @pytest.mark.parametrize("master_seed, scale", [(3, 0.0005), (11, 0.002)])
    def test_suite_rows_equal_setting_by_setting_rows(self, suite, master_seed, scale):
        assert run_suite(suite, master_seed, scale) == rows_setting_by_setting(
            suite, master_seed, scale)

    @pytest.mark.parametrize("suite, n", [("fig4", 10), ("fig5", 5), ("fig2", 5)])
    def test_blocks_across_settings_change_no_result(self, suite, n, monkeypatch):
        configs = group(suite, 0.0005, n)  # 5 replicates per setting
        alone = [run_experiment(cfg) for cfg in configs]
        sizes = TestBlocks.spy_block_sizes(monkeypatch)
        per_row = block_floats(configs[0])
        total = sum(cfg.replicates for cfg in configs)
        # One block, then blocks of one row and of three: a 3-row block
        # spans two settings.
        for block in (total, 1, 3):
            monkeypatch.setattr(simulation, "_BLOCK_FLOATS", block * per_row)
            sizes.clear()
            results = simulation._run_settings(configs)
            whole, rest = divmod(total, block)
            assert sizes == [block] * whole + [rest] * (rest > 0)
            for got, want in zip(results, alone):
                assert got.config == want.config
                assert got.rates == want.rates and got.margins == want.margins
                assert got.flagged_replicates == want.flagged_replicates

    def test_flagged_rows_are_counted_per_setting(self, monkeypatch):
        # One block of 12 rows over settings of 4, 3 and 5 replicates.
        # Rows 1, 5, 6 and 11 are flagged: one in the first setting, two
        # in the second and one in the last.  Method 0 hits every other
        # row, method 1 only row 8.
        flagged = np.isin(np.arange(12), [1, 5, 6, 11])

        def fake(x, y, *args):
            assert len(x) == 12
            return [~flagged, np.arange(12) == 8], flagged

        monkeypatch.setattr(nuisance, "decide_batch", fake)
        base = dict(model="nuisance", mode="power", n=5, m=10)
        configs = [ExperimentConfig(truth=(psi, 2.0), replicates=r, master_seed=seed, **base)
                   for psi, r, seed in ((0.5, 4, 1), (1.0, 3, 2), (1.5, 5, 3))]
        results = simulation._run_settings(configs)
        assert [r.flagged_replicates for r in results] == [1, 2, 1]
        assert [r.rates for r in results] == [
            {"pointwise": 1.0, "lrt": 0.0},
            {"pointwise": 1.0, "lrt": 0.0},
            {"pointwise": 1.0, "lrt": 0.25},
        ]

    @pytest.mark.parametrize("suite, module, calls", [
        ("fig4", nuisance, 2), ("fig5", mvn_ball, 6), ("table1", linear_or, 10),
    ])
    def test_one_decision_call_per_group(self, suite, module, calls, monkeypatch):
        seen = []
        batch = module.decide_batch

        def recorded(*args):
            seen.append(len(args[0]))
            return batch(*args)

        monkeypatch.setattr(module, "decide_batch", recorded)
        run_suite(suite, 4, 0.0005)
        # Every replicate of the suite, 5 per setting, is decided once.
        assert len(seen) == calls
        assert sum(seen) == 5 * len(simulation._suite_configs(suite, 0.0005))

    @pytest.mark.parametrize("suite, groups", [
        ("table1", 10), ("table2", 5), ("fig1", 1), ("fig2", 5), ("fig3", 6), ("fig4", 2),
        ("fig5", 6),
    ])
    def test_decision_groups_per_suite(self, suite, groups):
        # Full scale: or_null per (n, m), ball and interval per n, the
        # nuisance regions per (n, psi) and the nuisance tests per n.
        configs = simulation._suite_settings(suite, 0, 1.0)
        assert len({simulation._decision_key(cfg) for cfg in configs}) == groups


def reference_draw(cfg, g):
    """One replicate's data columns, drawn one array at a time from ``g``."""
    n = cfg.n
    if cfg.model == "interval":
        return (cfg.truth[0] + g.standard_normal(n),)
    if cfg.model == "or_null":
        b1, b2 = cfg.truth
        x = g.standard_normal((n, 2))
        eps = g.standard_normal(n)
        return x[:, 0], x[:, 1], b1 * x[:, 0] + b2 * x[:, 1] + eps
    if cfg.model == "nuisance":
        psi, phi = cfg.truth
        x = g.standard_normal(n)
        eps = g.standard_normal(n)
        return x, psi * phi * x + psi * phi * phi + eps
    return (np.asarray(cfg.truth, dtype=float) + g.standard_normal((n, mvn_ball.DIM)),)


class TestStreams:
    # Replicates enough for every stacked row below.
    CONFIGS = {
        "interval": config(truth=(0.7,), n=6, replicates=2000),
        "or_null": config(model="or_null", truth=(0.3, -1.2), n=7, m=10, replicates=2000),
        "nuisance": config(model="nuisance", truth=(1.5, 2.5), n=5, m=10, replicates=2000),
        "ball": config(n=4, replicates=2000, **TestBlocks.BALL),
    }

    @pytest.mark.parametrize("model", sorted(CONFIGS))
    @pytest.mark.parametrize("lo, size", [(0, 1), (60, 10), (1000, 64)])
    def test_stack_matches_seed_sequence_streams(self, model, lo, size):
        # Bit for bit the columns of a PCG64 stream per replicate, seeded
        # through SeedSequence(master_seed, spawn_key=(r,)), across a
        # 64-index block boundary too.
        cfg = self.CONFIGS[model]
        stacked = simulation._stack([cfg], lo, size)
        rows = [reference_draw(cfg, seed_sequence_generator(cfg.master_seed, lo + r))
                for r in range(size)]
        assert len(stacked) == len(rows[0])
        for column, reference in zip(stacked, zip(*rows)):
            assert np.array_equal(column, np.stack(reference))
            assert column.flags.c_contiguous

    @pytest.mark.parametrize("model", sorted(CONFIGS))
    def test_draw_is_the_one_replicate_stack(self, model):
        # A replicate drawn from its own RngStream is the one-row stack.
        cfg = self.CONFIGS[model]
        for r in (0, 63, 64, 200):
            drawn = reference_draw(cfg, RngStream(cfg.master_seed, r).generator)
            stacked = simulation._stack([cfg], r, 1)
            assert [column.shape for column in drawn] == [column.shape[1:] for column in stacked]
            assert all(np.array_equal(a, b[0]) for a, b in zip(drawn, stacked))

    @pytest.mark.parametrize("model", sorted(CONFIGS))
    def test_stack_across_settings_is_each_setting_stack(self, model):
        # Rows 1 .. 5 of a group are replicates 1, 2 of the first setting
        # and 0, 1, 2 of the second, each with its own truth and stream.
        first = dataclasses.replace(self.CONFIGS[model], replicates=3)
        truth = tuple(t + 0.5 for t in first.truth)
        second = dataclasses.replace(first, truth=truth, master_seed=77, replicates=4)
        grouped = simulation._stack([first, second], 1, 5)
        alone = zip(simulation._stack([first], 1, 2), simulation._stack([second], 0, 3))
        for column, (a, b) in zip(grouped, alone):
            assert np.array_equal(column, np.concatenate([a, b]))

    @pytest.mark.parametrize("master_seed", [0, 1, 7, 123, 2**32 + 3, 2**64 - 1, 2**130])
    def test_setting_seed_is_the_seed_sequence_word(self, master_seed):
        for index in (0, 1, 40, 63, 64, 99):
            seq = np.random.SeedSequence(master_seed, spawn_key=(1_000_000 + index,))
            assert simulation._setting_seed(master_seed, index) == int(
                seq.generate_state(1, np.uint64)[0])


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
