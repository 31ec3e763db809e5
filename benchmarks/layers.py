"""Time each layer of pwreject on the inputs the harness sends it.

Prints one JSON object with one section per layer of ROADMAP aim 1.  The
inputs are the harness's own: every decision group of every suite
(``simulation._suite_settings`` grouped by ``_decision_key``) and the
group's first block (``_block_length`` rows, or all of the group's
replicates if fewer), at two scales: ``perfbench``, the scale each suite
runs at in perfbench's workloads (fig1, in no workload, at fig2's), and
``full``, the scale ``pwreject simulate`` runs at by default.

- ``kernels``: ``reg_lower_gamma``, ``reg_inc_beta`` and the chi-square,
  F and t CDFs, in microseconds per call, over the arguments the models
  pass while deciding the perfbench-scale blocks; and each quantile, cold,
  at the distinct arguments the models pass.  A function that no block
  calls shows only its count of calls, 0.
- ``alpha_prime``: alpha' of each model's null geometry at level 0.05,
  cold and warm.
- ``data``: one ``RngStream``, cold and warm, against
  ``PCG64(SeedSequence(seed, spawn_key=(r,)))``; and ``_stack`` of each
  group's first block, cold and warm, in microseconds per replicate.
- ``decide``: ``simulation._decide`` on each first block against the
  per-dataset tests (the path ``pwreject test`` takes) on its first 16
  rows, in microseconds per replicate.  Both must give the same decisions.
  ``closest_call`` is, per method, the smallest relative distance of a
  row of the block from its cut: |s - c| / c of the statistic s from its
  critical value c (ball, or_null, nuisance tests), |psi - e| / |psi| of
  the region's psi from the nearest interval endpoint e (nuisance
  regions), and |p - alpha'| / alpha' of the per-dataset max p (interval).
  A change that moves the statistics by a relative delta far below it
  flips no decision of that block.
- ``harness``: each suite at its perfbench scale, ``run_suite`` (grouped
  by decision key) against ``run_experiment`` on each setting alone, in
  milliseconds per suite call.  Pass k runs both, in alternating order, on
  master seed ``--seed`` + 1 + k, so the seed-word cache is as cold as in a
  perfbench round; both must give the same rows.
- ``cli``: ``cli._load_columns`` on 1e3- and 1e4-row files of each
  model's columns, in microseconds per row, and ``build_parser`` plus
  ``parse_args`` on one ``test`` command line, cold and warm.

A cold call starts with every cache emptied (alpha', the quantiles, the
stream seed words and the parser); a warm call repeats the previous one.
Each timing is the median of ``--repeats`` calls after one untimed call.
Run it from a checkout; it imports ``pwreject`` from that checkout's
``src``:

    python3 benchmarks/layers.py --repeats 15
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pwreject import cli, distributions, simulation, testing  # noqa: E402
from pwreject.alpha_prime import (  # noqa: E402
    alpha_prime, alpha_prime_no_boundary, alpha_prime_with_boundary)
from pwreject.models import MODELS, linear_or, mvn_ball, normal_mean, nuisance  # noqa: E402

ALPHA = simulation._ALPHA
PERFBENCH_SCALES = {
    "table1": 0.0005, "table2": 0.0002, "fig1": 0.0005, "fig2": 0.0005,
    "fig3": 0.0002, "fig4": 0.0005, "fig5": 0.0002,
}
SCALES = {"perfbench": PERFBENCH_SCALES, "full": dict.fromkeys(PERFBENCH_SCALES, 1.0)}
# Rows of each block that the per-dataset tests decide too.
CHECKED_ROWS = 16
# Where the models call the CDFs and the quantiles (the chi-square and F
# CDFs through testing's survival function, which ball, or_null and
# nuisance share, and the chi-square CDF of the nuisance LRT's p-value),
# and where the CDFs call the kernels; distributions holds each of these
# functions under its name.
CALL_SITES = (
    (distributions, "reg_lower_gamma"), (distributions, "reg_inc_beta"),
    (testing, "chi2_cdf"), (nuisance, "chi2_cdf"), (testing, "f_cdf"), (normal_mean, "t_cdf"),
    (nuisance, "chi2_quantile"), (nuisance, "f_quantile"),
)
QUANTILES = ("chi2_quantile", "f_quantile")
CACHES = (
    alpha_prime_no_boundary, alpha_prime_with_boundary, testing.critical_value,
    distributions.chi2_quantile, distributions.f_quantile, distributions.t_quantile,
    distributions._seed_block, cli.build_parser,
)
NULL_SPECS = {
    "interval": normal_mean.NULL_SPEC, "or_null": linear_or.NULL_SPEC,
    "nuisance": nuisance.NULL_SPEC, "ball": mvn_ball.BALL_SPEC,
}
CSV_ROWS = (1_000, 10_000)


def median_us(fn, repeats, per=1):
    """Median microseconds of ``repeats`` calls of ``fn`` after one untimed call, over ``per``."""
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(1e6 * statistics.median(times[1:]) / per, 3)


def cold(fn):
    """``fn`` called with every cache of CACHES emptied first."""
    def call():
        for cache in CACHES:
            cache.cache_clear()
        return fn()
    return call


def groups(seed, scale):
    """(suite, configs, rows) of every decision group of every suite at a SCALES key.

    ``configs`` are the group's settings in suite order and ``rows`` the
    length of its first block.
    """
    for suite, suite_scale in SCALES[scale].items():
        keyed = {}
        for config in simulation._suite_settings(suite, seed, suite_scale):
            keyed.setdefault(simulation._decision_key(config), []).append(config)
        for configs in keyed.values():
            total = sum(config.replicates for config in configs)
            yield suite, configs, min(simulation._block_length(configs[0]), total)


def per_dataset(config, columns, rows):
    """Each method's decisions on the first ``rows`` datasets of a block, one at a time."""
    out = []
    for b in range(rows):
        cols = [column[b] for column in columns]
        if config.model == "interval":
            sample = normal_mean.UnivariateSample(cols[0])
            out.append([test(sample, 0.0, 1.0, ALPHA).reject for test in
                        (normal_mean.interval_null_test, normal_mean.bonferroni_interval_test)])
        elif config.model == "or_null":
            data = linear_or.RegressionData(*cols)
            out.append([linear_or.or_null_test(data, ALPHA, config.m // 2).reject])
        elif config.model == "nuisance":
            data = nuisance.XYData(*cols)
            mode, psi = simulation._nuisance_target(config)
            if mode == "coverage":
                out.append([region(data, ALPHA, config.m).contains(psi) for region in
                            (nuisance.psi_region_F, nuisance.psi_region_LRT)])
            else:
                out.append([test(data, psi, ALPHA, config.m).reject for test in
                            (nuisance.psi_pointwise_test, nuisance.psi_lrt_test)])
        else:
            sample = mvn_ball.MvnSample(cols[0])
            out.append([test(sample, ALPHA).reject for test in (
                mvn_ball.ball_pointwise_test, mvn_ball.split_lrt_test, mvn_ball.cross_fit_lrt_test)])
    return np.array(out, dtype=bool).T


def decisions_agree(configs, columns):
    """Whether ``_decide`` on a group's block and the per-dataset tests agree on its first rows."""
    hits, _ = simulation._decide(configs[0], columns)
    rows = min(CHECKED_ROWS, len(columns[0]))
    return np.array_equal(np.array(hits, dtype=bool)[:, :rows],
                          per_dataset(configs[0], columns, rows))


def sf_cut(spec, df_den):
    """The critical value of a pointwise test whose max p is ``testing.p_value``."""
    return testing.critical_value(testing.p_value, alpha_prime(ALPHA, spec), spec, df_den)


def closest_call(config, columns):
    """{method: the smallest relative distance of a row of the block from its cut}."""
    model, n = config.model, config.n
    if model == "interval":
        rows = range(len(columns[0]))
        return {method: min(abs(d.max_p - d.alpha_prime_used) / d.alpha_prime_used for d in (
            test(normal_mean.UnivariateSample(columns[0][b]), 0.0, 1.0, ALPHA) for b in rows))
            for method, test in zip(config.methods, (
                normal_mean.interval_null_test, normal_mean.bonferroni_interval_test))}
    if model == "ball":
        stat = mvn_ball._statistic_rows(columns[0], mvn_ball.BATCH_METHODS)
        cut = dict.fromkeys(mvn_ball.BATCH_METHODS,
                            testing.critical_value(mvn_ball._e_p_value, ALPHA))
        cut["pointwise"] = sf_cut(mvn_ball.BALL_SPEC, None)
    elif model == "or_null":
        stat = {"pointwise": linear_or._statistic_rows(*columns, config.m // 2)[0]}
        cut = {"pointwise": sf_cut(linear_or.NULL_SPEC, n - 3)}
    else:
        mode, psi = simulation._nuisance_target(config)
        width = nuisance.REGION_WIDTH if mode == "coverage" else nuisance.TEST_WIDTH
        flag, stat = nuisance._statistic_rows(*columns, mode, psi, ALPHA, config.m, width)
        if mode == "coverage":
            return {name: float(np.min(np.where(
                curved, np.minimum(abs(psi - lo), abs(psi - hi)), np.inf)[flag == 0])) / abs(psi)
                for name, (_, lo, hi, curved) in stat.items()}
        stat = {name: values[flag == 0] for name, values in stat.items()}
        cut = {"pointwise": sf_cut(nuisance.NULL_SPEC, n - 2),
               "lrt": testing.critical_value(nuisance._lrt_p_value, ALPHA, n)}
    return {name: float(np.min(np.abs(stat[name] - cut[name]))) / cut[name] for name in stat}


def recorded_calls(run):
    """{name: argument tuples} of every call that ``run()`` makes at CALL_SITES."""
    calls = {name: [] for _, name in CALL_SITES}
    originals = [getattr(module, name) for module, name in CALL_SITES]

    def spy(fn, log):
        return lambda *args: log.append(args) or fn(*args)

    for (module, name), fn in zip(CALL_SITES, originals):
        setattr(module, name, spy(fn, calls[name]))
    try:
        run()
    finally:
        for (module, name), fn in zip(CALL_SITES, originals):
            setattr(module, name, fn)
    return calls


def kernels_section(blocks, repeats):
    def decide_all():
        for config, columns in blocks:
            simulation._decide(config, columns)

    decide_all()  # fills the alpha' and quantile caches, so no quantile calls a CDF below
    out = {}
    for name, args in recorded_calls(decide_all).items():
        fn = getattr(distributions, name)
        out[name] = {"calls": len(args)}
        if not args:
            continue
        if name in QUANTILES:
            args = sorted(set(args))
            one = [cold(lambda a=a: fn(*a)) for a in args]
            out[name].update(arguments=len(args), cold_us_per_call=median_us(
                lambda: [call() for call in one], repeats, len(args)))
        else:
            out[name]["us_per_call"] = median_us(lambda: [fn(*a) for a in args], repeats, len(args))
    return out


def harness_row(suite, seed, scale, repeats):
    def per_setting(suite, master, scale):
        return [row for config in simulation._suite_settings(suite, master, scale)
                for row in simulation._suite_rows(suite, simulation.run_experiment(config))]

    paths = {"grouped": simulation.run_suite, "per_setting": per_setting}
    times = {name: [] for name in paths}
    for k in range(repeats + 1):
        rows = {}
        for name in sorted(paths, reverse=k % 2 == 1):
            start = time.perf_counter()
            rows[name] = paths[name](suite, seed + 1 + k, scale)
            times[name].append(time.perf_counter() - start)
        if rows["grouped"] != rows["per_setting"]:
            raise AssertionError("%s at master seed %d: grouped and per-setting rows differ"
                                 % (suite, seed + 1 + k))
    settings = simulation._suite_settings(suite, seed, scale)
    out = {"suite": suite, "scale": scale, "settings": len(settings),
           "groups": len({simulation._decision_key(config) for config in settings}),
           "replicates": sum(config.replicates for config in settings)}
    for name, t in times.items():
        out[name + "_ms"] = round(1e3 * statistics.median(t[1:]), 3)
    return out


def cli_section(seed, repeats):
    rng = np.random.default_rng(seed)
    load = []
    with tempfile.TemporaryDirectory() as directory:
        for n in CSV_ROWS:
            for model, spec in MODELS.items():
                path = os.path.join(directory, "%s-%d.csv" % (model, n))
                np.savetxt(path, rng.standard_normal((n, len(spec.columns))), delimiter=",",
                           fmt="%.17g", header=",".join(spec.columns), comments="")
                load.append({"model": model, "rows": n, "us_per_row": median_us(
                    lambda: cli._load_columns(path, spec.columns), repeats, n)})
    argv = ["test", "--model", "ball", "--data", path]
    parse = lambda: cli.build_parser().parse_args(argv)  # noqa: E731
    return {"load_columns": load, "build_and_parse": {
        "cold_us": median_us(cold(parse), repeats), "warm_us": median_us(parse, repeats)}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    repeats, seed = args.repeats, args.seed

    stacks, decisions, perfbench_blocks = [], [], []
    for scale in SCALES:
        for suite, configs, rows in groups(seed, scale):
            stack = lambda: simulation._stack(configs, 0, rows)  # noqa: E731
            columns = stack()
            key = simulation._decision_key(configs[0])
            if not decisions_agree(configs, columns):
                raise AssertionError("%s %s: block and per-dataset decisions differ" % (suite, key))
            if scale == "perfbench":
                perfbench_blocks.append((configs[0], columns))
            label = {"scale": scale, "suite": suite, "key": list(key), "rows": rows}
            checked = min(CHECKED_ROWS, rows)
            stacks.append(dict(label, cold_us_per_replicate=median_us(cold(stack), repeats, rows),
                               warm_us_per_replicate=median_us(stack, repeats, rows)))
            decisions.append(dict(
                label,
                block_us_per_replicate=median_us(
                    lambda: simulation._decide(configs[0], columns), repeats, rows),
                per_dataset_us_per_replicate=median_us(
                    lambda: per_dataset(configs[0], columns, checked), repeats, checked),
                closest_call=closest_call(configs[0], columns)))

    index = 5
    stream = lambda: distributions.RngStream(seed, index)  # noqa: E731
    seedseq = lambda: np.random.Generator(  # noqa: E731
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": repeats,
        "seed": seed,
        "groups_checked": len(decisions),
        "kernels": kernels_section(perfbench_blocks, repeats),
        "alpha_prime": {model: {
            "cold_us": median_us(cold(lambda: alpha_prime(ALPHA, spec)), repeats),
            "warm_us": median_us(lambda: alpha_prime(ALPHA, spec), repeats),
        } for model, spec in NULL_SPECS.items()},
        "data": {"rngstream": {"seedseq_us": median_us(seedseq, repeats),
                               "cold_us": median_us(cold(stream), repeats),
                               "warm_us": median_us(stream, repeats)},
                 "stack": stacks},
        "decide": decisions,
        "harness": [harness_row(suite, seed, scale, repeats)
                    for suite, scale in PERFBENCH_SCALES.items()],
        "cli": cli_section(seed, repeats),
    }, indent=2))


if __name__ == "__main__":
    main()
