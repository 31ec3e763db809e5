"""Time whole suites, grouped by decision key against setting by setting.

For each of the seven suites, at the scale its perfbench workload runs it
(fig1, in no workload, at fig2's), one suite call is timed two ways:

- ``grouped``: ``simulation.run_suite``, which runs the settings that
  share a decision key as one group, decided in blocks that may span
  settings;
- ``per_setting``: ``run_experiment`` on each setting alone, the path
  before grouping, whose rows are built as ``run_suite`` builds them.

Both give the same rows (checked on every pass).  Pass k runs both paths,
in alternating order, on the master seed ``--seed`` + k, so the seed-word
cache is as cold as in a perfbench round.  Each timing is the median over
``--repeats`` passes, after one untimed pass; the result is printed as
JSON, in milliseconds per suite call, with the number of settings and
groups of each suite.

    python3 benchmarks/bench_suite_groups.py --repeats 31
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pwreject import simulation  # noqa: E402

# The scale each suite runs at in perfbench's workloads.
SCALES = {
    "table1": 0.0005, "table2": 0.0002, "fig1": 0.0005, "fig2": 0.0005,
    "fig3": 0.0002, "fig4": 0.0005, "fig5": 0.0002,
}


def per_setting(suite, master_seed, scale):
    return [row for config in simulation._suite_settings(suite, master_seed, scale)
            for row in simulation._suite_rows(suite, simulation.run_experiment(config))]


def grouped(suite, master_seed, scale):
    return simulation.run_suite(suite, master_seed, scale)


def timed(fn, *args):
    start = time.perf_counter()
    rows = fn(*args)
    return time.perf_counter() - start, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=31)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args(argv)
    out = []
    for suite, scale in SCALES.items():
        settings = simulation._suite_settings(suite, args.seed, scale)
        groups = {simulation._decision_key(config) for config in settings}
        assert grouped(suite, args.seed, scale) == per_setting(suite, args.seed, scale)
        times = {"grouped": [], "per_setting": []}
        for k in range(args.repeats):
            master = args.seed + 1 + k
            order = ("grouped", "per_setting") if k % 2 == 0 else ("per_setting", "grouped")
            rows = {}
            for name in order:
                elapsed, rows[name] = timed(globals()[name], suite, master, scale)
                times[name].append(elapsed)
            assert rows["grouped"] == rows["per_setting"]
        ms = {name: 1e3 * statistics.median(t) for name, t in times.items()}
        out.append({
            "suite": suite, "scale": scale, "settings": len(settings), "groups": len(groups),
            "per_setting_ms": round(ms["per_setting"], 3),
            "grouped_ms": round(ms["grouped"], 3),
            "speedup": round(ms["per_setting"] / ms["grouped"], 3),
        })
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "seed": args.seed,
        "rows_equal": True,
        "suites": out,
    }, indent=2))


if __name__ == "__main__":
    main()
