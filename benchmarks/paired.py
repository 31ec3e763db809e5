"""Paired A/B runs of a base revision against this checkout, written as one BENCH JSON.

Ten pairs each run both sides once, one after the other, and alternate
which side goes first: pair k runs the base first when k is even.  A side
is run from its own tree, the base from a ``git archive`` of ``REV``
unpacked under ``TMPDIR`` (removed afterwards), the change from this
checkout, so each side imports ``pwreject`` from its own ``src`` and runs
its own ``perfbench`` code.  In pair k, with seed ``--seed`` + k on both
sides:

- each perfbench workload of ``BENCHMARK.json``, through
  ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` with T
  the ``run_seconds`` of ``BENCHMARK.json``; its last stdout line gives
  the end-to-end metrics and whether every output was correct;
- ``run_suite(suite, S, 1.0)`` of every suite, the full-scale suites that
  ``pwreject simulate`` runs by default, each timed in wall seconds in a
  child process of its own.

For every metric the JSON holds each side's runs, median and quartiles
(inclusive method), the pairs the change won (``change_better_pairs``),
the relative change of the median in the worse direction
(``change_worse_by``, negative when the change is better) and, for the
perfbench metrics, the bound of ``BENCHMARK.json``.  A run of ``HEAD``
against a clean checkout of ``HEAD`` measures the noise floor.

    python3 benchmarks/paired.py HEAD~1 --out BENCH_21.json
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = ("table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5")
PAIRS = 10

# Run in each child: the wall seconds of one full-scale suite.
CHILD = """
import sys, time
from pwreject.simulation import run_suite
start = time.perf_counter()
run_suite(sys.argv[1], int(sys.argv[2]), 1.0)
print(time.perf_counter() - start)
"""


def run_perfbench(tree, workload, seed, seconds):
    """The last stdout line of one perfbench run from ``tree``, parsed."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_suites(tree, seed):
    """{suite: wall seconds} of every full-scale suite, each in its own child from ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return {suite: float(subprocess.run([sys.executable, "-c", CHILD, suite, str(seed)],
                                        cwd=tree, env=env, check=True, stdout=subprocess.PIPE,
                                        text=True).stdout)
            for suite in SUITES}


def summary(base, change, lower_is_better):
    """Medians, quartiles, pair wins and the worse-direction change of paired runs."""
    def side(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"runs": runs, "median": statistics.median(runs), "quartiles": [q1, q3]}

    sign = 1.0 if lower_is_better else -1.0
    out = {"base": side(base), "change": side(change)}
    out["change_better_pairs"] = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    out["change_worse_by"] = sign * (out["change"]["median"] / out["base"]["median"] - 1.0)
    return out


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE).stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="base revision, e.g. HEAD~1 or a commit hash")
    parser.add_argument("--out", required=True, help="the BENCH JSON file to write")
    parser.add_argument("--seed", type=int, default=100, help="seed of pair 0")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {side: {"perfbench": {w: [] for w in workloads}, "suites": []}
            for side in ("base", "change")}
    base_commit = git("rev-parse", "--verify", args.rev + "^{commit}").decode().strip()
    with tempfile.TemporaryDirectory(prefix="paired_") as tree:
        with tarfile.open(fileobj=io.BytesIO(git("archive", base_commit))) as archive:
            archive.extractall(tree, filter="data")
        trees = {"base": tree, "change": ROOT}
        for k in range(PAIRS):
            seed = args.seed + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                for workload in workloads:
                    runs[side]["perfbench"][workload].append(
                        run_perfbench(trees[side], workload, seed, seconds))
                runs[side]["suites"].append(run_suites(trees[side], seed))
                print("pair %d/%d: %s done" % (k + 1, PAIRS, side), file=sys.stderr)
    change_commit = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    perfbench = {}
    for workload in workloads:
        base, change = (runs[side]["perfbench"][workload] for side in ("base", "change"))
        row = {"all_correct_no_failures": all(r["correct"] and r["failed"] == 0
                                              for r in base + change)}
        for name, spec in metrics.items():
            row[name] = summary([r["metrics"][name]["value"] for r in base],
                                [r["metrics"][name]["value"] for r in change],
                                spec["better"] == "lower")
            row[name].update(unit=spec["unit"], bound=spec["bound"],
                             within_bound=row[name]["change_worse_by"] <= spec["bound"])
        perfbench[workload] = row
    suites = {suite: dict(summary([t[suite] for t in runs["base"]["suites"]],
                                  [t[suite] for t in runs["change"]["suites"]], True), unit="s")
              for suite in SUITES}
    record = {
        "method": "benchmarks/paired.py: %d pairs, seeds %d-%d, perfbench --seconds %g --trace 0 "
                  "and each full-scale run_suite in its own child per side; the first side "
                  "alternates by pair" % (PAIRS, args.seed, args.seed + PAIRS - 1, seconds),
        "base": {"rev": args.rev, "commit": base_commit},
        "change": {"commit": change_commit, "uncommitted_changes": dirty},
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "perfbench": perfbench,
        "suites_s": suites,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
