"""Time the ball model's decision layer, per replicate, two ways.

For each sample size n and block length B, one fixed (B, n, 5) stack of
draws at the table2 boundary truth theta = (1, 0, 0, 0, 0) is decided

- one replicate at a time, as the harness did before blocks: build
  ``MvnSample(stack[b])`` and run the pointwise, split and cross-fit tests;
- in one call, ``mvn_ball.decide_batch(stack, alpha)``.

Both give the same decisions (checked here).  The per-sample tests are
one-row calls of the array function ``decide_batch`` runs, so the
per-replicate column times one-row batch calls.  ``BENCH_6.json`` was
taken at commit dbd9922, when the per-sample tests were separate code.  Each timing is the median of
``--repeats`` passes over the stack, after one untimed warm-up pass that
fills the alpha' cache; the result is printed as JSON, in microseconds per
replicate.  Data generation and ``RngStream`` are not included.

    python3 benchmarks/bench_ball_decide.py --repeats 15
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

from pwreject.models import mvn_ball  # noqa: E402

ALPHA = 0.05
THETA = np.array([1.0, 0.0, 0.0, 0.0, 0.0])


def scalar_loop(stack):
    out = []
    for rows in stack:
        sample = mvn_ball.MvnSample(rows)
        out.append((
            mvn_ball.ball_pointwise_test(sample, ALPHA).reject,
            mvn_ball.split_lrt_test(sample, ALPHA).reject,
            mvn_ball.cross_fit_lrt_test(sample, ALPHA).reject,
        ))
    return np.array(out, dtype=bool).T


def batch(stack):
    return np.array(mvn_ball.decide_batch(stack, ALPHA))


def us_per_replicate(fn, stack, repeats):
    fn(stack)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(stack)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / len(stack)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in (5, 30, 1000):
        for block in (8, 256):
            stack = THETA + rng.standard_normal((block, n, mvn_ball.DIM))
            assert np.array_equal(scalar_loop(stack), batch(stack))
            scalar = us_per_replicate(scalar_loop, stack, args.repeats)
            batched = us_per_replicate(batch, stack, args.repeats)
            rows.append({
                "n": n, "block": block,
                "scalar_us_per_replicate": round(scalar, 2),
                "batch_us_per_replicate": round(batched, 2),
                "speedup": round(scalar / batched, 2),
            })
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "seed": args.seed,
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
