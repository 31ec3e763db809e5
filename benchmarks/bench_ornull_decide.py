"""Time the or_null model's decision layer, per replicate, two ways.

For each sample size n, test points per boundary arm m' and block length
B, one fixed block of B datasets drawn at the table1 truth (b1, b2) =
(1, 0) is decided

- one replicate at a time, as the harness did before blocks: build
  ``RegressionData(x1[b], x2[b], y[b])`` and run ``or_null_test``;
- in one call, ``linear_or.decide_batch(x1, x2, y, alpha, m_prime)``.

Both give the same decisions (checked here).  ``or_null_test`` is a
one-row call of the array function ``decide_batch`` runs, so the
per-replicate column times one-row batch calls.  ``BENCH_10.json`` was
taken at commit f2ee4b7, when it fitted by ``lstsq`` on its own path.  Each timing is the median of
``--repeats`` passes over the block, after one untimed warm-up pass that
fills the alpha' cache; the result is printed as JSON, in microseconds per
replicate.  Data generation, ``RngStream`` and the copy of the draws into
the (B, n) arrays are not included.  m' = 5 and 50 are table1's m = 10
and 100; the largest block, 200 x 50 x 100 residuals per arm, holds about
8 MB per array.

    python3 benchmarks/bench_ornull_decide.py --repeats 15
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

from pwreject.models import linear_or  # noqa: E402

ALPHA = 0.05
B1, B2 = 1.0, 0.0


def scalar_loop(x1, x2, y, m_prime):
    return np.array([
        linear_or.or_null_test(linear_or.RegressionData(*row), ALPHA, m_prime).reject
        for row in zip(x1, x2, y)
    ], dtype=bool)


def batch(x1, x2, y, m_prime):
    return linear_or.decide_batch(x1, x2, y, ALPHA, m_prime)


def us_per_replicate(fn, x1, x2, y, m_prime, repeats):
    fn(x1, x2, y, m_prime)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(x1, x2, y, m_prime)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / len(y)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in (5, 20, 100):
        for m_prime in (5, 50):
            for block in (5, 200):
                x1 = rng.standard_normal((block, n))
                x2 = rng.standard_normal((block, n))
                y = B1 * x1 + B2 * x2 + rng.standard_normal((block, n))
                assert np.array_equal(scalar_loop(x1, x2, y, m_prime), batch(x1, x2, y, m_prime))
                scalar = us_per_replicate(scalar_loop, x1, x2, y, m_prime, args.repeats)
                batched = us_per_replicate(batch, x1, x2, y, m_prime, args.repeats)
                rows.append({
                    "n": n, "m_prime": m_prime, "block": block,
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
