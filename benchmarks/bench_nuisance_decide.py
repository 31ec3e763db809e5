"""Time the nuisance model's decision layer, per replicate, two ways.

For each mode, sample size n and block length B, one fixed block of B
datasets drawn at the truth (psi, phi) = (1, 2) is decided

- one replicate at a time, as the harness did before blocks: build
  ``XYData(x[b], y[b])`` and run both methods (coverage: ``psi_region_F``
  and ``psi_region_LRT`` with ``.contains(1.0)``, m = 50 as in fig3; test:
  ``psi_pointwise_test`` and ``psi_lrt_test`` of psi0 = 1, m = 100 as in
  fig4);
- in one call, ``nuisance.decide_batch(x, y, mode, alpha, m, psi)``.

Both give the same decisions (checked here).  The per-dataset functions
are one-row calls of the array functions ``decide_batch`` runs, so the
per-replicate column times one-row batch calls.  ``BENCH_8.json`` was
taken at commit afe4003, when they were separate code.  Each timing is the median of
``--repeats`` passes over the block, after one untimed warm-up pass that
fills the alpha' and quantile caches; the result is printed as JSON, in
microseconds per replicate.  Data generation, ``RngStream`` and the copy of
the draws into the (B, n) arrays are not included.  The largest block,
256 x 100 x 200 regressors, holds about 41 MB per array.

    python3 benchmarks/bench_nuisance_decide.py --repeats 15
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

from pwreject.models import nuisance  # noqa: E402

ALPHA = 0.05
PSI, PHI = 1.0, 2.0
PROXY_POINTS = {"coverage": 50, "test": 100}


def scalar_loop(x, y, mode):
    m = PROXY_POINTS[mode]
    out = []
    for x_row, y_row in zip(x, y):
        data = nuisance.XYData(x_row, y_row)
        if mode == "coverage":
            out.append((
                nuisance.psi_region_F(data, ALPHA, m).contains(PSI),
                nuisance.psi_region_LRT(data, ALPHA, m).contains(PSI),
            ))
        else:
            out.append((
                nuisance.psi_pointwise_test(data, PSI, ALPHA, m).reject,
                nuisance.psi_lrt_test(data, PSI, ALPHA, m).reject,
            ))
    return np.array(out, dtype=bool).T


def batch(x, y, mode):
    hits, _ = nuisance.decide_batch(x, y, mode, ALPHA, PROXY_POINTS[mode], PSI)
    return np.array(hits)


def us_per_replicate(fn, x, y, mode, repeats):
    fn(x, y, mode)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(x, y, mode)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / len(x)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    rows = []
    for mode in ("coverage", "test"):
        for n in (5, 30, 200):
            for block in (2, 8, 256):
                x = rng.standard_normal((block, n))
                y = PSI * PHI * x + PSI * PHI * PHI + rng.standard_normal((block, n))
                assert np.array_equal(scalar_loop(x, y, mode), batch(x, y, mode))
                scalar = us_per_replicate(scalar_loop, x, y, mode, args.repeats)
                batched = us_per_replicate(batch, x, y, mode, args.repeats)
                rows.append({
                    "mode": mode, "n": n, "m": PROXY_POINTS[mode], "block": block,
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
