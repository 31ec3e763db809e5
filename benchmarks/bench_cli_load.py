"""Time the two CLI layers that run before any model code.

- ``cli._load_columns`` on a headered CSV of each model's columns
  (``pwreject.models.MODELS``), at 1e3 and 1e4 rows, in microseconds per
  row.  The files hold standard normal draws written with ``%.17g``, as
  ``pwreject`` users and the ``cli_dataset`` benchmark workload write them.
- ``cli.build_parser()`` followed by ``parse_args`` on one ``test``
  command line, in microseconds per call.

Each timing is the median of ``--repeats`` calls after one untimed warm-up
call; the result is printed as JSON.  Run it from a checkout; it imports
``pwreject`` from that checkout's ``src``:

    python3 benchmarks/bench_cli_load.py --repeats 15
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

from pwreject import cli  # noqa: E402
from pwreject.models import MODELS  # noqa: E402

SIZES = (1_000, 10_000)


def median_us(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    load_rows = []
    with tempfile.TemporaryDirectory() as directory:
        for n in SIZES:
            for model in MODELS:
                names = MODELS[model].columns
                path = os.path.join(directory, "%s-%d.csv" % (model, n))
                np.savetxt(path, rng.standard_normal((n, len(names))), delimiter=",",
                           fmt="%.17g", header=",".join(names), comments="")
                us = median_us(lambda: cli._load_columns(path, names), args.repeats)
                load_rows.append({"model": model, "rows": n, "us_per_row": round(us / n, 3)})
        command = ["test", "--model", "ball", "--data", path]
        parse_us = median_us(lambda: cli.build_parser().parse_args(command), args.repeats)
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "seed": args.seed,
        "load_columns": load_rows,
        "build_and_parse_us_per_call": round(parse_us, 1),
    }, indent=2))


if __name__ == "__main__":
    main()
