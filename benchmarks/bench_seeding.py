"""Time replicate seeding and data generation, before and after the block hash.

Two layers (ROADMAP layer 5), each timed two ways:

- one ``RngStream(seed, r)``: with its block of 64 seed-word rows not yet
  hashed (``cold``: the block cache is cleared before each construction)
  and already hashed (``warm``), against the stream as it was built
  before, ``PCG64(SeedSequence(seed, spawn_key=(r,)))`` (``seedseq``);
- ``simulation._stack`` for B replicates of one setting of each model at
  n = 5 and 1000: the harness's block of data columns, cold and warm as
  above, against the former path (one SeedSequence-seeded stream and one
  draw per array per replicate, copied row by row into the stack).

Both paths give the same columns bit for bit (checked here).  Each timing
is the median of ``--repeats`` passes of ``--inner`` calls after one
untimed call; the result is printed as JSON, in microseconds per stream or
per replicate.

    python3 benchmarks/bench_seeding.py --repeats 15
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

from pwreject import distributions, simulation  # noqa: E402

CONFIGS = {
    "interval": dict(model="interval", mode="type1", truth=(1.0,), m=0),
    "or_null": dict(model="or_null", mode="type1", truth=(1.0, 0.0), m=10),
    "nuisance": dict(model="nuisance", mode="coverage", truth=(1.0, 2.0), m=50),
    "ball": dict(model="ball", mode="type1", truth=(1.0, 0.0, 0.0, 0.0, 0.0), m=1),
}


def seedseq_generator(seed, index):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def seedseq_draw(config, g):
    """One replicate's columns as drawn before the block hash."""
    n = config.n
    if config.model == "interval":
        return (config.truth[0] + g.standard_normal(n),)
    if config.model == "or_null":
        b1, b2 = config.truth
        x = g.standard_normal((n, 2))
        eps = g.standard_normal(n)
        return x[:, 0], x[:, 1], b1 * x[:, 0] + b2 * x[:, 1] + eps
    if config.model == "nuisance":
        psi, phi = config.truth
        x = g.standard_normal(n)
        eps = g.standard_normal(n)
        return x, psi * phi * x + psi * phi * phi + eps
    return (np.asarray(config.truth, dtype=float) + g.standard_normal((n, 5)),)


def seedseq_stack(config, lo, size):
    columns = None
    for row in range(size):
        drawn = seedseq_draw(config, seedseq_generator(config.master_seed, lo + row))
        if columns is None:
            columns = tuple(np.empty((size,) + column.shape) for column in drawn)
        for stack, column in zip(columns, drawn):
            stack[row] = column
    return columns


def cold(fn):
    def run():
        distributions._seed_block.cache_clear()
        return fn()
    return run


def median_us(fn, repeats, inner):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / inner


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--inner", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    seed, index = args.seed, 5
    stream = {
        "seedseq_us": median_us(lambda: seedseq_generator(seed, index), args.repeats, args.inner),
        "cold_us": median_us(cold(lambda: distributions.RngStream(seed, index)),
                             args.repeats, args.inner),
        "warm_us": median_us(lambda: distributions.RngStream(seed, index), args.repeats, args.inner),
    }
    stream = {key: round(value, 2) for key, value in stream.items()}
    rows = []
    for model, kwargs in CONFIGS.items():
        for n in (5, 1000):
            for size in (2, 5, 8):
                config = simulation.ExperimentConfig(n=n, replicates=size, master_seed=seed,
                                                     **kwargs)
                ours = simulation._stack([config], 0, size)
                reference = seedseq_stack(config, 0, size)
                assert all(np.array_equal(a, b) for a, b in zip(ours, reference))
                inner = max(1, args.inner // (size * (1 + n // 100)))
                timed = {
                    "seedseq": lambda: seedseq_stack(config, 0, size),
                    "cold": cold(lambda: simulation._stack([config], 0, size)),
                    "warm": lambda: simulation._stack([config], 0, size),
                }
                row = {"model": model, "n": n, "B": size}
                for key, fn in timed.items():
                    row[key + "_us_per_replicate"] = round(
                        median_us(fn, args.repeats, inner) / size, 2)
                rows.append(row)
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "seed": args.seed,
        "rngstream": stream,
        "stack": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
