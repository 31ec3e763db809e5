"""Command-line front end.

Subcommands: ``alpha-prime`` (modified significance level), ``test``
(single-dataset composite test), ``confreg`` (confidence region for the
nuisance-regression model), ``simulate`` (Monte Carlo suites).

Exit codes: 0 success, 2 usage or validation error, 1 internal failure.
"""

import argparse
import contextlib
import csv
import functools
import json
import sys
import warnings

import numpy as np

from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.models import MODELS, linear_or, mvn_ball, normal_mean, nuisance
from pwreject.simulation import CSV_COLUMNS, SUITE_IDS, _suite_settings, run_suite


class CliError(Exception):
    """Validation failure reported with exit code 2."""


def _load_columns(path, names):
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), [])
            missing = [c for c in names if c not in header]
            if missing:
                raise CliError("missing column(s) %s in %s" % (", ".join(missing), path))
            duplicated = [c for c in names if header.count(c) > 1]
            if duplicated:
                raise CliError("duplicate column(s) %s in %s" % (", ".join(duplicated), path))
            with warnings.catch_warnings():
                # A header-only file is reported below as "no data rows".
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, dtype=float, delimiter=",", quotechar='"', comments=None,
                                  ndmin=2, usecols=[header.index(c) for c in names])
    except OSError as exc:
        raise CliError(str(exc))
    except ValueError as exc:
        raise CliError("bad numeric value in %s: %s" % (path, exc))
    if not len(rows):
        raise CliError("no data rows in %s" % (path,))
    if not np.isfinite(rows).all():
        raise CliError("non-finite value (nan or inf) in %s" % (path,))
    return list(rows.T)


def _cmd_alpha_prime(args):
    spec = NullSpec(d1=args.d1, d0=args.d0, has_boundary=args.boundary)
    print("%.10f" % alpha_prime(args.alpha, spec))


def _run_dataset_test(args):
    cols = _load_columns(args.data, MODELS[args.model].columns)
    if args.model == "interval":
        sample = normal_mean.UnivariateSample(cols[0])
        return normal_mean.interval_null_test(sample, args.a, args.b, args.alpha)
    if args.model == "or_null":
        data = linear_or.RegressionData(cols[0], cols[1], cols[2])
        return linear_or.or_null_test(data, args.alpha, args.m_prime)
    if args.model == "nuisance":
        data = nuisance.XYData(cols[0], cols[1])
        return nuisance.psi_pointwise_test(data, args.psi0, args.alpha, args.m)
    sample = mvn_ball.MvnSample(np.column_stack(cols))
    return mvn_ball.ball_pointwise_test(sample, args.alpha)


def _cmd_test(args):
    decision = _run_dataset_test(args)
    if args.format == "json":
        print(json.dumps({
            "model": args.model,
            "reject": decision.reject,
            "max_p": decision.max_p,
            "alpha_prime": decision.alpha_prime_used,
            "n_points": decision.n_points,
        }))
    else:
        print("decision: %s" % ("reject" if decision.reject else "fail to reject"))
        print("max p-value: %.10g" % decision.max_p)
        print("alpha': %.10g" % decision.alpha_prime_used)
        print("test points: %d" % decision.n_points)


@contextlib.contextmanager
def _opened_out(path):
    """The ``--out`` stream: stdout for "-", else ``path`` opened for writing."""
    if path == "-":
        yield sys.stdout
        return
    try:
        out = open(path, "w", newline="")
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc.strerror or exc))
    with out:
        yield out


def _cmd_confreg(args):
    x, y = _load_columns(args.data, MODELS["nuisance"].columns)
    data = nuisance.XYData(x, y)
    region = nuisance.psi_region_F(data, args.alpha, args.m, args.width)
    with _opened_out(args.out) as out:
        if args.format == "json":
            out.write(json.dumps([[lo, hi] for lo, hi in region]) + "\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["lo", "hi"])
            for lo, hi in region:
                writer.writerow([repr(lo), repr(hi)])


def _cmd_simulate(args):
    # Check the suite arguments, the seed included, before opening --out, so
    # a usage error leaves an existing file as it was; open --out before the
    # run, so a bad path fails before the suite runs.
    _suite_settings(args.suite, args.seed, args.scale)
    with _opened_out(args.out) as out:
        rows = run_suite(args.suite, args.seed, args.scale)
        if args.format == "json":
            out.write(json.dumps(rows) + "\n")
        else:
            writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)


# One parser per process: parse_args leaves the parser and its defaults unchanged.
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pwreject",
        description="Finite-sample composite hypothesis tests by pointwise rejection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha-prime", help="compute the modified significance level")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--boundary", action="store_true",
                   help="null region is a manifold with boundary")
    p.set_defaults(fn=_cmd_alpha_prime)

    p = sub.add_parser("test", help="run a composite test on a CSV dataset")
    p.add_argument("--model", choices=sorted(MODELS), required=True)
    p.add_argument("--data", required=True, help="headered CSV file")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--a", type=float, default=0.0, help="interval lower endpoint")
    p.add_argument("--b", type=float, default=1.0, help="interval upper endpoint")
    p.add_argument("--m-prime", type=int, default=50,
                   help="test points per boundary arm (or_null)")
    p.add_argument("--m", type=int, default=100, help="proxy points (nuisance)")
    p.add_argument("--psi0", type=float, default=1.0, help="tested psi (nuisance)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_test)

    p = sub.add_parser("confreg", help="confidence region for psi (nuisance model)")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--width", type=float, default=5.0,
                   help="proxy window half-width multiplier (times n^-1/2)")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_confreg)

    p = sub.add_parser("simulate", help="run a Monte Carlo suite")
    p.add_argument("--suite", choices=SUITE_IDS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="replicate-count multiplier")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (CliError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
