"""The four workloads: the inputs each makes from a seed, the calls one round
makes through pwreject's public entry points, and the checks on their outputs.

Every workload is a closed loop with one client: one process, one thread,
and the next call starts when the previous one returns.
"""

import collections
import contextlib
import csv
import hashlib
import io
import math
import os

import numpy as np

from pwreject import cli, simulation

DEFAULT_SEED = 0
ALPHA = 0.05

# alpha' at level 0.05, from the closed forms and the bisection at the
# parent commit; a test decision reporting another value is wrong.
ALPHA_PRIME = {
    "interval": 0.1,
    "or_null": 0.2585227122870837,
    "nuisance": 0.1465000644860842,
    "ball": 0.21731067802163206,
}

# Test points `pwreject test` reports with its default --m-prime and --m.
TEST_POINTS = {"interval": 0, "or_null": 100, "nuisance": 100, "ball": 1}

# Shape of each suite used here, as pwreject.simulation defines it:
# (model, settings, replicates per setting at scale 1, methods).
SUITES = {
    "table1": ("or_null", 10, 10_000, ("pointwise",)),
    "table2": ("ball", 5, 40_000, ("pointwise", "split_lrt", "crossfit_lrt")),
    "fig2": ("interval", 10, 10_000, ("pointwise", "bonferroni")),
    "fig3": ("nuisance", 6, 10_000, ("pointwise", "lrt")),
    "fig4": ("nuisance", 30, 10_000, ("pointwise", "lrt")),
    "fig5": ("ball", 18, 10_000, ("pointwise", "split_lrt", "crossfit_lrt")),
}


# One call into a public entry point.  ``run`` is the timed part;
# ``check(result)`` returns (output bytes, problems, flagged replicates)
# and runs outside the timing.
Call = collections.namedtuple("Call", "label ops run check")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def round_seed(seed, k):
    """Master seed of round k of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# --- simulation workloads ---------------------------------------------------

def suite_csv(rows):
    """Rows serialized exactly as ``pwreject simulate`` writes its CSV."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=simulation.CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def check_suite_rows(suite, scale, rows):
    """Structural checks on one run_suite result; returns (problems, flagged)."""
    model, settings, base, methods = SUITES[suite]
    expected = round(base * scale)
    problems = []
    flagged = 0
    if len(rows) != settings * len(methods):
        return ["%s: %d rows, expected %d" % (suite, len(rows), settings * len(methods))], 0
    for s in range(settings):
        group = rows[s * len(methods):(s + 1) * len(methods)]
        counts = {row["replicates"] for row in group}
        if len(counts) != 1:
            problems.append("%s setting %d: methods disagree on replicates %s" % (suite, s, counts))
            continue
        k = counts.pop()
        lowest = 1 if model == "nuisance" else expected
        if not lowest <= k <= expected:
            problems.append("%s setting %d: %d replicates, expected %d" % (suite, s, k, expected))
            continue
        flagged += expected - k
        for method, row in zip(methods, group):
            if row["suite"] != suite or row["model"] != model or row["method"] != method:
                problems.append("%s setting %d: unexpected row %r" % (suite, s, row))
                continue
            rate = float(row["rate"])
            margin = float(row["margin"])
            hits = rate * k
            if not 0.0 <= rate <= 1.0 or abs(hits - round(hits)) > 1e-6:
                problems.append("%s setting %d %s: rate %r is not a count over %d" % (suite, s, method, rate, k))
            want = 1.96 * math.sqrt(rate * (1.0 - rate) / k)
            if not math.isclose(margin, want, rel_tol=1e-12, abs_tol=1e-15):
                problems.append("%s setting %d %s: margin %r, expected %r" % (suite, s, method, margin, want))
    return problems, flagged


class SuiteWorkload:
    """Monte Carlo suites through ``simulation.run_suite`` at a fixed scale.

    Round k runs every suite once with a master seed derived from (seed, k),
    so no two rounds repeat an input.
    """

    def __init__(self, name, suites, scale):
        self.name = name
        self.suites = suites
        self.scale = scale

    def prepare(self, seed, workdir):
        """Nothing to write: the inputs are (suite, master seed, scale)."""

    def ops(self, suite):
        _, settings, base, _ = SUITES[suite]
        return settings * round(base * self.scale)

    def round_calls(self, seed, k):
        master = round_seed(seed, k)
        return [self._call(suite, master) for suite in self.suites]

    def _call(self, suite, master):
        scale = self.scale

        def run():
            return simulation.run_suite(suite, master, scale)

        def check(rows):
            problems, flagged = check_suite_rows(suite, scale, rows)
            return suite_csv(rows), problems, flagged

        return Call(suite, self.ops(suite), run, check)


# --- CLI workload -------------------------------------------------------------

CSV_SIZES = (1_000, 10_000)

_COLUMNS = {
    "interval": ("y",),
    "or_null": ("x1", "x2", "y"),
    "nuisance": ("x", "y"),
    "ball": ("y1", "y2", "y3", "y4", "y5"),
}


def write_datasets(seed, directory):
    """One CSV per model and size, drawn from ``seed``; returns {(model, n): path}.

    Truths keep every command on its full path at every seed: the or_null
    slopes sit six standard errors inside the alternative at n = 1000, and
    the nuisance fit is far from its singular points.
    """
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    paths = {}
    for n in CSV_SIZES:
        x = rng.standard_normal(n)
        x1, x2 = rng.standard_normal((2, n))
        columns = {
            "interval": [1.02 + rng.standard_normal(n)],
            "or_null": [x1, x2, 0.2 * x1 + 0.2 * x2 + rng.standard_normal(n)],
            "nuisance": [x, 2.0 * x + 4.0 + rng.standard_normal(n)],
            "ball": list((np.array([1.0, 0, 0, 0, 0]) + rng.standard_normal((n, 5))).T),
        }
        for model, cols in columns.items():
            path = os.path.join(directory, "%s-%d.csv" % (model, n))
            np.savetxt(path, np.column_stack(cols), delimiter=",", fmt="%.17g",
                       header=",".join(_COLUMNS[model]), comments="")
            paths[model, n] = path
    return paths


def check_test_output(model, text):
    """Problems in the text report of ``pwreject test``."""
    lines = text.splitlines()
    keys = ("decision", "max p-value", "alpha'", "test points")
    if len(lines) != 4 or [ln.split(": ", 1)[0] for ln in lines] != list(keys):
        return ["test %s: malformed output %r" % (model, text)]
    fields = dict(ln.split(": ", 1) for ln in lines)
    problems = []
    max_p = float(fields["max p-value"])
    ap = float(fields["alpha'"])
    if not 0.0 <= max_p <= 1.0:
        problems.append("test %s: max p %r outside [0, 1]" % (model, max_p))
    if fields["test points"] != str(TEST_POINTS[model]):
        problems.append("test %s: %s test points, expected %d"
                        % (model, fields["test points"], TEST_POINTS[model]))
    if not math.isclose(ap, ALPHA_PRIME[model], rel_tol=1e-9):
        problems.append("test %s: alpha' %r, expected %r" % (model, ap, ALPHA_PRIME[model]))
    # Printed with 10 significant digits: judge the decision only off the tie.
    if not math.isclose(max_p, ap, rel_tol=1e-8):
        want = "reject" if max_p <= ap else "fail to reject"
        if fields["decision"] != want:
            problems.append("test %s: decision %r with max p %r, alpha' %r"
                            % (model, fields["decision"], max_p, ap))
    return problems


def check_confreg_output(text):
    """Problems in the CSV region printed by ``pwreject confreg``."""
    lines = text.splitlines()
    if not lines or lines[0] != "lo,hi" or len(lines) < 2:
        return ["confreg: malformed or empty region %r" % (text[:200],)]
    problems = []
    prev_hi = -math.inf
    for line in lines[1:]:
        lo, hi = (float(v) for v in line.split(","))
        if not prev_hi < lo <= hi:
            problems.append("confreg: intervals not sorted and disjoint at %r" % (line,))
        prev_hi = hi
    return problems


class CliWorkload:
    """A fixed rotation of ``cli.main`` calls in one long-lived process.

    Every round repeats the same commands on the run's CSV files, so each
    command must print the same bytes every round.
    """

    def __init__(self, name):
        self.name = name
        self.paths = {}
        self.first_output = {}

    def prepare(self, seed, workdir):
        self.paths[seed] = write_datasets(seed, os.path.join(workdir, "seed%d" % seed))

    def commands(self, seed):
        out = []
        for n in CSV_SIZES:
            for model in ("interval", "or_null", "nuisance", "ball"):
                argv = ["test", "--model", model, "--data", self.paths[seed][model, n]]
                out.append(("test-%s-%d" % (model, n), argv))
            out.append(("confreg-%d" % n, ["confreg", "--data", self.paths[seed]["nuisance", n]]))
        out.append(("alpha-prime", ["alpha-prime", "--alpha", repr(ALPHA), "--d1", "5", "--d0", "3", "--boundary"]))
        return out

    def round_calls(self, seed, k):
        return [self._call(seed, label, argv) for label, argv in self.commands(seed)]

    def _call(self, seed, label, argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    code = exc.code
            return code, buf.getvalue()

        def check(result):
            code, text = result
            data = text.encode()
            if code != 0:
                return data, ["%s: exit code %r" % (label, code)], 0
            if label.startswith("test-"):
                problems = check_test_output(label.split("-")[1], text)
            elif label.startswith("confreg-"):
                problems = check_confreg_output(text)
            else:
                want = "%.10f\n" % ALPHA_PRIME["ball"]
                problems = [] if text == want else ["alpha-prime: printed %r" % (text,)]
            first = self.first_output.setdefault((seed, label), data)
            if first != data:
                problems.append("%s: output differs from the first round" % (label,))
            return data, problems, 0

        return Call(label, 1, run, check)


# Which end-to-end metric each layer's metrics should move on each
# workload.  Later changes cite these names.
LAYER_MAP = {
    "ball_boundary": (
        "alpha_prime.* -> ops_per_s",
        "kernels.* and distributions.cdf.* -> ops_per_s, through alpha'",
        "distributions.quantile.* -> setup_s",
    ),
    "nuisance_coverage": (
        "regions.* and models.nuisance.* -> ops_per_s",
        "distributions.quantile.* -> setup_s",
        "alpha_prime.* and kernels.* -> no change expected",
    ),
    "small_n_pvalues": (
        "models.*, distributions.rngstream.* and simulation.* -> ops_per_s",
        "kernels.* and distributions.cdf.* -> ops_per_s",
        "distributions.quantile.* -> setup_s",
        "alpha_prime.* -> little change expected (closed forms here)",
    ),
    "cli_dataset": (
        "cli.* and models.* -> ops_per_s and the printed call latencies",
        "regions.* -> ops_per_s and the printed call latencies, through confreg",
        "distributions.quantile.* -> setup_s",
        "simulation.* and distributions.rngstream.* -> 0",
    ),
}

# The layer split measured when the workloads were chosen; a traced run
# reports whether it still holds.
EXPECTED_SPLIT = {
    "ball_boundary": (
        ("alpha' takes most of the time", lambda m: m["alpha_prime.total_share"] > 0.5),
    ),
    "nuisance_coverage": (
        ("regions + models.nuisance take most of the time",
         lambda m: m["regions.self_share"] + m["models.nuisance.self_share"] > 0.5),
        ("kernels take about 0", lambda m: m["kernels.self_share"] < 0.02),
    ),
    "small_n_pvalues": (
        ("simulation self time is above 0", lambda m: m["simulation.self_share"] > 0),
        ("RngStream time is above 0", lambda m: m["distributions.rngstream.self_share"] > 0),
    ),
    "cli_dataset": (
        ("simulation does nothing", lambda m: m["simulation.replicates"] == 0),
        ("RngStream does nothing", lambda m: m["distributions.rngstream.calls_per_op"] == 0),
    ),
}

WORKLOADS = {
    "ball_boundary": SuiteWorkload("ball_boundary", ("table2", "fig5"), 0.0002),
    "nuisance_coverage": SuiteWorkload("nuisance_coverage", ("fig3",), 0.0002),
    "small_n_pvalues": SuiteWorkload("small_n_pvalues", ("table1", "fig2", "fig4"), 0.0005),
    "cli_dataset": CliWorkload("cli_dataset"),
}
