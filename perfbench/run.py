"""pwreject benchmark: four workloads through the public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` spends half of ``--seconds`` untraced and half traced, and
reports the per-layer metrics and the tracing overhead.  Every run first
replays the workload's reference round (seed 0) and compares its output
bytes with ``reference.json``; then it checks every timed call's output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, samples, digests, problems) goes to ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median

from measure import OpLedger, cache_hit_ratio, min_samples_for, percentile, ratio, samples_beyond

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("ball_boundary", "nuisance_coverage", "small_n_pvalues", "cli_dataset")

# Both commits must be measured on the default serial path and backend.
GUARDED_ENV = ("PWREJECT_WORKERS", "PWREJECT_PURE_PYTHON")
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 3
# The p95 latency needs ten calls beyond it; the timed phase runs past
# --seconds until that many calls are made, but not past STRETCH_LIMIT_S,
# so a run still ends within its time limit.
MIN_CALLS = min_samples_for(0.95)
STRETCH_LIMIT_S = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; used to time setup_s in a fresh process")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def refuse(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import pwreject from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "pwreject", "__init__.py")):
        refuse("no pwreject source under %s" % SRC)
    sys.path.insert(0, SRC)
    import pwreject

    if not os.path.abspath(pwreject.__file__).startswith(SRC + os.sep):
        refuse("pwreject imported from %s, not from %s" % (pwreject.__file__, SRC))
    return pwreject


# --- environment record -----------------------------------------------------

def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    """sha256 over the package's .py files, to identify the code measured."""
    h = hashlib.sha256()
    top = os.path.join(SRC, "pwreject")
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(pwreject, seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pwreject": pwreject.__version__,
        "kernel_backend": pwreject.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# --- phases -------------------------------------------------------------------

class Phase:
    """Timings and check results of a run of rounds."""

    def __init__(self):
        self.latencies = []  # seconds per call
        self.call_time = 0.0  # sum of the call times
        self.round_rates = []  # ops completed per second of calls, per round
        self._round = [0, 0.0]  # ops completed and call time of the open round
        self.ops_ok = 0
        self.flagged = 0
        self.problems = []
        self.first_round = hashlib.sha256()

    def record(self, call, seconds, result, error, ledger, first):
        self.latencies.append(seconds)
        self.call_time += seconds
        if error is not None:
            problems, data, flagged = [error], b"", 0
        else:
            data, problems, flagged = call.check(result)
        if first:
            self.first_round.update(call.label.encode() + b"\0" + data)
        ledger.record(call.ops, not problems)
        self._round[1] += seconds
        if not problems:
            self.ops_ok += call.ops
            self.flagged += flagged
            self._round[0] += call.ops
        self.problems.extend(problems)

    def end_round(self):
        self.round_rates.append(ratio(*self._round))
        self._round = [0, 0.0]


def run_call(call):
    """(result, error): error is a one-line report when the call raised."""
    try:
        return call.run(), None
    except Exception:  # a failing call is counted, and the run goes on
        lines = traceback.format_exc().strip().splitlines()
        return None, "%s raised %s" % (call.label, lines[-1])


def run_phase(workload, seed, seconds, first_k, ledger, min_calls=0, tracer=None):
    """Run whole rounds from round first_k until ``seconds`` have passed."""
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    k = first_k
    while True:
        for call in workload.round_calls(seed, k):
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            result, error = run_call(call)
            phase.record(call, clock() - t0, result, error, ledger, k == first_k)
        k += 1
        phase.end_round()
        elapsed = clock() - start
        if elapsed >= seconds and (len(phase.latencies) >= min_calls
                                   or elapsed >= max(seconds, STRETCH_LIMIT_S)):
            break
    return phase, k


def reference_round(workload, ledger, reference):
    """Replay round 0 at the default seed and compare bytes with the reference.

    This is also the warm-up: it fills the quantile caches before timing.
    """
    from workloads import DEFAULT_SEED, digest

    want = reference.get(workload.name, {})
    got = {}
    problems = []
    for call in workload.round_calls(DEFAULT_SEED, 0):
        result, error = run_call(call)
        if error is not None:
            problems.append(error)
            continue
        data, call_problems, _ = call.check(result)
        problems.extend(call_problems)
        got[call.label] = digest(data)
        if want.get(call.label) != got[call.label]:
            problems.append("%s: output digest %s differs from the reference %s"
                            % (call.label, got[call.label], want.get(call.label)))
    if problems:
        ledger.void()
    return got, problems


def setup(name, seed, workdir):
    """Everything a fresh process does before it can take load."""
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[name]
    for s in sorted({DEFAULT_SEED, seed}):
        workload.prepare(s, workdir)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    ledger = OpLedger()
    digests, problems = reference_round(workload, ledger, reference)
    return workload, ledger, digests, problems


def time_fresh_setups(name, seed):
    """Wall time of SETUP_SAMPLES fresh processes that set up and exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed: %s" % proc.stderr.decode()[-2000:])
    return samples


# --- metrics ------------------------------------------------------------------

def end_to_end_metrics(phase, setup_samples):
    """The gated metrics, and the latencies and median rate printed beside them.

    The machine the benchmark was written on runs 30-40% slower for
    stretches of 5-30 s while a neighbour is busy.  Almost every run spends
    some rounds in such a stretch, so the rate nine rounds in ten reach
    reads alike from run to run, while medians move with how long the
    neighbour was idle.  Call latencies move with it too (p95 spread 25-29%
    between quartiles over ten cli_dataset runs), so they are printed and
    recorded but not gated.
    """
    lat = phase.latencies
    rates = phase.round_rates
    gated = {
        "setup_s": (median(setup_samples), "s", "%d fresh processes, median" % len(setup_samples)),
        "ops_per_s": (percentile(rates, 0.10), "1/s",
                      "rate 9 rounds in 10 reach; %d rounds, %d ops in %d calls"
                      % (len(rates), phase.ops_ok, len(lat))),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
    }
    printed = {
        "ops_per_s_median_round": (median(rates), "1/s", "%d rounds" % len(rates)),
        "call_ms_p50": (1e3 * percentile(lat, 0.50), "ms", "%d calls" % len(lat)),
        "call_ms_p95": (1e3 * percentile(lat, 0.95), "ms",
                        "%d calls, %d beyond" % (len(lat), samples_beyond(len(lat), 0.95))),
    }
    return gated, printed


def quantile_cache_totals():
    """Summed (hits, misses) of the cached quantile functions."""
    from pwreject import distributions

    hits = misses = 0
    for name in ("chi2_quantile", "f_quantile", "t_quantile"):
        info = getattr(getattr(distributions, name, None), "cache_info", None)
        if info is not None:
            got = info()
            hits += got.hits
            misses += got.misses
    return hits, misses


def layer_metrics(tr, traced, untraced, cache_before, cache_after, replicates, commands):
    """Per-layer metrics of the traced phase.

    Shares are self time over the time spent inside entry-point calls.
    Per-call times are kept only for layers every workload uses, so no
    time reads 0 for want of calls.
    """
    ops = traced.ops_ok
    busy = traced.call_time

    def per_op(count):
        return ratio(count, ops)

    def share(*names):
        return ratio(sum(tr.self_s(n) for n in names), busy)

    def us_per_call(name):
        return 1e6 * ratio(tr.total_s(name), tr.calls(name))

    lookups = (cache_after[0] - cache_before[0]) + (cache_after[1] - cache_before[1])
    kernels = ("kernels.reg_lower_gamma", "kernels.reg_inc_beta")
    m = {
        "kernels.reg_lower_gamma.calls_per_op": (per_op(tr.calls(kernels[0])), "calls/op"),
        "kernels.reg_lower_gamma.us_per_call": (us_per_call(kernels[0]), "us"),
        "kernels.reg_inc_beta.calls_per_op": (per_op(tr.calls(kernels[1])), "calls/op"),
        "kernels.self_share": (share(*kernels), "ratio"),
        "distributions.cdf.calls_per_op": (per_op(tr.calls("distributions.cdf")), "calls/op"),
        "distributions.cdf.self_share": (share("distributions.cdf"), "ratio"),
        "distributions.quantile.calls_per_op": (per_op(lookups), "calls/op"),
        "distributions.quantile.cache_hit_ratio": (cache_hit_ratio(cache_before, cache_after), "ratio"),
        "distributions.rngstream.calls_per_op": (per_op(tr.calls("distributions.rngstream")), "calls/op"),
        "distributions.rngstream.self_share": (share("distributions.rngstream"), "ratio"),
        "alpha_prime.calls_per_op": (per_op(tr.calls("alpha_prime")), "calls/op"),
        "alpha_prime.us_per_call": (us_per_call("alpha_prime"), "us"),
        "alpha_prime.total_share": (ratio(tr.total_s("alpha_prime"), busy), "ratio"),
        "alpha_prime.self_share": (share("alpha_prime"), "ratio"),
        "alpha_prime.cdf_calls_per_call": (
            ratio(tr.pairs.get(("alpha_prime", "distributions.cdf"), 0), tr.calls("alpha_prime")),
            "calls/call"),
    }
    for model in ("interval", "or_null", "nuisance", "ball"):
        m["models.%s.calls_per_op" % model] = (per_op(tr.calls("models." + model)), "calls/op")
        m["models.%s.self_share" % model] = (share("models." + model), "ratio")
    m.update({
        "models.data.calls_per_op": (per_op(tr.calls("models.data")), "calls/op"),
        "models.data.us_per_call": (us_per_call("models.data"), "us"),
        "regions.union_all.calls_per_op": (per_op(tr.calls("regions.union_all")), "calls/op"),
        "regions.region1d.constructions_per_op": (per_op(tr.calls("regions.region1d")), "calls/op"),
        "regions.self_share": (share("regions.union_all", "regions.region1d"), "ratio"),
        "testing.decisions_per_op": (per_op(tr.counts.get("testing.decisions", 0)), "calls/op"),
        "simulation.replicates": (replicates, "count"),
        "simulation.flagged_frac": (ratio(traced.flagged, replicates), "ratio"),
        "simulation.self_share": (share("simulation"), "ratio"),
        "cli.commands": (commands, "count"),
        "cli.self_share": (share("cli"), "ratio"),
        "trace.overhead_frac": (
            ratio(ratio(traced.call_time, traced.ops_ok),
                  ratio(untraced.call_time, untraced.ops_ok)) - 1.0,
            "ratio"),
    })
    return m


# --- report ---------------------------------------------------------------------

def print_report(args, env, metrics, ledger, ref_digests, problems, extra_lines):
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    print("env: " + " ".join("%s=%s" % kv for kv in env.items()))
    print("load: closed loop, 1 client (one process, one thread); "
          "each call starts when the previous one returns")
    for name, (value, unit, *note) in metrics.items():
        print("  %-42s %14.6g %-10s %s" % (name, value, unit, "".join(note)))
    print("  %-42s %14.6g %-10s %d of %d ops" % (
        "failed_frac", ledger.failed_frac, "ratio", ledger.failed, ledger.attempted))
    for line in extra_lines:
        print(line)
    print("reference (seed 0): " + ", ".join("%s=%s" % (k, v[:12]) for k, v in ref_digests.items()))
    if problems:
        print("problems (%d):" % len(problems))
        for p in problems[:20]:
            print("  " + p)
    else:
        print("checks: reference digests match; every call's output passed its checks")


def measure_end_to_end(args, workload, ledger):
    """Untraced run: (gated metrics, printed metrics, phases, report lines)."""
    setup_samples = time_fresh_setups(args.workload, args.seed)
    phase, _ = run_phase(workload, args.seed, args.seconds, 1, ledger, MIN_CALLS)
    metrics, printed = end_to_end_metrics(phase, setup_samples)
    lines = ["  %-42s %14.6g %-10s %s (printed, not gated)" % (name, value, unit, note)
             for name, (value, unit, note) in printed.items()]
    return metrics, printed, [phase], lines


def measure_layers(args, workload, ledger):
    """Half the time untraced, half traced: per-layer metrics and report lines."""
    from tracer import Tracer, install
    from workloads import EXPECTED_SPLIT

    untraced, next_k = run_phase(workload, args.seed, args.seconds / 2, 1, ledger)
    tracer = Tracer()
    cache_before = quantile_cache_totals()
    installed = install(tracer)
    try:
        traced, _ = run_phase(workload, args.seed, args.seconds / 2, next_k, ledger, tracer=tracer)
    finally:
        installed.uninstall()
    cache_after = quantile_cache_totals()
    is_cli = args.workload == "cli_dataset"
    metrics = layer_metrics(tracer, traced, untraced, cache_before, cache_after,
                            replicates=0 if is_cli else traced.ops_ok,
                            commands=traced.ops_ok if is_cli else 0)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans-%s-seed%d.csv" % (args.workload, args.seed))
    tracer.write_spans(spans_path)
    lines = ["spans: %d kept in %s, %d more aggregated only"
             % (len(tracer.spans), os.path.relpath(spans_path, ROOT), tracer.dropped)]
    if installed.missing:
        lines.append("untraced sites (absent in this version): " + ", ".join(installed.missing))
    lines.append("wait time: none measured; no queue or lock lies on these paths "
                 "while the thread pool is off")
    values = {k: v[0] for k, v in metrics.items()}
    for text, holds in EXPECTED_SPLIT[args.workload]:
        lines.append("layer split: %s: %s" % (text, "holds" if holds(values) else "DIFFERS"))
    return metrics, {}, [untraced, traced], lines


def main(argv=None):
    args = parse_args(argv)
    guarded = [v for v in GUARDED_ENV if os.environ.get(v) is not None]
    if guarded:
        refuse("unset %s: both commits are measured on the default serial path"
               % " and ".join(guarded))
    pwreject = import_program()
    workdir = os.path.join(OUT, "work", str(os.getpid()))
    try:
        workload, ledger, ref_digests, problems = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        from workloads import LAYER_MAP

        env = environment(pwreject, args.seed)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, printed, phases, extra = measure(args, workload, ledger)
        extra += ["layer map: " + line for line in LAYER_MAP[args.workload]]
        for phase in phases:
            problems.extend(phase.problems)
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "environment": env,
            "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
            "printed": {k: {"value": v[0], "unit": v[1]} for k, v in printed.items()},
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failed_frac": ledger.failed_frac,
            "reference_digests": ref_digests,
            "first_round_digest": [p.first_round.hexdigest() for p in phases],
            "round_rates": [p.round_rates for p in phases],
            "latencies_s": [p.latencies for p in phases],
            "problems": problems,
        }
        os.makedirs(OUT, exist_ok=True)
        record_path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                                   % (args.workload, args.seed, args.trace))
        with open(record_path, "w") as fh:
            json.dump(record, fh)
        print_report(args, env, metrics, ledger, ref_digests, problems, extra)
        print("record: " + os.path.relpath(record_path, ROOT)
              + " first_round_digest=" + ",".join(record["first_round_digest"]))
        print(json.dumps({
            "correct": not problems and ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": record["metrics"],
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
