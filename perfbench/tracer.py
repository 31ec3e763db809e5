"""In-memory span recorder and the wrappers that feed it.

Spans are recorded at layer boundaries by wrapping pwreject's public names
from outside: every module attribute bound to a traced function is replaced
by a wrapper, and traced classes get a wrapped ``__init__``.  Nothing in the
package source changes, and ``uninstall`` restores every original.

Aggregates (calls, total and self time per span name) are kept for every
span.  Full span records are kept for the first ``keep`` spans only, since
a traced run makes millions of kernel calls.
"""

import sys
import time

# (module, attribute, span name).  A function is wrapped at every pwreject
# module that binds it, so call sites that imported it by name are covered.
SPAN_SITES = (
    ("pwreject.kernels", "reg_lower_gamma", "kernels.reg_lower_gamma"),
    ("pwreject.kernels", "reg_inc_beta", "kernels.reg_inc_beta"),
    ("pwreject.distributions", "chi2_cdf", "distributions.cdf"),
    ("pwreject.distributions", "f_cdf", "distributions.cdf"),
    ("pwreject.distributions", "t_cdf", "distributions.cdf"),
    ("pwreject.alpha_prime", "alpha_prime", "alpha_prime"),
    ("pwreject.alpha_prime", "alpha_prime_no_boundary", "alpha_prime"),
    ("pwreject.alpha_prime", "alpha_prime_with_boundary", "alpha_prime"),
    ("pwreject.models.normal_mean", "interval_null_test", "models.interval"),
    ("pwreject.models.normal_mean", "bonferroni_interval_test", "models.interval"),
    ("pwreject.models.linear_or", "or_null_test", "models.or_null"),
    ("pwreject.models.nuisance", "psi_region_F", "models.nuisance"),
    ("pwreject.models.nuisance", "psi_region_LRT", "models.nuisance"),
    ("pwreject.models.nuisance", "psi_pointwise_test", "models.nuisance"),
    ("pwreject.models.nuisance", "psi_lrt_test", "models.nuisance"),
    ("pwreject.models.mvn_ball", "ball_pointwise_test", "models.ball"),
    ("pwreject.models.mvn_ball", "split_lrt_test", "models.ball"),
    ("pwreject.models.mvn_ball", "cross_fit_lrt_test", "models.ball"),
    ("pwreject.regions", "union_all", "regions.union_all"),
    ("pwreject.simulation", "run_suite", "simulation"),
    ("pwreject.simulation", "run_experiment", "simulation"),
    ("pwreject.cli", "main", "cli"),
)

# (module, class, span name): constructors timed through a wrapped __init__.
INIT_SITES = (
    ("pwreject.distributions", "RngStream", "distributions.rngstream"),
    ("pwreject.regions", "Region1D", "regions.region1d"),
    ("pwreject.models.normal_mean", "UnivariateSample", "models.data"),
    ("pwreject.models.linear_or", "RegressionData", "models.data"),
    ("pwreject.models.nuisance", "XYData", "models.data"),
    ("pwreject.models.mvn_ball", "MvnSample", "models.data"),
)

# (module, class, counter name): constructors counted without a span.
COUNT_SITES = (
    ("pwreject.testing", "TestDecision", "testing.decisions"),
)


class Tracer:
    """Records nested spans on one thread.

    A span's parent is the span open when it started.  A call into a span
    name that is already the innermost open span (``alpha_prime`` calling
    ``alpha_prime_with_boundary``, ``run_suite`` calling ``run_experiment``)
    is part of that span, not a new one.
    """

    def __init__(self, clock=time.perf_counter, keep=20_000):
        self.clock = clock
        self.keep = keep
        self.origin = clock()
        self.op = 0  # operation id stamped on each span; set by the caller
        self.stack = []  # open frames: [name, start, child_time, span_id]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.pairs = {}  # (parent name, child name) -> calls
        self.counts = {}  # counter name -> count
        self.spans = []  # retained (name, start, end, span_id, parent_id, op)
        self.dropped = 0
        self._next_id = 0

    def wrap(self, fn, name):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        stack = self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [name, 0.0, 0.0, self._next_id]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end, parent)

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, end, parent):
        name, start, child_time, span_id = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_time
        parent_id = 0
        if parent is not None:
            parent[2] += duration
            parent_id = parent[3]
            key = (parent[0], name)
            self.pairs[key] = self.pairs.get(key, 0) + 1
        if len(self.spans) < self.keep:
            self.spans.append((name, start - self.origin, end - self.origin,
                               span_id, parent_id, self.op))
        else:
            self.dropped += 1

    def counter(self, fn, name):
        """Return ``fn`` wrapped so each call bumps counter ``name``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def write_spans(self, path):
        """Write the retained spans as CSV (times in seconds from tracer start)."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,span_id,parent_id,op\n")
            for name, start, end, span_id, parent_id, op in self.spans:
                fh.write("%s,%.9f,%.9f,%d,%d,%d\n" % (name, start, end, span_id, parent_id, op))


class Installation:
    """The wrappers a tracer put in place, and how to take them out."""

    def __init__(self):
        self.restore = []  # (owner, attribute, original or None to delete)
        self.missing = []  # sites absent from this version of pwreject

    def uninstall(self):
        for owner, attr, original in reversed(self.restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.restore.clear()


def install(tracer):
    """Wrap every traced site of the imported pwreject package."""
    inst = Installation()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "pwreject" or n.startswith("pwreject."))]
    for mod_name, attr, span in SPAN_SITES:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            inst.missing.append("%s.%s" % (mod_name, attr))
            continue
        wrapper = tracer.wrap(original, span)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    inst.restore.append((mod, name, original))
                    setattr(mod, name, wrapper)
    for sites, make in ((INIT_SITES, tracer.wrap), (COUNT_SITES, tracer.counter)):
        for mod_name, cls_name, span in sites:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None:
                inst.missing.append("%s.%s" % (mod_name, cls_name))
                continue
            inst.restore.append((cls, "__init__", cls.__dict__.get("__init__")))
            cls.__init__ = make(cls.__init__, span)
    return inst
