"""The benchmark's own arithmetic: percentiles, ratios, span self time and
the failure ledger.  Kept free of pwreject imports so it can be tested alone.
"""

import math

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer the value is one or two outliers, not a percentile.
MIN_BEYOND = 10


def samples_beyond(n, q):
    """Number of samples strictly above the nearest-rank q-quantile of n samples."""
    if n < 1:
        return 0
    return n - math.ceil(q * n)


def min_samples_for(q):
    """Smallest sample count that leaves MIN_BEYOND samples beyond quantile q."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted (den == 0)."""
    return num / den if den else 0.0


def cache_hit_ratio(before, after):
    """hits / (hits + misses) between two sums of ``cache_info()`` readings.

    ``before`` and ``after`` are (hits, misses) pairs; with no lookups in
    between the ratio is 0.0 and the lookup count (also 0) tells why.
    """
    hits = after[0] - before[0]
    misses = after[1] - before[1]
    return ratio(hits, hits + misses)


def self_times(spans):
    """Self time of each span: its duration minus the union of the intervals
    its direct children cover.

    ``spans`` holds (name, start, end, span_id, parent_id, op) tuples; the
    result maps span_id to seconds.
    """
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[1], span[2]))
    out = {}
    for name, start, end, span_id, _parent, _op in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo = max(c_start, reach, start)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


class OpLedger:
    """Counts operations attempted and failed.

    An operation is one replicate or one CLI command.  A call that raises,
    exits nonzero or fails its output check fails all of its operations.
    A reference-digest mismatch voids the workload: every operation counts
    as failed, because the outputs it produced are known to be wrong.
    """

    def __init__(self):
        self.attempted = 0
        self._failed = 0
        self.voided = False

    def record(self, ops, ok):
        self.attempted += ops
        if not ok:
            self._failed += ops

    def void(self):
        self.voided = True

    @property
    def failed(self):
        return self.attempted if self.voided else self._failed

    @property
    def failed_frac(self):
        return ratio(self.failed, self.attempted)
