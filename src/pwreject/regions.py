"""One-dimensional region algebra.

A Region1D is a canonical union of disjoint closed intervals.  Confidence
regions for a scalar parameter of interest are unions, over proxy nuisance
values, of the parameter sets not rejected at the modified level alpha'
(see :func:`pwreject.models.nuisance.psi_region_F`).
"""

import math
from dataclasses import dataclass

__all__ = ["Region1D"]


@dataclass(frozen=True, init=False)
class Region1D:
    """Sorted union of disjoint closed intervals [lo, hi] on the real line.

    Touching or overlapping input intervals are merged on construction, so
    two regions covering the same set compare equal.  An endpoint may be
    infinite but not nan.
    """

    intervals: tuple

    def __init__(self, intervals=()):
        cleaned = []
        for lo, hi in intervals:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoint is nan: (%r, %r)" % (lo, hi))
            if hi < lo:
                raise ValueError("interval endpoints out of order: (%r, %r)" % (lo, hi))
            cleaned.append((float(lo), float(hi)))
        cleaned.sort()
        merged = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))

    @classmethod
    def empty(cls):
        return cls(())

    def __bool__(self):
        return bool(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def union(self, other):
        return Region1D(self.intervals + other.intervals)

    def contains(self, x):
        """Membership with inclusive endpoints."""
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return True
            if x < lo:
                return False
        return False


def union_all(regions):
    out = Region1D.empty()
    for r in regions:
        out = out.union(r)
    return out
