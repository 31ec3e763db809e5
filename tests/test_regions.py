"""Region1D algebra."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwreject.regions import Region1D, union_all

intervals_strategy = st.lists(
    st.tuples(st.floats(-50, 50), st.floats(0, 10)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=8,
)


class TestRegion1D:
    def test_merges_overlaps_and_touching(self):
        r = Region1D([(0, 1), (0.5, 2), (2, 3), (5, 6)])
        assert r.intervals == ((0.0, 3.0), (5.0, 6.0))

    def test_canonical_equality(self):
        assert Region1D([(1, 2), (0, 1)]) == Region1D([(0, 2)])

    def test_contains_inclusive(self):
        r = Region1D([(0, 1), (3, 4)])
        for x, want in [(0, True), (1, True), (2, False), (3.5, True), (4.0001, False)]:
            assert r.contains(x) is want

    def test_empty(self):
        r = Region1D.empty()
        assert not r and list(r) == [] and not r.contains(0.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="out of order"):
            Region1D([(2, 1)])

    @pytest.mark.parametrize("raw", [
        [(math.nan, 1.0)], [(0.0, math.nan)], [(1.0, math.nan), (0.0, 2.0)], [(math.nan, math.nan)],
    ])
    def test_nan_endpoint_refused(self, raw):
        # Region1D([(1.0, nan), (0.0, 2.0)]) used to return ((0.0, 2.0),).
        with pytest.raises(ValueError, match="nan"):
            Region1D(raw)

    def test_infinite_endpoints_are_legal(self):
        whole = Region1D([(-math.inf, math.inf)])
        assert whole.contains(-1e308) and whole.contains(0.0)
        assert Region1D([(1.0, math.inf), (-math.inf, -1.0)]).intervals == (
            (-math.inf, -1.0), (1.0, math.inf))

    def test_union(self):
        a = Region1D([(0, 1)])
        b = Region1D([(0.5, 3)])
        assert a.union(b) == Region1D([(0, 3)])
        assert union_all([a, b, Region1D.empty()]) == Region1D([(0, 3)])

    @settings(max_examples=100, deadline=None)
    @given(raw=intervals_strategy, x=st.floats(-60, 60))
    def test_contains_matches_naive(self, raw, x):
        region = Region1D(raw)
        naive = any(lo <= x <= hi for lo, hi in raw)
        assert region.contains(x) == naive

    @settings(max_examples=60, deadline=None)
    @given(raw=intervals_strategy)
    def test_canonical_invariants(self, raw):
        region = Region1D(raw)
        ints = region.intervals
        assert all(lo <= hi for lo, hi in ints)
        # Strictly separated after merging.
        assert all(b_lo > a_hi for (_, a_hi), (b_lo, _) in zip(ints, ints[1:]))
