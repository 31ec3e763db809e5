"""Modified-level computation: reference values, defining-equation residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwreject.alpha_prime import (
    NullSpec,
    _check_level,
    alpha_prime,
    alpha_prime_no_boundary,
    alpha_prime_with_boundary,
)
from pwreject.distributions import chi2_cdf, chi2_quantile
from pwreject.models import nuisance as nu
from pwreject.testing import lrt_decision_subspace
from references import boundary_balance_residual
from test_nuisance import make_data


class TestReferenceValues:
    def test_no_boundary_2_1(self):
        ap = alpha_prime(0.05, NullSpec(2, 1))
        assert ap == pytest.approx(0.1465, abs=5e-4)
        # Exact closed form: 1 - F_chi2_2(chi2q(0.95, 1)) = exp(-q/2),
        # frozen from a 30-digit mpmath computation.
        assert ap == pytest.approx(0.14650006448608417, abs=1e-9)

    def test_boundary_5_3(self):
        ap = alpha_prime(0.05, NullSpec(5, 3, has_boundary=True))
        assert ap == pytest.approx(0.2173, abs=5e-4)

    def test_full_dim_boundary_doubles_alpha(self):
        for alpha in (0.01, 0.05, 0.1):
            for d1 in (1, 2, 3):
                ap = alpha_prime(alpha, NullSpec(d1, d1, has_boundary=True))
                expect = 1.0 - chi2_cdf(chi2_quantile(1.0 - 2.0 * alpha, 1), d1)
                assert ap == pytest.approx(expect, abs=1e-12)
            # d1 = 1 collapses to exactly 2 * alpha.
            assert alpha_prime(alpha, NullSpec(1, 1, has_boundary=True)) == pytest.approx(
                2.0 * alpha, abs=1e-10
            )

    def test_point_null_returns_alpha(self):
        for alpha in (0.01, 0.05, 0.32):
            for d1 in (1, 3, 5):
                assert alpha_prime(alpha, NullSpec(d1, 0)) == alpha


class TestDefiningEquations:
    def test_no_boundary_equation(self):
        # q = chi2q(1 - alpha', d1) must equal chi2q(1 - alpha, d1 - d0).
        for alpha in (0.01, 0.05, 0.1):
            for d1 in range(1, 7):
                for d0 in range(0, d1):
                    ap = alpha_prime_no_boundary(alpha, NullSpec(d1, d0))
                    q = chi2_quantile(1.0 - ap, d1)
                    assert chi2_cdf(q, d1 - d0) == pytest.approx(1.0 - alpha, abs=1e-10)

    def test_boundary_residual_grid(self):
        for alpha in (0.01, 0.05, 0.1):
            for d1 in range(1, 7):
                for d0 in range(1, d1 + 1):
                    spec = NullSpec(d1, d0, has_boundary=True)
                    ap = alpha_prime_with_boundary(alpha, spec)
                    assert abs(boundary_balance_residual(alpha, spec, ap)) < 1e-10


class TestDegenerateAndErrors:
    def test_alpha_one_is_one(self):
        # alpha = 1 used to be the degenerate level alpha' = 1; it is refused.
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\), got 1.0"):
            alpha_prime(1.0, NullSpec(2, 1))
        with pytest.raises(ValueError, match=r"must lie in \(0, 0.5\), got 1.0"):
            alpha_prime(1.0, NullSpec(2, 2, has_boundary=True))

    def test_boundary_alpha_domain(self):
        with pytest.raises(ValueError):
            alpha_prime_with_boundary(0.5, NullSpec(2, 2, has_boundary=True))
        with pytest.raises(ValueError):
            alpha_prime_with_boundary(0.0, NullSpec(2, 2, has_boundary=True))

    def test_level_check_states_the_legal_range(self):
        with pytest.raises(ValueError) as err:
            _check_level(2.0)
        assert str(err.value) == "significance level must lie in (0, 1), got 2.0"
        with pytest.raises(ValueError) as err:
            _check_level(0.7, 0.5)
        assert str(err.value) == "significance level must lie in (0, 0.5), got 0.7"
        with pytest.raises(ValueError) as err:
            _check_level(2.0 ** -54, 0.5)
        assert str(err.value) == "significance level must lie in (2**-54, 0.5), got %r" % 2.0 ** -54
        for alpha, upper in ((1.0, 1.0), (1.0, 0.5), (0.5, 0.5), (5e-324, 1.0)):
            with pytest.raises(ValueError, match="significance level must lie in"):
                _check_level(alpha, upper)
        for alpha, upper in ((0.3, 0.5), (0.7, 1.0), (math.nextafter(2.0 ** -54, 1.0), 0.5)):
            _check_level(alpha, upper)

    @pytest.mark.parametrize("alpha", [0.7, 0.5, 1.5, 0.0, -1.0, 1.0])
    def test_alpha_prime_messages_state_the_legal_set(self, alpha):
        boundary = NullSpec(2, 2, has_boundary=True)
        with pytest.raises(ValueError) as err:
            alpha_prime_with_boundary(alpha, boundary)
        assert str(err.value) == "significance level must lie in (0, 0.5), got %r" % alpha
        if not 0.0 < alpha < 1.0:
            with pytest.raises(ValueError) as err:
                alpha_prime_no_boundary(alpha, NullSpec(2, 1))
            assert str(err.value) == "significance level must lie in (0, 1), got %r" % alpha

    @pytest.mark.parametrize("alpha", [1e-17, 5e-324])
    def test_tiny_level_is_named_as_a_level(self, alpha):
        # At or below 2**-54, 1 - alpha rounds to 1.0, and these calls used
        # to raise "probability must lie in (0, 1), got 1.0".
        data = make_data()
        for call in (
            lambda: alpha_prime(alpha, NullSpec(2, 1)),
            lambda: lrt_decision_subspace(1.0, NullSpec(5, 3), alpha),
            lambda: nu.psi_lrt_test(data, 1.0, alpha, 10),
            lambda: nu.psi_region_F(data, alpha, 50),
            lambda: nu.psi_region_LRT(data, alpha, 50),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "significance level must lie in (2**-54, 1), got %r" % alpha

    def test_smallest_legal_level(self):
        alpha = math.nextafter(2.0 ** -54, 1.0)
        assert 1.0 - alpha < 1.0
        assert alpha_prime(alpha, NullSpec(2, 0)) == alpha

    def test_interval_alpha_prime_is_exactly_twice_alpha(self):
        # The quantile and CDF cancel at d1 = d0 = 1; numerically they left
        # 0.10000000000000153 at alpha = 0.05.
        interval = NullSpec(1, 1, has_boundary=True)
        for alpha in (math.nextafter(2.0 ** -54, 1.0), 1e-10, 0.001, 0.01, 0.025, 0.05,
                      0.1, 0.25, 0.4, math.nextafter(0.5, 0.0)):
            assert alpha_prime_with_boundary(alpha, interval) == 2.0 * alpha

    def test_dispatch_mismatch(self):
        with pytest.raises(ValueError):
            alpha_prime_no_boundary(0.05, NullSpec(2, 2, has_boundary=True))
        with pytest.raises(ValueError):
            alpha_prime_with_boundary(0.05, NullSpec(2, 1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NullSpec(0, 0)
        with pytest.raises(ValueError):
            NullSpec(2, 3)
        with pytest.raises(ValueError):
            NullSpec(2, 2)  # full-dimensional without boundary

    @pytest.mark.parametrize("d1, d0, name", [
        (2.5, 1, "d1"), (2, 0.5, "d0"), (math.nan, 1, "d1"), (2.0, 1, "d1"), ("2", 1, "d1"),
    ])
    def test_non_integer_dimension_refused(self, d1, d0, name):
        # NullSpec(2.5, 1) and NullSpec(2, 0.5) used to give an alpha' of
        # 0.1242 and 0.0829 at alpha = 0.05.
        with pytest.raises(TypeError, match="%s must be an integer" % name):
            NullSpec(d1, d0)

    def test_numpy_integer_dimensions_are_integers(self):
        spec = NullSpec(np.int64(2), np.uint8(1))
        assert alpha_prime(0.05, spec) == alpha_prime(0.05, NullSpec(2, 1))


def _spec_grid():
    """Every (alpha, spec, function) the reference grids above exercise."""
    for alpha in (0.01, 0.05, 0.1):
        for d1 in range(1, 7):
            for d0 in range(0, d1):
                yield alpha, NullSpec(d1, d0), alpha_prime_no_boundary
            for d0 in range(1, d1 + 1):
                yield alpha, NullSpec(d1, d0, has_boundary=True), alpha_prime_with_boundary


class TestMemoization:
    def test_cached_value_equals_uncached(self):
        for alpha, spec, fn in _spec_grid():
            first = fn(alpha, spec)
            again = fn(alpha, spec)
            assert first == again == fn.__wrapped__(alpha, spec)

    def test_repeated_call_is_a_cache_hit(self):
        spec = NullSpec(5, 3, has_boundary=True)
        alpha_prime_with_boundary(0.05, spec)
        hits = alpha_prime_with_boundary.cache_info().hits
        alpha_prime_with_boundary(0.05, spec)
        assert alpha_prime_with_boundary.cache_info().hits == hits + 1

    def test_invalid_alpha_raises_every_call(self):
        boundary = NullSpec(5, 3, has_boundary=True)
        for _ in range(3):
            with pytest.raises(ValueError):
                alpha_prime_with_boundary(0.5, boundary)
            with pytest.raises(ValueError):
                alpha_prime_no_boundary(0.0, NullSpec(2, 1))
            with pytest.raises(ValueError):
                alpha_prime_no_boundary(0.05, boundary)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.005, 0.2),
    d1=st.integers(1, 6),
    d0=st.integers(0, 6),
    boundary=st.booleans(),
)
def test_alpha_prime_inflates(alpha, d1, d0, boundary):
    if d0 > d1 or (d0 == d1 and not boundary) or (boundary and d0 == 0):
        return
    ap = alpha_prime(alpha, NullSpec(d1, d0, has_boundary=boundary))
    assert alpha - 1e-12 <= ap < 1.0
    if d0 > 0:
        assert ap > alpha  # strictly inflated once a nuisance direction exists
