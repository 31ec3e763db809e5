"""Kernel tests: the incomplete gamma and beta kernels against mpmath and
the quadrature oracle."""

import math

import pytest

import oracles
from pwreject import kernels

GAMMA_GRID = [
    (0.5, 0.1), (0.5, 2.0), (1.0, 1.0), (1.5, 0.5), (2.5, 3.5),
    (3.0, 10.0), (7.5, 2.0), (10.0, 9.5), (50.0, 55.0), (0.75, 40.0),
]
BETA_GRID = [
    (0.5, 0.5, 0.3), (1.0, 1.0, 0.7), (2.5, 1.5, 0.2), (1.0, 9.5, 0.05),
    (5.0, 5.0, 0.5), (0.5, 4.0, 0.9), (14.0, 0.5, 0.999), (3.5, 2.5, 0.62),
]


# Parametrized by module so each test id names the kernel backend it checked,
# the one pwreject.KERNEL_BACKEND reports.
@pytest.mark.parametrize("mod", [kernels], ids=[kernels.BACKEND])
class TestBackend:
    def test_gamma_against_mpmath(self, mod):
        for s, x in GAMMA_GRID:
            assert mod.reg_lower_gamma(s, x) == pytest.approx(
                oracles.mp_reg_lower_gamma(s, x), abs=1e-12
            )

    def test_beta_against_mpmath(self, mod):
        for a, b, x in BETA_GRID:
            assert mod.reg_inc_beta(a, b, x) == pytest.approx(
                oracles.mp_reg_inc_beta(a, b, x), abs=1e-12
            )

    def test_gamma_spec_examples(self, mod):
        assert mod.reg_lower_gamma(1.0, 0.0) == 0.0
        assert mod.reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
        # Value frozen from the quadrature oracle before the kernels existed.
        assert mod.reg_lower_gamma(2.5, 3.5) == pytest.approx(
            oracles.gamma_cdf_quad(2.5, 3.5), abs=1e-10
        )

    def test_gamma_against_quadrature(self, mod):
        for s, x in GAMMA_GRID:
            assert mod.reg_lower_gamma(s, x) == pytest.approx(
                oracles.gamma_cdf_quad(s, x), abs=1e-9
            )

    def test_beta_against_quadrature(self, mod):
        for a, b, x in BETA_GRID:
            assert mod.reg_inc_beta(a, b, x) == pytest.approx(
                oracles.beta_cdf_quad(a, b, x), abs=1e-9
            )

    def test_beta_symmetry(self, mod):
        for a, b, x in BETA_GRID:
            assert mod.reg_inc_beta(a, b, x) + mod.reg_inc_beta(b, a, 1.0 - x) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_arguments_outside_the_domain_raise(self, mod):
        # Matched by message: without its check, each call fails inside
        # math.log or math.lgamma with another ValueError, or divides by 0.
        with pytest.raises(ValueError, match="shape parameter must be positive"):
            mod.reg_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError, match="argument must be nonnegative"):
            mod.reg_lower_gamma(1.0, -0.5)
        with pytest.raises(ValueError, match="beta parameters must be positive"):
            mod.reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="beta parameters must be positive"):
            mod.reg_inc_beta(1.0, -1.0, 0.5)
        with pytest.raises(ValueError, match=r"argument must lie in \[0, 1\]"):
            mod.reg_inc_beta(1.0, 1.0, 1.5)
        with pytest.raises(ValueError, match=r"argument must lie in \[0, 1\]"):
            mod.reg_inc_beta(1.0, 1.0, -0.5)
        # NaN fails every range check; it used to pass them and come out as nan.
        with pytest.raises(ValueError, match="shape parameter must be positive"):
            mod.reg_lower_gamma(math.nan, 1.0)
        with pytest.raises(ValueError, match="argument must be nonnegative"):
            mod.reg_lower_gamma(2.5, math.nan)
        with pytest.raises(ValueError, match="beta parameters must be positive"):
            mod.reg_inc_beta(math.nan, 1.0, 0.5)
        with pytest.raises(ValueError, match="beta parameters must be positive"):
            mod.reg_inc_beta(1.0, math.nan, 0.5)
        with pytest.raises(ValueError, match=r"argument must lie in \[0, 1\]"):
            mod.reg_inc_beta(1.0, 1.0, math.nan)

    def test_gamma_at_infinity_is_one(self, mod):
        # It was nan: the continued fraction's scale is inf - inf there.
        for s in (0.5, 1.0, 2.5, 50.0):
            assert mod.reg_lower_gamma(s, math.inf) == 1.0

    def test_range_and_endpoints(self, mod):
        assert mod.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert mod.reg_inc_beta(2.0, 3.0, 1.0) == 1.0
        for s in (0.5, 1.0, 4.0):
            prev = -1.0
            for i in range(50):
                v = mod.reg_lower_gamma(s, 0.4 * i)
                assert 0.0 <= v <= 1.0
                assert v >= prev
                prev = v
