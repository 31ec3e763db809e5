"""Distribution layer: closed forms, oracle agreement, roundtrips, errors."""

import math
import random

import numpy as np
import pytest

import oracles
from pwreject import distributions as d


class TestChi2:
    def test_chi2_2_closed_form(self):
        for x in [0.0, 0.3, 1.0, 2.5, 5.991, 20.0]:
            assert d.chi2_cdf(x, 2) == pytest.approx(1.0 - math.exp(-0.5 * x), abs=1e-12)

    def test_reference_quantiles(self):
        assert d.chi2_quantile(0.95, 1) == pytest.approx(3.841459, abs=1e-5)
        assert d.chi2_quantile(0.90, 1) == pytest.approx(2.705543, abs=1e-5)

    def test_against_quadrature_oracle(self):
        for nu in (1, 2, 5, 10):
            for x in (0.5, 2.0, 7.3):
                assert d.chi2_cdf(x, nu) == pytest.approx(
                    oracles.chi2_cdf_quad(x, nu), abs=1e-9
                )

    def test_quantile_against_oracle_rootfinding(self):
        for nu in (1, 3, 8):
            for p in (0.05, 0.5, 0.95, 0.99):
                assert d.chi2_quantile(p, nu) == pytest.approx(
                    oracles.chi2_quantile_quad(p, nu), abs=1e-6
                )

    def test_roundtrip(self):
        for nu in (1, 2, 4, 17):
            for p in (0.001, 0.05, 0.5, 0.9, 0.999):
                assert d.chi2_cdf(d.chi2_quantile(p, nu), nu) == pytest.approx(p, abs=1e-9)

    def test_monotone_cdf(self):
        for nu in (1, 6):
            vals = [d.chi2_cdf(0.05 * i, nu) for i in range(1000)]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            d.chi2_cdf(-0.1, 2)
        with pytest.raises(ValueError):
            d.chi2_cdf(1.0, 0)
        with pytest.raises(ValueError):
            d.chi2_quantile(0.0, 2)
        with pytest.raises(ValueError):
            d.chi2_quantile(1.0, 2)


class TestF:
    def test_f1_vs_folded_t(self):
        # F(1, nu) is the square of t(nu): F-cdf(x) = 2*T(sqrt(x)) - 1.
        for nu in (1, 4, 19, 60):
            for x in (0.2, 1.0, 4.0, 9.0):
                assert d.f_cdf(x, 1, nu) == pytest.approx(
                    2.0 * d.t_cdf(math.sqrt(x), nu) - 1.0, abs=1e-10
                )

    def test_against_quadrature_oracle(self):
        for d1, d2 in ((2, 3), (2, 18), (5, 7)):
            for x in (0.3, 1.0, 3.9):
                assert d.f_cdf(x, d1, d2) == pytest.approx(
                    oracles.f_cdf_quad(x, d1, d2), abs=1e-9
                )

    def test_roundtrip(self):
        for d1, d2 in ((1, 5), (2, 3), (10, 10)):
            for p in (0.01, 0.1465, 0.8535, 0.99):
                assert d.f_cdf(d.f_quantile(p, d1, d2), d1, d2) == pytest.approx(p, abs=1e-9)

    def test_nuisance_threshold_value(self):
        # F threshold used in the nuisance-model tests, frozen from mpmath.
        assert d.f_quantile(1.0 - 0.14650006448608417, 2, 3) == pytest.approx(
            3.8975836525392253, abs=1e-8
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            d.f_cdf(-1.0, 2, 3)
        with pytest.raises(ValueError):
            d.f_cdf(1.0, 0, 3)
        with pytest.raises(ValueError):
            d.f_quantile(1.2, 2, 3)


class TestNonFiniteArguments:
    # A NaN argument or df used to pass every range check and come out as a
    # nan CDF; the chi-square and F CDFs were nan at x = inf too.
    @pytest.mark.parametrize("fn, args", [
        (d.chi2_cdf, (math.nan, 5)), (d.chi2_cdf, (1.0, math.nan)),
        (d.f_cdf, (math.nan, 2, 7)), (d.f_cdf, (1.0, math.nan, 7)), (d.f_cdf, (1.0, 2, math.nan)),
        (d.t_cdf, (math.nan, 4)), (d.t_cdf, (1.0, math.nan)),
    ], ids=["chi2-x", "chi2-df", "f-x", "f-num", "f-den", "t-x", "t-df"])
    def test_nan_raises(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)

    def test_cdfs_at_infinity_are_one(self):
        assert d.chi2_cdf(math.inf, 5) == 1.0
        assert d.f_cdf(math.inf, 2, 7) == 1.0
        # 2 * x overflows to inf: the CDF rounds to 1 there.
        assert d.f_cdf(1e308, 2, 7) == 1.0


class TestT:
    def test_reference_quantile(self):
        assert d.t_quantile(0.975, 19) == pytest.approx(2.093024, abs=1e-5)

    def test_symmetry(self):
        for nu in (1, 5, 30):
            for x in (0.0, 0.7, 2.4):
                assert d.t_cdf(x, nu) + d.t_cdf(-x, nu) == pytest.approx(1.0, abs=1e-12)
        assert d.t_quantile(0.25, 7) == -d.t_quantile(0.75, 7)

    def test_t1_is_cauchy(self):
        for x in (-3.0, -0.5, 0.0, 1.0, 10.0):
            assert d.t_cdf(x, 1) == pytest.approx(
                0.5 + math.atan(x) / math.pi, abs=1e-12
            )

    def test_against_quadrature_oracle(self):
        for nu in (2, 9, 19):
            for p in (0.6, 0.9, 0.975):
                assert d.t_quantile(p, nu) == pytest.approx(
                    oracles.t_quantile_quad(p, nu), abs=1e-6
                )

    def test_roundtrip(self):
        for nu in (1, 6, 25):
            for p in (0.01, 0.4, 0.5, 0.95):
                assert d.t_cdf(d.t_quantile(p, nu), nu) == pytest.approx(p, abs=1e-9)


class TestRngStream:
    def test_reproducible(self):
        a = d.RngStream(42, 3).generator.standard_normal(8)
        b = d.RngStream(42, 3).generator.standard_normal(8)
        assert (a == b).all()

    def test_streams_differ(self):
        a = d.RngStream(42, 0).generator.standard_normal(8)
        b = d.RngStream(42, 1).generator.standard_normal(8)
        assert (a != b).any()

    def test_scalar_and_vector(self):
        assert d.RngStream(7, 2).generator.standard_normal(5).shape == (5,)


# Seeds below, at and above 2**32, 2**64 and 2**128 (more run-entropy words
# than the pool holds), and 30 random ones of 1 to 256 bits.
_rand = random.Random(13)
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1, 2**128 + 5, 2**200 + 17] + [
    _rand.getrandbits(_rand.randint(1, 256)) for _ in range(30)]
# Indices at the ends of a hashed block and past 2**32 and 2**64 (two and
# three spawn-key words), and the block the harness takes setting seeds from.
INDICES = [0, 1, 63, 64, 2999, 2**32 - 1, 2**32, 2**64 + 9] + list(range(1_000_000, 1_000_064))


def seed_sequence_generator(seed, index):
    """The stream RngStream reproduces: PCG64 seeded through a SeedSequence."""
    seq = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


class TestStreamSeeding:
    """The block hash against numpy's SeedSequence and PCG64.

    The hash re-implements SeedSequence's arithmetic, so these fail loudly
    if a numpy release changes that algorithm or the PCG64 seeding.
    """

    def test_seed_words_match_seed_sequence(self):
        mismatches = [
            (seed, index) for seed in SEEDS for index in INDICES
            if not np.array_equal(
                d._stream_seed_words(seed, index),
                np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(4, np.uint64))
        ]
        assert mismatches == []

    @pytest.mark.parametrize("seed", SEEDS[:9] + SEEDS[-3:])
    def test_draws_match_pcg64_seeded_by_seed_sequence(self, seed):
        for index in INDICES[:8] + INDICES[8::21]:
            ours = d.RngStream(seed, index).generator
            ref = seed_sequence_generator(seed, index)
            assert np.array_equal(ours.standard_normal((3, 5)), ref.standard_normal((3, 5)))
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_cached_blocks_are_read_only(self):
        words = d._stream_seed_words(11, 70)
        block = d._seed_block(11, 1)
        assert np.shares_memory(words, block)
        for arr in (words, block):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_equal_streams_draw_independently(self):
        a, b = d.RngStream(5, 130), d.RngStream(5, 130)
        first = a.generator.standard_normal(6)
        a.generator.standard_normal(50)
        assert np.array_equal(b.generator.standard_normal(6), first)
        assert np.array_equal(d.RngStream(5, 130).generator.standard_normal(6), first)

    def test_seed_object_holds_only_the_pcg64_request(self):
        seq = d.RngStream(3, 9).generator.bit_generator.seed_seq
        assert not isinstance(seq, np.random.SeedSequence)
        assert np.array_equal(seq.generate_state(4, np.uint64), d._stream_seed_words(3, 9))
        for args in ((2, np.uint64), (4, np.uint32), (8,)):
            with pytest.raises(ValueError, match="4 uint64 seed words"):
                seq.generate_state(*args)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (3, -1), (-(2**70), 5), (0, -64)])
    def test_negative_seed_or_index_raises(self, seed, index):
        with pytest.raises(ValueError, match=">= 0"):
            d.RngStream(seed, index)

    @pytest.mark.parametrize("seed, index", [(2.7, 3), (2, 3.9), (2.0, 3), (2, 3.0), ("2", 3)])
    def test_non_integer_seed_or_index_raises(self, seed, index):
        # As SeedSequence refuses them; a float used to be truncated, so
        # RngStream(2.7, 3.9) drew what RngStream(2, 3) draws.
        with pytest.raises(TypeError):
            d.RngStream(seed, index)

    @pytest.mark.parametrize("seed, index", [(np.int64(2), np.uint32(3)), (np.uint64(2), 3)])
    def test_numpy_integers_are_integers(self, seed, index):
        want = d.RngStream(int(seed), int(index)).generator.standard_normal(4)
        stream = d.RngStream(seed, index)
        assert type(stream.master_seed) is int and type(stream.index) is int
        assert np.array_equal(stream.generator.standard_normal(4), want)
