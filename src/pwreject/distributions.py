"""Chi-square, F, Student-t CDFs and quantiles, plus seeded RNG streams.

CDFs reduce to the regularized incomplete gamma/beta kernels.  Quantiles
invert the CDFs by bracket doubling followed by bisection; robustness is
preferred over speed since quantile calls are cached and not hot.

A stream (master seed, index) is numpy's PCG64 seeded as by
``SeedSequence(master_seed, spawn_key=(index,))``.  Its seed words come
from one vectorized pass of that hash over the block of 64 aligned indices
around it, kept in a small cache, so consecutive streams share one hash.
The draws are unchanged.
"""

import functools
import math
import operator

import numpy as np

from pwreject.kernels import reg_inc_beta, reg_lower_gamma

__all__ = [
    "chi2_cdf",
    "chi2_quantile",
    "f_cdf",
    "f_quantile",
    "t_cdf",
    "t_quantile",
    "RngStream",
]

_X_TOL = 1e-13


def _check_df(nu, name="df"):
    if not nu >= 1:
        raise ValueError("%s must be >= 1, got %r" % (name, nu))


def _check_prob(p):
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie in (0, 1), got %r" % (p,))


def _invert_increasing(fn, p, lo, hi):
    """Solve fn(x) = p for monotone nondecreasing fn on [lo, hi] by bisection."""
    # Bracket by doubling the upper end until fn(hi) >= p.
    while fn(hi) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("failed to bracket quantile")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _X_TOL * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def chi2_cdf(x, nu):
    """CDF of the chi-square distribution with nu degrees of freedom."""
    _check_df(nu)
    if not x >= 0.0:
        raise ValueError("chi-square argument must be nonnegative, got %r" % (x,))
    return reg_lower_gamma(0.5 * nu, 0.5 * x)


@functools.lru_cache(maxsize=4096)
def chi2_quantile(p, nu):
    """Inverse chi-square CDF."""
    _check_prob(p)
    _check_df(nu)
    return _invert_increasing(lambda x: chi2_cdf(x, nu), p, 0.0, max(1.0, float(nu)))


def f_cdf(x, d_num, d_den):
    """CDF of the F distribution with (d_num, d_den) degrees of freedom."""
    _check_df(d_num, "numerator df")
    _check_df(d_den, "denominator df")
    if not x >= 0.0:
        raise ValueError("F argument must be nonnegative, got %r" % (x,))
    if x == 0.0:
        return 0.0
    num = d_num * x
    if num == math.inf:
        # x is infinite, or so large that the CDF rounds to 1.
        return 1.0
    z = num / (num + d_den)
    return reg_inc_beta(0.5 * d_num, 0.5 * d_den, z)


@functools.lru_cache(maxsize=4096)
def f_quantile(p, d_num, d_den):
    """Inverse F CDF."""
    _check_prob(p)
    _check_df(d_num, "numerator df")
    _check_df(d_den, "denominator df")
    return _invert_increasing(lambda x: f_cdf(x, d_num, d_den), p, 0.0, 2.0)


def t_cdf(x, nu):
    """CDF of Student's t distribution with nu degrees of freedom."""
    _check_df(nu)
    if x == 0.0:
        return 0.5
    tail = 0.5 * reg_inc_beta(0.5 * nu, 0.5, nu / (nu + x * x))
    return 1.0 - tail if x > 0.0 else tail


@functools.lru_cache(maxsize=4096)
def t_quantile(p, nu):
    """Inverse Student-t CDF."""
    _check_prob(p)
    _check_df(nu)
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, nu)
    return _invert_increasing(lambda x: t_cdf(x, nu), p, 0.0, 2.0)


# numpy's SeedSequence hash (after M. E. O'Neill, "Developing a seed_seq
# alternative", pcg-random.org, 2015): the constants of its entropy mixing
# (A), its output hash (B) and its word mixing.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Stream indices per hashed block; a block starts at a multiple of it.
_BLOCK = 64
# A block is hashed in uint32 lanes: 4 per stream (one per pool word) for
# the mixing, then 8 per stream (one per state word) for the output hash.
# Per mixing lane, its stream's offset in the block and its pool word; per
# output lane, the mixing lane it hashes (state word i hashes pool word i % 4).
_STREAM_LANES = np.repeat(np.arange(_BLOCK, dtype=np.uint32), 4)
_POOL_WORDS = np.arange(4 * _BLOCK) % 4
_STATE_SOURCES = np.arange(8 * _BLOCK) // 8 * 4 + np.arange(8 * _BLOCK) % 4


@functools.lru_cache(maxsize=None)
def _lanes(width, init, mult=1, first=0):
    """init * mult**k mod 2**32 in the lanes of all streams, k = first .. first + width - 1.

    ``width`` lanes per stream, read-only uint32.
    """
    words = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + width)]
    lanes = np.tile(np.array(words, dtype=np.uint32), _BLOCK)
    lanes.flags.writeable = False
    return lanes


def _word_count(value, name):
    """How many uint32 words SeedSequence splits the integer ``value`` into."""
    if value < 0:
        raise ValueError("%s must be >= 0, got %r" % (name, value))
    return max(1, -(-value.bit_length() // 32))


# The harness reads one block at a time, plus the block of its setting seeds.
@functools.lru_cache(maxsize=16)
def _seed_block(master_seed, block):
    """PCG64 seed words of streams ``_BLOCK * block`` .. ``_BLOCK * block + 63``.

    Row j of the read-only (64, 4) uint64 result equals
    ``SeedSequence(master_seed, spawn_key=(_BLOCK * block + j,))
    .generate_state(4, np.uint64)``.  The pool after the run entropy is the
    same for every stream: it is ``SeedSequence(master_seed).pool`` (the
    spawn key pads the run entropy with zero words, which the pool takes
    for its missing words anyway).  Mixing in the spawn words and the
    output hash then run in uint32 arithmetic over all 64 streams at once.
    """
    base = _BLOCK * block
    # hashmix calls before the spawn words: 4 to fill the pool, 12 to mix
    # it, 4 for each run word past the fourth.
    k = 16 + 4 * max(0, _word_count(master_seed, "master seed") - 4)
    pool = np.random.SeedSequence(master_seed).pool[_POOL_WORDS]
    for j in range(_word_count(base, "stream index")):
        # Word j of each stream index; 2**32 is a multiple of _BLOCK, so
        # only the low word varies over the block.
        word = (base >> (32 * j)) & _MASK32
        hashed = (_STREAM_LANES | word) if j == 0 else np.full(4 * _BLOCK, word, dtype=np.uint32)
        hashed ^= _lanes(4, _INIT_A, _MULT_A, k)
        hashed *= _lanes(4, _INIT_A, _MULT_A, k + 1)
        hashed ^= hashed >> 16
        hashed *= _lanes(4, _MIX_R)
        pool *= _lanes(4, _MIX_L)
        pool -= hashed
        pool ^= pool >> 16
        k += 4
    state = pool[_STATE_SOURCES]
    state ^= _lanes(8, _INIT_B, _MULT_B)
    state *= _lanes(8, _INIT_B, _MULT_B, 1)
    state ^= state >> 16
    # Word pairs read as little-endian uint64, as SeedSequence reads them.
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    words = words.reshape(_BLOCK, 4)
    words.flags.writeable = False
    return words


def _stream_seed_words(master_seed, index):
    """The four uint64 PCG64 seed words of stream (master_seed, index).

    They equal ``np.random.SeedSequence(master_seed, spawn_key=(index,))
    .generate_state(4, np.uint64)`` and are read from the cached block
    of the 64 aligned indices around ``index``.  Negative arguments raise
    ``ValueError``.
    """
    if index < 0:
        raise ValueError("stream index must be >= 0, got %r" % (index,))
    return _seed_block(master_seed, index // _BLOCK)[index % _BLOCK]


@functools.cache
def _stream_seed_type():
    """The class that hands PCG64 a stream's seed words.

    It implements numpy's ``ISeedSequence``, the interface bit generators
    accept in place of a ``SeedSequence``.  It is made on first use, so
    that importing this module does not load ``numpy.random``.
    """

    class StreamSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # The one request PCG64 makes.
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("only the 4 uint64 seed words of a stream are held")
            return self.words

    return StreamSeed


class RngStream:
    """Seeded random stream, derivable from (master seed, stream index).

    Backed by numpy's PCG64 generator, seeded as through a SeedSequence with
    the stream index as spawn key, so disjoint indices give statistically
    independent substreams and identical (seed, index) pairs reproduce the
    same draws.  The seed words come from :func:`_stream_seed_words`, whose
    cached block hash gives them for 64 consecutive indices at once; so
    ``generator.bit_generator.seed_seq`` is not a ``SeedSequence``, but the
    draws are those of ``PCG64(SeedSequence(master_seed,
    spawn_key=(index,)))``.  Draw through ``generator``; its normal variates
    use numpy's ziggurat sampler.
    A stream is single-owner: never share one across concurrent contexts.
    """

    def __init__(self, master_seed, index=0):
        # Integers only, as SeedSequence takes them: a float raises TypeError.
        self.master_seed = operator.index(master_seed)
        self.index = operator.index(index)
        words = _stream_seed_words(self.master_seed, self.index)
        self.generator = np.random.Generator(np.random.PCG64(_stream_seed_type()(words)))
