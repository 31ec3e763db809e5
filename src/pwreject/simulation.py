"""Seeded Monte Carlo harness for rejection-rate and coverage studies.

Each replicate r of a setting draws its own RNG stream from (the setting's
master_seed, r), generates one dataset under the setting's truth, and
applies every method of the setting's model to that same dataset at
level alpha = 0.05; the nuisance tests test psi0 = 1.  A setting's
decisions depend only on its **decision key** (``_decision_key``): the
model, n and m, and for a coverage setting also the true psi, which its
regions must cover.  ``run_suite`` runs the settings that share a key as
one group: their replicates form one sequence of rows, setting after
setting, generated serially and decided in blocks of consecutive rows that
may span settings; ``run_experiment`` is the group of one setting.  Every
model takes one path: each data column carries one standard normal per
observation, so each row's stream writes its replicate in one run of
standard normals straight into its row of one (B, columns * n) array; the
block's data columns are formed from it at once with the (B, T) array of
the row truths, and the stack is handed to one decision call.  What the
harness knows of each model (methods, minimum n, truth length, columns,
legal m, arrays per block) is the table :data:`pwreject.models.MODELS`.
The streams' seed words, and each setting's seed in a suite, come from
the cached block hash of :mod:`pwreject.distributions`.  The ball,
nuisance and or_null models decide the whole stack at once
(:func:`pwreject.models.mvn_ball.decide_batch` on the (B, n, 5) draws,
:func:`pwreject.models.nuisance.decide_batch` on the (B, n) x and y,
:func:`pwreject.models.linear_or.decide_batch` on the (B, n) x1, x2 and
y), each comparing its statistics with cached critical values; the
interval model decides it row by row with its per-sample tests.  A
block's arrays hold about 4 MB (``_block_length``).  The hits are aligned
with the rows, and each setting's rates are counts over its own slice of
them, so a seed fixes every rate bit for bit, whatever the block length
or the group.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from pwreject.alpha_prime import _check_integers
from pwreject.distributions import RngStream, _stream_seed_words
from pwreject.models import MODELS, linear_or, mvn_ball, normal_mean, nuisance

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "run_suite", "SUITE_IDS"]

MODES = ("type1", "power", "coverage")

# Every setting tests at level 0.05; the nuisance tests test H0: psi = 1.
_ALPHA = 0.05
_PSI0 = 1.0
# Floats a block's arrays fit (4 MB of float64; see _block_length); a block
# is at least one replicate.
_BLOCK_FLOATS = 2**19


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    mode: str
    truth: tuple
    n: int
    replicates: int
    m: int  # nuisance proxy points; or_null test points, m / 2 per arm; interval 0, ball 1
    master_seed: int

    def __post_init__(self):
        _check_integers(self, "n", "replicates", "m", "master_seed")
        if self.model not in MODELS:
            raise ValueError("unknown model %r" % (self.model,))
        model = MODELS[self.model]
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % (self.mode,))
        if self.mode == "coverage" and self.model != "nuisance":
            raise ValueError("mode 'coverage' needs the 'nuisance' model, got %r" % (self.model,))
        if len(self.truth) != model.truth_len:
            raise ValueError("the %r model needs a truth of length %d, got %r"
                             % (self.model, model.truth_len, self.truth))
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.n < model.min_n:
            raise ValueError("n=%d is below the %r model minimum %d"
                             % (self.n, self.model, model.min_n))
        rule, legal = model.m_rule
        if not legal(self.m):
            raise ValueError("the %r model needs %s, got %r" % (self.model, rule, self.m))

    @property
    def methods(self):
        """All of the model's methods, in the order of a setting's rows."""
        return MODELS[self.model].methods


@dataclass(frozen=True)
class ExperimentResult:
    """Per-method rates and margins of one setting.

    ``flagged_replicates`` counts the replicates flagged as degenerate,
    which count for no method.
    """

    config: ExperimentConfig
    rates: dict
    margins: dict
    flagged_replicates: int


def margin_of_error(rate, count):
    """1.96 * sqrt(rate * (1 - rate) / count)."""
    return 1.96 * math.sqrt(rate * (1.0 - rate) / count)


def _columns(model, truth, z):
    """The data columns of stacked replicates: (y,) for interval, (x1, x2, y)
    for or_null and (x, y) for nuisance, each (B, n), and the (B, n, 5)
    observations for ball.

    ``truth`` is the (B, T) array of the row truths.  Row b of the (B, C * n)
    ``z`` is its replicate's run of standard normals, in the order drawn:
    the noise of y (interval); x1 and x2 as (n, 2), then the noise
    (or_null); x, then the noise (nuisance); the (n, 5) noise (ball).  The
    interval and ball columns are ``z`` itself, with the truth added in place.
    """
    params = truth.T[..., None]  # one (B, 1) column per parameter
    n = z.shape[1] // len(MODELS[model].columns)
    if model == "interval":
        z += truth  # (B, 1): mu
        return (z,)
    if model == "or_null":
        b1, b2 = params
        x = z[:, :2 * n].reshape(-1, n, 2)
        x1 = np.ascontiguousarray(x[:, :, 0])
        x2 = np.ascontiguousarray(x[:, :, 1])
        return x1, x2, b1 * x1 + b2 * x2 + z[:, 2 * n:]
    if model == "nuisance":
        psi, phi = params
        psi_phi = psi * phi
        x = np.ascontiguousarray(z[:, :n])
        return x, psi_phi * x + psi_phi * phi + z[:, n:]
    observations = z.reshape(len(z), n, mvn_ball.DIM)
    observations += truth[:, None, :]
    return (observations,)


def _stack(configs, lo, size):
    """The data columns of rows lo .. lo + size - 1 of a group, each stacked as (size, ...).

    A group's rows are its settings' replicates, setting after setting.
    Each row's stream, ``RngStream(seed, r)`` of its own setting, writes
    its replicate's one run of standard normals, one per data column and
    observation, straight into its row of one (size, C * n) array.  The
    row truths, each its own setting's, form one (size, T) array, and the
    columns are formed from both at once (``_columns``).
    """
    model = configs[0].model
    z = np.empty((size, len(MODELS[model].columns) * configs[0].n))
    truth = np.empty((size, MODELS[model].truth_len))
    start = row = 0
    for config in configs:
        replicates = range(max(lo - start, 0), min(lo + size - start, config.replicates))
        start += config.replicates
        truth[row:row + len(replicates)] = config.truth
        for r in replicates:
            RngStream(config.master_seed, r).generator.standard_normal(out=z[row])
            row += 1
    return _columns(model, truth, z)


def _decision_key(config):
    """Everything of a setting that enters its decisions.

    Settings with equal keys differ only in their truth, seed and replicate
    count, so their replicates are decided along one sequence of blocks.
    """
    key = (config.model, config.n, config.m)
    if config.mode == "coverage":
        key += (config.truth[0],)  # the true psi, which the regions must cover
    return key


def _decide(config, columns):
    """(hits, flagged) for one block of stacked data columns.

    ``hits`` holds one bool sequence per method, aligned with the rows.
    ``flagged`` marks the rows that a method flagged as degenerate, which
    hit for no method; only the nuisance model flags, so it is a scalar
    False for the others.
    """
    if config.model == "ball":
        return mvn_ball.decide_batch(columns[0], _ALPHA), False
    if config.model == "nuisance":
        if config.mode == "coverage":
            return nuisance.decide_batch(*columns, "coverage", _ALPHA, config.m, config.truth[0])
        return nuisance.decide_batch(*columns, "test", _ALPHA, config.m, _PSI0)
    if config.model == "or_null":
        # or_null has one method, the pointwise test.
        return [linear_or.decide_batch(*columns, _ALPHA, config.m // 2)], False
    # The interval null is [a, b] = [0, 1]; pointwise, then bonferroni.
    rows = []
    for y in columns[0]:
        data = normal_mean.UnivariateSample(y)
        rows.append((normal_mean.interval_null_test(data, 0.0, 1.0, _ALPHA).reject,
                     normal_mean.bonferroni_interval_test(data, 0.0, 1.0, _ALPHA).reject))
    return list(zip(*rows)), False


def _block_length(config):
    """Rows per block, so that the block's arrays fit _BLOCK_FLOATS.

    The nuisance regions are sized as if they held the whole (B, m, n)
    proxy regressors g, one (B, m, n) product of them and about six (B, m)
    arrays: the grid, the RSS coefficients and the region endpoints.  They
    sum g one slice of ``nuisance._REGRESSOR_FLOATS`` floats at a time, so
    this is an upper bound on what they hold.  Any other decision holds
    its model's ``block_arrays`` arrays at a time, each either (B, m)
    statistics over the test points or (B, C * n) draws of C data columns:
    five for the nuisance tests and or_null, the (B, n, 5) draws alone for
    ball, and five (B, n) arrays for interval, the ball model's length.
    """
    if config.mode == "coverage":
        per_replicate = config.m * (2 * config.n + 6)
    else:
        model = MODELS[config.model]
        per_replicate = model.block_arrays * max(len(model.columns) * config.n, config.m)
    return max(1, _BLOCK_FLOATS // per_replicate)


def _run_settings(configs):
    """Run settings that share a decision key; returns their results in order.

    Their replicates are the rows of one sequence, setting after setting,
    decided in blocks that may span settings; each setting's counts are
    read from its slice of the row-aligned hits.
    """
    key = configs[0]
    total = sum(config.replicates for config in configs)
    block = _block_length(key)
    hits = np.empty((len(key.methods), total), dtype=bool)
    flagged = np.empty(total, dtype=bool)
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        hits[:, lo:hi], flagged[lo:hi] = _decide(key, _stack(configs, lo, hi - lo))
    results, lo = [], 0
    for config in configs:
        hi = lo + config.replicates
        effective = config.replicates - int(np.count_nonzero(flagged[lo:hi]))
        if effective < 1:
            raise RuntimeError("all replicates were flagged as degenerate")
        rates = {m: int(np.count_nonzero(hits[i, lo:hi])) / effective
                 for i, m in enumerate(config.methods)}
        margins = {m: margin_of_error(rates[m], effective) for m in config.methods}
        results.append(ExperimentResult(config, rates, margins, config.replicates - effective))
        lo = hi
    return results


def run_experiment(config):
    """Run one Monte Carlo experiment; returns per-method rates and margins."""
    return _run_settings([config])[0]


# --- suite definitions ----------------------------------------------------

SUITE_IDS = ("table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5")

_BALL_BOUNDARY = (1.0, 0.0, 0.0, 0.0, 0.0)


def _suite_configs(suite, scale):
    """Keyword arguments of every setting of a suite, minus the seed.

    Raises ValueError for an unknown suite or a bad scale, and runs nothing.
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite, got %r" % (scale,))

    def reps(base):
        r = round(base * scale)
        if r < 1:
            raise ValueError("scale %r leaves no replicates" % (scale,))
        return r

    out = []
    if suite == "table1":
        for m in (10, 100):
            for n in (5, 10, 20, 50, 100):
                out.append(dict(model="or_null", mode="type1", truth=(1.0, 0.0),
                                n=n, replicates=reps(10_000), m=m))
    elif suite == "table2":
        for n in (5, 10, 30, 100, 1000):
            out.append(dict(model="ball", mode="type1", truth=_BALL_BOUNDARY,
                            n=n, replicates=reps(40_000), m=1))
    elif suite == "fig1":
        for mu in np.linspace(-0.5, 1.5, 9):
            out.append(dict(model="interval", mode="type1", truth=(float(mu),),
                            n=20, replicates=reps(10_000), m=0))
    elif suite == "fig2":
        for n in (5, 10, 20, 50, 200):
            for mu in (0.0, 1.0):
                out.append(dict(model="interval", mode="type1", truth=(mu,),
                                n=n, replicates=reps(10_000), m=0))
    elif suite == "fig3":
        for n in (5, 15, 30, 50, 100, 200):
            out.append(dict(model="nuisance", mode="coverage", truth=(1.0, 2.0),
                            n=n, replicates=reps(10_000), m=50))
    elif suite == "fig4":
        for psi in (0.5, 1.0, 1.5):
            for phi in (1.0, 1.5, 2.0, 2.5, 3.0):
                for n in (5, 10):
                    out.append(dict(model="nuisance", mode="power", truth=(psi, phi),
                                    n=n, replicates=reps(10_000), m=100))
    elif suite == "fig5":
        for mu in (1.05, 1.2, 1.5):
            for n in (5, 10, 30, 100, 200, 1000):
                out.append(dict(model="ball", mode="power",
                                truth=(mu, 0.0, 0.0, 0.0, 0.0),
                                n=n, replicates=reps(10_000), m=1))
    else:
        raise ValueError("unknown suite %r" % (suite,))
    return out


def _setting_seed(master_seed, index):
    """First uint64 of SeedSequence(master_seed, spawn_key=(1_000_000 + index,))."""
    return int(_stream_seed_words(operator.index(master_seed), 1_000_000 + index)[0])


CSV_COLUMNS = (
    "suite", "model", "truth", "n", "m", "method",
    "rate", "margin", "replicates", "seed",
)


def _suite_rows(suite, result):
    """The CSV rows of one setting's result in a suite, one per method."""
    config = result.config
    return [{
        "suite": suite,
        "model": config.model,
        "truth": "/".join(repr(t) for t in config.truth),
        "n": config.n,
        "m": config.m,
        "method": method,
        "rate": repr(result.rates[method]),
        "margin": repr(result.margins[method]),
        "replicates": config.replicates - result.flagged_replicates,
        "seed": config.master_seed,
    } for method in config.methods]


def _suite_settings(suite, master_seed, scale):
    """The ExperimentConfig of every setting of a suite, each with its own seed."""
    return [ExperimentConfig(master_seed=_setting_seed(master_seed, idx), **kwargs)
            for idx, kwargs in enumerate(_suite_configs(suite, scale))]


def run_suite(suite, master_seed, scale=1.0):
    """Run every setting of a named suite; returns one row dict per method.

    Settings that share a decision key (``_decision_key``) run as one group.
    """
    configs = _suite_settings(suite, master_seed, scale)
    groups = {}
    for idx, config in enumerate(configs):
        groups.setdefault(_decision_key(config), []).append(idx)
    results = [None] * len(configs)
    for members in groups.values():
        for idx, result in zip(members, _run_settings([configs[i] for i in members])):
            results[idx] = result
    return [row for result in results for row in _suite_rows(suite, result)]
