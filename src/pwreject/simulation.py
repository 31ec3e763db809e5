"""Seeded Monte Carlo harness for rejection-rate and coverage studies.

Each replicate r draws its own RNG stream from (master_seed, r), generates
one dataset under the configured truth, and applies every requested method
to that same dataset.  Replicates are generated serially, in order, and
decided in blocks of consecutive replicates.  The ball and nuisance models
stack a block's draws and decide it with one batched call
(:func:`pwreject.models.mvn_ball.decide_batch` on (B, n, 5) draws,
:func:`pwreject.models.nuisance.decide_batch` on (B, n) x and y), while the
interval and or_null models decide each dataset of the block with their
per-sample tests.  A block's largest array holds at most about 4 MB: the
(B, n, 5) draws, or the nuisance model's (B, m, n) proxy regressors.
Aggregation is pure counting, so a seed fixes every rate bit for bit,
whatever the block length.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from pwreject.distributions import RngStream
from pwreject.models import linear_or, mvn_ball, normal_mean, nuisance
from pwreject.models import MODEL_IDS

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "run_suite", "SUITE_IDS"]

MODES = ("type1", "power", "coverage")

_MODEL_MIN_N = {"interval": 2, "or_null": 4, "nuisance": 3, "ball": 1}
# Parameters in a truth: mu; (b1, b2); (psi, phi); theta.
_TRUTH_LEN = {"interval": 1, "or_null": 2, "nuisance": 2, "ball": mvn_ball.DIM}
# Sample splitting needs a nonempty half on each side.
_METHOD_MIN_N = {"split_lrt": 2, "crossfit_lrt": 2}
# Floats in a block's largest array (4 MB of float64); a block is at least
# one replicate.
_BLOCK_FLOATS = 2**19


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    mode: str
    truth: tuple
    n: int
    replicates: int
    alpha: float
    m: int
    master_seed: int
    methods: tuple
    a: float = 0.0  # interval-null lower endpoint
    b: float = 1.0  # interval-null upper endpoint
    psi0: float = 1.0  # tested psi value for the nuisance model
    sigma: float = 1.0  # noise standard deviation

    def __post_init__(self):
        if self.model not in MODEL_IDS:
            raise ValueError("unknown model %r" % (self.model,))
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % (self.mode,))
        if len(self.truth) != _TRUTH_LEN[self.model]:
            raise ValueError(
                "the %r model needs a truth of length %d, got %r"
                % (self.model, _TRUTH_LEN[self.model], self.truth)
            )
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.n < _MODEL_MIN_N[self.model]:
            raise ValueError(
                "n=%d is below the %r model minimum %d"
                % (self.n, self.model, _MODEL_MIN_N[self.model])
            )
        if not self.methods:
            raise ValueError("at least one method is required")
        for method in self.methods:
            if self.n < _METHOD_MIN_N.get(method, 1):
                raise ValueError(
                    "n=%d is below the %r method minimum %d"
                    % (self.n, method, _METHOD_MIN_N[method])
                )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rates: dict
    margins: dict
    flagged_replicates: int
    wall_time: float


def margin_of_error(rate, count):
    """1.96 * sqrt(rate * (1 - rate) / count)."""
    return 1.96 * math.sqrt(rate * (1.0 - rate) / count)


def _generate(config, stream):
    g = stream.generator
    if config.model == "interval":
        mu = config.truth[0]
        return normal_mean.UnivariateSample(
            mu + config.sigma * g.standard_normal(config.n)
        )
    if config.model == "or_null":
        b1, b2 = config.truth
        x = g.standard_normal((config.n, 2))
        eps = config.sigma * g.standard_normal(config.n)
        y = b1 * x[:, 0] + b2 * x[:, 1] + eps
        return linear_or.RegressionData(x[:, 0], x[:, 1], y)
    if config.model == "nuisance":
        psi, phi = config.truth
        x = g.standard_normal(config.n)
        eps = config.sigma * g.standard_normal(config.n)
        # Raw (x, y) draws: the nuisance model decides a stack of them at once.
        return x, psi * phi * x + psi * phi * phi + eps
    if config.model == "ball":
        # Raw (n, 5) draws: the ball model decides a stack of them at once.
        theta = np.asarray(config.truth, dtype=float)
        return theta + g.standard_normal((config.n, mvn_ball.DIM))
    raise AssertionError(config.model)


def _method_fn(config, method):
    """Dataset -> bool (rejection, or region-contains-truth for coverage).

    Every model but ball and nuisance, which are decided a block at a time.
    """
    model, alpha, m = config.model, config.alpha, config.m
    if model == "interval":
        if method == "pointwise":
            return lambda d: normal_mean.interval_null_test(d, config.a, config.b, alpha).reject
        if method == "bonferroni":
            return lambda d: normal_mean.bonferroni_interval_test(d, config.a, config.b, alpha).reject
    elif model == "or_null":
        if method == "pointwise":
            return lambda d: linear_or.or_null_test(d, alpha, max(1, m // 2)).reject
    raise ValueError("method %r not available for model %r" % (method, model))


def _block_decider(config):
    """decide(datasets, size) -> (hits, flagged) for one block.

    ``datasets`` yields the block's ``size`` datasets in replicate order.
    ``hits`` holds one bool sequence per method over the replicates that no
    method flagged as degenerate; ``flagged`` counts the others, whose
    results count for no method.
    """
    if config.model == "ball":
        def decide(datasets, size):
            stack = np.empty((size, config.n, mvn_ball.DIM))
            for row, draws in zip(stack, datasets):
                row[...] = draws
            return mvn_ball.decide_batch(stack, config.methods, config.alpha), 0

        return decide

    if config.model == "nuisance":
        if config.mode == "coverage":
            mode, psi = "coverage", config.truth[0]
        else:
            mode, psi = "test", config.psi0

        def decide(datasets, size):
            x = np.empty((size, config.n))
            y = np.empty((size, config.n))
            for row, (x_draws, y_draws) in enumerate(datasets):
                x[row] = x_draws
                y[row] = y_draws
            return nuisance.decide_batch(x, y, mode, config.methods, config.alpha, config.m, psi)

        return decide

    fns = [_method_fn(config, method) for method in config.methods]

    def decide(datasets, size):
        kept = []
        flagged = 0
        for data in datasets:
            try:
                kept.append([fn(data) for fn in fns])
            except nuisance.DegenerateFitError:
                flagged += 1
        return list(zip(*kept)), flagged

    return decide


def _block_length(config):
    """Replicates per block, so that the block's largest array fits _BLOCK_FLOATS.

    That array is the (B, m, n) proxy regressor tensor for the nuisance
    model and the (B, n, 5) draws for the ball model; interval and or_null
    blocks take the ball model's length.
    """
    if config.model == "nuisance":
        per_replicate = max(config.m, 1) * config.n
    else:
        per_replicate = config.n * mvn_ball.DIM
    return max(1, _BLOCK_FLOATS // per_replicate)


def run_experiment(config):
    """Run one Monte Carlo experiment; returns per-method rates and margins."""
    start_time = time.perf_counter()
    decide = _block_decider(config)
    block = _block_length(config)
    counts = [0] * len(config.methods)
    flagged = 0
    for lo in range(0, config.replicates, block):
        reps = range(lo, min(lo + block, config.replicates))
        datasets = (_generate(config, RngStream(config.master_seed, r)) for r in reps)
        hits, block_flagged = decide(datasets, len(reps))
        for i, method_hits in enumerate(hits):
            counts[i] += int(np.count_nonzero(method_hits))
        flagged += block_flagged
    effective = config.replicates - flagged
    if effective < 1:
        raise RuntimeError("all replicates were flagged as degenerate")
    rates = {m: counts[i] / effective for i, m in enumerate(config.methods)}
    margins = {m: margin_of_error(rates[m], effective) for m in config.methods}
    return ExperimentResult(
        config, rates, margins, flagged, time.perf_counter() - start_time
    )


# --- suite definitions ----------------------------------------------------

SUITE_IDS = ("table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5")

_BALL_BOUNDARY = (1.0, 0.0, 0.0, 0.0, 0.0)


def _suite_configs(suite, scale):
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
                                n=n, replicates=reps(10_000), alpha=0.05, m=m,
                                methods=("pointwise",)))
    elif suite == "table2":
        for n in (5, 10, 30, 100, 1000):
            out.append(dict(model="ball", mode="type1", truth=_BALL_BOUNDARY,
                            n=n, replicates=reps(40_000), alpha=0.05, m=1,
                            methods=("pointwise", "split_lrt", "crossfit_lrt")))
    elif suite == "fig1":
        for mu in np.linspace(-0.5, 1.5, 9):
            out.append(dict(model="interval", mode="type1", truth=(float(mu),),
                            n=20, replicates=reps(10_000), alpha=0.05, m=0,
                            methods=("pointwise", "bonferroni")))
    elif suite == "fig2":
        for n in (5, 10, 20, 50, 200):
            for mu in (0.0, 1.0):
                out.append(dict(model="interval", mode="type1", truth=(mu,),
                                n=n, replicates=reps(10_000), alpha=0.05, m=0,
                                methods=("pointwise", "bonferroni")))
    elif suite == "fig3":
        for n in (5, 15, 30, 50, 100, 200):
            out.append(dict(model="nuisance", mode="coverage", truth=(1.0, 2.0),
                            n=n, replicates=reps(10_000), alpha=0.05, m=50,
                            methods=("pointwise", "lrt")))
    elif suite == "fig4":
        for psi in (0.5, 1.0, 1.5):
            for phi in (1.0, 1.5, 2.0, 2.5, 3.0):
                for n in (5, 10):
                    out.append(dict(model="nuisance", mode="power", truth=(psi, phi),
                                    n=n, replicates=reps(10_000), alpha=0.05, m=100,
                                    psi0=1.0, methods=("pointwise", "lrt")))
    elif suite == "fig5":
        for mu in (1.05, 1.2, 1.5):
            for n in (5, 10, 30, 100, 200, 1000):
                out.append(dict(model="ball", mode="power",
                                truth=(mu, 0.0, 0.0, 0.0, 0.0),
                                n=n, replicates=reps(10_000), alpha=0.05, m=1,
                                methods=("pointwise", "split_lrt", "crossfit_lrt")))
    else:
        raise ValueError("unknown suite %r" % (suite,))
    return out


def _setting_seed(master_seed, index):
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(1_000_000 + index,))
    return int(seq.generate_state(1, np.uint64)[0])


CSV_COLUMNS = (
    "suite", "model", "truth", "n", "m", "method",
    "rate", "margin", "replicates", "seed",
)


def run_suite(suite, master_seed, scale=1.0):
    """Run every setting of a named suite; yields one row dict per method."""
    if scale <= 0:
        raise ValueError("scale must be positive, got %r" % (scale,))
    rows = []
    for idx, kwargs in enumerate(_suite_configs(suite, scale)):
        config = ExperimentConfig(master_seed=_setting_seed(master_seed, idx), **kwargs)
        result = run_experiment(config)
        for method in config.methods:
            rows.append({
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
            })
    return rows
