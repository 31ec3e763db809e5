"""Concrete example models, addressable by stable string identifiers."""

from collections import namedtuple

from pwreject.models import linear_or, mvn_ball, normal_mean, nuisance

# What the harness and the CLI know of each model: its methods, in the order
# of a setting's rows; its minimum n (the ball model's split LRTs need two);
# its truth length, for mu, (b1, b2), (psi, phi) or theta; its data columns,
# each of which the harness draws as one normal per observation; the m that
# labels its test, as (text, predicate): m / 2 test points per or_null arm,
# m nuisance proxy points, the interval continuum and the one ball
# projection; and how many arrays of a block's draws or (B, m) statistics
# its decision holds at a time (``simulation._block_length``).
Model = namedtuple("Model", "methods min_n truth_len columns m_rule block_arrays")

MODELS = {
    "interval": Model(("pointwise", "bonferroni"), 2, 1, ("y",),
                      ("m = 0", lambda m: m == 0), 5),
    "or_null": Model(("pointwise",), 4, 2, ("x1", "x2", "y"),
                     ("an even m >= 2", lambda m: m >= 2 and m % 2 == 0), 5),
    "nuisance": Model(nuisance.BATCH_METHODS, 3, 2, ("x", "y"),
                      ("m >= 1", lambda m: m >= 1), 5),
    "ball": Model(mvn_ball.BATCH_METHODS, 2, mvn_ball.DIM, ("y1", "y2", "y3", "y4", "y5"),
                  ("m = 1", lambda m: m == 1), 1),
}

__all__ = ["MODELS", "Model", "normal_mean", "linear_or", "nuisance", "mvn_ball"]
