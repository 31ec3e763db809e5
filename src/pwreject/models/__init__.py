"""Concrete example models, addressable by stable string identifiers."""

from collections import namedtuple

from pwreject.models import linear_or, mvn_ball, normal_mean, nuisance

# What the harness and the CLI know of each model: its methods, in the order
# of a setting's rows; its minimum n (the ball model's split LRTs need two);
# its truth length, for mu, (b1, b2), (psi, phi) or theta; and its data
# columns, each of which the harness draws as one normal per observation.
Model = namedtuple("Model", "methods min_n truth_len columns")

MODELS = {
    "interval": Model(("pointwise", "bonferroni"), 2, 1, ("y",)),
    "or_null": Model(("pointwise",), 4, 2, ("x1", "x2", "y")),
    "nuisance": Model(nuisance.BATCH_METHODS, 3, 2, ("x", "y")),
    "ball": Model(mvn_ball.BATCH_METHODS, 2, mvn_ball.DIM, ("y1", "y2", "y3", "y4", "y5")),
}

__all__ = ["MODELS", "Model", "normal_mean", "linear_or", "nuisance", "mvn_ball"]
