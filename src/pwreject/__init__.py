"""Finite-sample tests of composite null hypotheses by pointwise rejection.

Reject H0: theta in Theta0 when every simple null H0: theta = theta_t is
rejected at a modified level alpha' chosen so the composite test holds its
size at the target alpha, for null regions with or without boundary.
"""

from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.kernels import BACKEND as KERNEL_BACKEND
from pwreject.regions import Region1D
from pwreject.testing import TestDecision, lrt_decision_subspace, pointwise_test

__version__ = "0.1.0"

__all__ = [
    "NullSpec",
    "alpha_prime",
    "TestDecision",
    "pointwise_test",
    "lrt_decision_subspace",
    "Region1D",
    "KERNEL_BACKEND",
    "__version__",
]
