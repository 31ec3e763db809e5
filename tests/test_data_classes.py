"""Model data classes hold arrays, so they compare and hash by identity."""

import numpy as np
import pytest

from pwreject.models import linear_or, mvn_ball, normal_mean, nuisance

X = np.arange(6.0)
FACTORIES = {
    "MvnSample": lambda: mvn_ball.MvnSample(np.zeros((3, 5))),
    "RegressionData": lambda: linear_or.RegressionData(X, X**2, X + 1.0),
    "OlsFit": lambda: linear_or.OlsFit(X, X, 0.0),
    "XYData": lambda: nuisance.XYData(X, X + 1.0),
    "UnivariateSample": lambda: normal_mean.UnivariateSample(X),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_identity_equality_and_hash(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    # Equal contents, distinct objects: == and hash must not touch the arrays.
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
