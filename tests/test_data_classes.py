"""Model data classes hold arrays: they compare and hash by identity, and
they refuse non-finite values."""

import numpy as np
import pytest

from pwreject.models import linear_or, mvn_ball, normal_mean, nuisance

X = np.arange(6.0)
FACTORIES = {
    "MvnSample": lambda: mvn_ball.MvnSample(np.zeros((3, 5))),
    "RegressionData": lambda: linear_or.RegressionData(X, X**2, X + 1.0),
    "OlsFit": lambda: linear_or.OlsFit(X, 0.0),
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


# One factory per input class, taking the value to plant in the data.
NON_FINITE_FACTORIES = {
    "MvnSample": lambda v: mvn_ball.MvnSample(np.full((3, 5), [0.0, 1.0, 2.0, 3.0, v])),
    "RegressionData": lambda v: linear_or.RegressionData(X, X**2, np.append(X[:-1], v)),
    "XYData": lambda v: nuisance.XYData(np.append(X[:-1], v), X + 1.0),
    "UnivariateSample": lambda v: normal_mean.UnivariateSample([1.0, v, 2.0]),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_FACTORIES))
def test_non_finite_values_raise(name, value):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_FACTORIES[name](value)


# Input of the wrong shape or size, with the message each class gives.
BAD_SHAPE_FACTORIES = {
    "UnivariateSample-2d": (lambda: normal_mean.UnivariateSample(np.zeros((2, 3))),
                            "1-d sample with at least two values"),
    "UnivariateSample-one-value": (lambda: normal_mean.UnivariateSample([1.0]),
                                   "1-d sample with at least two values"),
    "XYData-unequal-lengths": (lambda: nuisance.XYData(X, X[:-1]), "1-d arrays of equal length"),
    "XYData-n-2": (lambda: nuisance.XYData([0.0, 1.0], [1.0, 3.0]), "n >= 3"),
}


@pytest.mark.parametrize("name", sorted(BAD_SHAPE_FACTORIES))
def test_bad_shape_or_size_raises(name):
    factory, match = BAD_SHAPE_FACTORIES[name]
    with pytest.raises(ValueError, match=match):
        factory()
