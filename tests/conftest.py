import pytest
from hypothesis import settings

from klrwcb.quiver import (DimensionData, Edge, Flavour, Quiver,
                           crawley_boevey, kronecker_quiver)
from klrwcb.scalars import as_scalar

# Property tests run without a deadline (a loaded machine runs the same
# code far slower in stretches) and from a fixed seed, so every run draws
# the same examples.
settings.register_profile("klrwcb", deadline=None, derandomize=True)
settings.load_profile("klrwcb")


@pytest.fixture
def a1_data():
    q = Quiver(["x"], [])
    dims = DimensionData({"x": 2}, {"x": 2})
    completed = crawley_boevey(q, dims)
    flavour = Flavour({"w[x]0": as_scalar(0), "w[x]1": as_scalar(2)})
    return q, dims, completed, flavour


@pytest.fixture
def a2_data():
    q = Quiver(["1", "2"], [Edge("a", "1", "2")])
    dims = DimensionData({"1": 1, "2": 1}, {"1": 1, "2": 0})
    completed = crawley_boevey(q, dims)
    flavour = Flavour({"a": as_scalar(1), "w[1]0": as_scalar(0)})
    return q, dims, completed, flavour


@pytest.fixture
def kronecker_unframed():
    q = kronecker_quiver()
    dims = DimensionData({"alpha": 1, "beta": 1}, {"alpha": 0, "beta": 0})
    completed = crawley_boevey(q, dims)
    flavour = Flavour({"e": as_scalar(1), "f": as_scalar(1)})
    return q, dims, completed, flavour


@pytest.fixture
def kronecker_framed():
    q = kronecker_quiver()
    dims = DimensionData({"alpha": 1, "beta": 1}, {"alpha": 1, "beta": 0})
    completed = crawley_boevey(q, dims)
    flavour = Flavour({"e": as_scalar(1), "f": as_scalar(1),
                       "w[alpha]0": as_scalar(-4)})
    return q, dims, completed, flavour
