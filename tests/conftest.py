import pytest
from hypothesis import settings

from reference.sequences import kronecker_data

# Property tests run without a deadline (a loaded machine runs the same
# code far slower in stretches) and from a fixed seed, so every run draws
# the same examples.
settings.register_profile("klrwcb", deadline=None, derandomize=True)
settings.load_profile("klrwcb")


@pytest.fixture
def kronecker_unframed():
    return kronecker_data((1, 1), (0, 0))


@pytest.fixture
def kronecker_framed():
    return kronecker_data((1, 1), (1, 0), [("w[alpha]0", -4)])
