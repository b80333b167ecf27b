import pytest

from heislusin.counterexample import build_curve, default_params


@pytest.fixture(scope="session")
def curve10():
    """The depth-10 staircase curve of the default parameters, built once."""
    return build_curve(default_params(10))
