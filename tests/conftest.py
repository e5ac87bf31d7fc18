import pytest

from thetareg.contfrac import QuadraticIrrational, Rational


@pytest.fixture(scope="session")
def golden():
    """(sqrt(5) - 1)/2, all partial quotients 1."""
    return QuadraticIrrational(-1, 1, 5, 2)


@pytest.fixture(scope="session")
def sqrt2m1():
    """sqrt(2) - 1, all partial quotients 2."""
    return QuadraticIrrational(-1, 1, 2, 1)


@pytest.fixture(scope="session")
def third():
    return Rational(1, 3)
