import pytest

from opuc.moments import moments_for
from opuc.szego import verblunsky_from_moments
from opuc.weights import WeightSpec

NMAX = 14


def _build(w, nmax=NMAX):
    c = moments_for(w, nmax + 2)
    return w, c, verblunsky_from_moments(c, nmax + 2)


@pytest.fixture(scope="session")
def lebesgue():
    return _build(WeightSpec.lebesgue())


@pytest.fixture(scope="session")
def bessel2():
    return _build(WeightSpec.bessel(2.0))


@pytest.fixture(scope="session")
def bessel_half():
    return _build(WeightSpec.bessel(0.5))


@pytest.fixture(scope="session")
def jacobi1():
    return _build(WeightSpec.jacobi(1.0))


@pytest.fixture(scope="session")
def jacobi_complex():
    return _build(WeightSpec.jacobi(1.0 + 0.5j))


@pytest.fixture(scope="session")
def bessel07():
    return _build(WeightSpec.bessel(0.7))


@pytest.fixture(scope="session")
def jacobi_near_one():
    return _build(WeightSpec.jacobi(0.96 + 0.2j))
