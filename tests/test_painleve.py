import pytest

from opuc.painleve import dpii_residual


def test_residual_from_moment_alphas(bessel2, bessel_half):
    for (_, _, v), ell in ((bessel2, 2.0), (bessel_half, 0.5)):
        alphas = [a.real for a in v.alphas]
        for n in range(2, 13):
            assert dpii_residual(alphas, ell, n) < 1e-9


def test_validation():
    with pytest.raises(ValueError):
        dpii_residual([0.1, 0.1, 0.1], -1.0, 2)
    with pytest.raises(ValueError):
        dpii_residual([0.1, 0.1, 0.1], 1.0, 1)
    with pytest.raises(ZeroDivisionError):
        dpii_residual([0.1, 1.0, 0.1], 1.0, 2)
