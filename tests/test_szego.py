import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opuc.errors import DegenerateMeasureError
from opuc.moments import MomentTable, lebesgue_moments, moments_for
from opuc.szego import (
    VerblunskyTable,
    orthogonality_defect,
    phi_pair,
    verblunsky_from_moments,
)
from opuc.weights import WeightSpec

# alpha_0 = c_1 / c_0 = I_1(2)/I_0(2) for the exponential-of-cosine weight
ALPHA0_BESSEL2 = 0.6977746579640080


def test_lebesgue_alphas_vanish():
    v = verblunsky_from_moments(lebesgue_moments(14), 12)
    assert max(abs(a) for a in v.alphas) < 1e-14
    p = phi_pair(v, 5)
    assert np.allclose(p.phi, [0, 0, 0, 0, 0, 1])
    assert np.allclose(p.phistar, [1, 0, 0, 0, 0, 0])


def test_bessel_alpha0_reference(bessel2):
    _, _, v = bessel2
    assert v.alphas[0].real == pytest.approx(ALPHA0_BESSEL2, abs=1e-12)
    assert all(abs(a.imag) < 1e-12 for a in v.alphas)


def test_kappa_recursion(bessel2):
    _, c, v = bessel2
    assert v.kappa2[0] == pytest.approx(1.0 / c.c0)
    for n, a in enumerate(v.alphas):
        assert v.kappa2[n] / v.kappa2[n + 1] == pytest.approx(1.0 - abs(a) ** 2)
        assert v.b[n] == pytest.approx(2.0 * math.pi * v.kappa2[n])


def test_orthogonality(bessel2):
    _, c, v = bessel2
    for n in range(6):
        for m in range(n + 1):
            assert orthogonality_defect(v, c, n, m) < 1e-9


def test_alpha_from_constant_coefficient(bessel2):
    # the recurrence coefficient is minus the conjugated constant coefficient
    _, _, v = bessel2
    for n in range(1, 8):
        p = phi_pair(v, n)
        assert abs(v.alphas[n - 1] + p.phi[0].conjugate()) < 1e-12


def test_subleading_coefficient_table(bessel2):
    _, _, v = bessel2
    for n in range(1, 8):
        p = phi_pair(v, n)
        assert abs(v.phi1[n] - p.phi[n - 1]) < 1e-12


def test_reciprocal_is_reversed_conjugate(jacobi_complex):
    _, _, v = jacobi_complex
    for n in range(7):
        p = phi_pair(v, n)
        assert np.allclose(p.phistar, np.conj(p.phi[::-1]))


def test_jacobi_closed_forms(jacobi_complex):
    from opuc.szego import jacobi_alpha_ratio_residual, phi1_closed_jacobi
    _, _, v = jacobi_complex
    b = 1.0 + 0.5j
    for n in range(1, 11):
        assert jacobi_alpha_ratio_residual(v, b, n) < 1e-9
        assert phi1_closed_jacobi(v, b, n) < 1e-9


def test_scale_invariance():
    # scaling the measure leaves the recurrence coefficients unchanged
    c = moments_for(WeightSpec.bessel(1.0), 10)
    v1 = verblunsky_from_moments(c, 6)
    scaled = MomentTable(c.jmin, c.jmax, tuple(7.5 * x for x in c.values))
    v2 = verblunsky_from_moments(scaled, 6)
    assert max(abs(a - b) for a, b in zip(v1.alphas, v2.alphas)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=6))
def test_from_alphas_round_trip(alphas):
    v = VerblunskyTable.from_alphas(alphas, 1.0 / (2.0 * math.pi))
    assert v.nmax == len(alphas)
    p = phi_pair(v, len(alphas))
    assert abs(p.phi[-1] - 1.0) < 1e-12  # monic
    # szego recurrence reproduces the stored alphas
    for n in range(len(alphas)):
        assert abs(v.alphas[n] + phi_pair(v, n + 1).phi[0].conjugate()) < 1e-9


def test_perturbed_table(bessel2):
    _, _, v = bessel2
    vp = v.perturbed(3, 1e-3)
    assert abs(vp.alphas[3] - v.alphas[3] - 1e-3) < 1e-15
    assert vp.alphas[2] == v.alphas[2]
    assert vp.kappa2[3] == v.kappa2[3]
    assert vp.kappa2[4] != v.kappa2[4]


@pytest.mark.parametrize("c0", [0.0, -1.0])
def test_table_without_positive_mass_rejected(c0):
    with pytest.raises(ValueError, match="c_0"):
        verblunsky_from_moments(MomentTable(-2, 2, (0, 0, c0, 0, 0)), 2)


def test_degenerate_alpha_rejected():
    with pytest.raises(DegenerateMeasureError):
        VerblunskyTable.from_alphas([0.5, 1.0], 1.0)


def test_alpha_seed():
    v = VerblunskyTable.from_alphas([0.2], 1.0)
    assert v.alpha(-1) == -1.0
    assert v.alpha(0) == 0.2


def _pairs_from_alphas(alphas):
    """Reference: the from-alphas loop phi_pair ran before tables kept pairs."""
    phi = np.array([1.0 + 0.0j])
    phistar = np.array([1.0 + 0.0j])
    pairs = [(phi, phistar)]
    for a in alphas:
        phi_next = np.concatenate(([0.0], phi)) - a.conjugate() * np.pad(phistar, (0, 1))
        phistar_next = np.pad(phistar, (0, 1)) - a * np.concatenate(([0.0], phi))
        phi, phistar = phi_next, phistar_next
        pairs.append((phi, phistar))
    return pairs


@pytest.mark.parametrize("perturb", [False, True], ids=["moments", "perturbed"])
def test_stored_pairs_equal_reference_loop(bessel2, perturb):
    _, _, v = bessel2
    if perturb:
        v = v.perturbed(5, 1e-3)
    reference = _pairs_from_alphas(v.alphas)
    assert len(reference) == v.nmax + 1
    for n, (phi, phistar) in enumerate(reference):
        p = phi_pair(v, n)
        assert p.n == n
        assert np.array_equal(p.phi, phi)
        assert np.array_equal(p.phistar, phistar)


def test_stored_pairs_are_read_only(bessel2):
    _, _, v = bessel2
    p = phi_pair(v, 4)
    with pytest.raises(ValueError):
        p.phi[0] = 0.0
    with pytest.raises(ValueError):
        p.phistar[-1] = 0.0


def test_phi_pair_range_checked(bessel2):
    _, _, v = bessel2
    phi_pair(v, v.nmax)
    for n in (-1, v.nmax + 1):
        with pytest.raises(ValueError):
            phi_pair(v, n)
