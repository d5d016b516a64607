import cmath
import math

import numpy as np
import pytest

from opuc.cauchy import (
    N0,
    NMAX,
    SUBTRACT_BAND,
    cauchy_G,
    cauchy_Gstar,
    cauchy_derivatives,
    cauchy_eval,
    cauchy_second_derivatives,
    classify_region,
    g_recurrence_residuals,
    laurent_tail,
)
from opuc.errors import NearBoundaryError
from opuc.moments import moments_for
from opuc.szego import phi_pair, verblunsky_from_moments
from opuc.weights import WeightSpec, eval_nu, weight_values

_P = np.polynomial.polynomial

INSIDE = 0.4 * cmath.exp(1j * 0.7)
OUTSIDE = 2.5 * cmath.exp(1j * 2.1)


def test_lebesgue_closed_forms(lebesgue):
    # with unit weight the transform is 1 inside, 0 outside, and the
    # reciprocal transform is -z^{-n} outside
    _, _, v = lebesgue
    w = lebesgue[0]
    for n in (1, 4, 9):
        assert abs(cauchy_G(v, w, n, INSIDE) - 1.0) < 1e-12
        assert abs(cauchy_G(v, w, n, OUTSIDE)) < 1e-12
        assert abs(cauchy_Gstar(v, w, n, OUTSIDE) + OUTSIDE ** -n) < 1e-12


def test_origin_values(bessel2):
    w, _, v = bessel2
    for n in range(1, 11):
        assert abs(cauchy_G(v, w, n, 0.0) - 1.0 / v.b[n]) < 1e-12
        assert abs(cauchy_Gstar(v, w, n, 0.0) - v.alphas[n - 1] / v.b[n - 1]) < 1e-12


def test_recurrences(bessel2, jacobi_complex):
    for w, _, v in (bessel2, jacobi_complex):
        for z in (INSIDE, OUTSIDE):
            for n in (1, 3, 6):
                r1, r2 = g_recurrence_residuals(v, w, n, z)
                assert r1 < 1e-12
                assert r2 < 1e-12


def test_derivatives_against_finite_differences(bessel2):
    w, _, v = bessel2
    n, z, h = 4, OUTSIDE, 1e-5
    dG, dGs = cauchy_derivatives(v, w, n, z)
    fd_G = (cauchy_G(v, w, n, z + h) - cauchy_G(v, w, n, z - h)) / (2 * h)
    fd_Gs = (cauchy_Gstar(v, w, n, z + h) - cauchy_Gstar(v, w, n, z - h)) / (2 * h)
    assert abs(dG - fd_G) < 1e-8
    assert abs(dGs - fd_Gs) < 1e-8


def test_second_derivatives_against_finite_differences(jacobi1):
    w, _, v = jacobi1
    n, z, h = 3, INSIDE, 1e-4
    d2G, d2Gs = cauchy_second_derivatives(v, w, n, z)
    fd = (cauchy_G(v, w, n, z + h) - 2 * cauchy_G(v, w, n, z)
          + cauchy_G(v, w, n, z - h)) / h ** 2
    fds = (cauchy_Gstar(v, w, n, z + h) - 2 * cauchy_Gstar(v, w, n, z)
           + cauchy_Gstar(v, w, n, z - h)) / h ** 2
    assert abs(d2G - fd) < 1e-6
    assert abs(d2Gs - fds) < 1e-6


def test_laurent_tail_lebesgue(lebesgue):
    w, _, v = lebesgue
    g, gs = laurent_tail(v, w, 3)
    assert np.allclose(g, 0.0, atol=1e-12)           # alphas vanish
    assert abs(gs[0] + 1.0) < 1e-12                  # -z^{-n} leading term
    assert np.allclose(gs[1:], 0.0, atol=1e-12)


def test_laurent_tail_bessel(bessel2):
    w, _, v = bessel2
    n = 3
    g, gs = laurent_tail(v, w, n)
    an = v.alphas[n].conjugate()
    an1 = v.alphas[n + 1].conjugate()
    assert abs(g[0] + an / v.b[n]) < 1e-9
    assert abs(g[1] - (an / v.b[n] * v.phi1[n + 1] - an1 / v.b[n + 1])) < 1e-9
    assert abs(gs[0] + 1.0 / v.b[n - 1]) < 1e-9
    assert abs(gs[1] - v.phi1[n] / v.b[n - 1]) < 1e-9
    # third term of the reciprocal tail, sign as displayed
    phi2 = complex(0)
    from opuc.szego import phi_pair
    p = phi_pair(v, n + 1)
    phi2 = p.phi[n - 1]  # second subleading coefficient
    expected = -(v.phi1[n] * v.phi1[n + 1] - phi2) / v.b[n - 1]
    assert abs(gs[2] - expected) < 1e-9


def _sampled_tail(v, w, n, R=3.0, kmax=2, samples=128, rtol=1e-14):
    """Reference Laurent coefficients from transforms sampled on |z| = R.

    The coefficient c_m of z^{-m} is R^m times the m-th discrete Fourier
    coefficient of the samples; the factor R^m amplifies every sample error.
    """
    zs = R * np.exp(2j * math.pi * np.arange(samples) / samples)

    def coeff(values, m):
        phase = np.exp(2j * math.pi * m * np.arange(samples) / samples)
        return complex(R ** m * np.mean(values * phase))

    gv = np.array([cauchy_G(v, w, n, z, rtol) for z in zs])
    gsv = np.array([cauchy_Gstar(v, w, n, z, rtol) for z in zs])
    return (np.array([coeff(gv, n + 1 + k) for k in range(kmax + 1)]),
            np.array([coeff(gsv, n + k) for k in range(kmax + 1)]))


def test_laurent_tail_matches_sampled_reference(bessel2, jacobi_complex):
    for w, _, v in (bessel2, jacobi_complex):
        g, gs = laurent_tail(v, w, 3)
        g_ref, gs_ref = _sampled_tail(v, w, 3)
        assert np.max(np.abs(g - g_ref)) < 1e-10
        assert np.max(np.abs(gs - gs_ref)) < 1e-10


@pytest.mark.parametrize("w", [WeightSpec.bessel(2.0), WeightSpec.jacobi(1.3 + 0.4j)],
                         ids=["bessel2", "jacobi_complex"])
@pytest.mark.parametrize("n", [16, 20, 24, 28])
def test_laurent_tail_high_degree(w, n):
    # the leading and subleading tail identities of the rh suite
    v = verblunsky_from_moments(moments_for(w, n + 4), n + 2)
    g, gs = laurent_tail(v, w, n)
    a_n, a_n1 = v.alphas[n].conjugate(), v.alphas[n + 1].conjugate()
    residuals = (
        abs(g[0] + a_n / v.b[n]),
        abs(g[1] - (a_n / v.b[n] * v.phi1[n + 1] - a_n1 / v.b[n + 1])),
        abs(gs[0] + 1.0 / v.b[n - 1]),
        abs(gs[1] - v.phi1[n] / v.b[n - 1]),
    )
    assert max(residuals) < 1e-6


def test_region_classification_and_refusal(bessel2):
    w, _, v = bessel2
    assert classify_region(0.5) == "inside"
    assert classify_region(2.0) == "outside"
    assert classify_region(cmath.exp(0.3j)) == "boundary"
    with pytest.raises(NearBoundaryError):
        cauchy_G(v, w, 2, 1.001)
    # boundary mode admits the same point
    cauchy_G(v, w, 2, 1.001, boundary=True)


def test_cauchy_eval_record(bessel2):
    w, _, v = bessel2
    rec = cauchy_eval(v, w, 3, OUTSIDE)
    assert rec.region == "outside"
    assert rec.G == pytest.approx(cauchy_G(v, w, 3, OUTSIDE))
    assert rec.quad_nodes >= 256


def _reference_transform(w, coeffs, n, z, rtol=1e-12, order=1, subtract=None):
    """Reference: the uncached midpoint transform with node doubling."""
    z = complex(z)
    if subtract is None:
        subtract = order == 1 and SUBTRACT_BAND[0] < abs(z) < SUBTRACT_BAND[1]
    gz = 0.0 + 0.0j
    if subtract:
        gz = complex(_P.polyval(z, coeffs)) * eval_nu(w, z) / z ** n

    def eval_at(N):
        theta = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
        t = np.exp(1j * theta)
        g = _P.polyval(t, coeffs) * weight_values(w, theta) / t ** n
        if subtract:
            total = np.sum((g - gz) * t / (t - z)) / N
            if abs(z) < 1.0:
                total += gz
            return complex(total)
        scale = 2.0 if order == 3 else 1.0
        return complex(scale * np.sum(g * (t / (t - z) ** order)) / N)

    N = N0
    prev = eval_at(N)
    while N < NMAX:
        N *= 2
        cur = eval_at(N)
        if abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise AssertionError("reference transform did not converge")


def _fresh(w, nmax=10):
    return verblunsky_from_moments(moments_for(w, nmax + 2), nmax)


BAND = 1.1 * cmath.exp(1j * 0.9)   # inside the subtraction band, off the refusal band


@pytest.mark.parametrize("z", [INSIDE, OUTSIDE, BAND], ids=["inside", "outside", "band"])
def test_transforms_equal_uncached_reference(z):
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    n = 4
    phi, star = phi_pair(v, n).phi, phi_pair(v, n - 1).phistar
    G = _reference_transform(w, phi, n, z)
    Gs = _reference_transform(w, star, n, z)
    d = tuple(_reference_transform(w, p, n, z, order=2, subtract=False) for p in (phi, star))
    d2 = tuple(_reference_transform(w, p, n, z, order=3, subtract=False) for p in (phi, star))
    for _ in ("cold", "warm"):
        assert cauchy_G(v, w, n, z) == G
        assert cauchy_Gstar(v, w, n, z) == Gs
        assert cauchy_derivatives(v, w, n, z) == d
        assert cauchy_second_derivatives(v, w, n, z) == d2
    assert len(v.quadrature[w].memo) == 6


def test_other_rtol_gets_its_own_entry():
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    phi = phi_pair(v, 3).phi
    assert cauchy_G(v, w, 3, OUTSIDE) == _reference_transform(w, phi, 3, OUTSIDE)
    tight = cauchy_G(v, w, 3, OUTSIDE, rtol=1e-14)
    assert tight == _reference_transform(w, phi, 3, OUTSIDE, rtol=1e-14)
    assert len(v.quadrature[w].memo) == 2


def test_perturbed_copy_does_not_reuse_original_values():
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    before = cauchy_G(v, w, 6, OUTSIDE)
    vp = v.perturbed(5, 1e-3)
    assert vp.quadrature == {}
    after = cauchy_G(vp, w, 6, OUTSIDE)
    assert after == _reference_transform(w, phi_pair(vp, 6).phi, 6, OUTSIDE)
    assert after != before


def test_evaluation_state_outside_equality_and_repr():
    w = WeightSpec.bessel(2.0)
    v1, v2 = _fresh(w), _fresh(w)
    cauchy_G(v1, w, 2, OUTSIDE)
    assert v1 == v2
    assert repr(v1) == repr(v2)


def test_integrand_store_stays_within_one_finest_pass():
    # Jacobi transforms next to the circle need 2^13 nodes, so five degrees
    # of them overflow the store and evict the oldest integrands
    w = WeightSpec.jacobi(1.0 + 0.5j)
    v = _fresh(w)
    z = 1.021 * cmath.exp(0.4j)
    for n in range(2, 7):
        for which in (cauchy_G, cauchy_Gstar):
            which(v, w, n, z)
    q = v.quadrature[w]
    assert q.samples == sum(len(g) for g in q.integrands.values())
    assert q.samples <= NMAX
    assert ("G", 2, 256) not in q.integrands
    phi = phi_pair(v, 2).phi
    assert cauchy_G(v, w, 2, z) == _reference_transform(w, phi, 2, z)
    q.memo.clear()
    assert cauchy_G(v, w, 2, z) == _reference_transform(w, phi, 2, z)
