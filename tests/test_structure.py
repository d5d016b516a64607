import cmath

import numpy as np
import pytest

from opuc.cauchy import (
    cauchy_G,
    cauchy_Gstar,
    cauchy_derivatives,
    cauchy_second_derivatives,
)
from opuc.matrix2 import Matrix2C
from opuc.rh import transfer_matrix, transfer_matrix_deriv
from opuc.structure import (
    compare_bessel_mtilde_forms,
    curvature_residual_bessel,
    curvature_residual_generic,
    curvature_residual_jacobi,
    first_order_residuals_bessel,
    first_order_residuals_jacobi,
    generic_second_order_residual,
    hypergeometric_residuals_jacobi,
    mtilde_bessel,
    mtilde_bessel_pre_liouville,
    mtilde_jacobi,
    jacobi_residue_at_one,
    pole_clearing_factor,
    second_curvature_residual,
    second_order_residuals_bessel,
    structure_matrix_deriv_fd,
    structure_matrix_numeric,
    structure_relation_jacobi,
    structure_relations_bessel,
    traceback_residual,
)
from opuc.szego import phi_pair
from opuc.weights import WeightSpec

INSIDE = 0.4 * cmath.exp(1j * 0.7)
OUTSIDE = 2.5 * cmath.exp(1j * 2.1)


def test_bessel_closed_matches_numeric(bessel2):
    w, _, v = bessel2
    for n in (2, 5, 8):
        for z in (INSIDE, OUTSIDE):
            M = structure_matrix_numeric(v, w, n, z)
            diff = mtilde_bessel(v, 2.0, n, z) - M.scale(z * z)
            assert diff.frobenius() < 1e-10


def test_jacobi_closed_matches_numeric(jacobi_complex):
    w, _, v = jacobi_complex
    b = 1.0 + 0.5j
    for n in (2, 5, 8):
        for z in (INSIDE, OUTSIDE):
            M = structure_matrix_numeric(v, w, n, z)
            diff = mtilde_jacobi(v, b, n, z) - M.scale(z * (1.0 - z))
            assert diff.frobenius() < 1e-8


def test_jacobi_residue(jacobi1):
    # the simple pole of M_n at z = 1 has residue -Mtilde_n(1), and the
    # off-diagonal residue entries are proportional to alpha_{n-1}
    _, _, v = jacobi1
    n = 3
    R = jacobi_residue_at_one(v, 1.0, n)
    Mt1 = mtilde_jacobi(v, 1.0, n, 1.0)
    assert (R + Mt1).frobenius() == 0.0
    a = v.alphas[n - 1]
    assert R.a12 == pytest.approx((1.0 + n) * a.conjugate() / v.b[n])
    assert R.a21 == pytest.approx(v.b[n - 1] * (1.0 + n) * a)


def test_bessel_curvature_closed(bessel2):
    _, _, v = bessel2
    for n in (2, 4, 7):
        for z in (INSIDE, OUTSIDE):
            assert curvature_residual_bessel(v, 2.0, n, z) < 1e-12


def test_jacobi_curvature_closed(jacobi_complex):
    _, _, v = jacobi_complex
    for n in (2, 4, 7):
        for z in (INSIDE, OUTSIDE):
            assert curvature_residual_jacobi(v, 1.0 + 0.5j, n, z) < 1e-10


def test_generic_curvature(bessel2, jacobi1, lebesgue):
    for w, _, v in (bessel2, jacobi1, lebesgue):
        assert curvature_residual_generic(v, w, 3, OUTSIDE) < 1e-9


def test_second_curvature(bessel2):
    w, _, v = bessel2
    for z in (INSIDE, OUTSIDE):
        assert second_curvature_residual(v, w, 3, z) < 1e-9


def test_first_order_bessel(bessel2):
    w, _, v = bessel2
    for n in (2, 5, 9):
        r = first_order_residuals_bessel(v, w, 2.0, n, OUTSIDE)
        assert max(r) < 1e-10


def test_first_order_jacobi(jacobi_complex):
    w, _, v = jacobi_complex
    for n in (1, 4, 8):
        r = first_order_residuals_jacobi(v, w, 1.0 + 0.5j, n, INSIDE)
        assert max(r) < 1e-9


def test_structure_relations_bessel(bessel2):
    _, _, v = bessel2
    for n in range(2, 11):
        r1, r2 = structure_relations_bessel(v, 2.0, n)
        assert r1 < 1e-11
        assert r2 < 1e-11


def test_structure_relation_jacobi(jacobi1, jacobi_complex):
    for (w, _, v), b in ((jacobi1, 1.0), (jacobi_complex, 1.0 + 0.5j)):
        for n in range(1, 11):
            assert structure_relation_jacobi(v, b, n) < 1e-9


def test_second_order_bessel(bessel2):
    w, _, v = bessel2
    for n in (2, 5, 8):
        r = second_order_residuals_bessel(v, w, 2.0, n, OUTSIDE)
        assert max(r) < 1e-9


def test_hypergeometric_jacobi(jacobi_complex):
    w, _, v = jacobi_complex
    for n in (1, 4, 8):
        r = hypergeometric_residuals_jacobi(v, w, 1.0 + 0.5j, n, OUTSIDE)
        assert max(r) < 1e-8


def test_generic_second_order(bessel2, jacobi1):
    for w, _, v in (bessel2, jacobi1):
        assert generic_second_order_residual(v, w, 3, OUTSIDE) < 1e-6


def test_traceback(bessel2):
    w, _, v = bessel2
    for z in (INSIDE, OUTSIDE):
        assert traceback_residual(v, w, 3, z) < 1e-6


def test_fd_derivative_consistent(bessel2):
    # the finite-difference derivative of the closed form matches exact algebra
    w, _, v = bessel2
    n, z = 4, OUTSIDE
    dM = structure_matrix_deriv_fd(v, w, n, z)
    h = 1e-6
    closed = (mtilde_bessel(v, 2.0, n, z + h) - mtilde_bessel(v, 2.0, n, z - h)) \
        .scale(1.0 / (2 * h))
    # d(z^2 M) = 2z M + z^2 M'
    M = structure_matrix_numeric(v, w, n, z)
    lhs = M.scale(2 * z) + dM.scale(z * z)
    assert (lhs - closed).frobenius() < 1e-5


def test_pre_liouville_display_diagnostic(bessel2):
    """The intermediate large-z display: its z^2 and z^1 parts agree with the
    verified closed form, while the constant part carries a small defect that
    decays in n (the closed form fixes the constant from the z -> 0 limit)."""
    _, _, v = bessel2
    for n in (3, 5):
        z1, z2 = 2.0, -1.5
        # difference at two points cancels the constant coefficient
        a = mtilde_bessel(v, 2.0, n, z1) - mtilde_bessel(v, 2.0, n, z2)
        b = mtilde_bessel_pre_liouville(v, 2.0, n, z1) \
            - mtilde_bessel_pre_liouville(v, 2.0, n, z2)
        assert abs(a.a11 - b.a11) < 1e-12
        assert abs(a.a12 - b.a12) < 1e-12
        assert abs(a.a21 - b.a21) < 1e-12
        assert abs(a.a22 - b.a22) < 1e-12
    # the constant entries do not agree, and the gap shrinks with n
    gaps = [compare_bessel_mtilde_forms(v, 2.0, n, 0.0) for n in (3, 4, 5)]
    assert gaps[0] > 1e-3
    assert gaps[0] > gaps[1] > gaps[2]


def test_complex_alpha_rejected_for_bessel_forms(jacobi_complex):
    _, _, v = jacobi_complex
    with pytest.raises(ValueError):
        mtilde_bessel(v, 2.0, 3, OUTSIDE)


def test_pole_clearing_factor():
    z = 0.3 - 1.2j
    assert pole_clearing_factor(WeightSpec.bessel(2.0), z) == z * z
    assert pole_clearing_factor(WeightSpec.jacobi(1.0 + 0.5j), z) == z * (1.0 - z)


# ---------------------------------------------------------------------------
# Reference implementations: the hand-expanded closed forms, one copy per
# family, that the generic routine of opuc.structure replaced.  The generic
# residuals must equal these to rounding on exact and on perturbed tables,
# so a generic path that dropped a term (or returned zeros) would fail here.

_P = np.polynomial.polynomial


def _ref_real_alphas(v, upto):
    for k in range(upto + 1):
        assert abs(v.alphas[k].imag) <= 1e-10
    return [v.alphas[k].real for k in range(upto + 1)]


def _ref_max_coeff(p):
    return float(np.max(np.abs(p))) if len(p) else 0.0


def _ref_shift(p, k):
    return np.concatenate((np.zeros(k, dtype=complex), p))


def _ref_mtilde_bessel(v, ell, n, z):
    a = _ref_real_alphas(v, n)
    b = v.b
    z = complex(z)
    d = ell / 4.0 * z ** 2 + n / 2.0 * z + ell / 4.0 * (b[n - 1] / b[n] - a[n - 1] ** 2)
    m12 = -(ell / 2.0) / b[n] * (a[n - 1] - a[n] * z)
    m21 = -(ell / 2.0) * b[n - 1] * (a[n - 1] - a[n - 2] * z)
    return Matrix2C(d, m12, m21, -d)


def _ref_mtilde_jacobi(v, b, n, z):
    b = complex(b)
    bb = b.conjugate()
    a = v.alphas[n - 1]
    z = complex(z)
    d = -((b + n) * z + (bb + n) * (2.0 * abs(a) ** 2 - 1.0)) / 2.0
    m12 = -(bb + n) * a.conjugate() / v.b[n]
    m21 = -v.b[n - 1] * (bb + n) * a
    return Matrix2C(d, m12, m21, -d)


def _ref_curvature_bessel(v, ell, n, z):
    z = complex(z)
    T = transfer_matrix(v, n, z)
    dT = transfer_matrix_deriv()
    Mt_n = _ref_mtilde_bessel(v, ell, n, z)
    Mt_n1 = _ref_mtilde_bessel(v, ell, n + 1, z)
    resid = dT.scale(z ** 2) + (T @ Mt_n) - T.scale(z / 2.0) - (Mt_n1 @ T)
    return resid.frobenius()


def _ref_curvature_jacobi(v, b, n, z):
    z = complex(z)
    T = transfer_matrix(v, n, z)
    dT = transfer_matrix_deriv()
    Mt_n = _ref_mtilde_jacobi(v, b, n, z)
    Mt_n1 = _ref_mtilde_jacobi(v, b, n + 1, z)
    resid = dT.scale(z * (1.0 - z)) + (T @ Mt_n) - T.scale((1.0 - z) / 2.0) - (Mt_n1 @ T)
    return resid.frobenius()


def _ref_first_order_bessel(v, w, ell, n, z):
    a = _ref_real_alphas(v, n)
    b = v.b
    ratio = b[n - 1] / b[n]
    pn = phi_pair(v, n)
    ps = phi_pair(v, n - 1)
    c_diag = np.array([ell / 2.0 - ell / 2.0 * a[n - 1] ** 2, float(n)], dtype=complex)
    c_mix = (ell / 2.0) * ratio * np.array([a[n - 1], -a[n]], dtype=complex)
    r_phi = _ref_max_coeff(
        _P.polysub(_ref_shift(_P.polyder(pn.phi), 2),
                   _P.polyadd(_P.polymul(c_diag, pn.phi),
                              _P.polymul(c_mix, ps.phistar)))
    )
    c_star_mix = (ell / 2.0) * np.array([a[n - 1], -a[n - 2]], dtype=complex)
    c_star_diag = np.array([ell / 2.0 * a[n - 1] ** 2, 0.0, -ell / 2.0], dtype=complex)
    r_star = _ref_max_coeff(
        _P.polysub(_ref_shift(_P.polyder(ps.phistar), 2),
                   _P.polyadd(_P.polymul(c_star_mix, pn.phi),
                              _P.polymul(c_star_diag, ps.phistar)))
    )
    z = complex(z)
    G = cauchy_G(v, w, n, z)
    Gs = cauchy_Gstar(v, w, n, z)
    dG, dGs = cauchy_derivatives(v, w, n, z)
    r_G = abs(z ** 2 * dG
              - (ell / 2.0 * z ** 2 - ell / 2.0 * a[n - 1] ** 2) * G
              - (ell / 2.0) * ratio * (a[n - 1] - a[n] * z) * Gs)
    r_Gs = abs(z ** 2 * dGs
               - (ell / 2.0) * (a[n - 1] - a[n - 2] * z) * G
               - (-n * z - ell / 2.0 + ell / 2.0 * a[n - 1] ** 2) * Gs)
    return r_phi, r_G, r_star, r_Gs


def _ref_first_order_jacobi(v, w, b, n, z):
    b = complex(b)
    bb = b.conjugate()
    a = v.alphas[n - 1]
    asq = abs(a) ** 2
    pn = phi_pair(v, n)
    ps = phi_pair(v, n - 1)
    zz1 = np.array([0.0, 1.0, -1.0], dtype=complex)
    c_diag = np.array([(bb + n) * (1.0 - asq), -float(n)], dtype=complex)
    mix = (bb + n) * (1.0 - asq) * a.conjugate()
    r_phi = _ref_max_coeff(
        _P.polysub(_P.polymul(zz1, _P.polyder(pn.phi)),
                   _P.polyadd(_P.polymul(c_diag, pn.phi), mix * ps.phistar))
    )
    c_star = np.array([(bb + n) * asq, b], dtype=complex)
    mix_star = (bb + n) * a
    r_star = _ref_max_coeff(
        _P.polysub(_P.polymul(zz1, _P.polyder(ps.phistar)),
                   _P.polyadd(_P.polymul(c_star, ps.phistar), mix_star * pn.phi))
    )
    z = complex(z)
    G = cauchy_G(v, w, n, z)
    Gs = cauchy_Gstar(v, w, n, z)
    dG, dGs = cauchy_derivatives(v, w, n, z)
    r_G = abs(z * (1.0 - z) * dG
              - (-b * z - (bb + n) * asq) * G
              - (bb + n) * (1.0 - asq) * a.conjugate() * Gs)
    r_Gs = abs(z * (1.0 - z) * dGs
               - (n * z - (bb + n) * (1.0 - asq)) * Gs
               - (bb + n) * a * G)
    return r_phi, r_G, r_star, r_Gs


def _ref_second_order_bessel(v, w, ell, n, z):
    a = _ref_real_alphas(v, n)
    K = (1.0 - a[n - 1] ** 2) * a[n] * a[n - 2] - a[n - 1] ** 2
    pn = phi_pair(v, n)
    ps = phi_pair(v, n - 1)
    c1 = np.array([-ell / 2.0, 2.0 - n, ell / 2.0], dtype=complex)
    c0_phi = np.array([-ell ** 2 / 4.0 - n - ell ** 2 / 4.0 * K, -ell * n / 2.0],
                      dtype=complex)
    r_phi = _ref_max_coeff(
        _P.polyadd(
            _P.polyadd(_ref_shift(_P.polyder(pn.phi, 2), 2),
                       _P.polymul(c1, _P.polyder(pn.phi))),
            _P.polyadd(_P.polymul(c0_phi, pn.phi),
                       (ell / 2.0) * (1.0 - a[n - 1] ** 2) * a[n] * ps.phistar),
        )
    )
    c0_star = np.array([-ell ** 2 / 4.0 - ell ** 2 / 4.0 * K,
                        -ell * (n / 2.0 - 1.0)], dtype=complex)
    r_star = _ref_max_coeff(
        _P.polyadd(
            _P.polyadd(_ref_shift(_P.polyder(ps.phistar, 2), 2),
                       _P.polymul(c1, _P.polyder(ps.phistar))),
            _P.polyadd(_P.polymul(c0_star, ps.phistar),
                       (ell / 2.0) * a[n - 2] * pn.phi),
        )
    )
    z = complex(z)
    G = cauchy_G(v, w, n, z)
    Gs = cauchy_Gstar(v, w, n, z)
    dG, dGs = cauchy_derivatives(v, w, n, z)
    d2G, d2Gs = cauchy_second_derivatives(v, w, n, z)
    pre_G = -ell / 2.0 * z ** 2 + (n + 2.0) * z + ell / 2.0
    r_G = abs(z ** 2 * d2G + pre_G * dG
              - (ell * (n / 2.0 + 1.0) * z + ell ** 2 / 4.0 + ell ** 2 / 4.0 * K) * G
              + (ell / 2.0) * (1.0 - a[n - 1] ** 2) * a[n] * Gs)
    r_Gs = abs(z ** 2 * d2Gs + pre_G * dGs
               - (ell * n / 2.0 * z + ell ** 2 / 4.0 - n + ell ** 2 / 4.0 * K) * Gs
               + (ell / 2.0) * a[n - 2] * G)
    return r_phi, r_G, r_star, r_Gs


def _ref_hypergeometric_jacobi(v, w, b, n, z):
    b = complex(b)
    bb = b.conjugate()
    pn = phi_pair(v, n)
    ps = phi_pair(v, n - 1)
    zz1 = np.array([0.0, 1.0, -1.0], dtype=complex)
    c1_phi = np.array([1.0 - n - bb, n - b - 2.0], dtype=complex)
    r_phi = _ref_max_coeff(
        _P.polyadd(
            _P.polyadd(_P.polymul(zz1, _P.polyder(pn.phi, 2)),
                       _P.polymul(c1_phi, _P.polyder(pn.phi))),
            n * (1.0 + b) * pn.phi,
        )
    )
    r_star = _ref_max_coeff(
        _P.polyadd(
            _P.polyadd(_P.polymul(zz1, _P.polyder(ps.phistar, 2)),
                       _P.polymul(c1_phi, _P.polyder(ps.phistar))),
            b * (n - 1.0) * ps.phistar,
        )
    )
    z = complex(z)
    G = cauchy_G(v, w, n, z)
    Gs = cauchy_Gstar(v, w, n, z)
    dG, dGs = cauchy_derivatives(v, w, n, z)
    d2G, d2Gs = cauchy_second_derivatives(v, w, n, z)
    pre = (b - n - 2.0) * z + (1.0 + n + bb)
    r_G = abs(z * (1.0 - z) * d2G + pre * dG + b * (1.0 + n) * G)
    r_Gs = abs(z * (1.0 - z) * d2Gs + pre * dGs + n * (b - 1.0) * Gs)
    return r_phi, r_G, r_star, r_Gs


REFERENCE_POINTS = (INSIDE, OUTSIDE, 1.7 * cmath.exp(-0.9j))
REFERENCE_TOL = 1e-13


@pytest.mark.parametrize("table", ["exact", "perturbed"])
@pytest.mark.parametrize("fixture", ["bessel2", "bessel07", "jacobi1", "jacobi_complex",
                                     "jacobi_near_one"])
def test_generic_closed_forms_match_hand_expanded_reference(fixture, table, request):
    w, _, v = request.getfixturevalue(fixture)
    if table == "perturbed":
        v = v.perturbed(5, 1e-3)
    if w.kind == "bessel":
        p, nmin = w.ell, 2
        pairs = ((mtilde_bessel, _ref_mtilde_bessel),
                 (curvature_residual_bessel, _ref_curvature_bessel),
                 (first_order_residuals_bessel, _ref_first_order_bessel),
                 (second_order_residuals_bessel, _ref_second_order_bessel))
    else:
        p, nmin = w.b, 1
        pairs = ((mtilde_jacobi, _ref_mtilde_jacobi),
                 (curvature_residual_jacobi, _ref_curvature_jacobi),
                 (first_order_residuals_jacobi, _ref_first_order_jacobi),
                 (hypergeometric_residuals_jacobi, _ref_hypergeometric_jacobi))
    (mtilde, ref_mtilde), (curv, ref_curv), (first, ref_first), (second, ref_second) = pairs
    worst = 0.0
    largest = [0.0] * 9     # per residual: the largest reference value seen
    for n in range(nmin, 12):
        for z in REFERENCE_POINTS:
            got = [curv(v, p, n, z), *first(v, w, p, n, z), *second(v, w, p, n, z)]
            want = [ref_curv(v, p, n, z), *ref_first(v, w, p, n, z),
                    *ref_second(v, w, p, n, z)]
            diffs = [abs(g - r) for g, r in zip(got, want)]
            diffs += [abs(g - r) for g, r in zip(mtilde(v, p, n, z).entries(),
                                                 ref_mtilde(v, p, n, z).entries())]
            worst = max(worst, *diffs)
            largest = [max(a, b) for a, b in zip(largest, want)]
    assert worst <= REFERENCE_TOL
    if table == "perturbed":
        # every residual sees the perturbation, so agreeing with the
        # references is not the same as agreeing with zero
        assert min(largest) > 1e-5
