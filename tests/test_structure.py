import cmath
import dataclasses
import inspect

import numpy as np
import pytest

import opuc
import opuc.cauchy
import opuc.painleve
import opuc.rh
import opuc.structure
from opuc.cauchy import (
    cauchy_G,
    cauchy_Gstar,
)
from opuc.errors import PoleError, UnsupportedWeightError
from opuc.matrix2 import Matrix2C
from opuc.moments import moments_for
from opuc.rh import assemble_Y, transfer_matrix, transfer_matrix_deriv
from opuc.structure import (
    curvature_residual_closed,
    curvature_residual_generic,
    first_order_residuals,
    generic_second_order_residual,
    mtilde,
    pole_clearing_factor,
    second_curvature_residual,
    second_order_residuals,
    structure_matrix_deriv_fd,
    structure_matrix_numeric,
    structure_relation_residuals,
    traceback_residual,
)
from opuc.szego import phi_pair, verblunsky_from_moments
from opuc.weights import WeightSpec

INSIDE = 0.4 * cmath.exp(1j * 0.7)
OUTSIDE = 2.5 * cmath.exp(1j * 2.1)


def test_bessel_closed_matches_numeric(bessel2):
    w, _, v = bessel2
    for n in (2, 5, 8):
        for z in (INSIDE, OUTSIDE):
            M = structure_matrix_numeric(v, w, n, z)
            diff = mtilde(v, w, n, z) - M.scale(z * z)
            assert diff.frobenius() < 1e-10


def test_jacobi_closed_matches_numeric(jacobi_complex):
    w, _, v = jacobi_complex
    for n in (2, 5, 8):
        for z in (INSIDE, OUTSIDE):
            M = structure_matrix_numeric(v, w, n, z)
            diff = mtilde(v, w, n, z) - M.scale(z * (1.0 - z))
            assert diff.frobenius() < 1e-8


def test_jacobi_residue(jacobi1):
    # the simple pole of M_n at z = 1 has residue -Mtilde_n(1), and the
    # off-diagonal residue entries are proportional to alpha_{n-1}
    w, _, v = jacobi1
    n = 3
    R = -mtilde(v, w, n, 1.0)
    assert R.a11 == -R.a22
    a = v.alphas[n - 1]
    assert R.a12 == pytest.approx((1.0 + n) * a.conjugate() / v.b[n])
    assert R.a21 == pytest.approx(v.b[n - 1] * (1.0 + n) * a)


def test_bessel_curvature_closed(bessel2):
    w, _, v = bessel2
    for n in (2, 4, 7):
        for z in (INSIDE, OUTSIDE):
            assert curvature_residual_closed(v, w, n, z) < 1e-12


def test_jacobi_curvature_closed(jacobi_complex):
    w, _, v = jacobi_complex
    for n in (2, 4, 7):
        for z in (INSIDE, OUTSIDE):
            assert curvature_residual_closed(v, w, n, z) < 1e-10


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
        r = first_order_residuals(v, w, n, OUTSIDE)
        assert max(r) < 1e-10


def test_first_order_jacobi(jacobi_complex):
    w, _, v = jacobi_complex
    for n in (1, 4, 8):
        r = first_order_residuals(v, w, n, INSIDE)
        assert max(r) < 1e-9


def test_structure_relations_bessel(bessel2):
    w, _, v = bessel2
    for n in range(2, 11):
        r1, r2 = structure_relation_residuals(v, w, n)
        assert r1 < 1e-11
        assert r2 < 1e-11


def test_structure_relation_jacobi(jacobi1, jacobi_complex):
    for w, _, v in (jacobi1, jacobi_complex):
        for n in range(1, 11):
            (r,) = structure_relation_residuals(v, w, n)
            assert r < 1e-9


def test_second_order_bessel(bessel2):
    w, _, v = bessel2
    for n in (2, 5, 8):
        r = second_order_residuals(v, w, n, OUTSIDE)
        assert max(r) < 1e-9


def test_hypergeometric_jacobi(jacobi_complex):
    w, _, v = jacobi_complex
    for n in (1, 4, 8):
        r = second_order_residuals(v, w, n, OUTSIDE)
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
    closed = (mtilde(v, w, n, z + h) - mtilde(v, w, n, z - h)) \
        .scale(1.0 / (2 * h))
    # d(z^2 M) = 2z M + z^2 M'
    M = structure_matrix_numeric(v, w, n, z)
    lhs = M.scale(2 * z) + dM.scale(z * z)
    assert (lhs - closed).frobenius() < 1e-5


@pytest.mark.parametrize("w", [WeightSpec.bessel(2.0), WeightSpec.jacobi(1.3 + 0.4j)],
                         ids=["bessel2", "jacobi_complex"])
def test_fd_derivative_computed_once_per_point(w):
    def fresh():
        return verblunsky_from_moments(moments_for(w, 12), 10)

    z = OUTSIDE
    h = opuc.structure.FD_STEP * max(1.0, abs(z))
    v, reference = fresh(), fresh()
    for n in (4, 5):
        dM = structure_matrix_deriv_fd(v, w, n, z)

        def central(step):
            return (structure_matrix_numeric(reference, w, n, z + step)
                    - structure_matrix_numeric(reference, w, n, z - step)).scale(1.0 / (2.0 * step))

        assert dM == central(h / 2.0).scale(4.0 / 3.0) - central(h).scale(1.0 / 3.0)
        memo = dict(v.quadrature[w].memo)
        assert structure_matrix_deriv_fd(v, w, n, z) is dM
        assert v.quadrature[w].memo == memo      # no M_n or transform evaluated again
    assert [key for key in v.quadrature[w].memo if key[0] == "dM"] == [("dM", 4, z), ("dM", 5, z)]
    # the two checks that share M_n' give, in either order, the values of a
    # table that never ran the other one
    both, reverse = fresh(), fresh()
    second = generic_second_order_residual(both, w, 4, z), traceback_residual(both, w, 4, z)
    back = traceback_residual(reverse, w, 4, z)
    assert (generic_second_order_residual(reverse, w, 4, z), back) == second
    assert second == (generic_second_order_residual(fresh(), w, 4, z),
                      traceback_residual(fresh(), w, 4, z))


@pytest.mark.parametrize("fixture", ["bessel2", "jacobi_complex"])
def test_matrices_hold_python_scalars_only(fixture, request):
    # the table's kappa^2 and b are Python floats, so no numpy scalar enters
    # the 2x2 matrices, whose arithmetic is several times cheaper without one
    w, _, v = request.getfixturevalue(fixture)
    n = 5
    matrices = [assemble_Y(v, w, n, z, order) for z in (INSIDE, OUTSIDE) for order in (0, 1, 2)]
    matrices += [transfer_matrix(v, n, OUTSIDE), structure_matrix_numeric(v, w, n, OUTSIDE),
                 mtilde(v, w, n, OUTSIDE)]
    for m in matrices:
        assert all(type(x) in (complex, float) for x in m.entries()), m


@pytest.mark.parametrize("fixture", ["bessel2", "jacobi_complex"])
def test_table_memos_equal_a_cold_table(fixture, request):
    # each per-table function computes its value once per table, weight and
    # arguments: a repeat is the same object, with the value a fresh table
    # computes, and a warm table refuses what a cold one refuses
    w, c, table = request.getfixturevalue(fixture)

    def cold():
        return verblunsky_from_moments(c, table.nmax)

    v = cold()
    calls = [(assemble_Y, n, OUTSIDE, order) for n in (2, 5) for order in (0, 1, 2)]
    calls += [(f, n, OUTSIDE) for n in (2, 5) for f in (
        opuc.rh._transfer_defect, structure_matrix_numeric, structure_matrix_deriv_fd)]
    calls += [(opuc.structure._mtilde, n) for n in (2, 5)]
    calls += [(opuc.structure._system, 5, sign) for sign in (-1.0, 1.0)]
    for f, *args in calls:
        value = f(v, w, *args)
        assert f(v, w, *args) is value
        assert value == f(cold(), w, *args), (f.__name__, args)
    for n in (2, 5):
        assert mtilde(v, w, n, OUTSIDE) == mtilde(cold(), w, n, OUTSIDE)
    memo = v.quadrature[w].memo
    assert {key for key in memo if key[0] == "Mtilde"} == {("Mtilde", 2), ("Mtilde", 5)}
    # the first- and second-order rows share P, one per (n, sign)
    for residuals in (first_order_residuals, second_order_residuals):
        assert residuals(v, w, 5, OUTSIDE) == residuals(cold(), w, 5, OUTSIDE)
    assert {key for key in memo if key[0] == "P"} == {("P", 5, -1.0), ("P", 5, 1.0)}
    # one entry per order, however it is passed
    Y = assemble_Y(v, w, 3, OUTSIDE)
    assert assemble_Y(v, w, 3, OUTSIDE, 0) is Y and assemble_Y(v, w, 3, OUTSIDE, order=0) is Y
    assert assemble_Y(v, w, 3, OUTSIDE, order=1) is assemble_Y(v, w, 3, OUTSIDE, 1)
    assert {key for key in memo if key[:3] == ("Y", 3, OUTSIDE)} == {("Y", 3, OUTSIDE, 0),
                                                                     ("Y", 3, OUTSIDE, 1)}
    # a refused call leaves no entry: no degree below the family's, no pole
    refused = [("Y", ValueError, assemble_Y, 0, OUTSIDE),
               ("Tdefect", ValueError, opuc.rh._transfer_defect, 0, OUTSIDE),
               ("M", PoleError, structure_matrix_numeric, 5, 0j),
               ("dM", ValueError, structure_matrix_deriv_fd, 0, OUTSIDE),
               ("Mtilde", ValueError, opuc.structure._mtilde, 0),
               ("P", ValueError, opuc.structure._system, 0, 1.0)]
    for tag, exc, f, *args in refused:
        for t in (cold(), v):
            with pytest.raises(exc):
                f(t, w, *args)
        assert (tag, *args) not in memo
    with pytest.raises(ValueError):
        mtilde(v, w, 0, OUTSIDE)
    for args, kwargs in (((5,), {}), ((5, OUTSIDE), {"degree": 0})):
        with pytest.raises(TypeError):
            assemble_Y(v, w, *args, **kwargs)


def test_complex_alpha_rejected_for_bessel_forms(jacobi_complex):
    _, _, v = jacobi_complex
    with pytest.raises(ValueError):
        mtilde(v, WeightSpec.bessel(2.0), 3, OUTSIDE)


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
    dG, dGs = cauchy_G(v, w, n, z, order=1), cauchy_Gstar(v, w, n, z, order=1)
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
    dG, dGs = cauchy_G(v, w, n, z, order=1), cauchy_Gstar(v, w, n, z, order=1)
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
    dG, dGs = cauchy_G(v, w, n, z, order=1), cauchy_Gstar(v, w, n, z, order=1)
    d2G, d2Gs = cauchy_G(v, w, n, z, order=2), cauchy_Gstar(v, w, n, z, order=2)
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
    dG, dGs = cauchy_G(v, w, n, z, order=1), cauchy_Gstar(v, w, n, z, order=1)
    d2G, d2Gs = cauchy_G(v, w, n, z, order=2), cauchy_Gstar(v, w, n, z, order=2)
    pre = (b - n - 2.0) * z + (1.0 + n + bb)
    r_G = abs(z * (1.0 - z) * d2G + pre * dG + b * (1.0 + n) * G)
    r_Gs = abs(z * (1.0 - z) * d2Gs + pre * dGs + n * (b - 1.0) * Gs)
    return r_phi, r_G, r_star, r_Gs


def _ref_relations_bessel(v, ell, n):
    """The numpy.polynomial body that structure._bessel_relations replaced."""
    a = _ref_real_alphas(v, n)
    k2 = v.kappa2
    pn, pm1, pm2 = phi_pair(v, n), phi_pair(v, n - 1), phi_pair(v, n - 2)
    r1 = _ref_max_coeff(
        _P.polysub(_P.polyder(pn.phi),
                   _P.polyadd(n * pm1.phi, (ell * k2[n - 2] / (2.0 * k2[n])) * pm2.phi))
    )
    inner = _P.polysub(pm1.phi, a[n] * pm1.phistar)
    r2 = _ref_max_coeff(
        _P.polysub(_P.polymulx(_P.polyder(pn.phi)),
                   _P.polyadd(n * pn.phi, (ell / 2.0) * (k2[n - 1] / k2[n]) * inner))
    )
    return r1, r2


def _ref_relations_jacobi(v, b, n):
    """The numpy.polynomial body that structure._jacobi_relations replaced."""
    bb = b.conjugate()
    a = v.alphas[n - 1]
    pn, pm1 = phi_pair(v, n), phi_pair(v, n - 1)
    zm1 = np.array([-1.0, 1.0], dtype=complex)
    lhs = _P.polymul(zm1, _P.polyder(pn.phi))
    rhs = _P.polyadd(-(bb + n) * (1.0 - abs(a) ** 2) * pm1.phi, n * pn.phi)
    return (_ref_max_coeff(_P.polysub(lhs, rhs)),)


@pytest.mark.parametrize("table", ["exact", "perturbed"])
@pytest.mark.parametrize("fixture", ["bessel2", "jacobi_complex", "jacobi_near_one"])
def test_structure_relations_equal_numpy_polynomial_reference(fixture, table, request):
    w, _, v = request.getfixturevalue(fixture)
    if table == "perturbed":
        v = v.perturbed(5, 1e-3)
    for n in range(2 if w.kind == "bessel" else 1, 13):
        if w.kind == "bessel":
            want = _ref_relations_bessel(v, w.factors[0].ell, n)
        else:
            want = _ref_relations_jacobi(v, w.factors[0].b, n)
        assert structure_relation_residuals(v, w, n) == want


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
        p, nmin = w.factors[0].ell, 2
        refs = (_ref_mtilde_bessel, _ref_curvature_bessel, _ref_first_order_bessel,
                _ref_second_order_bessel)
    else:
        p, nmin = w.factors[0].b, 1
        refs = (_ref_mtilde_jacobi, _ref_curvature_jacobi, _ref_first_order_jacobi,
                _ref_hypergeometric_jacobi)
    ref_mtilde, ref_curv, ref_first, ref_second = refs
    worst = 0.0
    largest = [0.0] * 9     # per residual: the largest reference value seen
    for n in range(nmin, 12):
        for z in REFERENCE_POINTS:
            got = [curvature_residual_closed(v, w, n, z), *first_order_residuals(v, w, n, z),
                   *second_order_residuals(v, w, n, z)]
            want = [ref_curv(v, p, n, z), *ref_first(v, w, p, n, z),
                    *ref_second(v, w, p, n, z)]
            diffs = [abs(g - r) for g, r in zip(got, want)]
            diffs += [abs(g - r) for g, r in zip(mtilde(v, w, n, z).entries(),
                                                 ref_mtilde(v, p, n, z).entries())]
            worst = max(worst, *diffs)
            largest = [max(a, b) for a, b in zip(largest, want)]
    assert worst <= REFERENCE_TOL
    if table == "perturbed":
        # every residual sees the perturbation, so agreeing with the
        # references is not the same as agreeing with zero
        assert min(largest) > 1e-5


# ---------------------------------------------------------------------------
# the closed forms take the weight itself


@pytest.mark.parametrize("w", [WeightSpec.bessel(0.0), WeightSpec.jacobi(0.0)],
                         ids=["bessel0", "jacobi0"])
def test_closed_forms_at_the_lebesgue_equivalent_parameter(w):
    # ell = 0 and b = 0 are the constant weight, and the closed forms are
    # still computed there: zero on the exact table, the perturbation's
    # signal on a perturbed one
    v = verblunsky_from_moments(moments_for(w, 10), 8)
    vp = v.perturbed(2, 1e-3)
    largest = [0.0, 0.0]
    for n in range(2, 6):
        for z in (INSIDE, OUTSIDE):
            assert curvature_residual_closed(v, w, n, z) <= 1e-12
            largest[0] = max(largest[0], curvature_residual_closed(vp, w, n, z))
        assert max(structure_relation_residuals(v, w, n)) <= 1e-12
        largest[1] = max(largest[1], *structure_relation_residuals(vp, w, n))
    assert min(largest) > 1e-4


@pytest.mark.parametrize("fixture, weight", [
    ("lebesgue", lambda w, c: w),
    ("bessel2", lambda w, c: WeightSpec.custom(c)),
], ids=["lebesgue", "custom"])
def test_closed_forms_reject_weights_without_them(fixture, weight, request):
    w, c, v = request.getfixturevalue(fixture)
    w = weight(w, c)
    for call in (lambda: mtilde(v, w, 3, OUTSIDE),
                 lambda: curvature_residual_closed(v, w, 3, OUTSIDE),
                 lambda: first_order_residuals(v, w, 3, OUTSIDE),
                 lambda: second_order_residuals(v, w, 3, OUTSIDE),
                 lambda: structure_relation_residuals(v, w, 3)):
        with pytest.raises(UnsupportedWeightError):
            call()


def test_closed_forms_check_the_lowest_degree(bessel2, jacobi1):
    for (w, _, v), n in ((bessel2, 1), (jacobi1, 0)):
        with pytest.raises(ValueError, match="need n >="):
            mtilde(v, w, n, OUTSIDE)
        with pytest.raises(ValueError, match="need n >="):
            structure_relation_residuals(v, w, n)


def test_public_names_resolve():
    assert all(hasattr(opuc, name) for name in opuc.__all__)
    removed = ("mtilde_bessel", "mtilde_jacobi", "jacobi_residue_at_one",
               "curvature_residual_bessel", "curvature_residual_jacobi",
               "first_order_residuals_bessel", "first_order_residuals_jacobi",
               "second_order_residuals_bessel", "hypergeometric_residuals_jacobi",
               "structure_relations_bessel", "structure_relation_jacobi")
    for name in removed:
        assert not hasattr(opuc, name) and not hasattr(opuc.structure, name)
    # names that only their own tests reached
    gone = {opuc.painleve: ("dpii_iterate", "DpiiOrbit"),
            opuc.cauchy: ("cauchy_eval", "CauchyEval", "classify_region", "DEFAULT_RTOL"),
            opuc.structure: ("mtilde_bessel_pre_liouville",
                             "compare_bessel_mtilde_forms"),
            opuc.MomentTable: ("toeplitz", "min_toeplitz_eigenvalue"),
            opuc.PolyPair: ("eval_phi", "eval_phistar"),
            opuc.Matrix2C: ("zero",)}
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name) and name not in opuc.__all__
    # the quadrature tolerance is one module constant, cauchy.RTOL
    for module in (opuc.cauchy, opuc.rh, opuc.structure):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_"):
                assert "rtol" not in inspect.signature(fn).parameters, name
    # the weight carries no entire factor and no scale
    assert [f.name for f in dataclasses.fields(WeightSpec)] == ["factors", "moments"]
