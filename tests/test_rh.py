import cmath

import pytest

from opuc.errors import PoleError
from opuc.matrix2 import Matrix2C
from opuc.rh import (
    assemble_Y,
    assemble_Y_deriv,
    transfer_recurrence_residuals,
    jump_matrix,
    jump_residual,
    log_diag_factor,
    log_diag_factor_deriv,
    structure_matrix_numeric,
    transfer_matrix,
    transfer_residual,
)

INSIDE = 0.4 * cmath.exp(1j * 0.7)
OUTSIDE = 2.5 * cmath.exp(1j * 2.1)


def test_determinant_is_one(bessel2, jacobi_complex):
    for w, _, v in (bessel2, jacobi_complex):
        for n in (1, 4, 8):
            for z in (INSIDE, OUTSIDE):
                assert abs(assemble_Y(v, w, n, z).det() - 1.0) < 1e-10


def test_transfer_relation(bessel2):
    w, _, v = bessel2
    for n in (1, 3, 7):
        for z in (INSIDE, OUTSIDE):
            assert transfer_residual(v, w, n, z) < 1e-12


def test_transfer_determinant_is_z(bessel2):
    # the off-diagonal products cancel, leaving det T_n = z
    _, _, v = bessel2
    for n in (1, 5):
        for z in (INSIDE, OUTSIDE):
            assert transfer_matrix(v, n, z).det() == pytest.approx(z)


def test_transfer_scalar_recurrences(bessel2, jacobi1):
    for w, _, v in (bessel2, jacobi1):
        for n in (1, 4):
            for z in (INSIDE, OUTSIDE):
                assert max(transfer_recurrence_residuals(v, w, n, z)) < 1e-12


def test_transfer_residuals_share_one_defect(bessel2):
    # the four scalar residuals are the entry magnitudes of the defect whose
    # Frobenius norm is the transfer residual
    w, _, v = bessel2
    n = 3
    for z in (INSIDE, OUTSIDE):
        D = (assemble_Y(v, w, n + 1, z) @ Matrix2C.diag(1.0, z)
             - transfer_matrix(v, n, z) @ assemble_Y(v, w, n, z))
        entries = (abs(D.a11), abs(D.a21), abs(D.a12), abs(D.a22))
        assert transfer_recurrence_residuals(v, w, n, z) == entries
        assert transfer_residual(v, w, n, z) == D.frobenius()


def test_jump_condition(bessel2, jacobi_complex):
    tol = {"bessel": 1e-6, "jacobi": 1e-5}
    for w, _, v in (bessel2, jacobi_complex):
        t = cmath.exp(1j * 0.9)
        assert jump_residual(v, w, 5, t) < tol[w.kind]


def test_jump_matrix_shape(bessel2):
    w, _, _ = bessel2
    t = cmath.exp(1j * 1.2)
    J = jump_matrix(w, 3, t)
    assert J.a11 == 1.0 and J.a21 == 0.0 and J.a22 == 1.0
    assert abs(J.a12) > 0


def test_jump_validation(bessel2):
    w, _, v = bessel2
    with pytest.raises(ValueError):
        jump_residual(v, w, 3, 0.9)


def test_jump_refuses_singularity(jacobi1):
    w, _, v = jacobi1
    with pytest.raises(PoleError):
        jump_residual(v, w, 3, 1.0 + 0j)


def test_structure_matrix_trace_free(bessel2):
    w, _, v = bessel2
    M = structure_matrix_numeric(v, w, 4, OUTSIDE)
    assert abs(M.trace()) < 1e-10


def test_structure_matrix_refusals(bessel2, jacobi1):
    w, _, v = bessel2
    with pytest.raises(PoleError):
        structure_matrix_numeric(v, w, 3, 0.0)
    wj, _, vj = jacobi1
    with pytest.raises(PoleError):
        structure_matrix_numeric(vj, wj, 3, 1.0)


def test_log_diag_factor_antisymmetric(jacobi_complex):
    w, _, _ = jacobi_complex
    D = log_diag_factor(w, 4, INSIDE)
    assert D.a11 == -D.a22
    assert D.a12 == 0.0 and D.a21 == 0.0
    dD = log_diag_factor_deriv(w, 4, INSIDE)
    h = 1e-6
    fd = (log_diag_factor(w, 4, INSIDE + h).a11
          - log_diag_factor(w, 4, INSIDE - h).a11) / (2 * h)
    assert abs(dD.a11 - fd) < 1e-6


def test_deriv_matches_finite_difference(bessel2):
    w, _, v = bessel2
    h = 1e-5
    dY = assemble_Y_deriv(v, w, 3, OUTSIDE)
    fd = (assemble_Y(v, w, 3, OUTSIDE + h) - assemble_Y(v, w, 3, OUTSIDE - h)) \
        .scale(1.0 / (2 * h))
    assert (dY - fd).frobenius() < 1e-8


def test_matrix2_algebra():
    A = Matrix2C(1.0, 2.0, 3.0, 4.0)
    assert A.det() == pytest.approx(-2.0)
    assert ((A @ A.inv()) - Matrix2C.identity()).frobenius() < 1e-14
    assert (A + (-A)).frobenius() == 0.0
    assert A.scale(2.0).a12 == 4.0
    assert A.trace() == 5.0
