"""Fundamental 2x2 matrices: solution matrix, transfer matrix, jump and
structure-matrix checks.

The solution matrix packages the monic polynomial, its reciprocal, and the
two second-kind functions; the transfer matrix realizes the degree shift.
The structure matrix is computed without fractional powers, using only the
single-valued logarithmic derivative of the diagonal normalizing factor.
"""

from __future__ import annotations

import cmath

from .cauchy import (
    DEFAULT_RTOL,
    cauchy_G,
    cauchy_Gstar,
    cauchy_derivatives,
    cauchy_second_derivatives,
)
from .errors import PoleError
from .matrix2 import Matrix2C
from .szego import VerblunskyTable, phi_pair
from .weights import WeightSpec, eval_weight, log_derivative, log_derivative2

JUMP_DELTA = 5e-5   # radial offset of the jump check's first approach to the circle


def _assemble(v: VerblunskyTable, w: WeightSpec, n: int, z: complex, rtol: float,
              order: int, boundary: bool = False) -> Matrix2C:
    """Y_n at z (order 0) or its analytic z-derivative of order 1 or 2."""
    if n < 1:
        raise ValueError("solution matrix defined for n >= 1")
    z = complex(z)
    bm1 = v.b[n - 1]
    if order == 0:
        G = cauchy_G(v, w, n, z, rtol, boundary)
        Gs = cauchy_Gstar(v, w, n, z, rtol, boundary)
    elif order == 1:
        G, Gs = cauchy_derivatives(v, w, n, z, rtol)
    else:
        G, Gs = cauchy_second_derivatives(v, w, n, z, rtol)
    return Matrix2C(phi_pair(v, n).eval_phi_deriv(z, order), G,
                    -bm1 * phi_pair(v, n - 1).eval_phistar_deriv(z, order), -bm1 * Gs)


def assemble_Y(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
               rtol: float = DEFAULT_RTOL, boundary: bool = False) -> Matrix2C:
    """The unit-determinant solution matrix at z (off the circle)."""
    return _assemble(v, w, n, z, rtol, 0, boundary)


def assemble_Y_deriv(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                     rtol: float = DEFAULT_RTOL) -> Matrix2C:
    """z-derivative of the solution matrix (analytic, no finite differences)."""
    return _assemble(v, w, n, z, rtol, 1)


def assemble_Y_second_deriv(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                            rtol: float = DEFAULT_RTOL) -> Matrix2C:
    """Second z-derivative of the solution matrix."""
    return _assemble(v, w, n, z, rtol, 2)


def transfer_matrix(v: VerblunskyTable, n: int, z: complex) -> Matrix2C:
    """Entire matrix relating consecutive solution matrices."""
    if n < 1:
        raise ValueError("transfer matrix defined for n >= 1")
    z = complex(z)
    an = v.alphas[n]
    am1 = v.alphas[n - 1]
    bn = v.b[n]
    return Matrix2C(z + an.conjugate() * am1, an.conjugate() / bn, am1 * bn, 1.0)


def transfer_matrix_deriv() -> Matrix2C:
    return Matrix2C(1.0, 0.0, 0.0, 0.0)


def _transfer_defect(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                     rtol: float) -> Matrix2C:
    """Y_{n+1} diag(1, z) - T_n Y_n."""
    z = complex(z)
    lhs = assemble_Y(v, w, n + 1, z, rtol) @ Matrix2C.diag(1.0, z)
    return lhs - transfer_matrix(v, n, z) @ assemble_Y(v, w, n, z, rtol)


def transfer_residual(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                      rtol: float = DEFAULT_RTOL) -> float:
    """Frobenius norm of Y_{n+1} diag(1, z) - T_n Y_n."""
    return _transfer_defect(v, w, n, z, rtol).frobenius()


def transfer_recurrence_residuals(v: VerblunskyTable, w: WeightSpec, n: int,
                                   z: complex, rtol: float = DEFAULT_RTOL
                                   ) -> tuple[float, float, float, float]:
    """Residuals of the four scalar recurrences behind the transfer relation:
    the polynomial, reciprocal-polynomial and two second-kind rows.

    They are the entry magnitudes |D11|, |D21|, |D12|, |D22| of the defect
    D = Y_{n+1} diag(1, z) - T_n Y_n.
    """
    D = _transfer_defect(v, w, n, z, rtol)
    return abs(D.a11), abs(D.a21), abs(D.a12), abs(D.a22)


def jump_matrix(w: WeightSpec, n: int, t: complex) -> Matrix2C:
    """Upper triangular jump [[1, nu(t)/t^n], [0, 1]] at a circle point."""
    theta = cmath.phase(t) % (2.0 * cmath.pi)
    nu = eval_weight(w, theta)
    return Matrix2C(1.0, nu / t ** n, 0.0, 1.0)


def jump_residual(v: VerblunskyTable, w: WeightSpec, n: int, t: complex,
                  rtol: float = DEFAULT_RTOL) -> float:
    """Richardson-extrapolated boundary-jump defect at circle point t.

    Compares the inside limit against the outside limit times the jump,
    approaching along the radius at offsets JUMP_DELTA and JUMP_DELTA/2; the
    raw defect is O(JUMP_DELTA), the extrapolated one O(JUMP_DELTA^2).
    """
    if abs(abs(t) - 1.0) > 1e-12:
        raise ValueError("jump check requires |t| = 1")
    for s in w.singular_points():
        if abs(t - s) < 1e-6:
            raise PoleError(f"jump point coincides with weight singularity {s}")
    J = jump_matrix(w, n, t)

    def defect(d: float) -> Matrix2C:
        inner = assemble_Y(v, w, n, (1.0 - d) * t, rtol, boundary=True)
        outer = assemble_Y(v, w, n, (1.0 + d) * t, rtol, boundary=True)
        return inner - (outer @ J)

    e1 = defect(JUMP_DELTA)
    e2 = defect(JUMP_DELTA / 2.0)
    extrapolated = e2.scale(2.0) - e1
    return extrapolated.frobenius()


def log_diag_factor(w: WeightSpec, n: int, z: complex) -> Matrix2C:
    """Logarithmic derivative of the diagonal normalizing factor.

    diag(-n/(2z) + nu'/(2 nu), n/(2z) - nu'/(2 nu)); single-valued, so no
    fractional powers are ever formed.
    """
    z = complex(z)
    ld = log_derivative(w, z)
    d = -n / (2.0 * z) + ld / 2.0
    return Matrix2C.diag(d, -d)


def log_diag_factor_deriv(w: WeightSpec, n: int, z: complex) -> Matrix2C:
    z = complex(z)
    ld2 = log_derivative2(w, z)
    d = n / (2.0 * z ** 2) + ld2 / 2.0
    return Matrix2C.diag(d, -d)


def structure_matrix_numeric(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                             rtol: float = DEFAULT_RTOL) -> Matrix2C:
    """Structure matrix M_n(z) = Y' Y^{-1} + Y D Y^{-1}, trace-free."""
    z = complex(z)
    if abs(z) < 1e-12:
        raise PoleError("structure matrix is singular at z = 0")
    for s in w.singular_points():
        if abs(z - s) < 1e-9:
            raise PoleError(f"structure matrix is singular at z = {s}")
    Y = assemble_Y(v, w, n, z, rtol)
    dY = assemble_Y_deriv(v, w, n, z, rtol)
    Yinv = Y.inv()
    D = log_diag_factor(w, n, z)
    return (dY @ Yinv) + (Y @ D @ Yinv)
