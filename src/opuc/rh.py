"""Fundamental 2x2 matrices: solution matrix, transfer matrix, jump and
structure-matrix checks.

The solution matrix packages the monic polynomial, its reciprocal, and the
two second-kind functions; the transfer matrix realizes the degree shift.
The structure matrix is computed without fractional powers, using only the
single-valued logarithmic derivative of the diagonal normalizing factor.
``assemble_Y`` and ``log_diag_factor`` take the z-derivative order as an
argument, so each derivative of Y_n and D_n has the value's code path.
Y_n is admitted anywhere off the circle, its derivatives as in ``cauchy``.
"""

from __future__ import annotations

import cmath

from .cauchy import cauchy_G, cauchy_Gstar, converge_band, per_table
from .errors import PoleError
from .matrix2 import Matrix2C
from .szego import VerblunskyTable, phi_pair
from .weights import WeightSpec, eval_weight, log_derivative

JUMP_DELTA = 5e-5   # radial offset of the jump check's first approach to the circle


@per_table("Y")
def assemble_Y(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
               order: int = 0) -> Matrix2C:
    """The unit-determinant solution matrix Y_n at z off the circle (order 0),
    or its analytic z-derivative of order 1 or 2, with no finite differences;
    the rh and structure suites ask for the same Y_n(z) again."""
    if n < 1:
        raise ValueError("solution matrix defined for n >= 1")
    bm1 = v.b[n - 1]
    G = cauchy_G(v, w, n, z, order)
    Gs = cauchy_Gstar(v, w, n, z, order)
    return Matrix2C(phi_pair(v, n).eval_phi_deriv(z, order), G,
                    -bm1 * phi_pair(v, n - 1).eval_phistar_deriv(z, order), -bm1 * Gs)


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


@per_table("Tdefect")
def _transfer_defect(v: VerblunskyTable, w: WeightSpec, n: int, z: complex) -> Matrix2C:
    """Y_{n+1} diag(1, z) - T_n Y_n, which both transfer residuals read."""
    z = complex(z)
    lhs = assemble_Y(v, w, n + 1, z) @ Matrix2C.diag(1.0, z)
    return lhs - transfer_matrix(v, n, z) @ assemble_Y(v, w, n, z)


def transfer_residual(v: VerblunskyTable, w: WeightSpec, n: int, z: complex) -> float:
    """Frobenius norm of Y_{n+1} diag(1, z) - T_n Y_n."""
    return _transfer_defect(v, w, n, z).frobenius()


def transfer_recurrence_residuals(v: VerblunskyTable, w: WeightSpec, n: int,
                                   z: complex) -> tuple[float, float, float, float]:
    """Residuals of the four scalar recurrences behind the transfer relation:
    the polynomial, reciprocal-polynomial and two second-kind rows.

    They are the entry magnitudes |D11|, |D21|, |D12|, |D22| of the defect
    D = Y_{n+1} diag(1, z) - T_n Y_n.
    """
    D = _transfer_defect(v, w, n, z)
    return abs(D.a11), abs(D.a21), abs(D.a12), abs(D.a22)


def jump_matrix(w: WeightSpec, n: int, t: complex) -> Matrix2C:
    """Upper triangular jump [[1, nu(t)/t^n], [0, 1]] at a circle point."""
    theta = cmath.phase(t) % (2.0 * cmath.pi)
    nu = eval_weight(w, theta)
    return Matrix2C(1.0, nu / t ** n, 0.0, 1.0)


def jump_residual(v: VerblunskyTable, w: WeightSpec, n: int, t: complex) -> float:
    """Richardson-extrapolated jump defect at circle point t.

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
    points = [((1.0 - d) * t, (1.0 + d) * t) for d in (JUMP_DELTA, JUMP_DELTA / 2.0)]
    # the second-kind functions at all four points converge in one pass
    converge_band(v, w, n, [z for pair in points for z in pair])
    e1, e2 = (assemble_Y(v, w, n, inner) - (assemble_Y(v, w, n, outer) @ J)
              for inner, outer in points)
    extrapolated = e2.scale(2.0) - e1
    return extrapolated.frobenius()


def log_diag_factor(w: WeightSpec, n: int, z: complex, order: int = 0) -> Matrix2C:
    """Logarithmic derivative D_n of the diagonal normalizing factor (order 0),
    or its z-derivative (order 1).

    D_n = diag(-n/(2z) + nu'/(2 nu), n/(2z) - nu'/(2 nu)); single-valued, so
    no fractional powers are ever formed.
    """
    z = complex(z)
    ld = log_derivative(w, z, order)
    d = (-n / (2.0 * z) if order == 0 else n / (2.0 * z ** 2)) + ld / 2.0
    return Matrix2C.diag(d, -d)


@per_table("M")
def structure_matrix_numeric(v: VerblunskyTable, w: WeightSpec, n: int, z: complex
                             ) -> Matrix2C:
    """Structure matrix M_n(z) = Y' Y^{-1} + Y D Y^{-1}, trace-free; the
    zero-curvature, second-order and trace-back checks and the
    finite-difference M_n' ask for the same M_n(z) again."""
    z = complex(z)
    if abs(z) < 1e-12:
        raise PoleError("structure matrix is singular at z = 0")
    for s in w.singular_points():
        if abs(z - s) < 1e-9:
            raise PoleError(f"structure matrix is singular at z = {s}")
    Y = assemble_Y(v, w, n, z)
    dY = assemble_Y(v, w, n, z, 1)
    Yinv = Y.inv()
    D = log_diag_factor(w, n, z)
    return (dY @ Yinv) + (Y @ D @ Yinv)
