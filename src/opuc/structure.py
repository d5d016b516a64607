"""Closed-form structure matrices and the differential identity residuals.

The structure matrix M_n is defined by Y_n' = M_n Y_n - Y_n D_n, where Y_n is
the solution matrix and D_n the logarithmic derivative of its diagonal
normalizing factor (``opuc.rh``); the transfer matrix T_n of
Y_{n+1} diag(1, z) = T_n Y_n obeys T_n' - T_n/(2z) = M_{n+1} T_n - T_n M_n.

For Pearson data z A_p nu' = q nu (``weights.pearson_data``) put A = z A_p;
then A D_n = diag(delta_n, -delta_n), delta_n = (q - n A_p)/2.  For the
Bessel and Jacobi weights, Mtilde_n = A M_n (``mtilde``) is a polynomial
whose coefficients are closed forms in the recurrence data.  CLOSED_FORMS
maps each such family to them and to its polynomial structure relations
(``structure_relation_residuals``); a new family needs one entry there plus
its ``pearson_data`` branch.  Every other identity follows from
Mtilde_n, and each takes the weight itself:

* ``curvature_residual_closed``: A (T_n' - T_n/(2z)) + T_n Mtilde_n
  - Mtilde_{n+1} T_n = 0;
* ``first_order_residuals``: with C = diag(1, -b_{n-1}) and
  P = C^{-1} Mtilde_n C -+ delta_n I, u = (Phi_n, Phi*_{n-1}) (sign -) and
  u = (G_n, G*_{n-1}) (sign +) solve A u' = P u, row by row
  A u_i' - P_ii u_i - P_ij u_j = 0;
* ``second_order_residuals``: eliminating u_j from the derivative of row i
  gives A u_i'' + (A' - tr P) u_i' + (det P / A - P_ii') u_i - P_ij' u_j = 0,
  with det P / A the polynomial quotient (exact on true data).

Polynomial identities are checked coefficientwise, with no quadrature;
those with second-kind functions pointwise off the circle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cauchy import cauchy_G, cauchy_Gstar, per_table
from .errors import UnsupportedWeightError
from .matrix2 import Matrix2C
from .rh import (
    assemble_Y,
    log_diag_factor,
    structure_matrix_numeric,
    transfer_matrix,
    transfer_matrix_deriv,
)
from .szego import VerblunskyTable, _der, _horner, phi_pair
from .weights import WeightSpec, pearson_data

_REAL_ALPHA_TOL = 1e-10
FD_STEP = 1e-4     # step of the finite-difference M_n', relative to max(1, |z|)

# A polynomial as a tuple of ascending Python-scalar coefficients, as in
# PolyPair.derivatives: tuple arithmetic and Horner's rule beat numpy calls.
Poly = tuple
PolyMatrix = tuple[Poly, Poly, Poly, Poly]


def _real_alphas(v: VerblunskyTable, upto: int) -> list[float]:
    """Bessel closed forms presume real alphas; enforce and strip."""
    for k in range(upto + 1):
        if abs(v.alphas[k].imag) > _REAL_ALPHA_TOL:
            raise ValueError(
                f"closed form requires real recurrence coefficients; "
                f"Im(alpha_{k}) = {v.alphas[k].imag:g}"
            )
    return [v.alphas[k].real for k in range(upto + 1)]


def _max_coeff(p: Poly) -> float:
    # numpy's complex abs, which rounds differently from Python's abs
    return float(np.max(np.abs(p)))


# ---------------------------------------------------------------------------
# small polynomials


def _lin(*terms: tuple[complex, Poly]) -> Poly:
    """The linear combination sum(c p) over the (c, p) terms."""
    out = [0j] * max(len(p) for _, p in terms)
    for c, p in terms:
        for k, x in enumerate(p):
            out[k] += c * x
    return tuple(out)


def _mul(p: Poly, q: Poly) -> Poly:
    out = [0j] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def _quotient(p: Poly, A: Poly) -> Poly:
    """Quotient of p by A = A[1] z + A[2] z^2, by synthetic division."""
    s = p[1:]                       # (p - p(0)) / z, divided by A[1] + A[2] z
    out = [0j] * max(len(s) - 1, 1)
    carry = 0j
    for k in range(len(s) - 1, 0, -1):
        carry = out[k - 1] = (s[k] - A[1] * carry) / A[2]
    return tuple(out)


def _at(m: PolyMatrix, z: complex) -> Matrix2C:
    return Matrix2C(*(_horner(p, z) for p in m))


# ---------------------------------------------------------------------------
# the closed-form families


def _bessel_mtilde(v: VerblunskyTable, w: WeightSpec, n: int) -> PolyMatrix:
    if v.nmax < n + 1:
        raise ValueError("recurrence table too short (needs alpha_n)")
    a = _real_alphas(v, n)
    bm1, bn = v.b[n - 1], v.b[n]
    h = w.factors[0].ell / 2.0
    d = (h / 2.0 * (bm1 / bn - a[n - 1] ** 2), n / 2.0, h / 2.0)
    return (d, (-h / bn * a[n - 1], h / bn * a[n]),
            (-h * bm1 * a[n - 1], h * bm1 * a[n - 2]), tuple(-c for c in d))


def _jacobi_mtilde(v: VerblunskyTable, w: WeightSpec, n: int) -> PolyMatrix:
    b = w.factors[0].b
    bb, a = b.conjugate(), v.alphas[n - 1]
    d = (-(bb + n) * (2.0 * abs(a) ** 2 - 1.0) / 2.0, -(b + n) / 2.0)
    return (d, (-(bb + n) * a.conjugate() / v.b[n],),
            (-v.b[n - 1] * (bb + n) * a,), tuple(-c for c in d))


def _bessel_relations(v: VerblunskyTable, w: WeightSpec, n: int
                      ) -> tuple[float, float]:
    """The three-term derivative relation and its z-weighted variant."""
    a, k2, ell = _real_alphas(v, n), v.kappa2, w.factors[0].ell
    phi, dphi, _ = phi_pair(v, n).derivatives[0]
    (pm1, _, _), (pm1_star, _, _) = phi_pair(v, n - 1).derivatives
    pm2 = phi_pair(v, n - 2).derivatives[0][0]
    rhs = _lin((n, pm1), (ell * k2[n - 2] / (2.0 * k2[n]), pm2))
    r1 = _max_coeff(_lin((1, dphi), (-1, rhs)))
    inner = _lin((1, pm1), (-a[n], pm1_star))
    rhs = _lin((n, phi), ((ell / 2.0) * (k2[n - 1] / k2[n]), inner))
    r2 = _max_coeff(_lin((1, (0j,) + dphi), (-1, rhs)))
    return r1, r2


def _jacobi_relations(v: VerblunskyTable, w: WeightSpec, n: int) -> tuple[float]:
    """(z-1) Phi_n' = -(conj(b)+n)(1-|alpha_{n-1}|^2) Phi_{n-1} + n Phi_n."""
    bb = w.factors[0].b.conjugate()
    a = v.alphas[n - 1]
    phi, dphi, _ = phi_pair(v, n).derivatives[0]
    # numpy's complex array product, which rounds differently from Python's
    pm1 = tuple((-(bb + n) * (1.0 - abs(a) ** 2) * phi_pair(v, n - 1).phi).tolist())
    rhs = _lin((1, pm1), (n, phi))
    return (_max_coeff(_lin((1, _mul((-1.0, 1.0), dphi)), (-1, rhs))),)


# weight kind -> (lowest degree n, coefficients of Mtilde_n, residuals of the
# polynomial structure relations), the last two called as f(v, w, n).  Every
# other closed-form identity is derived from Mtilde_n and weights.pearson_data.
CLOSED_FORMS = {
    "bessel": (2, _bessel_mtilde, _bessel_relations),
    "jacobi": (1, _jacobi_mtilde, _jacobi_relations),
}


def _closed_form(w: WeightSpec, n: int):
    """w's (Mtilde_n coefficients, structure relations)."""
    if w.kind not in CLOSED_FORMS:
        raise UnsupportedWeightError(
            f"closed forms need a {' or '.join(CLOSED_FORMS)} weight")
    nmin, mtilde_coeffs, relations = CLOSED_FORMS[w.kind]
    if n < nmin:
        raise ValueError(f"{w.kind} closed forms need n >= {nmin}")
    return mtilde_coeffs, relations


@per_table("Mtilde")
def _mtilde(v: VerblunskyTable, w: WeightSpec, n: int) -> PolyMatrix:
    """The coefficients of Mtilde_n."""
    return _closed_form(w, n)[0](v, w, n)


@lru_cache(maxsize=64)
def _pearson(w: WeightSpec) -> tuple[Poly, Poly, Poly]:
    """A = z A_p, A_p and q of the Pearson pair z A_p nu' = q nu, computed
    once per weight."""
    Ap, q = (tuple(p.tolist()) for p in pearson_data(w))
    return (0j,) + Ap, Ap, q


@per_table("P")
def _system(v: VerblunskyTable, w: WeightSpec, n: int, sign: float):
    """P = C^{-1} Mtilde_n C + sign delta_n I, rows of polynomials, which
    the first- and second-order rows both read."""
    m11, m12, m21, m22 = _mtilde(v, w, n)
    _, Ap, q = _pearson(w)
    bm1 = v.b[n - 1]
    delta = _lin((sign / 2.0, q), (-sign * n / 2.0, Ap))
    return ((_lin((1, m11), (1, delta)), _lin((-bm1, m12))),
            (_lin((-1.0 / bm1, m21)), _lin((1, m22), (1, delta))))


def _rows(v: VerblunskyTable, w: WeightSpec, n: int, sign: float, order: int):
    """The two scalar rows of A u' = P u (order 1) or of the second-order
    equations (order 2), P = ``_system(v, w, n, sign)``.  A row is a tuple
    of terms (coefficients, component of u, derivative order)."""
    P = _system(v, w, n, sign)
    A = _pearson(w)[0]
    if order == 1:
        return tuple(((A, i, 1), (_lin((-1, P[i][i])), i, 0), (_lin((-1, P[i][j])), j, 0))
                     for i, j in ((0, 1), (1, 0)))
    det_over_A = _quotient(_lin((1, _mul(P[0][0], P[1][1])),
                                (-1, _mul(P[0][1], P[1][0]))), A)
    first = _lin((1, _der(A)), (-1, P[0][0]), (-1, P[1][1]))
    return tuple(((A, i, 2), (first, i, 1), (_lin((1, det_over_A), (-1, _der(P[i][i]))), i, 0),
                  (_lin((-1, _der(P[i][j]))), j, 0))
                 for i, j in ((0, 1), (1, 0)))


def _differential_residuals(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                            order: int) -> tuple[float, float, float, float]:
    """(Phi_n, G_n, Phi*_{n-1}, G*_{n-1}) residuals of the rows of given order."""
    polys = (phi_pair(v, n).derivatives[0], phi_pair(v, n - 1).derivatives[1])
    r_phi, r_star = (max(map(abs, _lin(*((1, _mul(c, polys[k][d])) for c, k, d in row))))
                     for row in _rows(v, w, n, -1.0, order))
    z = complex(z)
    G = cauchy_G(v, w, n, z)
    Gs = cauchy_Gstar(v, w, n, z)
    dG = cauchy_G(v, w, n, z, order=1)
    dGs = cauchy_Gstar(v, w, n, z, order=1)
    d2G = cauchy_G(v, w, n, z, order=2) if order == 2 else 0j
    d2Gs = cauchy_Gstar(v, w, n, z, order=2) if order == 2 else 0j
    values = ((G, dG, d2G), (Gs, dGs, d2Gs))
    r_g, r_gs = (abs(sum(_horner(c, z) * values[k][d] for c, k, d in row))
                 for row in _rows(v, w, n, 1.0, order))
    return r_phi, r_g, r_star, r_gs


# ---------------------------------------------------------------------------
# the closed-form identities


def mtilde(v: VerblunskyTable, w: WeightSpec, n: int, z: complex) -> Matrix2C:
    """Mtilde_n = A M_n at z: z^2 M_n (Bessel), z(1-z) M_n (Jacobi); trace-free.
    For Jacobi, -mtilde(v, w, n, 1) is the residue of M_n at z = 1."""
    return _at(_mtilde(v, w, n), complex(z))


def pole_clearing_factor(w: WeightSpec, z: complex) -> complex:
    """A(z) = z A_p(z), the factor that makes A M_n polynomial."""
    return _horner(_pearson(w)[0], complex(z))


def curvature_residual_closed(v: VerblunskyTable, w: WeightSpec, n: int,
                              z: complex) -> float:
    """Purely algebraic zero-curvature residual with the closed form:
    || A (T_n' - T_n/(2z)) + T_n Mtilde_n - Mtilde_{n+1} T_n ||."""
    z = complex(z)
    mt_n, mt_n1 = _at(_mtilde(v, w, n), z), _at(_mtilde(v, w, n + 1), z)
    T = transfer_matrix(v, n, z)
    apz = _horner(_pearson(w)[1], z)
    resid = (transfer_matrix_deriv().scale(z * apz) + (T @ mt_n)
             - T.scale(apz / 2.0) - (mt_n1 @ T))
    return resid.frobenius()


def first_order_residuals(v: VerblunskyTable, w: WeightSpec, n: int, z: complex
                          ) -> tuple[float, float, float, float]:
    """Residuals (Phi_n, G_n, Phi*_{n-1}, G*_{n-1}) of the four scalar
    first-order relations; G rows at z, off circle and singularities."""
    return _differential_residuals(v, w, n, z, 1)


def second_order_residuals(v: VerblunskyTable, w: WeightSpec, n: int, z: complex
                           ) -> tuple[float, float, float, float]:
    """Residuals (Phi_n, G_n, Phi*_{n-1}, G*_{n-1}) of the four scalar
    second-order equations (hypergeometric-type for the Jacobi family)."""
    return _differential_residuals(v, w, n, z, 2)


def structure_relation_residuals(v: VerblunskyTable, w: WeightSpec, n: int
                                 ) -> tuple[float, ...]:
    """Coefficientwise residuals of the family's structure relations: the
    three-term derivative relation, then (Bessel only) its z-weighted variant."""
    return _closed_form(w, n)[1](v, w, n)


# ---------------------------------------------------------------------------
# zero-curvature residuals with numeric M


def curvature_residual_generic(v: VerblunskyTable, w: WeightSpec, n: int,
                               z: complex) -> float:
    """|| T_n' - T_n/(2z) - (M_{n+1} T_n - T_n M_n) || with numeric M."""
    z = complex(z)
    T = transfer_matrix(v, n, z)
    dT = transfer_matrix_deriv()
    Mn = structure_matrix_numeric(v, w, n, z)
    Mn1 = structure_matrix_numeric(v, w, n + 1, z)
    resid = dT - T.scale(1.0 / (2.0 * z)) - ((Mn1 @ T) - (T @ Mn))
    return resid.frobenius()


def second_curvature_residual(v: VerblunskyTable, w: WeightSpec, n: int,
                              z: complex) -> float:
    """Residual of the quadratic compatibility relation (numeric M)."""
    z = complex(z)
    T = transfer_matrix(v, n, z)
    A = transfer_matrix_deriv() - T.scale(1.0 / (2.0 * z))
    Mn = structure_matrix_numeric(v, w, n, z)
    Mn1 = structure_matrix_numeric(v, w, n + 1, z)
    lhs = (Mn1 @ A) + (A @ Mn)
    rhs = (Mn1 @ Mn1 @ T) - (T @ Mn @ Mn)
    return (lhs - rhs).frobenius()


# ---------------------------------------------------------------------------
# generic second-order operator and its first-order trace-back


@per_table("dM")
def structure_matrix_deriv_fd(v: VerblunskyTable, w: WeightSpec, n: int,
                              z: complex) -> Matrix2C:
    """dM_n/dz by central differences with one Richardson step; the
    second-order and trace-back checks ask for the same M_n' again."""
    z = complex(z)
    h = FD_STEP * max(1.0, abs(z))

    def central(step: float) -> Matrix2C:
        plus = structure_matrix_numeric(v, w, n, z + step)
        minus = structure_matrix_numeric(v, w, n, z - step)
        return (plus - minus).scale(1.0 / (2.0 * step))

    d1 = central(h)
    d2 = central(h / 2.0)
    return d2.scale(4.0 / 3.0) - d1.scale(1.0 / 3.0)


def generic_second_order_residual(v: VerblunskyTable, w: WeightSpec, n: int,
                                  z: complex) -> float:
    """|| Y'' + 2 Y' D + Y (D' + D^2) - (M' + M^2) Y || with numeric M, FD M'."""
    z = complex(z)
    Y = assemble_Y(v, w, n, z)
    dY = assemble_Y(v, w, n, z, 1)
    d2Y = assemble_Y(v, w, n, z, 2)
    D = log_diag_factor(w, n, z)
    dD = log_diag_factor(w, n, z, order=1)
    M = structure_matrix_numeric(v, w, n, z)
    dM = structure_matrix_deriv_fd(v, w, n, z)
    lhs = d2Y + (dY @ D).scale(2.0) + (Y @ (dD + (D @ D)))
    rhs = (dM + (M @ M)) @ Y
    return (lhs - rhs).frobenius()


def traceback_residual(v: VerblunskyTable, w: WeightSpec, n: int, z: complex) -> float:
    """Residual of the first-order relation recovered from the second-order one.

    Checks M_n against -T_n(-z)^{-1} { z [(M_{n+1}' + M_{n+1}^2) T_n
    - T_n (M_n' + M_n^2)] + T_n' - 3/(4z) T_n }.
    """
    z = complex(z)
    T = transfer_matrix(v, n, z)
    Tm = transfer_matrix(v, n, -z)
    dT = transfer_matrix_deriv()
    Mn = structure_matrix_numeric(v, w, n, z)
    Mn1 = structure_matrix_numeric(v, w, n + 1, z)
    dMn = structure_matrix_deriv_fd(v, w, n, z)
    dMn1 = structure_matrix_deriv_fd(v, w, n + 1, z)
    An = dMn + (Mn @ Mn)
    An1 = dMn1 + (Mn1 @ Mn1)
    inner = ((An1 @ T) - (T @ An)).scale(z) + dT - T.scale(3.0 / (4.0 * z))
    rhs = -(Tm.inv() @ inner)
    return (Mn - rhs).frobenius()
