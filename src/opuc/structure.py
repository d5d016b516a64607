"""Closed-form structure matrices and the differential identity residuals.

The structure matrix M_n is defined by Y_n' = M_n Y_n - Y_n D_n, where Y_n is
the solution matrix and D_n the logarithmic derivative of its diagonal
normalizing factor (``opuc.rh``); the transfer matrix T_n of
Y_{n+1} diag(1, z) = T_n Y_n obeys T_n' - T_n/(2z) = M_{n+1} T_n - T_n M_n.

For Pearson data z A_p nu' = q nu (``weights.pearson_data``) put A = z A_p;
then A D_n = diag(delta_n, -delta_n), delta_n = (q - n A_p)/2.  For the
Bessel and Jacobi weights with H == 1, Mtilde_n = A M_n (``mtilde``) is a
polynomial whose coefficients are closed forms in the recurrence data.
CLOSED_FORMS maps each such family to them and to its polynomial structure
relations (``structure_relation_residuals``); a new family needs one entry
there plus its ``pearson_data`` branch.  Every other identity follows from
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

import numpy as np

from .cauchy import (
    DEFAULT_RTOL,
    cauchy_G,
    cauchy_Gstar,
    cauchy_derivatives,
    cauchy_second_derivatives,
)
from .errors import UnsupportedWeightError
from .matrix2 import Matrix2C
from .rh import (
    assemble_Y,
    assemble_Y_deriv,
    assemble_Y_second_deriv,
    log_diag_factor,
    log_diag_factor_deriv,
    structure_matrix_numeric,
    transfer_matrix,
    transfer_matrix_deriv,
)
from .szego import VerblunskyTable, phi_pair
from .weights import WeightSpec, pearson_data

_P = np.polynomial.polynomial

_REAL_ALPHA_TOL = 1e-10
FD_STEP = 1e-4     # step of the finite-difference M_n', relative to max(1, |z|)

# A polynomial as a tuple of ascending Python-scalar coefficients: for the
# short polynomials here, tuple arithmetic and Horner's rule beat numpy calls.
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


def _max_coeff(p: np.ndarray) -> float:
    return float(np.max(np.abs(p))) if len(p) else 0.0


# ---------------------------------------------------------------------------
# small polynomials


def _horner(p: Poly, z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


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


def _der(p: Poly) -> Poly:
    return tuple(k * p[k] for k in range(1, len(p))) or (0j,)


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
    bm1, bn = float(v.b[n - 1]), float(v.b[n])
    h = w.ell / 2.0
    d = (h / 2.0 * (bm1 / bn - a[n - 1] ** 2), n / 2.0, h / 2.0)
    return (d, (-h / bn * a[n - 1], h / bn * a[n]),
            (-h * bm1 * a[n - 1], h * bm1 * a[n - 2]), tuple(-c for c in d))


def _jacobi_mtilde(v: VerblunskyTable, w: WeightSpec, n: int) -> PolyMatrix:
    bb = w.b.conjugate()
    a = v.alphas[n - 1]
    d = (-(bb + n) * (2.0 * abs(a) ** 2 - 1.0) / 2.0, -(w.b + n) / 2.0)
    return (d, (-(bb + n) * a.conjugate() / float(v.b[n]),),
            (-float(v.b[n - 1]) * (bb + n) * a,), tuple(-c for c in d))


def _bessel_relations(v: VerblunskyTable, w: WeightSpec, n: int
                      ) -> tuple[float, float]:
    """The three-term derivative relation and its z-weighted variant."""
    a = _real_alphas(v, n)
    k2 = v.kappa2
    pn = phi_pair(v, n)
    pm1 = phi_pair(v, n - 1)
    pm2 = phi_pair(v, n - 2)

    r1 = _max_coeff(
        _P.polysub(_P.polyder(pn.phi),
                   _P.polyadd(n * pm1.phi,
                              (w.ell * k2[n - 2] / (2.0 * k2[n])) * pm2.phi))
    )
    inner = _P.polysub(pm1.phi, a[n] * pm1.phistar)
    r2 = _max_coeff(
        _P.polysub(_P.polymulx(_P.polyder(pn.phi)),
                   _P.polyadd(n * pn.phi,
                              (w.ell / 2.0) * (k2[n - 1] / k2[n]) * inner))
    )
    return r1, r2


def _jacobi_relations(v: VerblunskyTable, w: WeightSpec, n: int) -> tuple[float]:
    """(z-1) Phi_n' = -(conj(b)+n)(1-|alpha_{n-1}|^2) Phi_{n-1} + n Phi_n."""
    bb = w.b.conjugate()
    a = v.alphas[n - 1]
    pn = phi_pair(v, n)
    pm1 = phi_pair(v, n - 1)
    zm1 = np.array([-1.0, 1.0], dtype=complex)
    lhs = _P.polymul(zm1, _P.polyder(pn.phi))
    rhs = _P.polyadd(-(bb + n) * (1.0 - abs(a) ** 2) * pm1.phi, n * pn.phi)
    return (_max_coeff(_P.polysub(lhs, rhs)),)


# weight kind -> (lowest degree n, coefficients of Mtilde_n, residuals of the
# polynomial structure relations), the last two called as f(v, w, n).  Every
# other closed-form identity is derived from Mtilde_n and weights.pearson_data.
CLOSED_FORMS = {
    "bessel": (2, _bessel_mtilde, _bessel_relations),
    "jacobi": (1, _jacobi_mtilde, _jacobi_relations),
}


def _closed_form(w: WeightSpec, n: int):
    """w's (Mtilde_n coefficients, structure relations); H == 1 is assumed."""
    if w.kind not in CLOSED_FORMS or not w.has_trivial_h:
        raise UnsupportedWeightError(
            f"closed forms need a {' or '.join(CLOSED_FORMS)} weight with H == 1")
    nmin, mtilde_coeffs, relations = CLOSED_FORMS[w.kind]
    if n < nmin:
        raise ValueError(f"{w.kind} closed forms need n >= {nmin}")
    return mtilde_coeffs, relations


def _mtilde(v: VerblunskyTable, w: WeightSpec, n: int) -> PolyMatrix:
    return _closed_form(w, n)[0](v, w, n)


def _pearson(w: WeightSpec) -> tuple[Poly, Poly, Poly]:
    """A = z A_p, A_p and q of the Pearson pair z A_p nu' = q nu."""
    Ap, q = (tuple(p.tolist()) for p in pearson_data(w))
    return (0j,) + Ap, Ap, q


def _rows(v: VerblunskyTable, w: WeightSpec, n: int, sign: float, order: int):
    """The two scalar rows of A u' = P u (order 1) or of the second-order
    equations (order 2), P = C^{-1} Mtilde_n C + sign delta_n I.  A row is a
    tuple of terms (coefficients, component of u, derivative order)."""
    m11, m12, m21, m22 = _mtilde(v, w, n)
    A, Ap, q = _pearson(w)
    bm1 = float(v.b[n - 1])
    delta = _lin((sign / 2.0, q), (-sign * n / 2.0, Ap))
    P = ((_lin((1, m11), (1, delta)), _lin((-bm1, m12))),
         (_lin((-1.0 / bm1, m21)), _lin((1, m22), (1, delta))))
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
                            rtol: float, order: int) -> tuple[float, float, float, float]:
    """(Phi_n, G_n, Phi*_{n-1}, G*_{n-1}) residuals of the rows of given order."""
    polys = []
    for coeffs in (phi_pair(v, n).phi, phi_pair(v, n - 1).phistar):
        u = tuple(coeffs.tolist())
        polys.append((u, _der(u), _der(_der(u))))
    r_phi, r_star = (max(map(abs, _lin(*((1, _mul(c, polys[k][d])) for c, k, d in row))))
                     for row in _rows(v, w, n, -1.0, order))
    z = complex(z)
    G = cauchy_G(v, w, n, z, rtol)
    Gs = cauchy_Gstar(v, w, n, z, rtol)
    dG, dGs = cauchy_derivatives(v, w, n, z, rtol)
    d2G, d2Gs = cauchy_second_derivatives(v, w, n, z, rtol) if order == 2 else (0j, 0j)
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
    """A(z) = z A_p(z), the factor that makes A M_n polynomial (H == 1)."""
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


def first_order_residuals(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                          rtol: float = DEFAULT_RTOL) -> tuple[float, float, float, float]:
    """Residuals (Phi_n, G_n, Phi*_{n-1}, G*_{n-1}) of the four scalar
    first-order relations; G rows at z, off circle and singularities."""
    return _differential_residuals(v, w, n, z, rtol, 1)


def second_order_residuals(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                           rtol: float = DEFAULT_RTOL) -> tuple[float, float, float, float]:
    """Residuals (Phi_n, G_n, Phi*_{n-1}, G*_{n-1}) of the four scalar
    second-order equations (hypergeometric-type for the Jacobi family)."""
    return _differential_residuals(v, w, n, z, rtol, 2)


def structure_relation_residuals(v: VerblunskyTable, w: WeightSpec, n: int
                                 ) -> tuple[float, ...]:
    """Coefficientwise residuals of the family's structure relations: the
    three-term derivative relation, then (Bessel only) its z-weighted variant."""
    return _closed_form(w, n)[1](v, w, n)


# ---------------------------------------------------------------------------
# Bessel-only diagnostics


def mtilde_bessel_pre_liouville(v: VerblunskyTable, w: WeightSpec, n: int,
                                z: complex) -> Matrix2C:
    """An intermediate display of z^2 M_n, kept as a diagnostic.

    It comes from the large-z expansion and writes the constant terms through
    the subleading polynomial coefficients instead of the value at the
    origin.  Its z^2 and z^1 parts equal those of mtilde; its constant part
    does not, and the gap shrinks with n (see compare_bessel_mtilde_forms).
    """
    if w.kind != "bessel":
        raise UnsupportedWeightError("the pre-Liouville display is Bessel-only")
    _closed_form(w, n)                      # H == 1 and n >= 2
    if v.nmax < n + 1:
        raise ValueError("recurrence table too short (needs alpha_n)")
    ell = w.ell
    a = _real_alphas(v, n)
    b = v.b
    z = complex(z)
    phi1n = complex(v.phi1[n])
    # coefficient of z^1 in Phi_{n-1} (subleading-but-one), conjugated
    pm1 = phi_pair(v, n - 1).phi
    low1 = complex(pm1[1]).conjugate() if len(pm1) > 1 else 0.0 + 0.0j
    d = (ell / 4.0 * z ** 2 + n / 2.0 * z
         - 0.25 * (b[n - 1] / b[n] * a[n] * a[n - 2] + ell + 4.0 * phi1n))
    m12 = ((ell / 2.0) * a[n] * z / b[n]
           + a[n] * (n + 1 + (ell / 2.0) * (phi1n - 1.0)) / b[n]
           + (ell / 2.0) * a[n - 1] / b[n + 1])
    m21 = b[n - 1] * ((ell / 2.0) * a[n - 2] * z
                      + b[n - 1] * (n - 1 - (ell / 2.0) * phi1n) * a[n - 2]
                      + low1)
    d22 = (-ell / 4.0 * z ** 2 - n / 2.0 * z
           - 0.25 * (b[n - 1] / b[n] * a[n] * a[n - 2] - ell - 4.0 * phi1n))
    return Matrix2C(d, m12, m21, d22)


def compare_bessel_mtilde_forms(v: VerblunskyTable, w: WeightSpec, n: int,
                                z: complex) -> float:
    """Entrywise max deviation between the two displayed Bessel forms.

    Not a zero-residual identity: the displays differ in their constant
    terms, so the deviation is of order 1e-3 at small n and decays with n.
    """
    return max(
        abs(x - y)
        for x, y in zip(
            mtilde(v, w, n, z).entries(),
            mtilde_bessel_pre_liouville(v, w, n, z).entries(),
        )
    )


# ---------------------------------------------------------------------------
# zero-curvature residuals with numeric M


def curvature_residual_generic(v: VerblunskyTable, w: WeightSpec, n: int,
                               z: complex, rtol: float = DEFAULT_RTOL) -> float:
    """|| T_n' - T_n/(2z) - (M_{n+1} T_n - T_n M_n) || with numeric M."""
    z = complex(z)
    T = transfer_matrix(v, n, z)
    dT = transfer_matrix_deriv()
    Mn = structure_matrix_numeric(v, w, n, z, rtol)
    Mn1 = structure_matrix_numeric(v, w, n + 1, z, rtol)
    resid = dT - T.scale(1.0 / (2.0 * z)) - ((Mn1 @ T) - (T @ Mn))
    return resid.frobenius()


def second_curvature_residual(v: VerblunskyTable, w: WeightSpec, n: int,
                              z: complex, rtol: float = DEFAULT_RTOL) -> float:
    """Residual of the quadratic compatibility relation (numeric M)."""
    z = complex(z)
    T = transfer_matrix(v, n, z)
    A = transfer_matrix_deriv() - T.scale(1.0 / (2.0 * z))
    Mn = structure_matrix_numeric(v, w, n, z, rtol)
    Mn1 = structure_matrix_numeric(v, w, n + 1, z, rtol)
    lhs = (Mn1 @ A) + (A @ Mn)
    rhs = (Mn1 @ Mn1 @ T) - (T @ Mn @ Mn)
    return (lhs - rhs).frobenius()


# ---------------------------------------------------------------------------
# generic second-order operator and its first-order trace-back


def structure_matrix_deriv_fd(v: VerblunskyTable, w: WeightSpec, n: int,
                              z: complex, rtol: float = DEFAULT_RTOL) -> Matrix2C:
    """dM_n/dz by central differences with one Richardson step."""
    z = complex(z)
    h = FD_STEP * max(1.0, abs(z))

    def central(step: float) -> Matrix2C:
        plus = structure_matrix_numeric(v, w, n, z + step, rtol)
        minus = structure_matrix_numeric(v, w, n, z - step, rtol)
        return (plus - minus).scale(1.0 / (2.0 * step))

    d1 = central(h)
    d2 = central(h / 2.0)
    return d2.scale(4.0 / 3.0) - d1.scale(1.0 / 3.0)


def generic_second_order_residual(v: VerblunskyTable, w: WeightSpec, n: int,
                                  z: complex, rtol: float = DEFAULT_RTOL) -> float:
    """|| Y'' + 2 Y' D + Y (D' + D^2) - (M' + M^2) Y || with numeric M, FD M'."""
    z = complex(z)
    Y = assemble_Y(v, w, n, z, rtol)
    dY = assemble_Y_deriv(v, w, n, z, rtol)
    d2Y = assemble_Y_second_deriv(v, w, n, z, rtol)
    D = log_diag_factor(w, n, z)
    dD = log_diag_factor_deriv(w, n, z)
    M = structure_matrix_numeric(v, w, n, z, rtol)
    dM = structure_matrix_deriv_fd(v, w, n, z, rtol)
    lhs = d2Y + (dY @ D).scale(2.0) + (Y @ (dD + (D @ D)))
    rhs = (dM + (M @ M)) @ Y
    return (lhs - rhs).frobenius()


def traceback_residual(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                       rtol: float = DEFAULT_RTOL) -> float:
    """Residual of the first-order relation recovered from the second-order one.

    Checks M_n against -T_n(-z)^{-1} { z [(M_{n+1}' + M_{n+1}^2) T_n
    - T_n (M_n' + M_n^2)] + T_n' - 3/(4z) T_n }.
    """
    z = complex(z)
    T = transfer_matrix(v, n, z)
    Tm = transfer_matrix(v, n, -z)
    dT = transfer_matrix_deriv()
    Mn = structure_matrix_numeric(v, w, n, z, rtol)
    Mn1 = structure_matrix_numeric(v, w, n + 1, z, rtol)
    dMn = structure_matrix_deriv_fd(v, w, n, z, rtol)
    dMn1 = structure_matrix_deriv_fd(v, w, n + 1, z, rtol)
    An = dMn + (Mn @ Mn)
    An1 = dMn1 + (Mn1 @ Mn1)
    inner = ((An1 @ T) - (T @ An)).scale(z) + dT - T.scale(3.0 / (4.0 * z))
    rhs = -(Tm.inv() @ inner)
    return (Mn - rhs).frobenius()
