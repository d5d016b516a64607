"""Weight functions on the unit circle and their logarithmic derivatives.

Supported families: the Lebesgue weight, the exponential-of-cosine family
(modified Bessel), the circle Jacobi family with complex exponent, and
moment-only custom weights.  A custom weight's moment table must be able to
come from a positive measure: c_0 > 0 and c_{-j} = conj(c_j) up to rounding.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import PoleError, UnsupportedWeightError

if TYPE_CHECKING:  # pragma: no cover
    from .moments import MomentTable

LEBESGUE = "lebesgue"
BESSEL = "bessel"
JACOBI = "jacobi"
CUSTOM = "custom"

# Jacobi singular set is {0, 1}; Bessel only {0}.
_SINGULAR_RADIUS = 1e-13
# log of the distance to theta = 0 below which circle_rule scales the weight
# as dist^{2 lambda}: there 2 sin(dist/2) = dist in floating point
_LOG_DIST_FLOOR = math.log(1e-100)
# log of the bound on the Jacobi weight's largest value, 2^32 below the largest
# float: the graded rule's Jacobian (< 1e3 for lambda >= -0.499) times 2^21 nodes
_LOG_JACOBI_MAX = math.log(sys.float_info.max) - 32.0 * math.log(2.0)
# largest Hermitian defect max_j |c_{-j} - conj(c_j)| of a custom moment
# table, relative to c_0; the quadrature tables are Hermitian exactly
HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True)
class WeightSpec:
    """A weight on the unit circle.

    kind is one of "lebesgue", "bessel", "jacobi", "custom".  Bessel carries
    a finite ell >= 0, Jacobi a finite b = lambda + i*eta with lambda > -1/2
    whose largest weight value 2^{2 lambda} e^{pi |eta|} is a float with
    room to spare (below 2^-32 of the largest).
    Custom weights are defined by their moment table only and support no
    pointwise evaluation; their table must be that of a positive measure.
    """

    kind: str
    ell: float = 0.0
    b: complex = 0.0
    moments: "MomentTable | None" = field(default=None, compare=True)

    def __post_init__(self):
        if self.kind not in (LEBESGUE, BESSEL, JACOBI, CUSTOM):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "ell", float(self.ell))
        if not (math.isfinite(self.ell) and cmath.isfinite(self.b)):
            raise ValueError(f"{self.kind} weight parameters must be finite")
        if self.kind == BESSEL and self.ell < 0:
            raise ValueError("bessel parameter must be >= 0")
        if self.kind == JACOBI and self.b.real <= -0.5:
            raise ValueError("jacobi parameter requires Re(b) > -1/2")
        if self.kind == JACOBI and not (2.0 * self.lam * math.log(2.0)
                                        + math.pi * abs(self.eta) <= _LOG_JACOBI_MAX):
            raise ValueError("jacobi parameters must keep the largest weight value "
                             "2^(2 lambda) e^(pi |eta|) finite, below 2^-32 of "
                             "the largest float")
        if self.kind == CUSTOM:
            _check_positive_table(self.moments)
        # the generated hash would build and hash a tuple of the fields on
        # every call, and each table lookup of the second-kind state hashes
        # its weight; the same value, computed once
        object.__setattr__(self, "_hash", hash((self.kind, self.ell, self.b, self.moments)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt by the constructor, so that a copy made in another process,
        # whose string hashes differ, hashes as the weights made there do
        return type(self), (self.kind, self.ell, self.b, self.moments)

    # -- constructors ------------------------------------------------------

    @classmethod
    def lebesgue(cls) -> "WeightSpec":
        return cls(LEBESGUE)

    @classmethod
    def bessel(cls, ell: float) -> "WeightSpec":
        return cls(BESSEL, ell=ell)

    @classmethod
    def jacobi(cls, b: complex) -> "WeightSpec":
        return cls(JACOBI, b=complex(b))

    @classmethod
    def custom(cls, moments: "MomentTable") -> "WeightSpec":
        return cls(CUSTOM, moments=moments)

    # -- helpers -----------------------------------------------------------

    @property
    def lam(self) -> float:
        return self.b.real

    @property
    def eta(self) -> float:
        return self.b.imag

    def mirror_symmetric(self) -> bool:
        """Whether nu(e^{-i theta}) = nu(e^{i theta}) may hold: not for a
        Jacobi weight with eta != 0, by its factor e^{-eta (theta - pi)}."""
        return self.kind != JACOBI or self.eta == 0.0

    def singular_points(self) -> tuple[complex, ...]:
        if self.kind == BESSEL:
            return (0.0 + 0.0j,)
        if self.kind == JACOBI:
            return (0.0 + 0.0j, 1.0 + 0.0j)
        return ()

    def label(self) -> str:
        if self.kind == BESSEL:
            return f"bessel(ell={self.ell:g})"
        if self.kind == JACOBI:
            return f"jacobi(lambda={self.lam:g}, eta={self.eta:g})"
        return self.kind


def _check_positive_table(c: "MomentTable | None") -> None:
    """Raise ValueError unless c can be the moment table of a positive
    measure: finite values, c_0 > 0 and a Hermitian defect within
    HERMITIAN_RTOL c_0."""
    if c is None:
        raise ValueError("a custom weight needs a moment table")
    if not all(map(cmath.isfinite, c.values)):    # NaN escapes the defect's max
        raise ValueError("custom moment table has a value that is not finite")
    c0 = c.get(0)
    if not c0.real > 0:
        raise ValueError(f"custom moment table has c_0 = {c0}, not positive")
    defect = c.hermitian_defect()
    if not defect <= HERMITIAN_RTOL * c0.real:
        raise ValueError(
            f"custom moment table is not Hermitian: max_j |c_{{-j}} - conj(c_j)| "
            f"= {defect:g} exceeds {HERMITIAN_RTOL:g} c_0")


def weight_values(w: WeightSpec, theta, dist=None) -> np.ndarray:
    """Vectorized w(theta) = nu(e^{i theta}) for theta in (0, 2pi).

    dist, if given, is the distance of each theta to the point theta = 0,
    from which the Jacobi factor |2 sin(theta/2)| is evaluated; near
    theta = 2pi it keeps the relative accuracy that 2pi - theta loses.
    """
    theta = np.asarray(theta, dtype=float)
    if w.kind == CUSTOM:
        raise UnsupportedWeightError("custom weights are moment-only")
    if w.kind == LEBESGUE:
        return np.ones_like(theta, dtype=complex)
    if w.kind == BESSEL:
        return np.exp(w.ell * np.cos(theta)).astype(complex)
    # real positive form of (-z)^{-conj(b)} (1-z)^{b+conj(b)} on the circle,
    # continuous on (0, 2pi)
    s = 2.0 * np.sin((theta if dist is None else dist) / 2.0)
    lam, eta = w.lam, w.eta
    with np.errstate(divide="raise", invalid="raise"):
        try:
            radial = np.power(np.abs(s), 2.0 * lam)
        except FloatingPointError as exc:
            raise PoleError("jacobi weight is singular at theta = 0") from exc
    return (radial * np.exp(-eta * (theta - math.pi))).astype(complex)


def circle_rule(w: WeightSpec, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N-point quadrature rule on the circle: angles theta_k, weight
    values nu(e^{i theta_k}) J_k and Jacobians J_k, such that
    (1/N) sum_k f(theta_k) J_k approximates (1/2pi) int_0^{2pi} f dtheta.

    A weight with a singular point at z = 1, where it behaves like
    |theta|^{2 lambda}, gets Kress's graded map theta = phi(s) of the
    midpoint nodes s_k (Numer. Math. 58, 1990): phi(s) = 2pi v^p / (v^p +
    (1 - v)^p) with v a cubic in s.  Its nodes cluster at theta = 0, where
    the integrand nu J behaves like s^{p(1 + 2 lambda) - 1}; the order p
    grows as lambda nears -1/2.  Every other weight gets the midpoint nodes
    themselves, with J = 1.
    """
    if 1.0 not in w.singular_points():
        s = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
        return s, weight_values(w, s), np.ones(N)
    p = max(10, math.ceil(8.0 / (1.0 + 2.0 * w.lam)))
    c = 0.5 - 1.0 / p
    t = (np.arange(N) + 0.5) * (2.0 / N)          # s / pi
    x = t - 1.0
    # v = c x^3 + x/p + 1/2 has v(0) = 0; factored, it keeps its relative
    # accuracy next to s = 0, and 1 - v(s) = v(2pi - s) is v reversed
    v = t * (c * x * (x - 1.0) + 0.5)
    u = v[::-1]
    dv = (3.0 * c * x ** 2 + 1.0 / p) / math.pi
    # phi and phi' from m = max(v, u) and the log of rho = min(v, u) / m,
    # which neither underflow nor overflow at any p
    m = np.maximum(v, u)
    log_rho = np.log(np.minimum(v, u) / m)
    r = np.exp(p * log_rho)
    log_dist = math.log(2.0 * math.pi) + p * log_rho - np.log1p(r)  # theta's distance to 0
    dist = np.exp(log_dist)
    theta = np.where(v < u, dist, 2.0 * math.pi - dist)
    log_jac = np.log(2.0 * math.pi * p * dv) + (p - 1) * log_rho - 2.0 * np.log(m * (1.0 + r))
    # the weight is dist^{2 lambda} times a smooth factor next to theta = 0;
    # below _LOG_DIST_FLOOR it is scaled from there in logs, so nu J keeps its
    # value where dist and J underflow
    floor = np.maximum(log_dist, _LOG_DIST_FLOOR)
    nu = weight_values(w, theta, np.exp(floor)) * np.exp(
        2.0 * w.lam * (log_dist - floor) + log_jac)
    return theta, nu, np.exp(log_jac)


def eval_weight(w: WeightSpec, theta: float) -> complex:
    """Scalar weight value at angle theta in [0, 2pi)."""
    return complex(weight_values(w, np.array([theta]))[0])


def eval_nu(w: WeightSpec, z: complex) -> complex:
    """Analytic continuation of nu off the circle (principal branches).

    For the Jacobi family the branch cuts sit on [0, +inf); values on the
    circle minus {1} agree with eval_weight.
    """
    z = complex(z)
    if w.kind == CUSTOM:
        raise UnsupportedWeightError("custom weights are moment-only")
    if w.kind == LEBESGUE:
        return 1.0 + 0.0j
    if w.kind == BESSEL:
        if abs(z) < _SINGULAR_RADIUS:
            raise PoleError("bessel weight has an essential singularity at z = 0")
        return cmath.exp(w.ell * (z + 1.0 / z) / 2.0)
    if abs(z) < _SINGULAR_RADIUS:
        raise PoleError("jacobi weight is singular at z = 0")
    if abs(z - 1.0) < _SINGULAR_RADIUS:
        raise PoleError("jacobi weight is singular at z = 1")
    bb = w.b + w.b.conjugate()
    return cmath.exp(-w.b.conjugate() * cmath.log(-z) + bb * cmath.log(1.0 - z))


def log_derivative(w: WeightSpec, z: complex, order: int = 0) -> complex:
    """nu'(z)/nu(z) (order 0) or its z-derivative (order 1); single-valued
    and analytic off the singular set."""
    if order not in (0, 1):
        raise ValueError(f"log-derivative order {order} outside 0..1")
    z = complex(z)
    if w.kind == CUSTOM:
        raise UnsupportedWeightError("custom weights are moment-only")
    for s in w.singular_points():
        if abs(z - s) < _SINGULAR_RADIUS:
            raise PoleError(f"log-derivative pole at z = {s.real:g}")
    if w.kind == LEBESGUE:
        return 0j
    if w.kind == BESSEL:
        return (w.ell / 2.0) * (1.0 - z ** -2) if order == 0 else w.ell * z ** -3
    bb = w.b + w.b.conjugate()
    if order == 0:
        return -w.b.conjugate() / z - bb / (1.0 - z)
    return w.b.conjugate() / z ** 2 - bb / (1.0 - z) ** 2


def pearson_data(w: WeightSpec):
    """Polynomial pair (A, q) with z*A(z)*nu'(z) = q(z)*nu(z) off the zeros of zA.

    Coefficients in ascending order.
    """
    if w.kind == CUSTOM:
        raise UnsupportedWeightError("custom weights are moment-only")
    if w.kind == LEBESGUE:
        return np.array([1.0 + 0j]), np.array([0.0 + 0j])
    if w.kind == BESSEL:
        A = np.array([0.0, 1.0], dtype=complex)                      # z
        q = np.array([-w.ell / 2.0, 0.0, w.ell / 2.0], dtype=complex)  # (ell/2)(z^2-1)
        return A, q
    A = np.array([1.0, -1.0], dtype=complex)                          # 1 - z
    q = np.array([-w.b.conjugate(), -w.b], dtype=complex)             # -(conj(b) + b z)
    return A, q
