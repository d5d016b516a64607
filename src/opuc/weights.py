"""Weight functions on the unit circle and their logarithmic derivatives.

A weight is a product of factors, each with its kind and label, its
values(theta, dist) on the circle, nu(z) off it, log_derivative(z, order),
pearson() pair, singular_points and mirror_symmetric; each quantity of the
weight is composed from its factors', and Lebesgue is the empty product.  A
custom weight has no pointwise factors, only a moment table.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .errors import PoleError, UnsupportedWeightError

if TYPE_CHECKING:  # pragma: no cover
    from .moments import MomentTable

# distance to a factor's singular point below which nu and nu'/nu are refused
_SINGULAR_RADIUS = 1e-13
# log of the distance to theta = 0 below which circle_rule scales the weight
# as dist^{2 lambda}: there 2 sin(dist/2) = dist in floating point
_LOG_DIST_FLOOR = math.log(1e-100)
# log of the bound on the Jacobi weight's largest value, 2^32 below the largest
# float: the graded rule's Jacobian (< 1e3 for lambda >= -0.499) times 2^21 nodes
_LOG_JACOBI_MAX = math.log(np.finfo(float).max) - 32.0 * math.log(2.0)
# largest Hermitian defect max_j |c_{-j} - conj(c_j)| of a custom table, over c_0
HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True)
class BesselFactor:
    """e^{ell cos theta} = exp(ell (z + 1/z) / 2), ell >= 0."""

    ell: float
    kind = "bessel"
    label = property(lambda self: f"bessel(ell={self.ell:g})")
    singular_points = (0j,)
    mirror_symmetric = True

    def __post_init__(self):
        object.__setattr__(self, "ell", float(self.ell) + 0.0)   # -0.0 is 0.0, also in the label
        if not math.isfinite(self.ell):
            raise ValueError("bessel weight parameters must be finite")
        if not self.ell >= 0:
            raise ValueError("bessel parameter must be >= 0")

    def values(self, theta, dist):
        return np.exp(self.ell * np.cos(theta))

    def nu(self, z: complex) -> complex:
        if abs(z) < _SINGULAR_RADIUS:
            raise PoleError("bessel weight has an essential singularity at z = 0")
        return cmath.exp(self.ell * (z + 1.0 / z) / 2.0)

    def log_derivative(self, z: complex, order: int) -> complex:
        return (self.ell / 2.0) * (1.0 - z ** -2) if order == 0 else self.ell * z ** -3

    def pearson(self):
        return (np.array([0.0, 1.0], dtype=complex),                            # z
                np.array([-self.ell / 2.0, 0.0, self.ell / 2.0], dtype=complex))  # (ell/2)(z^2-1)


@dataclass(frozen=True)
class JacobiFactor:
    """(2 sin(theta/2))^{2 lambda} e^{-eta (theta - pi)}, b = lambda + i eta, lambda > -1/2:
    the circle form of (-z)^{-conj(b)} (1-z)^{b+conj(b)}; eta != 0 breaks mirror symmetry."""

    b: complex
    kind = "jacobi"
    label = property(lambda self: f"jacobi(lambda={self.lam:g}, eta={self.b.imag:g})")
    singular_points = (0j, 1 + 0j)      # near z = 1 it behaves like |theta|^{2 lam}
    lam = property(lambda self: self.b.real)
    mirror_symmetric = property(lambda self: self.b.imag == 0.0)

    def __post_init__(self):
        b = complex(self.b)
        object.__setattr__(self, "b", complex(b.real + 0.0, b.imag + 0.0))  # as BesselFactor
        if not cmath.isfinite(self.b):
            raise ValueError("jacobi weight parameters must be finite")
        if not self.b.real > -0.5:
            raise ValueError("jacobi parameter requires Re(b) > -1/2")
        if not 2.0 * self.lam * math.log(2.0) + math.pi * abs(self.b.imag) <= _LOG_JACOBI_MAX:
            raise ValueError("jacobi parameters must keep the largest weight value "
                             "2^(2 lambda) e^(pi |eta|) finite, below 2^-32 of "
                             "the largest float")

    def values(self, theta, dist):
        s = np.abs(2.0 * np.sin((theta if dist is None else dist) / 2.0))
        if self.lam < 0 and not s.all():
            raise PoleError("jacobi weight is singular at theta = 0")
        return np.power(s, 2.0 * self.lam) * np.exp(-self.b.imag * (theta - math.pi))

    def nu(self, z: complex) -> complex:
        for s in self.singular_points:
            if abs(z - s) < _SINGULAR_RADIUS:
                raise PoleError(f"jacobi weight is singular at z = {s.real:g}")
        bb = self.b + self.b.conjugate()
        return cmath.exp(-self.b.conjugate() * cmath.log(-z) + bb * cmath.log(1.0 - z))

    def log_derivative(self, z: complex, order: int) -> complex:
        bc, bb = self.b.conjugate(), self.b + self.b.conjugate()
        return -bc / z - bb / (1.0 - z) if order == 0 else bc / z ** 2 - bb / (1.0 - z) ** 2

    def pearson(self):
        return (np.array([1.0, -1.0], dtype=complex),                     # 1 - z
                np.array([-self.b.conjugate(), -self.b], dtype=complex))  # -(conj(b) + b z)


@dataclass(frozen=True)
class WeightSpec:
    """A weight: ``factors``, the tuple of its factors (() for the Lebesgue
    weight), or None for a custom weight, which has only its ``moments``
    table and no pointwise values.  Its kind and label are its factors'."""

    factors: "tuple | None"
    moments: "MomentTable | None" = None

    def __post_init__(self):
        if self.factors is None:
            _check_positive_table(self.moments)
        elif self.moments is not None:
            raise ValueError("only a custom weight has a moment table")
        object.__setattr__(self, "_singular", tuple(dict.fromkeys(
            s for f in self.factors or () for s in f.singular_points)))
        # computed once: each second-kind table lookup hashes its weight
        object.__setattr__(self, "_hash", hash((self.factors, self.moments)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt by the constructor: hashed as the weights of the process it is in
        return type(self), (self.factors, self.moments)

    @classmethod
    def lebesgue(cls) -> "WeightSpec":
        return cls(())

    @classmethod
    def bessel(cls, ell: float) -> "WeightSpec":
        return cls((BesselFactor(ell),))

    @classmethod
    def jacobi(cls, b: complex) -> "WeightSpec":
        return cls((JacobiFactor(b),))

    @classmethod
    def custom(cls, moments: "MomentTable") -> "WeightSpec":
        return cls(None, moments)

    def _joined(self, attr: str) -> str:
        """The factors' attr joined by " * ": "lebesgue" for none, "custom" for None."""
        return "custom" if self.factors is None else (
            " * ".join(getattr(f, attr) for f in self.factors) or "lebesgue")

    kind = property(lambda self: self._joined("kind"))

    def mirror_symmetric(self) -> bool:
        """Whether nu(e^{-i theta}) = nu(e^{i theta}) may hold for every factor."""
        return all(f.mirror_symmetric for f in self.factors or ())

    def singular_points(self) -> tuple[complex, ...]:
        return self._singular

    def label(self) -> str:
        return self._joined("label")


def _check_positive_table(c: "MomentTable | None") -> None:
    """Raise ValueError unless c can be the moment table of a positive measure:
    finite values, c_0 > 0 and a Hermitian defect within HERMITIAN_RTOL c_0."""
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


def _compose(w: WeightSpec, part, join, empty):
    """part(f) of w's factors joined from the first on (a neutral 1 * or 0 + start
    changes signed zeros and turns 0 * inf into NaN); empty for Lebesgue."""
    if w.factors is None:
        raise UnsupportedWeightError("custom weights are moment-only")
    return reduce(join, map(part, w.factors)) if w.factors else empty


def _pearson_product(first, second):
    """The Pearson pair of nu_1 nu_2: A = A_1 A_2, q = q_1 A_2 + A_1 q_2."""
    (A1, q1), (A2, q2) = first, second
    return np.convolve(A1, A2), np.polynomial.polynomial.polyadd(
        np.convolve(q1, A2), np.convolve(A1, q2))


def weight_values(w: WeightSpec, theta, dist=None) -> np.ndarray:
    """Vectorized w(theta) = nu(e^{i theta}) for theta in (0, 2pi).  dist, if
    given, is each theta's distance to theta = 0, from which the Jacobi factor
    |2 sin(theta/2)| keeps near 2pi the relative accuracy 2pi - theta loses."""
    theta = np.asarray(theta, dtype=float)
    return _compose(w, lambda f: f.values(theta, dist), operator.mul,
                    np.ones_like(theta)).astype(complex)


def circle_rule(w: WeightSpec, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N-point quadrature rule on the circle: angles theta_k, weight
    values nu(e^{i theta_k}) J_k and Jacobians J_k, such that
    (1/N) sum_k f(theta_k) J_k approximates (1/2pi) int_0^{2pi} f dtheta.

    A weight with a factor singular at z = 1, where it behaves like
    |theta|^{2 lambda}, gets Kress's graded map theta = phi(s) of the
    midpoint nodes s_k (Numer. Math. 58, 1990): phi(s) = 2pi v^p / (v^p +
    (1 - v)^p) with v a cubic in s.  Its nodes cluster at theta = 0, where
    the integrand nu J behaves like s^{p(1 + 2 lambda) - 1}; the order p
    grows as lambda nears -1/2.  Every other weight gets the midpoint nodes
    themselves, with J = 1.
    """
    lam = next((f.lam for f in w.factors or () if 1.0 in f.singular_points), None)
    if lam is None:
        s = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
        return s, weight_values(w, s), np.ones(N)
    p = max(10, math.ceil(8.0 / (1.0 + 2.0 * lam)))
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
        2.0 * lam * (log_dist - floor) + log_jac)
    return theta, nu, np.exp(log_jac)


def eval_weight(w: WeightSpec, theta: float) -> complex:
    """Scalar weight value at angle theta in [0, 2pi)."""
    return complex(weight_values(w, np.array([theta]))[0])


def eval_nu(w: WeightSpec, z: complex) -> complex:
    """Analytic continuation of nu off the circle (principal branches): the
    Jacobi factor's branch cuts sit on [0, +inf), so on the circle minus {1}
    it agrees with eval_weight."""
    z = complex(z)
    return _compose(w, lambda f: f.nu(z), operator.mul, 1.0 + 0.0j)


def log_derivative(w: WeightSpec, z: complex, order: int = 0) -> complex:
    """nu'(z)/nu(z) (order 0) or its z-derivative (order 1); single-valued
    and analytic off the singular set."""
    if order not in (0, 1):
        raise ValueError(f"log-derivative order {order} outside 0..1")
    z = complex(z)
    for s in w.singular_points():
        if abs(z - s) < _SINGULAR_RADIUS:
            raise PoleError(f"log-derivative pole at z = {s.real:g}")
    return _compose(w, lambda f: f.log_derivative(z, order), operator.add, 0j)


def pearson_data(w: WeightSpec):
    """Polynomial pair (A, q), coefficients in ascending order, with
    z*A(z)*nu'(z) = q(z)*nu(z) off the zeros of zA."""
    return _compose(w, lambda f: f.pearson(), _pearson_product,
                    (np.array([1.0 + 0j]), np.array([0.0 + 0j])))
