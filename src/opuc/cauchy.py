"""Second-kind (associated) functions by contour quadrature.

G_n is the Cauchy transform of Phi_n nu / t^n over the unit circle, and
G*_{n-1} the analogue for the reciprocal polynomial.  All integrals use the
periodic midpoint rule with node doubling; near the circle a singularity
subtraction keeps the rule spectrally accurate.

The Laurent coefficients at infinity are integrals too: for |z| > 1,
1/(t - z) = -sum_m t^m / z^{m+1}, so the coefficient of z^{-(m+1)} in the
transform of g is -(1/2 pi i) * contour integral of g(t) t^m dt.  They are
summed on the same nodes and integrand samples as the transforms, with no
sampling of the transform itself.

Everything that does not depend on z is computed once per table and
weight: the nodes and weight values of each level, and the integrand
samples p(t) nu(t) / t^n of each polynomial at each level.  Converged
values are memoized too, so a transform repeated by another identity
check costs a lookup.  The state lives in ``VerblunskyTable.quadrature``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, NearBoundaryError
from .szego import VerblunskyTable, phi_pair
from .weights import WeightSpec, eval_nu, weight_values

_P = np.polynomial.polynomial

N0 = 256
NMAX = 1 << 17
DEFAULT_RTOL = 1e-12
NEAR_BOUNDARY = 0.02        # refusal band around |z| = 1
SUBTRACT_BAND = (0.8, 1.25)  # |z| range where subtraction is used automatically


@dataclass(frozen=True)
class CauchyEval:
    """Converged values of the second-kind functions at one point."""

    n: int
    z: complex
    region: str
    G: complex
    Gstar: complex
    dG: complex
    dGstar: complex
    quad_nodes: int


class _Quadrature:
    """z-independent quadrature data of one table and weight, plus a memo of
    converged transforms.

    The integrand store holds at most NMAX samples, one pass at the finest
    level, and drops the least recently used arrays to stay within it.
    """

    def __init__(self, w: WeightSpec):
        self.w = w
        self.nodes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.integrands: dict[tuple, np.ndarray] = {}
        self.samples = 0
        self.memo: dict[tuple, tuple[complex, int, float]] = {}

    def circle(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint nodes t_k = e^{i theta_k} and weight values nu(t_k)."""
        if N not in self.nodes:
            theta = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
            self.nodes[N] = np.exp(1j * theta), weight_values(self.w, theta)
        return self.nodes[N]

    def integrand(self, kind: str, coeffs: np.ndarray, n: int, N: int) -> np.ndarray:
        """Samples of p(t) nu(t) / t^n at the N nodes; kind names p."""
        key = (kind, n, N)
        g = self.integrands.pop(key, None)
        if g is None:
            t, nu = self.circle(N)
            g = _P.polyval(t, coeffs) * nu / t ** n
            self.samples += N
            while self.samples > NMAX and self.integrands:
                self.samples -= len(self.integrands.pop(next(iter(self.integrands))))
        self.integrands[key] = g
        return g


def classify_region(z: complex) -> str:
    r = abs(z)
    if abs(r - 1.0) < 1e-14:
        return "boundary"
    return "inside" if r < 1.0 else "outside"


def _check_offcircle(z: complex, boundary: bool) -> None:
    r = abs(z)
    if abs(r - 1.0) < 1e-14:
        raise NearBoundaryError("evaluation exactly on the circle is not supported")
    if not boundary and abs(r - 1.0) < NEAR_BOUNDARY:
        raise NearBoundaryError(
            f"|z| = {r:.6f} is within {NEAR_BOUNDARY} of the circle; "
            "request boundary mode for jump checks"
        )


def _converged(eval_at, rtol: float):
    """Double nodes from N0 until two successive values agree to rtol."""
    N = N0
    prev = eval_at(N)
    while N < NMAX:
        N *= 2
        cur = eval_at(N)
        resid = abs(cur - prev)
        if resid <= rtol * max(1.0, abs(cur)):
            return cur, N, resid
        prev = cur
    raise AccuracyError(
        f"contour quadrature did not converge below rtol={rtol:g}",
        residual=abs(cur - prev),
        nodes=N,
    )


def _transform(q: _Quadrature, kind: str, coeffs: np.ndarray, n: int, z: complex,
               rtol: float, order: int, subtract: bool):
    """(1/2 pi i) * contour integral of p(t) nu(t) / (t^n (t-z)^order) dt.

    order 1 gives the value, 2 the derivative, 3 half the second derivative.
    With subtract=True (order 1 only) the integrand is regularized by
    removing g(z), restoring spectral accuracy next to the circle.
    """
    gz = 0.0 + 0.0j
    if subtract:
        gz = complex(_P.polyval(z, coeffs)) * eval_nu(q.w, z) / z ** n

    def eval_at(N: int) -> complex:
        t, _ = q.circle(N)
        g = q.integrand(kind, coeffs, n, N)
        if subtract:
            total = np.sum((g - gz) * t / (t - z)) / N
            if abs(z) < 1.0:
                total += gz
            return complex(total)
        kern = t / (t - z) ** order
        scale = 2.0 if order == 3 else 1.0
        return complex(scale * np.sum(g * kern) / N)

    return _converged(eval_at, rtol)


def _quadrature(v: VerblunskyTable, w: WeightSpec) -> _Quadrature:
    """The quadrature state of table v and weight w, created on first use."""
    q = v.quadrature.get(w)
    if q is None:
        q = v.quadrature[w] = _Quadrature(w)
    return q


def _polynomial(v: VerblunskyTable, kind: str, n: int) -> np.ndarray:
    """Coefficients of the polynomial kind integrates against nu/t^n:
    Phi_n for kind "G", Phi*_{n-1} for kind "Gstar"."""
    return phi_pair(v, n).phi if kind == "G" else phi_pair(v, n - 1).phistar


def _converged_transform(v: VerblunskyTable, w: WeightSpec, kind: str, n: int,
                         z: complex, rtol: float, order: int = 1):
    """(value, nodes, residual) of one transform, computed once per table.

    Values inside the subtraction band are regularized.
    """
    z = complex(z)
    subtract = order == 1 and SUBTRACT_BAND[0] < abs(z) < SUBTRACT_BAND[1]
    q = _quadrature(v, w)
    key = (kind, n, z, order, subtract, rtol)
    result = q.memo.get(key)
    if result is None:
        result = q.memo[key] = _transform(q, kind, _polynomial(v, kind, n), n, z,
                                          rtol, order, subtract)
    return result


def cauchy_G(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
             rtol: float = DEFAULT_RTOL, boundary: bool = False) -> complex:
    """G_n(z) off the circle."""
    _check_offcircle(z, boundary)
    return _converged_transform(v, w, "G", n, z, rtol)[0]


def cauchy_Gstar(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                 rtol: float = DEFAULT_RTOL, boundary: bool = False) -> complex:
    """G*_{n-1}(z): reciprocal-polynomial transform with kernel nu/t^n."""
    if n < 1:
        raise ValueError("G*_{n-1} needs n >= 1")
    _check_offcircle(z, boundary)
    return _converged_transform(v, w, "Gstar", n, z, rtol)[0]


def cauchy_derivatives(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                       rtol: float = DEFAULT_RTOL) -> tuple[complex, complex]:
    """(G_n'(z), (G*_{n-1})'(z)) by the squared-kernel integrals."""
    _check_offcircle(z, boundary=False)
    dG = _converged_transform(v, w, "G", n, z, rtol, order=2)[0]
    dGs = _converged_transform(v, w, "Gstar", n, z, rtol, order=2)[0]
    return dG, dGs


def cauchy_second_derivatives(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                              rtol: float = DEFAULT_RTOL) -> tuple[complex, complex]:
    """(G_n''(z), (G*_{n-1})''(z)) by the cubed-kernel integrals."""
    _check_offcircle(z, boundary=False)
    d2G = _converged_transform(v, w, "G", n, z, rtol, order=3)[0]
    d2Gs = _converged_transform(v, w, "Gstar", n, z, rtol, order=3)[0]
    return d2G, d2Gs


def cauchy_eval(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                rtol: float = DEFAULT_RTOL) -> CauchyEval:
    """Full converged record at one point (off the refusal band)."""
    _check_offcircle(z, boundary=False)
    g, nodes_g, _ = _converged_transform(v, w, "G", n, z, rtol)
    gs, nodes_gs, _ = _converged_transform(v, w, "Gstar", n, z, rtol)
    dg, dgs = cauchy_derivatives(v, w, n, z, rtol)
    return CauchyEval(n, complex(z), classify_region(z), g, gs, dg, dgs,
                      max(nodes_g, nodes_gs))


def laurent_tail(v: VerblunskyTable, w: WeightSpec, n: int, kmax: int = 2,
                 rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Laurent coefficients of G_n and G*_{n-1} at infinity, by their
    defining integrals over the transforms' nodes t_j and integrand samples.

    Returns (g_coeffs, gstar_coeffs) for k = 0..kmax: g_coeffs[k], the
    coefficient of z^{-(n+1+k)} in G_n, is -(1/N) sum_j Phi_n(t_j) nu(t_j)
    t_j^{k+1}, and gstar_coeffs[k], that of z^{-(n+k)} in G*_{n-1}, is
    -(1/N) sum_j Phi*_{n-1}(t_j) nu(t_j) t_j^k (empty for n = 0).  Each is
    converged to rtol by node doubling.
    """
    q = _quadrature(v, w)

    def coefficient(kind: str, m: int) -> complex:
        coeffs = _polynomial(v, kind, n)

        def eval_at(N: int) -> complex:
            t, _ = q.circle(N)
            return complex(-np.mean(q.integrand(kind, coeffs, n, N) * t ** m))

        return _converged(eval_at, rtol)[0]

    g_coeffs = np.array([coefficient("G", n + 1 + k) for k in range(kmax + 1)])
    if n < 1:
        return g_coeffs, np.array([])
    gstar_coeffs = np.array([coefficient("Gstar", n + k) for k in range(kmax + 1)])
    return g_coeffs, gstar_coeffs


def g_recurrence_residuals(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                           rtol: float = DEFAULT_RTOL) -> tuple[float, float]:
    """Residuals of the two one-step recurrences of the second-kind functions.

    r1 = |G_n - G_{n-1} + conj(alpha_{n-1}) G*_{n-1}|
    r2 = |z G*_n - G*_{n-1} + alpha_{n-1} G_{n-1}|
    """
    if n < 1:
        raise ValueError("recurrences need n >= 1")
    a = v.alphas[n - 1]
    Gn = cauchy_G(v, w, n, z, rtol)
    Gn1 = cauchy_G(v, w, n - 1, z, rtol)
    Gs_n1 = cauchy_Gstar(v, w, n, z, rtol)       # G*_{n-1}
    Gs_n = cauchy_Gstar(v, w, n + 1, z, rtol)    # G*_n
    r1 = abs(Gn - Gn1 + a.conjugate() * Gs_n1)
    r2 = abs(z * Gs_n - Gs_n1 + a * Gn1)
    return r1, r2
