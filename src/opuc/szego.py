"""Recurrence construction of the monic circle polynomials.

From moments we run the one-step recurrence Phi_{n+1} = z Phi_n -
conj(alpha_n) Phi_n^*, extracting each alpha_n from the moment functional
applied to z Phi_n.  The table stores the alphas, the normalization
constants kappa_n^2 and b_n = 2 pi kappa_n^2, the subleading
coefficients Phi_1^n, and the read-only coefficient arrays of every
Phi_n and Phi_n^* that the one recursion pass builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeasureError
from .moments import MomentTable

DEGENERACY_MARGIN = 1e-12

_P = np.polynomial.polynomial


@dataclass(frozen=True)
class PolyPair:
    """Coefficients of the monic Phi_n and its reciprocal, ascending order."""

    n: int
    phi: np.ndarray
    phistar: np.ndarray

    def eval_phi_deriv(self, z: complex, order: int = 1) -> complex:
        return complex(_P.polyval(z, _P.polyder(self.phi, order)))

    def eval_phistar_deriv(self, z: complex, order: int = 1) -> complex:
        return complex(_P.polyval(z, _P.polyder(self.phistar, order)))


def _read_only(coeffs: np.ndarray) -> np.ndarray:
    coeffs.flags.writeable = False
    return coeffs


def _szego_step(pair: PolyPair, alpha: complex) -> PolyPair:
    """Phi_{n+1} = z Phi_n - conj(alpha_n) Phi_n^*, and its reciprocal."""
    shifted = np.concatenate(([0.0], pair.phi))
    padded = np.pad(pair.phistar, (0, 1))
    return PolyPair(pair.n + 1,
                    _read_only(shifted - alpha.conjugate() * padded),
                    _read_only(padded - alpha * shifted))


_ONE = _read_only(np.array([1.0 + 0.0j]))
_DEGREE_ZERO = PolyPair(0, _ONE, _ONE)


def _phi1_sequence(alphas: tuple[complex, ...]) -> tuple[complex, ...]:
    # Phi_1^n = sum_{j<n} conj(alpha_j) alpha_{j-1} with alpha_{-1} = -1
    out = [0.0 + 0.0j]
    acc = 0.0 + 0.0j
    for j, a in enumerate(alphas):
        prev = -1.0 if j == 0 else alphas[j - 1]
        acc += a.conjugate() * prev
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class VerblunskyTable:
    """Recurrence data: alphas, kappa^2, b = 2 pi kappa^2, Phi_1^n, and the
    polynomial pairs of degrees 0..nmax.

    ``quadrature`` holds the second-kind evaluation state of ``opuc.cauchy``,
    one entry per weight, so it lives and dies with the table.
    """

    alphas: tuple[complex, ...]
    kappa2: tuple[float, ...]
    b: tuple[float, ...]
    phi1: tuple[complex, ...]
    polys: tuple[PolyPair, ...] = field(compare=False, repr=False)
    quadrature: dict = field(default_factory=dict, init=False, compare=False,
                             repr=False)

    @property
    def nmax(self) -> int:
        return len(self.alphas)

    def alpha(self, n: int) -> complex:
        """alpha_n with the recurrence seed alpha_{-1} = -1."""
        if n == -1:
            return -1.0 + 0.0j
        return self.alphas[n]

    @classmethod
    def from_alphas(cls, alphas, kappa0sq: float) -> "VerblunskyTable":
        alphas = tuple(complex(a) for a in alphas)
        kappa2 = [float(kappa0sq)]
        polys = [_DEGREE_ZERO]
        for n, a in enumerate(alphas):
            r = 1.0 - abs(a) ** 2
            if r <= DEGENERACY_MARGIN:
                raise DegenerateMeasureError(
                    f"|alpha_{n}| leaves the unit disk", index=n
                )
            kappa2.append(kappa2[-1] / r)
            polys.append(_szego_step(polys[-1], a))
        return cls._build(alphas, kappa2, polys)

    @classmethod
    def _build(cls, alphas: tuple[complex, ...], kappa2: list[float],
               polys: list[PolyPair]) -> "VerblunskyTable":
        b = tuple(2.0 * math.pi * k for k in kappa2)
        return cls(alphas, tuple(kappa2), b, _phi1_sequence(alphas), tuple(polys))

    def perturbed(self, n: int, eps: complex) -> "VerblunskyTable":
        """Copy with alpha_n shifted by eps; downstream constants recomputed."""
        alphas = list(self.alphas)
        alphas[n] = alphas[n] + eps
        return VerblunskyTable.from_alphas(alphas, self.kappa2[0])


def verblunsky_from_moments(c: MomentTable, nmax: int) -> VerblunskyTable:
    """Run the recursion from moments; needs c_j for j in [-nmax, 0] and
    c_0 > 0, the mass of a positive measure."""
    if c.jmin > -nmax:
        raise ValueError(f"moment table must cover j >= -{nmax}")
    if not c.c0 > 0:
        raise ValueError(f"moment table has c_0 = {c.c0}, not positive")
    kappa2 = [1.0 / c.c0]
    alphas: list[complex] = []
    polys = [_DEGREE_ZERO]
    for n in range(nmax):
        # conj(alpha_n) = kappa_n^2 * integral of t Phi_n dmu, as a moment sum
        phi = polys[-1].phi
        s = sum(phi[k] * c.get(-(k + 1)) for k in range(n + 1))
        alpha = (kappa2[-1] * s).conjugate()
        # a numpy float, as are kappa2[n >= 1] and b; the residuals computed
        # from them depend on numpy's scalar rounding bit for bit
        r = 1.0 - abs(alpha) ** 2
        if r <= DEGENERACY_MARGIN:
            raise DegenerateMeasureError(
                f"|alpha_{n}| = {abs(alpha):.15f} leaves the unit disk", index=n
            )
        alphas.append(complex(alpha))
        polys.append(_szego_step(polys[-1], alpha))
        kappa2.append(kappa2[-1] / r)
    return VerblunskyTable._build(tuple(alphas), kappa2, polys)


def phi_pair(v: VerblunskyTable, n: int) -> PolyPair:
    """The degree-n coefficient arrays, built once by the table's recursion."""
    if n < 0 or n > v.nmax:
        raise ValueError(f"degree {n} outside the table range 0..{v.nmax}")
    return v.polys[n]


def orthogonality_defect(v: VerblunskyTable, c: MomentTable, n: int, m: int) -> float:
    """|<Phi_n, Phi_m> - delta_{nm}/kappa_n^2| via the moment sums."""
    pn, pm = phi_pair(v, n), phi_pair(v, m)
    s = 0.0 + 0.0j
    for j, aj in enumerate(pn.phi):
        for k, bk in enumerate(pm.phi):
            s += aj * bk.conjugate() * c.get(k - j)
    target = 1.0 / v.kappa2[n] if n == m else 0.0
    return abs(s - target)


def phi1_closed_jacobi(v: VerblunskyTable, b: complex, n: int) -> float:
    """Residual of the closed form Phi_1^n = conj(b) - (conj(b)+n)|alpha_{n-1}|^2."""
    if n < 1:
        raise ValueError("closed form defined for n >= 1")
    bbar = complex(b).conjugate()
    closed = bbar - (bbar + n) * abs(v.alphas[n - 1]) ** 2
    return abs(v.phi1[n] - closed)


def jacobi_alpha_ratio_residual(v: VerblunskyTable, b: complex, n: int) -> float:
    """Residual of alpha_n = (b+n)/(conj(b)+n+1) * alpha_{n-1} for n >= 1."""
    if n < 1:
        raise ValueError("ratio defined for n >= 1")
    b = complex(b)
    return abs(v.alphas[n] - (b + n) / (b.conjugate() + n + 1) * v.alphas[n - 1])
