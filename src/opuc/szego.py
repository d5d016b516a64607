"""Recurrence construction of the monic circle polynomials.

From moments we run the one-step recurrence Phi_{n+1} = z Phi_n -
conj(alpha_n) Phi_n^*, extracting each alpha_n from the moment functional
applied to z Phi_n.  The table stores the alphas, the normalization
constants kappa_n^2 and b_n = 2 pi kappa_n^2, the subleading
coefficients Phi_1^n, and the coefficients of every Phi_n and Phi_n^*.

One recursion pass fills the rows of two preallocated read-only
matrices, Phi_n in row n of one and Phi_n^* = conj(reversed Phi_n) in row
n of the other; each ``PolyPair`` holds views of its two rows, and Phi_1^n
is the entry of z^{n-1} in row n of the first.  The matrices take
32 (nmax + 1)^2 bytes, so a degree above MAX_DEGREE is refused before they
are allocated.  The moment sum that gives alpha_n is taken on arrays of
real and imaginary parts, accumulated in index order, so it rounds exactly
as the sequential sum of scalar complex products does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateMeasureError, ParameterRangeError
from .moments import MomentTable

DEGENERACY_MARGIN = 1e-12
MAX_DEGREE = 4096           # a table's two coefficient matrices take 0.5 GiB at this degree


@dataclass(frozen=True, eq=False)
class PolyPair:
    """Coefficients of the monic Phi_n and its reciprocal, ascending order."""

    n: int
    phi: np.ndarray
    phistar: np.ndarray

    def __eq__(self, other) -> bool:
        # the generated __eq__ compares the arrays inside tuples, which raises;
        # False, not NotImplemented, so that an array operand cannot broadcast
        return (isinstance(other, PolyPair) and self.n == other.n
                and np.array_equal(self.phi, other.phi)
                and np.array_equal(self.phistar, other.phistar))

    @cached_property
    def derivatives(self) -> tuple[tuple[tuple[complex, ...], ...], ...]:
        """((Phi_n, Phi_n', Phi_n''), (Phi_n^*, Phi_n^*', Phi_n^*'')) as
        tuples of Python complex coefficients, computed once per pair."""
        return tuple((p, _der(p), _der(_der(p)))
                     for p in (tuple(self.phi.tolist()), tuple(self.phistar.tolist())))

    def eval_phi_deriv(self, z: complex, order: int = 1) -> complex:
        """The derivative of order 0, 1 or 2 of Phi_n at z."""
        return _horner(self.derivatives[0][order], complex(z))

    def eval_phistar_deriv(self, z: complex, order: int = 1) -> complex:
        """The derivative of order 0, 1 or 2 of Phi_n^* at z."""
        return _horner(self.derivatives[1][order], complex(z))


def _horner(p: tuple[complex, ...], z: complex) -> complex:
    """p(z) for ascending coefficients; in Python complex arithmetic this
    rounds as numpy's polyval does, step for step."""
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


def _der(p: tuple[complex, ...]) -> tuple[complex, ...]:
    """The derivative of p, ascending coefficients; (0j,) for a constant."""
    return tuple(k * p[k] for k in range(1, len(p))) or (0j,)


def _szego_step(phi: np.ndarray, phistar: np.ndarray, kappa2: list, n: int,
                alpha) -> None:
    """One step of the recursion, in the scalar types of alpha and kappa2:
    kappa_{n+1}^2 appended to kappa2, and row n + 1 of both matrices from
    row n, Phi_{n+1} = z Phi_n - conj(alpha_n) Phi_n^* and Phi_{n+1}^* its
    reciprocal.  Row n + 1 must hold zeros; Phi_n^* is zero past degree n,
    so the update runs over all n + 2 entries of row n + 1.
    DegenerateMeasureError unless 1 - |alpha_n|^2 exceeds DEGENERACY_MARGIN."""
    a = abs(alpha)
    # |alpha_n| >= 1 is refused unsquared: its square overflows from about 1.3e154
    r = 1.0 - a ** 2 if a < 1.0 else 0.0
    if not r > DEGENERACY_MARGIN:   # also when alpha is NaN
        raise DegenerateMeasureError(f"|alpha_{n}| = {a:.17g} leaves the unit disk", index=n)
    kappa2.append(kappa2[-1] / r)
    row = phi[n + 1, :n + 2]
    row[1:] = phi[n, :n + 1]
    row -= alpha.conjugate() * phistar[n, :n + 2]
    phistar[n + 1, :n + 2] = row[::-1].conj()


def _coefficient_matrices(nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed (nmax + 1, nmax + 1) matrices for Phi_n and Phi_n^*, row 0 = 1;
    ParameterRangeError above MAX_DEGREE."""
    if nmax > MAX_DEGREE:
        raise ParameterRangeError(f"table degree {nmax} is above MAX_DEGREE = {MAX_DEGREE}")
    phi = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    phistar = np.zeros_like(phi)
    phi[0, 0] = phistar[0, 0] = 1.0
    return phi, phistar


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
    # read-only; Phi_n and Phi_n^* zero-padded in row n, viewed by the pairs
    phi: np.ndarray = field(compare=False, repr=False)
    phistar: np.ndarray = field(compare=False, repr=False)
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
        phi, phistar = _coefficient_matrices(len(alphas))
        for n, a in enumerate(alphas):
            _szego_step(phi, phistar, kappa2, n, a)
        return cls._build(alphas, kappa2, phi, phistar)

    @classmethod
    def _build(cls, alphas: tuple[complex, ...], kappa2: list[float],
               phi: np.ndarray, phistar: np.ndarray) -> "VerblunskyTable":
        phi.flags.writeable = phistar.flags.writeable = False
        polys = tuple(PolyPair(n, phi[n, :n + 1], phistar[n, :n + 1])
                      for n in range(len(alphas) + 1))
        # Python floats, of the same values: a numpy scalar would make every
        # product with kappa_n^2 or b_n downstream a numpy scalar too
        kappa2 = tuple(map(float, kappa2))
        b = tuple(2.0 * math.pi * k for k in kappa2)
        phi1 = (0j,) + tuple(phi.diagonal(-1).tolist())   # phi[n, n - 1], 0 for n = 0
        return cls(alphas, kappa2, b, phi1, polys, phi, phistar)

    def perturbed(self, n: int, eps: complex) -> "VerblunskyTable":
        """Copy with alpha_n shifted by eps; downstream constants recomputed.
        IndexError unless 0 <= n < nmax."""
        if not 0 <= n < self.nmax:
            raise IndexError(f"alpha index {n} outside 0..{self.nmax - 1}")
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
    phi, phistar = _coefficient_matrices(nmax)
    neg = np.array([c.get(-(k + 1)) for k in range(nmax)], dtype=complex)
    nr, ni = neg.real, neg.imag
    for n in range(nmax):
        # conj(alpha_n) = kappa_n^2 * integral of t Phi_n dmu, the moment sum
        # 0 + sum_k Phi_n[k] c_{-(k+1)} of scalar complex products, added in
        # index order on real and imaginary parts; a complex array product
        # or np.dot would round differently.  The leading 0.0 turns a sum
        # of negative zeros into 0.0, as the 0 + does.
        pr, pi = phi[n, :n + 1].real, phi[n, :n + 1].imag
        mr, mi = nr[:n + 1], ni[:n + 1]
        s = np.complex128(complex(0.0 + np.cumsum(pr * mr - pi * mi)[-1],
                                  0.0 + np.cumsum(pr * mi + pi * mr)[-1]))
        # a numpy complex, so the recursion's kappa2[n >= 1] are numpy floats
        # until _build turns them into Python floats of the same values
        alpha = (kappa2[-1] * s).conjugate()
        _szego_step(phi, phistar, kappa2, n, alpha)
        alphas.append(complex(alpha))
    return VerblunskyTable._build(tuple(alphas), kappa2, phi, phistar)


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
