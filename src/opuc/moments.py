"""Trigonometric moments c_j = int_0^{2pi} e^{-ij theta} w(theta) dtheta.

The moments seed the recursion for the recurrence coefficients.  Two routes
are provided: a spectrally accurate periodic rule with node doubling, and an
analytic series route for the exponential-of-cosine family.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ParameterRangeError
from .weights import WeightSpec, weight_values

DEFAULT_N = 4096
NMAX_NODES = 1 << 20
DEFAULT_RTOL = 1e-12
JACOBI_RTOL = 1e-9
BESSEL_MAX_ORDER = 170      # j! overflows a float for j > 170
BESSEL_MAX_ELL = 50.0


@dataclass(frozen=True)
class MomentTable:
    """Moments c_j for j in [jmin, jmax], stored as a flat tuple."""

    jmin: int
    jmax: int
    values: tuple[complex, ...]
    source: str = "user"

    def __post_init__(self):
        if self.jmin > 0 or self.jmax < 0:
            raise ValueError("index range must contain 0")
        if len(self.values) != self.jmax - self.jmin + 1:
            raise ValueError("values length does not match index range")
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    def covers(self, jmax: int) -> bool:
        """Whether the table holds c_j for every |j| <= jmax."""
        return self.jmin <= -jmax and self.jmax >= jmax

    def get(self, j: int) -> complex:
        if j < self.jmin or j > self.jmax:
            raise IndexError(f"moment index {j} outside [{self.jmin}, {self.jmax}]")
        return self.values[j - self.jmin]

    @property
    def c0(self) -> float:
        return self.get(0).real

    def hermitian_defect(self) -> float:
        """max_j |c_{-j} - conj(c_j)| over the symmetric index range."""
        m = min(-self.jmin, self.jmax)
        return max(
            (abs(self.get(-j) - self.get(j).conjugate()) for j in range(m + 1)),
            default=0.0,
        )

    def toeplitz(self, n: int) -> np.ndarray:
        """The (n+1)x(n+1) Toeplitz matrix [c_{j-k}]."""
        return np.array([[self.get(j - k) for k in range(n + 1)] for j in range(n + 1)])

    def min_toeplitz_eigenvalue(self, n: int) -> float:
        return float(np.linalg.eigvalsh(self.toeplitz(n)).min())

    def scaled(self, c: float) -> "MomentTable":
        return MomentTable(self.jmin, self.jmax, tuple(c * v for v in self.values), self.source)

    # -- CSV interchange (header: j,re,im) --------------------------------

    def csv_rows(self) -> list[list]:
        """The header and one row per moment, floats as repr strings."""
        rows = [["j", "re", "im"]]
        for j in range(self.jmin, self.jmax + 1):
            c = self.get(j)
            rows.append([j, repr(c.real), repr(c.imag)])
        return rows

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(self.csv_rows())

    @classmethod
    def from_csv(cls, path) -> "MomentTable":
        entries = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                try:
                    entries[int(row["j"])] = complex(float(row["re"]), float(row["im"]))
                except (KeyError, TypeError) as exc:   # a missing column or field
                    raise ValueError(f"moment file row {row} lacks j, re or im") from exc
        if not entries:
            raise ValueError("empty moment file")
        jmin, jmax = min(entries), max(entries)
        missing = [j for j in range(jmin, jmax + 1) if j not in entries]
        if missing:
            raise ValueError(f"moment file has gaps at indices {missing}")
        return cls(jmin, jmax, tuple(entries[j] for j in range(jmin, jmax + 1)), "user")


def _quadrature_pass(w: WeightSpec, jmax: int, N: int) -> np.ndarray:
    """One midpoint-rule pass; returns c_j for j = -jmax..jmax.

    The midpoint grid theta_k = 2pi(k + 1/2)/N avoids theta = 0, where the
    Jacobi weight is singular for lambda < 0.
    """
    theta = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
    wv = weight_values(w, theta)
    spectrum = np.fft.fft(wv)
    js = np.arange(-jmax, jmax + 1)
    phases = np.exp(-1j * js * math.pi / N)
    return (2.0 * math.pi / N) * phases * spectrum[js % N]


def moments_quadrature(
    w: WeightSpec,
    jmax: int,
    N: int = DEFAULT_N,
    rtol: float | None = None,
    nmax: int = NMAX_NODES,
) -> MomentTable:
    """Moments by the periodic midpoint rule with node doubling.

    Doubles N until two successive tables agree to rtol relative to c_0.
    """
    if rtol is None:
        rtol = JACOBI_RTOL if w.kind == "jacobi" else DEFAULT_RTOL
    N = max(N, 4 * jmax)
    N = 1 << (N - 1).bit_length()  # round up to a power of two
    prev = _quadrature_pass(w, jmax, N)
    while N <= nmax:
        N *= 2
        cur = _quadrature_pass(w, jmax, N)
        resid = float(np.max(np.abs(cur - prev))) / abs(cur[jmax].real)
        if resid <= rtol:
            return MomentTable(-jmax, jmax, tuple(cur), f"quadrature({N})")
        prev = cur
    raise AccuracyError(
        f"moment quadrature did not converge below rtol={rtol:g} at N={N // 2}",
        residual=resid,
        nodes=N // 2,
    )


def bessel_i_series(j: int, x: float, rtol: float = 1e-16) -> float:
    """Modified Bessel function I_j(x) by its power series (j >= 0)."""
    if j < 0:
        j = -j
    if j > BESSEL_MAX_ORDER:
        raise ParameterRangeError(
            f"Bessel series supports orders |j| <= {BESSEL_MAX_ORDER}, got {j}"
        )
    half = x / 2.0
    term = half ** j / math.factorial(j)
    total = term
    m = 0
    while True:
        m += 1
        term *= half * half / (m * (m + j))
        total += term
        if term <= rtol * max(total, 1e-300):
            return total


def bessel_moments_analytic(ell: float, jmax: int) -> MomentTable:
    """c_j = 2pi I_j(ell) for the exponential-of-cosine weight with H == 1."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell > BESSEL_MAX_ELL:
        raise ParameterRangeError(
            f"analytic route documented for ell <= {BESSEL_MAX_ELL:g} only"
        )
    values = [2.0 * math.pi * bessel_i_series(abs(j), ell) for j in range(-jmax, jmax + 1)]
    return MomentTable(-jmax, jmax, tuple(values), "analytic")


def lebesgue_moments(jmax: int, scale: float = 1.0) -> MomentTable:
    values = [2.0 * math.pi * scale if j == 0 else 0.0 for j in range(-jmax, jmax + 1)]
    return MomentTable(-jmax, jmax, tuple(values), "analytic")


def moments_for(w: WeightSpec, jmax: int) -> MomentTable:
    """Best available moment route for the given weight."""
    if w.kind == "custom":
        if not w.moments.covers(jmax):
            raise ValueError(f"custom moment table does not cover |j| <= {jmax}")
        return w.moments
    if w.kind == "lebesgue" and w.has_trivial_h:
        return lebesgue_moments(jmax, w.scale)
    if w.kind == "bessel" and w.has_trivial_h and w.scale == 1.0:
        return bessel_moments_analytic(w.ell, jmax)
    return moments_quadrature(w, jmax)
