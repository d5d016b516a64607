"""Trigonometric moments c_j = int_0^{2pi} e^{-ij theta} w(theta) dtheta.

The moments seed the recursion for the recurrence coefficients.  Two routes
are provided: the circle rule of ``weights.circle_rule`` with node doubling,
graded towards theta = 0 for the Jacobi weight, and an analytic series route
for the exponential-of-cosine family, whose ell = 0 member is the Lebesgue
weight.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ParameterRangeError
from .weights import WeightSpec, circle_rule

DEFAULT_N = 256
NMAX_NODES = 1 << 20
MOMENT_RTOL = 1e-12         # node doubling stops at this change, relative to c_0
BESSEL_RTOL = 1e-16         # the Bessel series stops at this term, relative to its sum
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
        with open(path, newline="") as fh:
            try:
                rows = list(csv.DictReader(fh))
            except (csv.Error, UnicodeDecodeError) as exc:  # a field past the csv limit, binary
                raise ValueError(f"moment file {path} is not a CSV table: {exc}") from exc
        entries = {}
        for row in rows:
            try:
                j, c = int(row["j"]), complex(float(row["re"]), float(row["im"]))
            except (KeyError, TypeError) as exc:   # a missing column or field
                raise ValueError(f"moment file row {row} lacks j, re or im") from exc
            if j in entries:
                raise ValueError(f"moment file lists index {j} twice")
            entries[j] = c
        if not entries:
            raise ValueError("empty moment file")
        jmin, jmax = min(entries), max(entries)
        missing = [j for j in range(jmin, jmax + 1) if j not in entries]
        if missing:
            raise ValueError(f"moment file has gaps at indices {missing}")
        return cls(jmin, jmax, tuple(entries[j] for j in range(jmin, jmax + 1)), "user")


def _quadrature_pass(w: WeightSpec, jmax: int, N: int) -> np.ndarray:
    """One pass of the N-point circle rule; returns c_j for j = -jmax..jmax.

    c_j = (2pi/N) sum_k e^{-ij theta_k} nu_k J_k for j = 0..jmax, with the
    powers of e^{-i theta_k} accumulated one j at a time; the weight is real,
    so c_{-j} = conj(c_j).
    """
    theta, nu, _ = circle_rule(w, N)
    rotation = np.exp(-1j * theta)
    power = np.ones(N, dtype=complex)
    c = np.empty(jmax + 1, dtype=complex)
    for j in range(jmax + 1):
        c[j] = np.dot(power, nu)
        power *= rotation
    c *= 2.0 * math.pi / N
    return np.concatenate((c[:0:-1].conj(), c))


def moments_quadrature(w: WeightSpec, jmax: int) -> MomentTable:
    """Moments by the circle rule with node doubling.

    Starts at DEFAULT_N nodes, or 4 jmax if more, and doubles N until two
    successive tables agree to MOMENT_RTOL relative to c_0; the last pass
    runs at NMAX_NODES nodes.  One comparison takes two passes, so
    ParameterRangeError if the start exceeds NMAX_NODES / 2, that is for
    jmax > NMAX_NODES / 8.
    """
    N = max(DEFAULT_N, 4 * jmax)
    N = 1 << (N - 1).bit_length()  # round up to a power of two
    if 2 * N > NMAX_NODES:
        raise ParameterRangeError(
            f"moment quadrature supports degrees up to {NMAX_NODES // 8}, got {jmax}: "
            f"it would start at {N} nodes, above {NMAX_NODES // 2}, half the node limit"
        )
    prev = _quadrature_pass(w, jmax, N)
    while N < NMAX_NODES:
        N *= 2
        cur = _quadrature_pass(w, jmax, N)
        resid = float(np.max(np.abs(cur - prev))) / abs(cur[jmax].real)
        if resid <= MOMENT_RTOL:
            return MomentTable(-jmax, jmax, tuple(cur), f"quadrature({N})")
        prev = cur
    raise AccuracyError(
        f"moment quadrature did not converge below rtol={MOMENT_RTOL:g} at N={N}",
        residual=resid,
        nodes=N,
    )


def bessel_i_series(j: int, x: float) -> float:
    """Modified Bessel function I_j(x) by its power series; I_j(0) = [j == 0]
    at every order, the constant (Lebesgue) weight's moments."""
    if x == 0.0:
        return float(j == 0)
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
        if term <= BESSEL_RTOL * max(total, 1e-300):
            return total


def bessel_moments_analytic(ell: float, jmax: int) -> MomentTable:
    """c_j = 2pi I_j(ell) for the exponential-of-cosine weight; I_{-j} = I_j,
    so each order is summed once.  ParameterRangeError for jmax above
    NMAX_NODES / 8, the bound of the quadrature route, before any allocation:
    at ell = 0 no series limit applies."""
    if not ell >= 0:    # also when ell is NaN
        raise ValueError("ell must be >= 0")
    if jmax > NMAX_NODES // 8:
        raise ParameterRangeError(
            f"moment tables support degrees up to {NMAX_NODES // 8}, got {jmax}")
    if ell > BESSEL_MAX_ELL:
        raise ParameterRangeError(
            f"analytic route documented for ell <= {BESSEL_MAX_ELL:g} only"
        )
    half = [2.0 * math.pi * bessel_i_series(j, ell) for j in range(jmax + 1)]
    return MomentTable(-jmax, jmax, tuple(half[:0:-1] + half), "analytic")


def moments_for(w: WeightSpec, jmax: int) -> MomentTable:
    """Best available moment route for the given weight."""
    if w.factors is None:                   # a custom weight is its moment table
        if not w.moments.covers(jmax):
            raise ValueError(f"custom moment table does not cover |j| <= {jmax}")
        return w.moments
    if w.kind in ("lebesgue", "bessel"):        # the Lebesgue weight is bessel(0)
        return bessel_moments_analytic(w.factors[0].ell if w.factors else 0.0, jmax)
    return moments_quadrature(w, jmax)
