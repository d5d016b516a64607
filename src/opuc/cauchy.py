"""Second-kind (associated) functions by contour quadrature.

G_n is the Cauchy transform of Phi_n nu / t^n over the unit circle, and
G*_{n-1} the analogue for the reciprocal polynomial.  All integrals use
the circle rule of ``weights.circle_rule`` with node doubling until two
levels agree to the one tolerance RTOL, relative to max(1, |value|): the
periodic midpoint rule, graded towards theta = 0 for a weight singular at
z = 1, with the Jacobian folded into the weight values.  Near the circle a
singularity subtraction keeps the rule spectrally accurate.  ``cauchy_G``
and ``cauchy_Gstar`` take the z-derivative order k = 0, 1 or 2; the memo
key and every call below them carry the same k, and the kernel is
k! t / (t - z)^(k+1).  A value is admitted anywhere off the circle, but a
derivative, which gets no subtraction, not within 0.02.

The Laurent coefficients at infinity are integrals too: for |z| > 1,
1/(t - z) = -sum_m t^m / z^{m+1}, so the coefficient of z^{-(m+1)} in the
transform of g is -(1/2 pi i) * contour integral of g(t) t^m dt.  They are
summed on the same nodes and integrand samples as the transforms, with no
sampling of the transform itself.

The integrand samples are computed once per table and weight: the nodes
and weight values of each level, and one integrand matrix per kind and
level, whose rows are the samples p(t) nu(t) / t^n of every degree of the
kind, built by one Horner pass.  G_n and G*_{n-1} are read together, so
the first request at a point and order converges both kinds in one array
pass per level, with the kernel built once per level: off the subtraction
band the keys n = 1..nmax - 1 of both, the ones ``verify`` reads; inside
it, or for any other n, G_n and G*_{n-1} of that n.  Each row leaves
the pass at its own first convergence, so its value, nodes and residual
are those of a transform converged alone.  Every result is memoized, an
AccuracyError too, which is raised again on each request, so no transform
is converged twice.  ``cauchy_G`` and ``cauchy_Gstar`` read the memo first;
only a miss checks the arguments, as an entry exists only for arguments
that passed.  The state lives in ``VerblunskyTable.quadrature``, whose one
memo also holds the Y_n, M_n, M_n' and Mtilde_n of ``opuc.rh`` and
``opuc.structure``.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .errors import AccuracyError, NearBoundaryError
from .szego import VerblunskyTable, _horner, phi_pair
from .weights import WeightSpec, circle_rule, eval_nu

N0 = 256
NMAX = 1 << 17
RTOL = 1e-12                # doubling stops at this change, relative to max(1, |value|)
NEAR_BOUNDARY = 0.02        # band around |z| = 1 where derivatives are refused
SUBTRACT_BAND = (0.8, 1.25)  # |z| range where a value is computed by subtraction

# the lowest degree n of each kind: row i of its integrand matrix is degree
# i + _FIRST[kind], from row i of the table's Phi ("G") or Phi* ("Gstar")
_FIRST = {"G": 0, "Gstar": 1}


def _rows_per_pass(N: int) -> int:
    """The most rows a pass at N nodes takes at a time, so that no block of
    an integrand matrix holds more than NMAX samples."""
    return max(1, NMAX // N)


class _Quadrature:
    """Quadrature data of one table and weight, and the table's one memo.

    ``integrands`` holds the integrand matrices, each of a kind at N nodes
    in blocks of ``_rows_per_pass(N)`` rows, within NMAX samples, one pass
    at the finest level; it drops the least recently used blocks to stay
    within it.  ``memo`` holds each transform's (value, nodes, residual), or
    the AccuracyError of one that never converged, by (kind, n, z, order)
    with the derivative order 0-2; the solution matrix Y_n(z) of
    ``opuc.rh`` by ("Y", n, z, order) and its structure matrix M_n(z) by
    ("M", n, z); the finite-difference M_n' of ``opuc.structure`` by
    ("dM", n, z) and the closed-form Mtilde_n coefficients by ("Mtilde", n).
    """

    def __init__(self, w: WeightSpec, v: VerblunskyTable):
        self.w = w
        self.coefficients = {"G": v.phi, "Gstar": v.phistar}
        self.nodes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.integrands: dict[tuple, np.ndarray] = {}
        self.samples = 0
        self.memo: dict[tuple, object] = {}

    def circle(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes t_k = e^{i theta_k}, weight values nu(t_k) J_k and Jacobians
        J_k of the N-point circle rule."""
        if N not in self.nodes:
            theta, nu, jac = circle_rule(self.w, N)
            self.nodes[N] = np.exp(1j * theta), nu, jac
        return self.nodes[N]

    def block(self, kind: str, b: int, N: int) -> np.ndarray:
        """Block b of the integrand matrix of kind at N nodes: with
        B = _rows_per_pass(N), row i holds the samples p(t) nu(t) J / t^n
        of degree n = b B + i + _FIRST[kind]."""
        m = self.integrands.pop((kind, N, b), None)
        if m is None:
            t, nu, _ = self.circle(N)
            rows = _rows_per_pass(N)
            lo = b * rows
            c = self.coefficients[kind][lo:lo + rows]
            m = np.empty((len(c), N), dtype=complex)
            # polyval on every row at once, step for step: row i, the
            # polynomial of degree lo + i, starts at its leading coefficient
            # and takes one Horner step per lower one
            for k in range(lo + len(c) - 1, -1, -1):
                i = max(k - lo, 0)
                if k >= lo:
                    m[i] = c[i, k] + t * 0
                    i += 1
                m[i:] *= t
                m[i:] += c[i:, k:k + 1]
            m *= nu
            for i in range(len(m)):
                # a Python int power; an integer-array power rounds differently
                m[i] /= t ** (lo + i + _FIRST[kind])
            self.samples += m.size
            while self.samples > NMAX and self.integrands:
                self.samples -= self.integrands.pop(next(iter(self.integrands))).size
        self.integrands[kind, N, b] = m
        return m

    def row(self, kind: str, n: int, N: int) -> np.ndarray:
        """The integrand samples of degree n of kind at N nodes."""
        i, rows = n - _FIRST[kind], _rows_per_pass(N)
        return self.block(kind, i // rows, N)[i % rows]


def _check_offcircle(z: complex, order: int) -> None:
    """Refuse z on the circle, and a derivative within NEAR_BOUNDARY of it:
    a value there is computed by subtraction, a derivative has none."""
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order {order} outside 0..2")
    r = abs(z)
    if abs(r - 1.0) < 1e-14:
        raise NearBoundaryError("evaluation exactly on the circle is not supported")
    if order and abs(r - 1.0) < NEAR_BOUNDARY:
        raise NearBoundaryError(
            f"|z| = {r:.6f} is within {NEAR_BOUNDARY} of the circle, "
            "where only values are computed, not derivatives"
        )


def _converged(eval_at, rows: list) -> dict:
    """Double nodes from N0 until two successive values of each row agree to
    RTOL.  eval_at(N, rows) gives the values of the listed rows at N nodes;
    a row leaves the pass at its first convergence.  Returns, by row,
    (value, nodes, residual), or the AccuracyError of a row that never
    converged."""
    N = N0
    prev = eval_at(N, rows)
    out = {}
    while N < NMAX and rows:
        N *= 2
        pending, values, residuals = [], [], []
        for row, cur, before in zip(rows, eval_at(N, rows), prev):
            resid = abs(cur - before)
            if resid <= RTOL * max(1.0, abs(cur)):
                out[row] = cur, N, resid
            else:
                pending.append(row)
                values.append(cur)
                residuals.append(resid)
        rows, prev = pending, values
    for row, resid in zip(rows, residuals):
        out[row] = AccuracyError(
            f"contour quadrature did not converge below rtol={RTOL:g}",
            residual=resid,
            nodes=N,
        )
    return out


def _value(result):
    """The converged (value, nodes, residual) of a row, or its error raised
    with a fresh traceback."""
    if isinstance(result, AccuracyError):
        raise result.with_traceback(None)
    return result


def _transform(q: _Quadrature, rows: list[tuple[str, int]], z: complex,
               order: int, subtract: bool) -> dict:
    """The z-derivative of the given order 0-2 of (1/2 pi i) * contour
    integral of p(t) nu(t) / (t^n (t-z)) dt for each row (kind, n) in rows,
    converged together by _converged.

    With subtract=True (order 0 only) each integrand is regularized by
    removing g(z) J, restoring spectral accuracy next to the circle.  The
    kernel, order! t / (t - z)^(order+1) or t - z for the subtraction, is
    built once per level and shared by every row.
    """
    if subtract:
        nu_z = eval_nu(q.w, z)
        gz = {}
        for kind, n in rows:
            i = n - _FIRST[kind]
            gz[kind, n] = _horner(q.coefficients[kind][i, :i + 1].tolist(), z) * nu_z / z ** n

        def eval_at(N: int, rows: list) -> list[complex]:
            t, _, jac = q.circle(N)
            kernel = t - z
            values = []
            for kind, n in rows:
                total = ((q.row(kind, n, N) - gz[kind, n] * jac) * t / kernel).sum() / N
                if abs(z) < 1.0:
                    total += gz[kind, n]
                values.append(complex(total))
            return values

        return _converged(eval_at, rows)

    scale = 2.0 if order == 2 else 1.0

    def eval_at(N: int, rows: list) -> list[complex]:
        t = q.circle(N)[0]
        kernel = t / (t - z) ** (order + 1)
        per_pass = _rows_per_pass(N)
        values = []
        # one pass per block of a kind's integrand matrix
        for (kind, b), group in groupby(
                rows, lambda row: (row[0], (row[1] - _FIRST[row[0]]) // per_pass)):
            m = q.block(kind, b, N)
            i = [n - _FIRST[kind] - b * per_pass for _, n in group]
            if len(i) < len(m):
                m = m[i]
            values += (scale * (m * kernel).sum(axis=1) / N).tolist()
        return values

    return _converged(eval_at, rows)


def _quadrature(v: VerblunskyTable, w: WeightSpec) -> _Quadrature:
    """The quadrature state of table v and weight w, created on first use."""
    q = v.quadrature.get(w)
    if q is None:
        q = v.quadrature[w] = _Quadrature(w, v)
    return q


def _converged_transform(v: VerblunskyTable, w: WeightSpec, kind: str, n: int,
                         z: complex, order: int):
    """(value, nodes, residual) of a transform on a memo miss, after the
    argument checks; a memoized AccuracyError is raised.

    A miss converges, in one pass, every row of both kinds at (z, order)
    not yet memoized: off the subtraction band the degrees 1..nmax - 1 of
    G and G*, which are the ones ``verify`` reads; inside it, and for a
    degree outside that sweep, (G, n) and (G*, n) where they exist.  Every
    result is memoized, a failure too, so no transform is converged twice.
    """
    if kind == "Gstar" and n < 1:
        raise ValueError("G*_{n-1} needs n >= 1")
    _check_offcircle(z, order)
    z = complex(z)
    q = _quadrature(v, w)
    phi_pair(v, n - _FIRST[kind])   # ValueError for a degree outside the table
    key = (kind, n, z, order)
    if key not in q.memo:
        subtract = order == 0 and SUBTRACT_BAND[0] < abs(z) < SUBTRACT_BAND[1]
        degrees = (n,) if subtract or not 0 < n < v.nmax else range(1, v.nmax)
        rows = [(k, m) for k, first in _FIRST.items() for m in degrees
                if first <= m < first + len(q.coefficients[k])
                and (k, m, z, order) not in q.memo]
        for (k, m), result in _transform(q, rows, z, order, subtract).items():
            q.memo[k, m, z, order] = result
    return _value(q.memo[key])


def cauchy_G(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
             order: int = 0) -> complex:
    """G_n(z) off the circle, or its z-derivative of order 1 or 2."""
    result = _quadrature(v, w).memo.get(("G", n, z, order))
    if type(result) is not tuple:    # a miss, or a transform that failed
        result = _converged_transform(v, w, "G", n, z, order)
    return result[0]


def cauchy_Gstar(v: VerblunskyTable, w: WeightSpec, n: int, z: complex,
                 order: int = 0) -> complex:
    """G*_{n-1}(z), the reciprocal-polynomial transform with kernel nu/t^n,
    or its z-derivative of order 1 or 2."""
    result = _quadrature(v, w).memo.get(("Gstar", n, z, order))
    if type(result) is not tuple:    # a miss, or a transform that failed
        result = _converged_transform(v, w, "Gstar", n, z, order)
    return result[0]


def laurent_tail(v: VerblunskyTable, w: WeightSpec, n: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Laurent coefficients of G_n and G*_{n-1} at infinity, by their
    defining integrals over the transforms' nodes t_j and integrand samples.

    Returns (g_coeffs, gstar_coeffs), k = 0 (leading) and 1: g_coeffs[k],
    the coefficient of z^{-(n+1+k)} in G_n, is -(1/N) sum_j Phi_n(t_j) nu(t_j)
    J_j t_j^{k+1}, and gstar_coeffs[k], that of z^{-(n+k)} in G*_{n-1}, is
    -(1/N) sum_j Phi*_{n-1}(t_j) nu(t_j) J_j t_j^k (empty for n = 0).  All
    are converged to RTOL together, by node doubling.
    """
    q = _quadrature(v, w)
    phi_pair(v, n)   # ValueError for a degree outside the table
    powers = {"G": range(n + 1, n + 3), "Gstar": range(n, n + 2) if n >= 1 else range(0)}

    def eval_at(N: int, rows: list) -> list[complex]:
        t = q.circle(N)[0]
        return [complex(-np.mean(q.row(kind, n, N) * t ** m)) for kind, m in rows]

    results = _converged(eval_at, [(kind, m) for kind in powers for m in powers[kind]])
    return tuple(np.array([_value(results[kind, m])[0] for m in powers[kind]])
                 for kind in powers)


def g_recurrence_residuals(v: VerblunskyTable, w: WeightSpec, n: int, z: complex
                           ) -> tuple[float, float]:
    """Residuals of the two one-step recurrences of the second-kind functions.

    r1 = |G_n - G_{n-1} + conj(alpha_{n-1}) G*_{n-1}|
    r2 = |z G*_n - G*_{n-1} + alpha_{n-1} G_{n-1}|
    """
    if n < 1:
        raise ValueError("recurrences need n >= 1")
    a = v.alphas[n - 1]
    Gn = cauchy_G(v, w, n, z)
    Gn1 = cauchy_G(v, w, n - 1, z)
    Gs_n1 = cauchy_Gstar(v, w, n, z)       # G*_{n-1}
    Gs_n = cauchy_Gstar(v, w, n + 1, z)    # G*_n
    r1 = abs(Gn - Gn1 + a.conjugate() * Gs_n1)
    r2 = abs(z * Gs_n - Gs_n1 + a * Gn1)
    return r1, r2
