"""Second-kind (associated) functions by contour quadrature.

G_n is the Cauchy transform of Phi_n nu / t^n over the unit circle, and
G*_{n-1} the analogue for the reciprocal polynomial.  All integrals use
the circle rule of ``weights.circle_rule`` with node doubling until two
levels agree to the one tolerance RTOL, relative to max(1, |value|): the
periodic midpoint rule, graded towards theta = 0 for a weight singular at
z = 1, with the Jacobian folded into the weight values (for the first
level's check, see _converged).  Near the circle a singularity subtraction
keeps the rule spectrally accurate.  ``cauchy_G`` and ``cauchy_Gstar``
take the z-derivative order k = 0, 1 or 2; the memo key and every call
below them carry the same k, and the kernel is
k! t / (t - z)^(k+1).  A value is admitted anywhere off the circle, but a
derivative, which gets no subtraction, not within 0.02.

The Laurent coefficients at infinity are integrals too: for |z| > 1,
1/(t - z) = -sum_m t^m / z^{m+1}, so the coefficient of z^{-(m+1)} in the
transform of g is -(1/2 pi i) * contour integral of g(t) t^m dt.  They are
summed on the same nodes and integrand samples as the transforms, with no
sampling of the transform itself.

The integrand samples are computed once per table and weight: the nodes
and weight values of each level, and one integrand matrix per level for
both kinds, interleaved by degree d: row 2d holds Phi_d(t) nu(t) / t^d,
the samples of G_d, and row 2d + 1 holds Phi*_d(t) nu(t) / t^(d+1), those
of G*_d, the key ("Gstar", d + 1).  One Horner pass builds both kinds.
G_n and G*_{n-1} are read together, so the first request at a point and
order converges both kinds in one array pass per level, with the kernel
built once per level: off the subtraction band the keys n = 1..nmax - 1
of both, the ones ``verify`` reads and the contiguous rows 1..2 nmax - 2;
inside it, or for any other n, G_n and G*_{n-1} of that n.
``converge_band`` converges those two at several points of the band in
one pass, as the jump check asks for its four.  Each row leaves the pass
at its own first convergence, so its value, nodes and residual are those
of a transform converged alone.  Every result is memoized, an
AccuracyError too, which is raised again on each request, so no transform
is converged twice.  ``cauchy_G`` and ``cauchy_Gstar`` read the memo first;
only a miss checks the arguments, as an entry exists only for arguments
that passed.  The state lives in ``VerblunskyTable.quadrature``, whose one
memo the ``per_table`` decorator opens to the quantities built on the
transforms, each under its own tag.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from .errors import AccuracyError, NearBoundaryError
from .szego import VerblunskyTable, _horner, phi_pair
from .weights import WeightSpec, circle_rule, eval_nu

N0 = 512                    # the first level whose value may be returned
NMAX = 1 << 17
RTOL = 1e-12                # doubling stops at this change, relative to max(1, |value|)
NEAR_BOUNDARY = 0.02        # band around |z| = 1 where derivatives are refused
SUBTRACT_BAND = (0.8, 1.25)  # |z| range where a value is computed by subtraction


def _index(kind: str, n: int) -> int:
    """The row of the key (kind, n) in the integrand matrix, which
    interleaves the kinds by degree d: row 2d is G_d and row 2d + 1 is
    G*_d, the key ("Gstar", d + 1)."""
    return 2 * n - (kind == "Gstar")


def _rows_per_pass(N: int) -> int:
    """The most rows a pass at N nodes takes at a time, so that no block of
    the integrand matrix holds more than NMAX samples."""
    return max(1, NMAX // N)


def _in_band(z: complex) -> bool:
    """Whether a value at z is computed by subtraction."""
    return SUBTRACT_BAND[0] < abs(z) < SUBTRACT_BAND[1]


class _Quadrature:
    """Quadrature data of one table and weight, and the table's one memo.

    ``integrands`` holds the integrand matrix at N nodes in blocks of
    ``_rows_per_pass(N)`` rows by (N, block), within NMAX samples, one pass
    at the finest level; it drops the least recently used blocks to stay
    within it.  ``swept`` lists the keys a column pass converges, rows
    1..2 nmax - 2 of the matrix.  ``memo`` holds each transform's (value,
    nodes, residual), or the AccuracyError of one that never converged, by
    (kind, n, z, order) with the derivative order 0-2, and the values of
    the ``per_table`` functions by (tag, *arguments).
    """

    def __init__(self, w: WeightSpec, v: VerblunskyTable):
        self.w = w
        self.coefficients = {"G": v.phi, "Gstar": v.phistar}
        self.nrows = 2 * len(v.phi)
        self.swept = [(kind, n) for n in range(1, v.nmax) for kind in ("Gstar", "G")]
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

    def own(self, n: int) -> list[tuple[str, int]]:
        """The keys (Gstar, n) and (G, n) the table holds, in row order."""
        return [(kind, n) for kind in ("Gstar", "G") if 0 <= _index(kind, n) < self.nrows]

    def block(self, b: int, N: int) -> np.ndarray:
        """Block b of the integrand matrix at N nodes, its rows
        b _rows_per_pass(N) onwards: the samples p(t) nu(t) J / t^n of
        each key (kind, n)."""
        m = self.integrands.pop((N, b), None)
        if m is None:
            t, nu, _ = self.circle(N)
            lo = b * _rows_per_pass(N)
            hi = min(lo + _rows_per_pass(N), self.nrows)
            phi, phistar = self.coefficients["G"], self.coefficients["Gstar"]
            degrees = slice(lo // 2, (hi + 1) // 2)
            c = np.stack((phi[degrees], phistar[degrees]), axis=1).reshape(-1, phi.shape[1])
            c = c[lo % 2:lo % 2 + hi - lo]
            m = np.empty((hi - lo, N), dtype=complex)
            zero = t * 0
            # polyval on every row at once, step for step: rows 2d and 2d + 1,
            # of degree d, start at their leading coefficients at step k = d
            # and take one Horner step per lower one
            for k in range((hi - 1) // 2, -1, -1):
                i, j = max(2 * k - lo, 0), max(2 * k + 2 - lo, 0)
                m[i:j] = c[i:j, k:k + 1] + zero
                m[j:] *= t
                m[j:] += c[j:, k:k + 1]
            m *= nu
            # each t^n once, for rows 2n - 1 and 2n; a Python int power, as an
            # integer-array power rounds differently
            for n in range((lo + 1) // 2, hi // 2 + 1):
                m[max(2 * n - 1 - lo, 0):2 * n + 1 - lo] /= t ** n
            self.samples += m.size
            while self.samples > NMAX and self.integrands:
                self.samples -= self.integrands.pop(next(iter(self.integrands))).size
        self.integrands[N, b] = m
        return m

    def row(self, kind: str, n: int, N: int) -> np.ndarray:
        """The integrand samples of the key (kind, n) at N nodes."""
        r, rows = _index(kind, n), _rows_per_pass(N)
        return self.block(r // rows, N)[r % rows]


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


def _converged(eval_at, rows: list, w: WeightSpec) -> dict:
    """Double nodes until each row's value agrees to RTOL with its estimate.
    The first value that may be returned, at N0 nodes, is checked against the
    value at N0 / 2, a level evaluated only for this, or, for a weight without
    mirror symmetry, against the sum over its even nodes, the N0 / 2-point
    rule shifted by a quarter step (node N - 1 - k mirrors node k, so the even
    nodes of a mirror-symmetric integrand sum to the value itself).  Each
    later level is checked against the one before.  eval_at(N, rows, steps)
    gives, for each step k, the listed rows' sums over every k-th of N nodes,
    divided by N / k; a row leaves the pass at its first convergence.
    Returns, by row, (value, nodes, residual), or the AccuracyError of a row
    that never converged."""
    N = N0
    if w.mirror_symmetric():
        (prev,) = eval_at(N // 2, rows, (1,))
        (values,) = eval_at(N, rows, (1,))
    else:
        values, prev = eval_at(N, rows, (1, 2))
    out = {}
    while True:
        pending = []
        for row, cur, before in zip(rows, values, prev):
            resid = abs(cur - before)
            if resid <= RTOL * max(1.0, abs(cur)):
                out[row] = cur, N, resid
            else:
                pending.append((row, cur, resid))
        if not pending or N >= NMAX:
            break
        N *= 2
        rows, prev = [p[0] for p in pending], [p[1] for p in pending]
        (values,) = eval_at(N, rows, (1,))
    for row, _, resid in pending:
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


def _transform(q: _Quadrature, rows: list[tuple[str, int, complex]], order: int,
               subtract: bool) -> dict:
    """The z-derivative of the given order 0-2 of (1/2 pi i) * contour
    integral of p(t) nu(t) / (t^n (t-z)) dt for each row (kind, n, z) in
    rows, converged together by _converged.

    Without subtraction the rows share one z and come in row order; a level
    multiplies the kernel order! t / (t - z)^(order+1), built once, by the
    slice of each block from the first pending row to the last.  With
    subtract=True (order 0 only) each integrand is regularized by removing
    g(z) J, restoring spectral accuracy next to the circle; the rows, at
    any points, are stacked, and (g - g(z) J) t / (t - z) is one
    elementwise pass over the stack.
    """
    if subtract:
        nu_z = {z: eval_nu(q.w, z) for _, _, z in rows}
        gz = {}
        for row in rows:
            kind, n, z = row
            d = n - (kind == "Gstar")
            gz[row] = _horner(q.coefficients[kind][d, :d + 1].tolist(), z) * nu_z[z] / z ** n

        def eval_at(N: int, rows: list, steps: tuple) -> list[list[complex]]:
            t, _, jac = q.circle(N)
            g = np.array([gz[row] for row in rows])[:, None]
            z = np.array([row[2] for row in rows])[:, None]
            integrand = {key: q.row(*key, N) for key in dict.fromkeys(row[:2] for row in rows)}
            stack = np.stack([integrand[row[:2]] for row in rows])
            # each row rounds as it would alone: the operands keep their
            # order, as a complex product rounds differently when swapped
            prod = (stack - g * jac) * t / (t - z)
            # inside the circle the removed g(z) J integrates to g(z)
            return [[s + gz[row] if abs(row[2]) < 1.0 else s
                     for s, row in zip((prod[:, ::k].sum(axis=1) / (N // k)).tolist(), rows)]
                    for k in steps]

        return _converged(eval_at, rows, q.w)

    z = rows[0][2]
    scale = 2.0 if order == 2 else 1.0

    def eval_at(N: int, rows: list, steps: tuple) -> list[list[complex]]:
        t = q.circle(N)[0]
        kernel = t / (t - z) ** (order + 1) if order else t / (t - z)
        per_pass = _rows_per_pass(N)
        lo, hi = _index(*rows[0][:2]), _index(*rows[-1][:2]) + 1
        sums = [[] for _ in steps]
        for b in range(lo // per_pass, (hi - 1) // per_pass + 1):
            m = q.block(b, N)[max(lo - b * per_pass, 0):hi - b * per_pass]
            prod = m * kernel
            for k, values in zip(steps, sums):
                values += (scale * prod[:, ::k].sum(axis=1) / (N // k)).tolist()
        if len(sums[0]) > len(rows):     # some rows converged at a coarser level
            keep = [_index(kind, n) - lo for kind, n, _ in rows]
            sums = [[values[i] for i in keep] for values in sums]
        return sums

    return _converged(eval_at, rows, q.w)


def _quadrature(v: VerblunskyTable, w: WeightSpec) -> _Quadrature:
    """The quadrature state of table v and weight w, created on first use."""
    q = v.quadrature.get(w)
    if q is None:
        q = v.quadrature[w] = _Quadrature(w, v)
    return q


def per_table(tag: str):
    """Decorator: f(v, w, *args) computed once per table v, weight w and
    arguments, and kept in the table's memo under (tag, *args), where args
    holds every argument after w, one passed by name or left at its default
    too.  The memo is read before f runs, so before its argument checks; a
    call that raises stores nothing, so the memo holds only arguments that
    passed them."""
    def decorate(f):
        signature = inspect.signature(f)
        defaults = f.__defaults__ or ()
        positional = len(signature.parameters) - 2
        required = positional - len(defaults)

        @functools.wraps(f)
        def memoized(v, w, *args, **kwargs):
            if kwargs:
                bound = signature.bind(v, w, *args, **kwargs)
                bound.apply_defaults()
                args = bound.args[2:]
            elif required <= len(args) < positional:
                args += defaults[len(args) - required:]
            key = (tag,) + args
            memo = _quadrature(v, w).memo
            value = memo.get(key)
            if value is None:
                value = memo[key] = f(v, w, *args)
            return value

        return memoized

    return decorate


def _converge(q: _Quadrature, keys: list, zs, order: int, subtract: bool) -> None:
    """Converge, in one pass, each key (kind, n) of keys at each point of zs
    that the memo does not hold at the order, and memoize every result, a
    failure too, so that no transform is converged twice."""
    rows = [(kind, n, z) for z in zs for kind, n in keys if (kind, n, z, order) not in q.memo]
    if rows:
        for (kind, n, z), result in _transform(q, rows, order, subtract).items():
            q.memo[kind, n, z, order] = result


def _converged_transform(v: VerblunskyTable, w: WeightSpec, kind: str, n: int,
                         z: complex, order: int):
    """(value, nodes, residual) of a transform on a memo miss, after the
    argument checks; a memoized AccuracyError is raised.

    A miss converges, in one pass, every row of both kinds at (z, order)
    not yet memoized: off the subtraction band the swept degrees
    1..nmax - 1 of G and G*, which are the ones ``verify`` reads; inside
    it, and for a degree outside that sweep, (G, n) and (G*, n) where they
    exist.
    """
    if kind == "Gstar" and n < 1:
        raise ValueError("G*_{n-1} needs n >= 1")
    _check_offcircle(z, order)
    z = complex(z)
    q = _quadrature(v, w)
    phi_pair(v, n - (kind == "Gstar"))   # ValueError for a degree outside the table
    key = (kind, n, z, order)
    if key not in q.memo:
        subtract = order == 0 and _in_band(z)
        keys = q.swept if 0 < n < v.nmax and not subtract else q.own(n)
        _converge(q, keys, (z,), order, subtract)
    return _value(q.memo[key])


def converge_band(v: VerblunskyTable, w: WeightSpec, n: int, zs: list[complex]) -> None:
    """Converge the values G_n and G*_{n-1} at every point of zs, each in
    the subtraction band, in one pass, and memoize each, a failure too, as
    if it had converged alone; ``cauchy_G`` and ``cauchy_Gstar`` then read
    them.  The jump check asks for its four points this way."""
    for z in zs:
        _check_offcircle(z, 0)
        if not _in_band(z):
            raise ValueError(f"|z| = {abs(z):.6f} is outside the subtraction band")
    q = _quadrature(v, w)
    _converge(q, q.own(n), [complex(z) for z in zs], 0, True)


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

    def eval_at(N: int, rows: list, steps: tuple) -> list[list[complex]]:
        t = q.circle(N)[0]
        prods = [q.row(kind, n, N) * t ** m for kind, m in rows]
        return [[complex(-np.mean(p[::k])) for p in prods] for k in steps]

    results = _converged(eval_at, [(kind, m) for kind in powers for m in powers[kind]], w)
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
