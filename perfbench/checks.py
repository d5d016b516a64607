"""Output checks: every op that produced output is compared with an oracle the
benchmark computes itself, never with the program's own helpers.

Each checker takes the op, its exit code and the path of its output, and
returns ``(rows, checks, passed, problems)``: output rows, identity checks the
output reports, how many of those passed, and a list of what is wrong with the
output (empty when it is correct).
"""

from __future__ import annotations

import csv
import json
import math

from workloads import MIN_CHECKS, Op, poisson_moments

TWO_PI = 2.0 * math.pi
# Tolerance of the painleve suite's dpii_relation check; the dpii table's
# residual column is judged against it.
DPII_TOL = 1e-7
BESSEL_MOMENT_RTOL = 1e-12
JACOBI_MOMENT_RTOL = 1e-8     # relative to c_0; the quadrature stops at 1e-9
JACOBI_ALPHA_TOL = 1e-6
ZERO_ALPHA_TOL = 1e-10


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _complex_column(rows, re_col: int, im_col: int) -> list[complex]:
    return [complex(float(r[re_col]), float(r[im_col])) for r in rows]


def check_verify(op: Op, rc: int, path: str):
    with open(path) as fh:
        report = json.load(fh)
    checks = report["checks"]
    summary = report["summary"]
    passed = sum(1 for c in checks if c["pass"])
    problems = []
    need = MIN_CHECKS[(op.family, op.degree)]
    if len(checks) < need:
        problems.append(f"{len(checks)} checks, fewer than the {need} at the seed commit")
    if summary != {"total": len(checks), "passed": passed,
                   "failed": len(checks) - passed}:
        problems.append(f"summary {summary} disagrees with the checks")
    if any(c["pass"] != (c["residual"] < c["tolerance"]) for c in checks):
        problems.append("a pass flag disagrees with residual < tolerance")
    if rc != (0 if passed == len(checks) else 1):
        problems.append(f"exit code {rc} for {len(checks) - passed} failed checks")
    if report["meta"]["nmax"] != op.degree:
        problems.append(f"report is for n={report['meta']['nmax']}")
    return len(checks), len(checks), passed, problems


def _bessel_moment(j: int, ell: float) -> float:
    import mpmath  # benchmark-only oracle
    return float(2 * mpmath.pi * mpmath.besseli(abs(j), ell))


def _jacobi_moment(j: int, b: complex) -> complex:
    """c_j = (-1)^j 2 pi Gamma(1+b+conj b) / (Gamma(1+b-j) Gamma(1+conj b+j))."""
    import mpmath  # benchmark-only oracle
    bb = b.conjugate()
    value = 2 * mpmath.pi * mpmath.gamma(1 + b + bb) / (
        mpmath.gamma(1 + b - j) * mpmath.gamma(1 + bb + j))
    return (-1) ** j * complex(value)


def _check_moments(op: Op, rows) -> list[str]:
    js = [int(r[0]) for r in rows]
    got = _complex_column(rows, 1, 2)
    if op.family == "custom":
        # the program echoes the file it read; repr() round-trips exactly
        want = [c for _, c in poisson_moments(*op.params, op.degree + 2)]
        tols = [0.0] * len(want)
    elif op.family == "lebesgue":
        want = [TWO_PI if j == 0 else 0.0 for j in js]
        tols = [1e-13] * len(want)
    elif op.family == "bessel":
        want = [_bessel_moment(j, op.params[0]) for j in js]
        tols = [BESSEL_MOMENT_RTOL * abs(c) for c in want]
    else:
        b = complex(*op.params)
        want = [_jacobi_moment(j, b) for j in js]
        tols = [JACOBI_MOMENT_RTOL * _jacobi_moment(0, b).real] * len(want)
    span = op.degree + 2 if op.family == "custom" else op.degree
    if js != list(range(-span, span + 1)):
        return [f"moment indices {js[0]}..{js[-1]}, expected {-span}..{span}"]
    bad = [j for j, g, e, tol in zip(js, got, want, tols) if not abs(g - e) <= tol]
    return [f"moments wrong at j={bad[:5]}"] if bad else []


def _dpii_residual(alphas: list[float], ell: float, n: int) -> float:
    am1 = alphas[n - 1]
    return abs(alphas[n] + alphas[n - 2] + (2.0 * n / ell) * am1 / (1.0 - am1 * am1))


def _check_bessel_alpha0(alpha0: float, ell: float) -> list[str]:
    import mpmath  # benchmark-only oracle
    want = float(mpmath.besseli(1, ell) / mpmath.besseli(0, ell))
    if abs(alpha0 - want) <= 1e-13:
        return []
    return [f"alpha_0 = {alpha0!r}, oracle I_1/I_0 = {want!r}"]


def _check_verblunsky(op: Op, rows) -> list[str]:
    if [int(r[0]) for r in rows] != list(range(op.degree)):
        return [f"{len(rows)} rows for n={op.degree}"]
    alphas = _complex_column(rows, 1, 2)
    if op.family == "lebesgue":
        worst = max(abs(a) for a in alphas)
        return [] if worst <= ZERO_ALPHA_TOL else [f"lebesgue alphas not zero: {worst:.3g}"]
    if op.family == "custom":
        r, phi = op.params
        a0 = r * complex(math.cos(phi), -math.sin(phi))
        problems = [] if abs(alphas[0] - a0) <= 1e-13 else [f"alpha_0 = {alphas[0]}, oracle {a0}"]
        worst = max((abs(a) for a in alphas[1:]), default=0.0)
        if not worst <= ZERO_ALPHA_TOL:
            problems.append(f"Poisson-kernel alphas beyond alpha_0 reach {worst:.3g}")
        return problems
    if op.family == "bessel":
        ell = op.params[0]
        problems = _check_bessel_alpha0(alphas[0].real, ell)
        if any(a.imag != 0.0 for a in alphas):
            problems.append("bessel alphas are not real")
        real = [a.real for a in alphas]
        worst = max((_dpii_residual(real, ell, n) for n in range(2, len(real))), default=0.0)
        if not worst <= DPII_TOL:
            problems.append(f"bessel alphas miss the dPII relation by {worst:.3g}")
        return problems
    b = complex(*op.params)
    bb = b.conjugate()
    # closed-form ratio alpha_n = (b+n)/(conj b+n+1) alpha_{n-1}, alpha_0 = -b/(conj b+1)
    worst = abs(alphas[0] + b / (bb + 1.0))
    for n in range(1, len(alphas)):
        worst = max(worst, abs(alphas[n] - (b + n) / (bb + n + 1.0) * alphas[n - 1]))
    return [] if worst <= JACOBI_ALPHA_TOL else [f"jacobi alphas miss the ratio by {worst:.3g}"]


def _check_dpii(op: Op, rows) -> tuple[int, int, list[str]]:
    ell = op.params[0]
    if [int(r[0]) for r in rows] != list(range(op.degree + 1)):
        return 0, 0, [f"{len(rows)} rows for n={op.degree}"]
    alphas = [float(r[1]) for r in rows]
    reported = [float(r[2]) for r in rows]
    problems = _check_bessel_alpha0(alphas[0], ell)
    for n in range(2, len(alphas)):
        want = _dpii_residual(alphas, ell, n)
        if not abs(reported[n] - want) <= 1e-12 * max(1.0, want) + 1e-15:
            problems.append(f"residual column wrong at n={n}")
            break
    checks = len(alphas) - 2
    passed = sum(1 for n in range(2, len(alphas)) if reported[n] < DPII_TOL)
    return checks, passed, problems


def check_table(op: Op, rc: int, path: str):
    rows = _read_csv(path)
    header, rows = rows[0], rows[1:]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    checks = passed = 0
    if op.command == "moments":
        problems += _check_moments(op, rows) if header == ["j", "re", "im"] else ["bad header"]
    elif op.command == "verblunsky":
        problems += _check_verblunsky(op, rows)
    else:
        checks, passed, found = _check_dpii(op, rows)
        problems += found
    return len(rows), checks, passed, problems


def check_output(op: Op, rc: int, path: str):
    if op.command == "verify":
        return check_verify(op, rc, path)
    return check_table(op, rc, path)
