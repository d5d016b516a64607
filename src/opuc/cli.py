"""Command-line front end: tables to CSV and verification suites to JSON.

Every suite runs over a fixed deterministic grid and emits a canonical
report (checks sorted by name, degree, then point), so two runs with the
same flags produce byte-identical output.

Exit codes: 0 all checks pass, 1 verification failures, 2 usage errors,
3 numerical degeneracy, accuracy failures or unsupported parameter ranges.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .cauchy import RTOL, cauchy_G, cauchy_Gstar, laurent_tail
from .errors import AccuracyError, DegenerateMeasureError, OpucError
from .moments import moments_for
from .painleve import dpii_residual
from .rh import (
    assemble_Y,
    transfer_recurrence_residuals,
    jump_residual,
    structure_matrix_numeric,
    transfer_residual,
)
from .structure import (
    CLOSED_FORMS,
    curvature_residual_closed,
    curvature_residual_generic,
    first_order_residuals,
    generic_second_order_residual,
    mtilde,
    pole_clearing_factor,
    second_curvature_residual,
    second_order_residuals,
    structure_relation_residuals,
    traceback_residual,
)
from .szego import MAX_DEGREE, verblunsky_from_moments
from .weights import WeightSpec

INNER_R = 0.4
OUTER_R = 2.5
SINGULARITY_CLEARANCE = 0.05
VERIFY_MIN_N = 2            # the Laurent-tail checks start at degree 2

# The tolerance of every check, by check name; jump_condition's depends on
# the weight family.  tests/test_cli.py pins each value to the one the
# acceptance gate (tests/test_acceptance.py) uses for the same identity.
TOLERANCES = {
    "det_unimodular": 1e-8,
    "transfer_relation": 1e-8,
    "recurrence_phi": 1e-8,
    "recurrence_phistar": 1e-8,
    "recurrence_g": 1e-8,
    "recurrence_gstar": 1e-8,
    "value_g_origin": 1e-9,
    "value_gstar_origin": 1e-9,
    "jump_condition": {"lebesgue": 1e-6, "bessel": 1e-6, "jacobi": 1e-5},
    "tail_g_leading": 1e-6,
    "tail_g_subleading": 1e-6,
    "tail_gstar_leading": 1e-6,
    "tail_gstar_subleading": 1e-6,
    "closed_structure_matrix": 1e-6,
    "curvature_closed": 1e-9,
    "curvature_generic": 1e-7,
    "curvature_second": 1e-6,
    "second_order_generic": 1e-5,
    "first_order_traceback": 1e-5,
    "structure_relation_three_term": 1e-9,
    "structure_relation_weighted": 1e-9,
    "first_order_phi": 1e-9,
    "first_order_phistar": 1e-9,
    "first_order_g": 1e-7,
    "first_order_gstar": 1e-7,
    "second_order_phi": 1e-9,
    "second_order_phistar": 1e-9,
    "second_order_g": 1e-6,
    "second_order_gstar": 1e-6,
    "dpii_relation": 1e-7,
}


def standard_grid(w: WeightSpec) -> list[complex]:
    """Sixteen points on two circles, avoiding weight singularities."""
    pts = []
    for r in (INNER_R, OUTER_R):
        for k in range(8):
            z = r * complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4))
            if all(abs(z - s) >= SINGULARITY_CLEARANCE for s in w.singular_points()):
                pts.append(z)
    return pts


def circle_grid() -> list[complex]:
    """Eight circle points for the jump check, off the positive real axis."""
    return [complex(math.cos(t), math.sin(t))
            for t in ((k + 0.5) * math.pi / 4 for k in range(8))]


@lru_cache(maxsize=64)     # the suites name the same few grid points again and again
def _fmt_z(z: complex | None) -> str | None:
    if z is None:
        return None
    return f"{z.real:.12g}{z.imag:+.12g}j"


class Suite:
    """Accumulates checks and renders the canonical JSON report."""

    def __init__(self, meta: dict, family: str):
        self.meta = meta
        self.family = family
        self.checks: list[dict] = []

    def add(self, name: str, n: int, residual: float, z: complex | None = None) -> None:
        tolerance = TOLERANCES[name]
        if isinstance(tolerance, dict):
            tolerance = tolerance[self.family]
        self.checks.append({
            "name": name,
            "n": n,
            "z": _fmt_z(z),
            "residual": float(residual),
            "tolerance": float(tolerance),
            "pass": bool(residual < tolerance),
        })

    def report(self) -> dict:
        checks = sorted(self.checks,
                        key=lambda c: (c["name"], c["n"], c["z"] or ""))
        passed = sum(1 for c in checks if c["pass"])
        return {
            "meta": self.meta,
            "checks": checks,
            "summary": {
                "total": len(checks),
                "passed": passed,
                "failed": len(checks) - passed,
            },
        }

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)


def _json_float(x: float) -> str:
    """x as json.dumps writes a float."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _check_json(c: dict) -> str:
    """One check as json.dumps(report, sort_keys=True, indent=2) lays it out
    in the report's "checks" list, its fields the keys Suite.add writes,
    sorted.  With indent set, json.dumps falls back to its pure-Python
    encoder, so the checks, nearly all of a report, are rendered here."""
    z = c["z"]
    return f"""\
    {{
      "n": {int.__repr__(c["n"])},
      "name": {encode_basestring_ascii(c["name"])},
      "pass": {"true" if c["pass"] else "false"},
      "residual": {_json_float(c["residual"])},
      "tolerance": {_json_float(c["tolerance"])},
      "z": {"null" if z is None else encode_basestring_ascii(z)}
    }}"""


def _report_json(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2), with the checks
    rendered by _check_json and only meta and summary through json."""
    tail = json.dumps({"meta": report["meta"], "summary": report["summary"]},
                      sort_keys=True, indent=2)
    checks = ",\n".join(map(_check_json, report["checks"]))
    checks = f"[\n{checks}\n  ]" if checks else "[]"
    return f'{{\n  "checks": {checks},\n{tail[2:]}'


def _weight_from_args(args, parser) -> WeightSpec:
    try:
        return _weight(args, parser)
    except ValueError as exc:   # a parameter the weight family rejects
        parser.error(str(exc))
    except OSError as exc:      # an unreadable --moments file
        parser.error(f"cannot read --moments: {exc}")


# the weight flags, by argparse dest, and the family that reads each
_WEIGHT_FLAGS = {"ell": ("--ell", "bessel"), "lam": ("--lambda", "jacobi"),
                 "eta": ("--eta", "jacobi"), "moments": ("--moments", "custom")}


def _weight(args, parser) -> WeightSpec:
    kind = args.weight
    foreign = [flag for dest, (flag, family) in _WEIGHT_FLAGS.items()
               if family != kind and getattr(args, dest) is not None]
    if foreign:
        parser.error(f"--weight {kind} does not read {', '.join(foreign)}")
    if kind == "lebesgue":
        return WeightSpec.lebesgue()
    if kind == "bessel":
        if args.ell is None:
            parser.error("--weight bessel requires --ell")
        return WeightSpec.bessel(args.ell)
    if kind == "jacobi":
        if args.lam is None:
            parser.error("--weight jacobi requires --lambda")
        return WeightSpec.jacobi(complex(args.lam, args.eta or 0.0))
    if kind == "custom":
        if args.moments is None:
            parser.error("--weight custom requires --moments <file.csv>")
        from .moments import MomentTable
        return WeightSpec.custom(MomentTable.from_csv(args.moments))
    parser.error(f"unknown weight {kind!r}")


def _check_degree(n: int, degree: int, parser) -> None:
    """Refuse --n n, whose table has the given degree, above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        parser.error(f"--n {n} needs a table of degree {degree}, above the "
                     f"bound of {MAX_DEGREE} (opuc.szego.MAX_DEGREE)")


def _moments(w: WeightSpec, jmax: int, parser):
    """moments_for, with a custom table that falls short as a usage error."""
    if w.kind == "custom" and not w.moments.covers(jmax):
        parser.error(f"the --moments table must cover |j| <= {jmax}")
    return moments_for(w, jmax)


def _apply_perturb(v, spec: str, parser):
    try:
        idx, eps = spec.split(":")
        idx, eps = int(idx), float(eps)
        if idx < 0 or not math.isfinite(eps):
            raise ValueError(spec)
        return v.perturbed(idx, eps)
    except (ValueError, IndexError):
        parser.error(f"--perturb expects n:eps with n in 0..{v.nmax - 1} and eps finite, "
                     "e.g. 5:1e-3")


# ---------------------------------------------------------------------------
# suites


def _suite_rh(suite: Suite, v, w: WeightSpec, nmax: int) -> None:
    grid = standard_grid(w)
    for n in range(1, nmax + 1):
        for z in grid:
            Y = assemble_Y(v, w, n, z)
            suite.add("det_unimodular", n, abs(Y.det() - 1.0), z)
        z = grid[1]
        suite.add("transfer_relation", n, transfer_residual(v, w, n, z), z)
        r1, r2, r3, r4 = transfer_recurrence_residuals(v, w, n, z)
        suite.add("recurrence_phi", n, r1, z)
        suite.add("recurrence_phistar", n, r2, z)
        suite.add("recurrence_g", n, r3, z)
        suite.add("recurrence_gstar", n, r4, z)
        suite.add("value_g_origin", n,
                  abs(cauchy_G(v, w, n, 0.0) - 1.0 / v.b[n]))
        suite.add("value_gstar_origin", n,
                  abs(cauchy_Gstar(v, w, n, 0.0) - v.alphas[n - 1] / v.b[n - 1]))
    for t in circle_grid():
        suite.add("jump_condition", nmax, jump_residual(v, w, nmax, t), t)
    for n in dict.fromkeys((2, nmax)):
        g, gs = laurent_tail(v, w, n)
        lead = -v.alpha(n).conjugate() / v.b[n]
        sub = (v.alpha(n).conjugate() / v.b[n] * v.phi1[n + 1]
               - v.alpha(n + 1).conjugate() / v.b[n + 1])
        suite.add("tail_g_leading", n, abs(g[0] - lead))
        suite.add("tail_g_subleading", n, abs(g[1] - sub))
        suite.add("tail_gstar_leading", n, abs(gs[0] + 1.0 / v.b[n - 1]))
        suite.add("tail_gstar_subleading", n, abs(gs[1] - v.phi1[n] / v.b[n - 1]))


def _suite_structure(suite: Suite, v, w: WeightSpec, nmax: int) -> None:
    grid = standard_grid(w)
    zs = [grid[1], grid[len(grid) // 2 + 1]]
    for n in range(2, nmax + 1):
        for z in zs:
            suite.add("curvature_generic", n,
                      curvature_residual_generic(v, w, n, z), z)
            suite.add("curvature_second", n,
                      second_curvature_residual(v, w, n, z), z)
        z = zs[1]
        suite.add("second_order_generic", n,
                  generic_second_order_residual(v, w, n, z), z)
        suite.add("first_order_traceback", n, traceback_residual(v, w, n, z), z)
        if w.kind not in CLOSED_FORMS:
            continue
        for z in zs:
            Mnum = structure_matrix_numeric(v, w, n, z)
            diff = mtilde(v, w, n, z) - Mnum.scale(pole_clearing_factor(w, z))
            suite.add("closed_structure_matrix", n, diff.frobenius(), z)
            suite.add("curvature_closed", n, curvature_residual_closed(v, w, n, z), z)
        for name, r in zip(("structure_relation_three_term", "structure_relation_weighted"),
                           structure_relation_residuals(v, w, n)):
            suite.add(name, n, r)
        for tag, residuals, z in (("first_order", first_order_residuals, zs[0]),
                                  ("second_order", second_order_residuals, zs[1])):
            r_phi, r_g, r_phistar, r_gstar = residuals(v, w, n, z)
            suite.add(f"{tag}_phi", n, r_phi)
            suite.add(f"{tag}_g", n, r_g, z)
            suite.add(f"{tag}_phistar", n, r_phistar)
            suite.add(f"{tag}_gstar", n, r_gstar, z)


def _suite_painleve(suite: Suite, v, w: WeightSpec, nmax: int) -> None:
    if w.kind != "bessel" or w.ell <= 0:
        return
    alphas = [a.real for a in v.alphas]
    for n in range(2, nmax + 1):
        suite.add("dpii_relation", n, dpii_residual(alphas, w.ell, n))


def _write_csv(rows: list[list], path: str | None) -> None:
    """Write rows as CSV to path, or to stdout when path is None."""
    if path:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def cmd_moments(args, parser) -> int:
    w = _weight_from_args(args, parser)
    _write_csv(_moments(w, args.jmax, parser).csv_rows(), args.out)
    return 0


def cmd_verblunsky(args, parser) -> int:
    w = _weight_from_args(args, parser)
    _check_degree(args.n, args.n, parser)
    v = verblunsky_from_moments(_moments(w, args.n, parser), args.n)
    rows = [["n", "re_alpha", "im_alpha", "kappa2", "b", "re_phi1", "im_phi1"]]
    for n in range(args.n):
        a = v.alphas[n]
        p = v.phi1[n]
        rows.append([n, repr(a.real), repr(a.imag), repr(v.kappa2[n]),
                     repr(v.b[n]), repr(p.real), repr(p.imag)])
    _write_csv(rows, args.out)
    return 0


def cmd_dpii(args, parser) -> int:
    if args.ell is None or not (math.isfinite(args.ell) and args.ell > 0):
        parser.error("dpii requires a finite --ell > 0")
    w = WeightSpec.bessel(args.ell)
    _check_degree(args.n, args.n + 1, parser)
    v = verblunsky_from_moments(moments_for(w, args.n + 1), args.n + 1)
    alphas = [a.real for a in v.alphas]
    rows = [["n", "alpha", "residual"]]
    for n in range(args.n + 1):
        resid = dpii_residual(alphas, args.ell, n) if n >= 2 else 0.0
        rows.append([n, repr(alphas[n]), repr(resid)])
    _write_csv(rows, args.out)
    return 0


def cmd_verify(args, parser) -> int:
    w = _weight_from_args(args, parser)
    if args.n < VERIFY_MIN_N:
        parser.error(f"verify needs --n >= {VERIFY_MIN_N}")
    nmax = args.n
    _check_degree(nmax, nmax + 2, parser)
    v = verblunsky_from_moments(_moments(w, nmax + 2, parser), nmax + 2)
    if args.perturb:
        v = _apply_perturb(v, args.perturb, parser)
    meta = {
        "weight": w.label(),
        "nmax": nmax,
        "grid": f"radii [{INNER_R}, {OUTER_R}], 8 angles each",
        "rtol": RTOL,
        "suite": args.suite,
        "version": __version__,
    }
    suite = Suite(meta, w.kind)
    try:
        if args.suite in ("rh", "all"):
            _suite_rh(suite, v, w, nmax)
        if args.suite in ("structure", "all"):
            _suite_structure(suite, v, w, nmax)
        if args.suite in ("painleve", "all"):
            _suite_painleve(suite, v, w, nmax)
    except OverflowError as exc:    # weight values near the float limit
        raise OverflowError(f"verify {args.suite} at weight {w.label()}, n = {nmax}: "
                            f"a value overflowed the float range: {exc}") from exc
    payload = _report_json(suite.report()) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if suite.all_pass else 1


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opuc",
        description="Orthogonal polynomials on the unit circle: tables and "
                    "verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight_flags(p):
        p.add_argument("--weight", default="lebesgue",
                       choices=["lebesgue", "bessel", "jacobi", "custom"])
        p.add_argument("--ell", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--moments", default=None,
                       help="CSV moment table for --weight custom")

    p = sub.add_parser("moments", help="write trigonometric moments as CSV")
    add_weight_flags(p)
    p.add_argument("--jmax", type=_nonnegative_int, default=24)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verblunsky", help="write recurrence coefficients as CSV")
    add_weight_flags(p)
    p.add_argument("--n", type=_nonnegative_int, default=24)
    p.add_argument("--out", default=None)

    p = sub.add_parser("dpii", help="discrete Painleve II orbit and residuals")
    p.add_argument("--ell", type=float, default=None)
    p.add_argument("--n", type=_nonnegative_int, default=12)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["rh", "structure", "painleve", "all"])
    add_weight_flags(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--report", default=None)
    p.add_argument("--perturb", default=None, metavar="N:EPS",
                   help="shift alpha_N by EPS before verifying")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "moments": cmd_moments,
        "verblunsky": cmd_verblunsky,
        "dpii": cmd_dpii,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args, parser)
    except (DegenerateMeasureError, AccuracyError, ZeroDivisionError,
            OverflowError) as exc:
        print(f"opuc: numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except OpucError as exc:
        print(f"opuc: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
