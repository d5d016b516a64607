"""Command-line front end: tables to CSV and verification suites to JSON.

The suites and their checks live in ``opuc.verify``; this module parses
the flags, runs the suites and writes the canonical report, so two runs
with the same flags produce byte-identical output.

Exit codes: 0 all checks pass, 1 verification failures, 2 usage errors,
3 numerical degeneracy, accuracy failures or unsupported parameter ranges.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .errors import AccuracyError, DegenerateMeasureError, OpucError
from .moments import moments_for
from .painleve import dpii_residual
from .szego import MAX_DEGREE, verblunsky_from_moments
from .verify import VERIFY_MIN_N, Suite, meta, run
from .weights import WeightSpec


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
    if args.moments is None:    # custom, the last of the --weight choices
        parser.error("--weight custom requires --moments <file.csv>")
    from .moments import MomentTable
    return WeightSpec.custom(MomentTable.from_csv(args.moments))


def _check_degree(n: int, degree: int, parser) -> None:
    """Refuse --n n, whose table has the given degree, above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        parser.error(f"--n {n} needs a table of degree {degree}, above the "
                     f"bound of {MAX_DEGREE} (opuc.szego.MAX_DEGREE)")


def _moments(w: WeightSpec, jmax: int, parser):
    """moments_for, with a custom table that falls short as a usage error."""
    if w.factors is None and not w.moments.covers(jmax):      # a custom weight
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


# the suites, one function each, so that a trace can time each suite


def _suite_rh(suite: Suite, v, w: WeightSpec, nmax: int) -> None:
    run(suite, "rh", v, w, nmax)


def _suite_structure(suite: Suite, v, w: WeightSpec, nmax: int) -> None:
    run(suite, "structure", v, w, nmax)


def _suite_painleve(suite: Suite, v, w: WeightSpec, nmax: int) -> None:
    run(suite, "painleve", v, w, nmax)


def _open_output(path: str, flag: str, parser, **kwargs):
    """path opened for writing, with one that cannot be as a usage error."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:      # a missing directory, a directory, no permission
        parser.error(f"cannot write {flag}: {exc}")


def _check_report(path: str, parser) -> None:
    """Refuse before any work a --report path that _open_output would refuse after it:
    a directory, one in a missing directory, or one that cannot be written.
    Nothing is opened, so a run that fails later leaves an existing file as it was."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    parser.error(f"cannot write --report: {OSError(code, os.strerror(code), path)}")


def _write_csv(rows: list[list], path: str | None, parser) -> None:
    """Write rows as CSV to path, or to stdout when path is None."""
    if path:
        with _open_output(path, "--out", parser, newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def cmd_moments(args, parser) -> int:
    w = _weight_from_args(args, parser)
    _write_csv(_moments(w, args.jmax, parser).csv_rows(), args.out, parser)
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
    _write_csv(rows, args.out, parser)
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
    _write_csv(rows, args.out, parser)
    return 0


def cmd_verify(args, parser) -> int:
    w = _weight_from_args(args, parser)
    if args.n < VERIFY_MIN_N:
        parser.error(f"verify needs --n >= {VERIFY_MIN_N}")
    nmax = args.n
    _check_degree(nmax, nmax + 2, parser)
    if args.report:
        _check_report(args.report, parser)
    v = verblunsky_from_moments(_moments(w, nmax + 2, parser), nmax + 2)
    if args.perturb:
        v = _apply_perturb(v, args.perturb, parser)
    suite = Suite(meta(w, nmax, args.suite), w.kind)
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
    report = suite.report()
    payload = _report_json(report) + "\n"
    if args.report:
        with _open_output(args.report, "--report", parser) as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 1 if report["summary"]["failed"] else 0


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
