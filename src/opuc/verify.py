"""The verification suites: one table of checks per suite, and one loop.

Each check is declared once, in a ``Check`` of ``SUITES``: its names with
their tolerances, its degrees and points, the weights it applies to, and one
residual function ``f(v, w, n, z)`` that returns one residual per name.  The
residual functions look the library functions up at call time, so a wrapper
set on a module attribute (a trace, a test's monkeypatch) sees every call.
``run`` returns one suite's checks, and ``report`` makes the canonical
report of them: checks sorted by name, degree, then point.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from . import __version__, painleve, rh, structure
from .cauchy import RTOL, cauchy_G, cauchy_Gstar, laurent_tail
from .errors import UnsupportedWeightError
from .weights import WeightSpec

INNER_R = 0.4
OUTER_R = 2.5
SINGULARITY_CLEARANCE = 0.05
VERIFY_MIN_N = 2            # the Laurent-tail checks start at degree 2


@lru_cache(maxsize=8)       # one grid per weight, shared by the suites of a run
def standard_grid(w: WeightSpec) -> tuple[complex, ...]:
    """Sixteen points on two circles, avoiding weight singularities."""
    pts = []
    for r in (INNER_R, OUTER_R):
        for k in range(8):
            z = r * complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4))
            if all(abs(z - s) >= SINGULARITY_CLEARANCE for s in w.singular_points()):
                pts.append(z)
    return tuple(pts)


def circle_grid() -> list[complex]:
    """Eight circle points for the jump check, off the positive real axis."""
    return [complex(math.cos(t), math.sin(t))
            for t in ((k + 0.5) * math.pi / 4 for k in range(8))]


class Check(NamedTuple):
    """One entry of a suite's table.  ``points`` picks from the standard grid
    the points the residual is evaluated at (None: no point); the names in
    ``unplaced`` are reported without that point."""

    names: dict                 # check name -> tolerance, or tolerance by family
    residual: Callable          # f(v, w, n, z) -> one residual per name
    degrees: Callable = lambda nmax: range(2, nmax + 1)
    points: Callable = lambda grid: (None,)
    applies: Callable = lambda w: True
    unplaced: tuple = ()


def _tails(v, w, n, z):
    g, gs = laurent_tail(v, w, n)
    lead = -v.alpha(n).conjugate() / v.b[n]
    sub = (v.alpha(n).conjugate() / v.b[n] * v.phi1[n + 1]
           - v.alpha(n + 1).conjugate() / v.b[n + 1])
    return (abs(g[0] - lead), abs(g[1] - sub), abs(gs[0] + 1.0 / v.b[n - 1]),
            abs(gs[1] - v.phi1[n] / v.b[n - 1]))


def _closed_structure(v, w, n, z):
    Mnum = rh.structure_matrix_numeric(v, w, n, z)
    diff = structure.mtilde(v, w, n, z) - Mnum.scale(structure.pole_clearing_factor(w, z))
    return diff.frobenius(), structure.curvature_residual_closed(v, w, n, z)


def _closed(w: WeightSpec) -> bool:
    return w.kind in structure.CLOSED_FORMS


def _outer(grid):
    """The two structure points, one on each circle."""
    return grid[1], grid[len(grid) // 2 + 1]


# run walks a table entry by entry and report sorts the checks, so the order
# of the entries changes no report, only which error a run that cannot finish
# raises.  rh starts with the transfer entry: at weight values near the float
# limit (jacobi(300+2i)) its residual overflows at n = 1, an error that names
# the weight, before a det_unimodular transform at a higher degree fails to
# converge.  tests/test_cli.py pins each tolerance to the acceptance gate's.
SUITES = {
    "rh": (
        Check({"transfer_relation": 1e-8, "recurrence_phi": 1e-8, "recurrence_phistar": 1e-8,
               "recurrence_g": 1e-8, "recurrence_gstar": 1e-8},
              lambda v, w, n, z: (rh.transfer_residual(v, w, n, z),
                                  *rh.transfer_recurrence_residuals(v, w, n, z)),
              degrees=lambda nmax: range(1, nmax + 1), points=lambda grid: grid[1:2]),
        Check({"det_unimodular": 1e-8},
              lambda v, w, n, z: (abs(rh.assemble_Y(v, w, n, z).det() - 1.0),),
              degrees=lambda nmax: range(1, nmax + 1), points=lambda grid: grid),
        Check({"value_g_origin": 1e-9, "value_gstar_origin": 1e-9},
              lambda v, w, n, z: (abs(cauchy_G(v, w, n, 0.0) - 1.0 / v.b[n]),
                                  abs(cauchy_Gstar(v, w, n, 0.0)
                                      - v.alphas[n - 1] / v.b[n - 1])),
              degrees=lambda nmax: range(1, nmax + 1)),
        Check({"jump_condition": {"lebesgue": 1e-6, "bessel": 1e-6, "jacobi": 1e-5}},
              lambda v, w, n, t: (rh.jump_residual(v, w, n, t),),
              degrees=lambda nmax: (nmax,), points=lambda grid: circle_grid()),
        Check({"tail_g_leading": 1e-6, "tail_g_subleading": 1e-6,
               "tail_gstar_leading": 1e-6, "tail_gstar_subleading": 1e-6},
              _tails, degrees=lambda nmax: dict.fromkeys((2, nmax))),
    ),
    "structure": (
        Check({"curvature_generic": 1e-7, "curvature_second": 1e-6},
              lambda v, w, n, z: (structure.curvature_residual_generic(v, w, n, z),
                                  structure.second_curvature_residual(v, w, n, z)),
              points=_outer),
        Check({"second_order_generic": 1e-5, "first_order_traceback": 1e-5},
              lambda v, w, n, z: (structure.generic_second_order_residual(v, w, n, z),
                                  structure.traceback_residual(v, w, n, z)),
              points=lambda grid: _outer(grid)[1:]),
        Check({"closed_structure_matrix": 1e-6, "curvature_closed": 1e-9},
              _closed_structure, points=_outer, applies=_closed),
        Check({"structure_relation_three_term": 1e-9, "structure_relation_weighted": 1e-9},
              lambda v, w, n, z: structure.structure_relation_residuals(v, w, n),
              applies=_closed),
        Check({"first_order_phi": 1e-9, "first_order_g": 1e-7,
               "first_order_phistar": 1e-9, "first_order_gstar": 1e-7},
              lambda v, w, n, z: structure.first_order_residuals(v, w, n, z),
              points=lambda grid: _outer(grid)[:1], applies=_closed,
              unplaced=("first_order_phi", "first_order_phistar")),
        Check({"second_order_phi": 1e-9, "second_order_g": 1e-6,
               "second_order_phistar": 1e-9, "second_order_gstar": 1e-6},
              lambda v, w, n, z: structure.second_order_residuals(v, w, n, z),
              points=lambda grid: _outer(grid)[1:], applies=_closed,
              unplaced=("second_order_phi", "second_order_phistar")),
    ),
    "painleve": (
        Check({"dpii_relation": 1e-7},
              lambda v, w, n, z: (painleve.dpii_residual([a.real for a in v.alphas],
                                                         w.factors[0].ell, n),),
              applies=lambda w: w.kind == "bessel" and w.factors[0].ell > 0),
    ),
}

# The tolerance of every check, by name; jump_condition's depends on the family.
TOLERANCES = {name: tolerance for table in SUITES.values() for check in table
              for name, tolerance in check.names.items()}


@lru_cache(maxsize=64)     # the suites name the same few grid points again and again
def _fmt_z(z: complex | None) -> str | None:
    if z is None:
        return None
    return f"{z.real:.12g}{z.imag:+.12g}j"


def meta(w: WeightSpec, nmax: int, suite: str) -> dict:
    """The report's meta block for ``suite`` (a key of SUITES, or "all")."""
    return {"weight": w.label(), "nmax": nmax, "rtol": RTOL, "suite": suite,
            "grid": f"radii [{INNER_R}, {OUTER_R}], 8 angles each", "version": __version__}


def run(name: str, v, w: WeightSpec, nmax: int) -> list[dict]:
    """The checks of ``SUITES[name]`` at degrees up to nmax, one dict each;
    v is the table of degree nmax + 2."""
    if len(w.factors or ()) > 1:    # no check has a tolerance for a product yet
        raise UnsupportedWeightError(f"verify suites take one-factor weights, not "
                                     f"{w.label()}: products are ROADMAP item 12")
    grid = standard_grid(w)
    checks = []
    for c in SUITES[name]:
        if not c.applies(w):
            continue
        tolerances = [float(t[w.kind] if isinstance(t, dict) else t) for t in c.names.values()]
        points = c.points(grid)
        for n in c.degrees(nmax):
            for z in points:
                for check, tolerance, r in zip(c.names, tolerances, c.residual(v, w, n, z)):
                    checks.append({"name": check, "n": n,
                                   "z": None if check in c.unplaced else _fmt_z(z),
                                   "residual": float(r), "tolerance": tolerance,
                                   "pass": bool(r < tolerance)})
    return checks


def report(meta: dict, checks: list[dict]) -> dict:
    """The canonical report of checks: sorted by name, degree, then point."""
    checks = sorted(checks, key=lambda c: (c["name"], c["n"], c["z"] or ""))
    passed = sum(1 for c in checks if c["pass"])
    return {"meta": meta, "checks": checks, "summary": {
        "total": len(checks), "passed": passed, "failed": len(checks) - passed}}
