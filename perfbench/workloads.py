"""Seeded op lists for the benchmark workloads.

One op is one ``opuc`` command line.  A run repeats *rounds*: a round is the
workload's op list, with every weight parameter drawn afresh from the seed,
so no two ops of a run share a weight (and with it the program's memo and
``lru_cache`` entries, which a real command line, a fresh process, never
shares).

Parameters that set an op's cost (Jacobi ``lambda``, the ``eta`` of
verify-jacobi, table degrees, the Poisson-kernel radius) are drawn near the
centre of fixed cells of their range; the others are drawn uniformly.  The
cost of one op changes about 200-fold across the Jacobi ``lambda`` range, so
independent uniform draws over the few ops of a run would make the
run-to-run spread of every timing wider than any useful bound.  Fixed cells keep the mix of cheap,
costly and failing ops the same in every round and every seed, while the
seed still moves each parameter within its cell.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify-bessel", "verify-jacobi", "tables")

# Check counts of each verify report at the seed commit, by (family, n).
# A report with fewer checks fails the run, so that dropping checks cannot
# buy speed.
MIN_CHECKS = {
    ("bessel", 8): 347,
    ("bessel", 12): 523,
    ("bessel", 16): 699,
    ("jacobi", 6): 249,
    ("jacobi", 8): 333,
}

BESSEL_DEGREES = (8, 12, 16)
BESSEL_ELL = (1.0, 3.0)
JACOBI_DEGREES = (6, 8)
JACOBI_LAMBDA = (0.75, 2.0)
JACOBI_ETA = (-1.0, 1.0)
JACOBI_CELLS = 6
JITTER = 0.1                # share of a cell the seed may move a parameter

TABLE_DEGREES = (40, 200)
TABLE_DEGREE_CELLS = 4
TABLE_LAMBDA = (-0.5, 2.0)  # the whole advertised range, lambda > -1/2
TABLE_LAMBDA_CELLS = 10
CUSTOM_RADIUS = (0.1, 0.9)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Op:
    """One command line, without its output flag.

    ``family`` and ``params`` identify the weight; ``degree`` is ``--n`` or
    ``--jmax``.  A ``custom`` op names no moment file yet: the runner writes
    the Poisson-kernel table for ``params = (r, phi)`` and adds
    ``--moments``.
    """

    command: str
    family: str
    params: tuple[float, ...]
    degree: int

    def argv(self, moments_path: str | None = None) -> list[str]:
        if self.command == "verify":
            argv = ["verify", "all", "--weight", self.family]
        elif self.command == "dpii":
            argv = ["dpii"]
        else:
            argv = [self.command, "--weight", self.family]
        if self.family == "bessel":
            argv += ["--ell", repr(self.params[0])]
        elif self.family == "jacobi":
            argv += ["--lambda", repr(self.params[0]), "--eta", repr(self.params[1])]
        elif self.family == "custom":
            argv += ["--moments", moments_path]
        argv += ["--jmax" if self.command == "moments" else "--n", str(self.degree)]
        return argv

    @property
    def output_flag(self) -> str:
        return "--report" if self.command == "verify" else "--out"

    @property
    def weight_key(self) -> tuple | None:
        """Identity of the op's weight; None for the parameter-free Lebesgue."""
        if self.family == "lebesgue":
            return None
        return (self.family,) + self.params

    def twin(self) -> "Op":
        """Same op with every parameter moved by one part in 1e9.

        Does the same work as this op but shares no cached weight with it.
        """
        return Op(self.command, self.family,
                  tuple(p * (1.0 + 1e-9) for p in self.params), self.degree)


def _cell(rng: random.Random, k: int, cells: int, lo: float, hi: float) -> float:
    """A point of cell k of [lo, hi) cut into equal cells, near its centre."""
    return lo + (hi - lo) * (k + 0.5 + JITTER * (rng.random() - 0.5)) / cells


def _degree(rng: random.Random, k: int) -> int:
    return round(_cell(rng, k % TABLE_DEGREE_CELLS, TABLE_DEGREE_CELLS, *TABLE_DEGREES))


def _verify_bessel(rng: random.Random) -> list[Op]:
    return [Op("verify", "bessel", (rng.uniform(*BESSEL_ELL),), n)
            for n in BESSEL_DEGREES]


def _verify_jacobi(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(JACOBI_CELLS):
        lam = _cell(rng, k, JACOBI_CELLS, *JACOBI_LAMBDA)
        # eta cells are paired with lambda cells by a fixed golden-ratio walk
        eta_cell = int((k * _GOLDEN) % 1.0 * JACOBI_CELLS)
        eta = _cell(rng, eta_cell, JACOBI_CELLS, *JACOBI_ETA)
        ops.append(Op("verify", "jacobi", (lam, eta), JACOBI_DEGREES[k % 2]))
    return ops


def _tables(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(TABLE_DEGREE_CELLS):
        for command in ("moments", "verblunsky"):
            ops.append(Op(command, "lebesgue", (), _degree(rng, k)))
            r = _cell(rng, k, TABLE_DEGREE_CELLS, *CUSTOM_RADIUS)
            ops.append(Op(command, "custom", (r, rng.uniform(0.0, 2.0 * math.pi)),
                          _degree(rng, k)))
        for command in ("moments", "verblunsky", "dpii"):
            ops.append(Op(command, "bessel", (rng.uniform(*BESSEL_ELL),),
                          _degree(rng, k)))
    for k in range(TABLE_LAMBDA_CELLS):
        lam = _cell(rng, k, TABLE_LAMBDA_CELLS, *TABLE_LAMBDA)
        ops.append(Op(("moments", "verblunsky")[k % 2], "jacobi",
                      (lam, rng.uniform(*JACOBI_ETA)), _degree(rng, k)))
    return ops


_ROUNDS = {
    "verify-bessel": _verify_bessel,
    "verify-jacobi": _verify_jacobi,
    "tables": _tables,
}


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    """The op list of round ``index`` of a run; a pure function of its inputs."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}:{index}"))


def poisson_moments(r: float, phi: float, jmax: int) -> list[tuple[int, complex]]:
    """Moments c_j = 2 pi r^|j| e^{-i j phi} of the Poisson-kernel weight.

    The weight (1 - r^2) / |1 - r e^{i(theta - phi)}|^2 has Verblunsky
    coefficients alpha_0 = r e^{-i phi} and alpha_n = 0 for n >= 1.
    """
    return [(j, 2.0 * math.pi * r ** abs(j) * cmath.exp(-1j * j * phi))
            for j in range(-jmax, jmax + 1)]
