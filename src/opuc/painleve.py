"""Discrete Painleve II relation for the exponential-of-cosine weight.

With H == 1 the recurrence coefficients are real and satisfy the nonlinear
three-term relation

    alpha_n + alpha_{n-2} = -(2 n / ell) alpha_{n-1} / (1 - alpha_{n-1}^2),

which lets the whole sequence be iterated from two seeds.  Iterating
forward is numerically unstable (the fixed point is repulsive), so the
orbit records where it leaves the unit disk.
"""

from __future__ import annotations

from dataclasses import dataclass

POLE_MARGIN = 1e-12


@dataclass(frozen=True)
class DpiiOrbit:
    """An iterated orbit of the three-term relation."""

    ell: float
    alphas: tuple[float, ...]
    diverged_at: int | None

    @property
    def length(self) -> int:
        return len(self.alphas)


def dpii_residual(alphas, ell: float, n: int) -> float:
    """|alpha_n + alpha_{n-2} + (2n/ell) alpha_{n-1}/(1 - alpha_{n-1}^2)|."""
    if ell <= 0:
        raise ValueError("relation requires ell > 0")
    if n < 2:
        raise ValueError("relation defined for n >= 2")
    am1 = float(alphas[n - 1])
    denom = 1.0 - am1 * am1
    if abs(denom) < POLE_MARGIN:
        raise ZeroDivisionError(f"alpha_{n - 1} is at a pole of the relation")
    return abs(float(alphas[n]) + float(alphas[n - 2])
               + (2.0 * n / ell) * am1 / denom)


def dpii_iterate(alpha0: float, alpha1: float, ell: float, nmax: int) -> DpiiOrbit:
    """Iterate the relation forward from (alpha_0, alpha_1) up to alpha_nmax.

    Stops early (recording diverged_at) once an iterate leaves the open unit
    interval or hits a pole; forward iteration amplifies seed error, so long
    orbits from rounded seeds are expected to blow up.
    """
    if ell <= 0:
        raise ValueError("relation requires ell > 0")
    seq = [float(alpha0), float(alpha1)]
    diverged = None
    for n in range(2, nmax + 1):
        am1 = seq[-1]
        denom = 1.0 - am1 * am1
        if abs(denom) < POLE_MARGIN:
            diverged = n
            break
        nxt = -seq[-2] - (2.0 * n / ell) * am1 / denom
        seq.append(nxt)
        if abs(nxt) >= 1.0:
            diverged = n
            break
    return DpiiOrbit(ell, tuple(seq), diverged)
