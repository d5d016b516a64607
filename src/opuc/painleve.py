"""Discrete Painleve II relation for the exponential-of-cosine weight.

The recurrence coefficients are real and satisfy the nonlinear three-term
relation

    alpha_n + alpha_{n-2} = -(2 n / ell) alpha_{n-1} / (1 - alpha_{n-1}^2),

checked here as a residual on coefficients computed from the moments.
"""

from __future__ import annotations

POLE_MARGIN = 1e-12


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

