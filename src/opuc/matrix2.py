"""Small 2x2 complex matrix type used for the matrix-valued identities."""

from __future__ import annotations

import math
from dataclasses import dataclass

_DET_FLOOR = 1e-300


@dataclass(slots=True)
class Matrix2C:
    """2x2 complex matrix with the handful of operations we need.

    No operation changes a matrix; each returns a new one.  The class is
    slotted rather than frozen, which makes a matrix about three times
    cheaper to build; the memos of ``opuc.rh`` and ``opuc.structure`` hand
    the same matrix to every caller, so no caller may assign to one.
    """

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    @classmethod
    def identity(cls) -> "Matrix2C":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diag(cls, d1: complex, d2: complex) -> "Matrix2C":
        return cls(d1, 0.0, 0.0, d2)

    def det(self) -> complex:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> complex:
        return self.a11 + self.a22

    def inv(self) -> "Matrix2C":
        d = self.det()
        if abs(d) < _DET_FLOOR:
            raise ZeroDivisionError("matrix is numerically singular")
        return Matrix2C(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)

    def frobenius(self) -> float:
        return math.sqrt(
            abs(self.a11) ** 2 + abs(self.a12) ** 2 + abs(self.a21) ** 2 + abs(self.a22) ** 2
        )

    def __matmul__(self, other: "Matrix2C") -> "Matrix2C":
        return Matrix2C(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __add__(self, other: "Matrix2C") -> "Matrix2C":
        return Matrix2C(
            self.a11 + other.a11, self.a12 + other.a12,
            self.a21 + other.a21, self.a22 + other.a22,
        )

    def __sub__(self, other: "Matrix2C") -> "Matrix2C":
        return Matrix2C(
            self.a11 - other.a11, self.a12 - other.a12,
            self.a21 - other.a21, self.a22 - other.a22,
        )

    def __neg__(self) -> "Matrix2C":
        return Matrix2C(-self.a11, -self.a12, -self.a21, -self.a22)

    def scale(self, c: complex) -> "Matrix2C":
        return Matrix2C(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a11, self.a12, self.a21, self.a22)
